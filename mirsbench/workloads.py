"""The three workloads: cold serial, cold two-worker and warm service.

Each is a closed loop driven by one client (this process).  A run sets
up ``SETUPS`` times (the last set-up is kept), then repeats whole rounds
of the same requests, as many as come nearest to ``--seconds`` (and at
least ``MIN_REQUESTS`` requests).  Each round's outputs are checked
right after the round, outside the timed interval, and then dropped, so
memory does not grow with the number of rounds.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    FIGURE6_ORGS,
    MIN_REQUESTS,
    N_COLD_LOOPS,
    OUT,
    SETUPS,
    TIER,
    WARM_ORGS,
    WARM_ROUND_LOOPS,
    WARM_SHARD_SIZE,
    child_env,
    descendants,
    exec_time_us,
    import_seconds,
    peak_rss_mb,
)
import checks
from spans import REQUEST_HEADER

#: Client poll interval of the warm service: far below a job's duration
#: (tens to hundreds of milliseconds), so it does not quantize latency.
POLL_INTERVAL_S = 0.005
#: Poll interval while the set-up fills the store (jobs of seconds).
FILL_POLL_INTERVAL_S = 0.05
#: Results of a pass arriving this close together came from one chunk.
CHUNK_TOGETHER_S = 0.001

#: Scheduler counters summed over the fresh results of the timed phase.
TELEMETRY_FIELDS = ("attempts", "attempts_failed", "restarts", "n_slot_probes",
                    "n_probe_memo_hits", "n_pressure_checks", "n_analysis_reuses",
                    "scheduling_time_s", "results")

Window = Tuple[int, int]


@dataclass
class Run:
    """What one run measured, checked and traced."""

    workload: str
    seed: int
    setup_s: List[float] = field(default_factory=list)
    #: ``(start_ns, end_ns)`` intervals of the last set-up, the timed
    #: rounds and the checks.
    windows: Dict[str, List[Window]] = field(
        default_factory=lambda: {"setup": [], "timed": [], "check": []})
    latencies: List[float] = field(default_factory=list)
    #: One fault list per request (empty = correct).
    faults: List[List[str]] = field(default_factory=list)
    delivered: int = 0
    rounds: int = 0
    timed_s: float = 0.0
    #: ``(requests, delivered, timed_s)`` running totals after each round.
    round_marks: List[Tuple[int, int, float]] = field(default_factory=list)
    #: Sums of the scheduler counters of freshly scheduled results.
    telemetry: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(TELEMETRY_FIELDS, 0))
    #: The distinct loop-organization runs (schedule quality, execution time).
    distinct: list = field(default_factory=list)
    #: Faults of each distinct run, by (loop name, organization).
    distinct_faults: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: Per-layer values measured directly rather than from spans.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Server trace payloads of the traced warm service.
    server_traces: Dict[str, Dict] = field(default_factory=dict)
    #: Seconds of the simulated execution, validation and differential checks.
    check_s: Dict[str, float] = field(
        default_factory=lambda: {"simulate": 0.0, "validate": 0.0, "differential": 0.0})

    def add_results(self, results) -> None:
        """Count fresh schedules and sum the counters they carry."""
        sums = self.telemetry
        for result in results:
            tried = [ii for ii in result.attempted_iis if isinstance(ii, int)]
            sums["attempts"] += len(tried)
            # Every failed attempt of a successful search lies below its II
            # (upward failures precede it, bisection failures bound it).
            sums["attempts_failed"] += sum(
                1 for ii in tried if not result.success or ii < result.ii)
            for name in ("restarts", "n_slot_probes", "n_probe_memo_hits",
                         "n_pressure_checks", "n_analysis_reuses", "scheduling_time_s"):
                sums[name] += getattr(result, name)
            sums["results"] += 1

    def check_distinct(self, runs) -> None:
        """Validate and differentially check the distinct runs; simulate them."""
        self.distinct = list(runs)
        found, validate_s, differential_s = checks.check_distinct(self.distinct)
        self.check_s["validate"] += validate_s
        self.check_s["differential"] += differential_s
        for item, faults in zip(self.distinct, found):
            self.distinct_faults[(item.loop.name, item.result.config_name)] = faults
        started = time.perf_counter()
        self.layer["exec_time_us"] = exec_time_us(self.distinct, self.seed)
        self.check_s["simulate"] += time.perf_counter() - started

    def result_faults(self, result, round_: int) -> List[str]:
        """Faults of one delivered schedule and of its loop-organization.

        Round 0 delivered the distinct runs, which ``check_distinct``
        already validated; later rounds' schedules are validated here.
        """
        distinct = self.distinct_faults.get((result.loop_name, result.config_name))
        if round_ == 0 and distinct is not None:
            return list(distinct)
        started = time.perf_counter()
        found = checks.schedule_faults(result)
        self.check_s["validate"] += time.perf_counter() - started
        return found + (distinct or [])


def _now() -> int:
    return time.monotonic_ns()


def _call(tracer, name: str, request: str, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    tracer.request = request
    try:
        return tracer.call(name, fn, *args, **kwargs)
    finally:
        tracer.request = ""


def _setup(run: Run, body: Callable[[], object]):
    """Time one set-up: a fresh interpreter's imports plus ``body``."""
    imports = import_seconds()
    mark = _now()
    started = time.perf_counter()
    state = body()
    run.setup_s.append(imports + time.perf_counter() - started)
    run.windows["setup"] = [(mark, _now())]
    return state


def _rounds(run: Run, seconds: float, do_round, check_round) -> None:
    """Timed rounds, each followed by its (untimed) checks.

    ``do_round(round, pause)`` may also check an output inside the round
    under ``with pause():``, which stops the clock meanwhile.
    """
    clock: Dict[str, float] = {}

    def start() -> None:
        clock["mark"] = _now()
        clock["started"] = time.perf_counter()

    def stop() -> None:
        run.timed_s += time.perf_counter() - clock["started"]
        run.windows["timed"].append((int(clock["mark"]), _now()))

    @contextlib.contextmanager
    def pause():
        stop()
        mark = _now()
        try:
            yield
        finally:
            run.windows["check"].append((mark, _now()))
            start()

    while True:
        # What the benchmark holds (inputs, set-up results, counters) is
        # kept out of the collector's scans, so the client's own
        # bookkeeping does not slow the timed requests.
        gc.collect()
        gc.freeze()
        before = run.timed_s
        start()
        state = do_round(run.rounds, pause)
        stop()
        mark = _now()
        check_round(run.rounds, state)
        run.windows["check"].append((mark, _now()))
        run.rounds += 1
        run.round_marks.append((len(run.latencies), run.delivered, run.timed_s))
        # Stop at the whole number of rounds nearest to ``seconds``.
        if (run.timed_s + (run.timed_s - before) / 2 >= seconds
                and len(run.latencies) >= MIN_REQUESTS):
            break


# --------------------------------------------------------------------------- #
# cold_serial
# --------------------------------------------------------------------------- #
def cold_serial(seed: int, seconds: float, tracer) -> Run:
    from repro.eval.metrics import LoopRun
    from repro.eval.shards import runs_digest
    from repro.session import Session

    run = Run("cold_serial", seed)

    def setup():
        session = Session(jobs=1)
        return session, session.workbench(n_loops=N_COLD_LOOPS, tier=TIER)

    for _ in range(SETUPS):
        session, loops = _setup(run, setup)
    rng = random.Random(seed)
    pairs = [(index, org) for org in FIGURE6_ORGS for index in range(len(loops))]
    expected = checks.load_expected_digests()
    spec = {org: checks.machine_for(org)[2] for org in FIGURE6_ORGS}

    def do_round(round_, pause):
        order = list(pairs)
        rng.shuffle(order)
        done = []
        for index, org in order:
            began = time.perf_counter()
            try:
                result = _call(tracer, "client.request", f"{round_}:{org}:{index}",
                               session.schedule_kernel, loops[index], org)
            except Exception as exc:  # a crashed request is a failed one
                result = exc
            run.latencies.append(time.perf_counter() - began)
            done.append((index, org, result))
        return done

    def check_round(round_, done):
        results = {(index, org): result for index, org, result in done}
        ok = [result for result in results.values() if not isinstance(result, Exception)]
        run.add_results(ok)
        run.delivered += len(ok)
        org_faults = {}
        distinct = []
        for org in FIGURE6_ORGS:
            got = [results[(index, org)] for index in range(len(loops))]
            if any(isinstance(result, Exception) for result in got):
                org_faults[org] = [f"round {round_} {org}: a request failed"]
                continue
            runs = [LoopRun(loop=loop, result=result, spec=spec[org])
                    for loop, result in zip(loops, got)]
            distinct += runs
            org_faults[org] = checks.digest_faults(
                f"round {round_} {org}", runs_digest(runs), expected[org])
        if round_ == 0:
            run.check_distinct(distinct)
        for index, org, result in done:
            if isinstance(result, Exception):
                run.faults.append([f"{org}:{index}: {result!r}"])
                continue
            run.faults.append(run.result_faults(result, round_) + org_faults[org])

    try:
        _rounds(run, seconds, do_round, check_round)
        run.peak_rss_mb = peak_rss_mb([os.getpid()])
    finally:
        session.close()
    return run


# --------------------------------------------------------------------------- #
# cold_jobs2
# --------------------------------------------------------------------------- #
def cold_jobs2(seed: int, seconds: float, tracer) -> Run:
    from repro.eval.shards import runs_digest
    from repro.session import RunReady, Session

    run = Run("cold_jobs2", seed)

    def setup():
        session = Session(jobs=2)
        loops = session.workbench(n_loops=N_COLD_LOOPS, tier=TIER)
        started = time.perf_counter()
        # The pool forks its workers on the first task; wait until they run.
        list(session.executor().map(abs, range(2)))
        run.layer["session.pool_start_s"] = time.perf_counter() - started
        return session, loops

    session = None
    for _ in range(SETUPS):
        if session is not None:
            session.close()
        session, loops = _setup(run, setup)
    rng = random.Random(seed)
    expected = checks.load_expected_digests()
    passes: List[Tuple[float, float]] = []  # (first result, tail gap) per pass

    def do_round(round_, pause):
        orgs = list(FIGURE6_ORGS)
        rng.shuffle(orgs)
        done = []
        for org in orgs:
            runs: List = [None] * len(loops)
            arrivals: List[float] = []
            began = time.perf_counter()

            def stream():
                for event in session.evaluate_stream(org, loops=loops, events=True):
                    if isinstance(event, RunReady):
                        arrivals.append(time.perf_counter() - began)
                        runs[event.position] = event.run

            try:
                _call(tracer, "client.pass", f"{round_}:{org}", stream)
            except Exception:  # missing results fail their requests below
                pass
            run.latencies.extend(arrivals)
            done.append((org, runs, arrivals))
        return done

    def check_round(round_, done):
        pass_faults = []
        distinct = []
        for org, runs, arrivals in done:
            # Results of one finished chunk arrive together; the tail gap is
            # the wait for the last chunk after the one before it.
            earlier = [at for at in arrivals if at < arrivals[-1] - CHUNK_TOGETHER_S] if arrivals else []
            if earlier:
                passes.append((arrivals[0], arrivals[-1] - earlier[-1]))
            if any(item is None for item in runs):
                pass_faults.append([f"round {round_} {org}: missing results"])
                continue
            distinct += runs
            pass_faults.append(checks.digest_faults(
                f"round {round_} {org}", runs_digest(runs), expected[org]))
        if round_ == 0:
            run.check_distinct(distinct)
        for (org, runs, _), faults in zip(done, pass_faults):
            for item in runs:
                if item is None:
                    run.faults.append([f"{org}: no result"])
                    continue
                run.add_results([item.result])
                run.delivered += 1
                run.faults.append(run.result_faults(item.result, round_) + faults)

    try:
        _rounds(run, seconds, do_round, check_round)
        run.peak_rss_mb = peak_rss_mb([os.getpid(), *descendants(os.getpid())])
    finally:
        session.close()
    busy = run.telemetry["scheduling_time_s"]
    run.layer["parallel.worker_busy_s"] = busy / run.rounds
    run.layer["parallel.busy_share"] = busy / (2 * run.timed_s)
    if passes:
        run.layer["parallel.first_result_ms"] = 1e3 * median([first for first, _ in passes])
        run.layer["parallel.tail_gap_ms"] = 1e3 * median([gap for _, gap in passes])
    return run


# --------------------------------------------------------------------------- #
# warm_service
# --------------------------------------------------------------------------- #
class Server:
    """One ``repro serve`` child process over a work directory's files."""

    def __init__(self, workdir: Path, name: str, traced: bool) -> None:
        self.log_path = workdir / f"{name}.log"
        command = [sys.executable, str(BENCH_DIR / "serve.py")]
        if traced:
            command += ["--trace-out", str(workdir / f"{name}-trace.json")]
        command += ["--", "serve", "--port", "0",
                    "--db", str(workdir / "runs.sqlite"),
                    "--checkpoint", str(workdir / "shards"),
                    "--shard-size", str(WARM_SHARD_SIZE), "--jobs", "2"]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT,
                                         env=child_env(), cwd=BENCH_DIR.parent)
        self.url = self._wait_for_url()

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            for line in self.log_path.read_text().splitlines():
                if "listening on http://" in line:
                    return line.split()[4]
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"the server did not start; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb([self.proc.pid, *descendants(self.proc.pid)])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


def _http(url: str, request: str, body: Optional[Dict] = None) -> bytes:
    data = None if body is None else json.dumps(body).encode()
    headers = {REQUEST_HEADER: request}
    if data is not None:
        headers["Content-Type"] = "application/json"
    with urllib.request.urlopen(urllib.request.Request(url, data=data, headers=headers),
                                timeout=120) as response:
        return response.read()


@dataclass
class ServiceRequest:
    """One evaluate job on the first ``n_loops`` loops of the tier, as the client saw it."""

    org: str
    n_loops: int
    latency: float = 0.0
    job_id: str = ""
    polls: int = 0
    #: The final status (with the embedded result) and its size on the wire.
    status: Dict = field(default_factory=dict)
    status_bytes: int = 0
    report_csv: str = ""
    error: str = ""


def job_request(url: str, job: ServiceRequest, request: str, poll_s: float) -> ServiceRequest:
    """Submit an evaluate job, poll it to its end, then read its report."""
    params = {"config": job.org, "tier": TIER, "n_loops": job.n_loops}
    began = time.perf_counter()
    job.job_id = json.loads(_http(f"{url}/v2/jobs", request,
                                  {"kind": "evaluate", "params": params}))["job_id"]
    while True:
        # A finished job's status embeds its result envelope, so the poll
        # that sees the end is also the result fetch.
        body = _http(f"{url}/v2/jobs/{job.job_id}", request)
        job.polls += 1
        job.status = json.loads(body)
        if job.status["state"] not in ("queued", "running"):
            job.status_bytes = len(body)
            break
        time.sleep(poll_s)
    job.report_csv = _http(f"{url}/v2/report?config={job.org}&format=csv", request).decode()
    job.latency = time.perf_counter() - began
    return job


def warm_service(seed: int, seconds: float, tracer) -> Run:
    from repro import serialize

    run = Run("warm_service", seed)
    traced = tracer is not None
    base = OUT / "work" / f"warm-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    workdir = base
    fills: Dict[str, ServiceRequest] = {}
    fill_peak = [0.0]

    def setup():
        filler = Server(workdir, "fill", traced)
        try:
            for org in WARM_ORGS:
                fills[org] = job_request(filler.url, ServiceRequest(org, WARM_ROUND_LOOPS),
                                         f"fill:{org}", FILL_POLL_INTERVAL_S)
            fill_peak[0] = filler.peak_rss_mb()
        finally:
            filler.stop()
        # Every round starts from the filled store: keep a copy of the run
        # database (the shard store is only read by the timed jobs).
        (workdir / "filled").mkdir()
        for path in _db_files(workdir):
            shutil.copy2(path, workdir / "filled" / path.name)
        # Restart over the same files: the timed phase reads what the
        # first process stored.
        return _serve(workdir, "serve0", traced)

    server: Optional[Server] = None
    try:
        for attempt in range(SETUPS):
            if server is not None:
                server.stop()
                shutil.rmtree(workdir)
            workdir = base / f"setup{attempt}"
            workdir.mkdir(parents=True)
            server = _setup(run, setup)
        fill_runs = {}
        for org, fill in fills.items():
            if fill.status.get("state") != "done":
                raise RuntimeError(f"filling the store with {org} failed: {fill.status.get('error')}")
            fill_runs[org] = serialize.from_dict(fill.status["result"]).runs
        fills.clear()
        run.check_distinct(item for org in WARM_ORGS for item in fill_runs[org])
        expected = {org: checks.prefix_digests(runs, WARM_SHARD_SIZE)
                    for org, runs in fill_runs.items()}

        rng = random.Random(seed)
        prefixes = list(range(WARM_SHARD_SIZE, WARM_ROUND_LOOPS, WARM_SHARD_SIZE))
        executed: List[Tuple[float, float, float]] = []
        polls = [0]
        serve_peak = [0.0]
        result_bytes = [0]

        def do_round(round_, pause):
            nonlocal server
            if round_:
                # A repeated sweep starts like the first: a freshly started
                # server over the filled store, with no job of the sweep in it.
                with pause():
                    serve_peak[0] = max(serve_peak[0], server.peak_rss_mb())
                    server.stop()
                    for path in _db_files(workdir):
                        path.unlink()
                    for path in (workdir / "filled").iterdir():
                        shutil.copy2(path, workdir / path.name)
                    server = _serve(workdir, f"serve{round_}", traced)
            #: (organization, loops) -> result envelope of the latest first job
            first: Dict[Tuple[str, int], Dict] = {}
            rng.shuffle(prefixes)
            for prefix in prefixes:
                for org, n_loops in ((WARM_ORGS[0], prefix),
                                     (WARM_ORGS[1], WARM_ROUND_LOOPS - prefix)):
                    # The first job for a prefix is served from the shard
                    # store; the repeat of the same content from the jobs table.
                    for kind in ("first", "repeat"):
                        job = ServiceRequest(org, n_loops)
                        request = f"{org}:{n_loops}:{kind}"
                        try:
                            _call(tracer, "client.request", request, job_request,
                                  server.url, job, request, POLL_INTERVAL_S)
                        except Exception as exc:  # a failed request is counted below
                            job.error = repr(exc)
                        run.latencies.append(job.latency)
                        # Checked at once (clock stopped), so the client
                        # never holds more than one result.
                        with pause():
                            run.faults.append(job_faults(job, first))
                            polls[0] += job.polls

        def job_faults(job: ServiceRequest, first: Dict) -> List[str]:
            if job.error:
                return [f"{job.org}:{job.n_loops}: {job.error}"]
            result_bytes[0] += job.status_bytes
            status = job.status
            if status["state"] != "done":
                return [f"{job.job_id}: state {status['state']}: {status.get('error')}"]
            key = (job.org, job.n_loops)
            found = []
            if key not in first:
                executed.append((status["submitted_at"], status["started_at"],
                                 status["finished_at"]))
                found += checks.roundtrip_faults(status["result"])
                first.clear()
                first[key] = status["result"]
            elif status["result"] != first[key]:
                found.append(f"{job.job_id}: repeated result differs from the first")
            found += checks.digest_faults(job.job_id, status["runs_digest"],
                                          expected[job.org][job.n_loops])
            runs = status["result"]["data"]["runs"]
            run.delivered += len(runs)
            # Equal digests make these runs the set-up's checked schedules.
            for item in fill_runs[job.org][:job.n_loops]:
                found += run.distinct_faults[(item.loop.name, job.org)]
            iis = [entry["result"]["ii"] for entry in runs]
            return found + checks.run_table_faults(job.report_csv, job.job_id, iis)

        # A round is one sweep over every prefix.
        _rounds(run, seconds, do_round, lambda round_, state: None)
        run.layer["store.db_bytes"] = sum(path.stat().st_size for path in _db_files(workdir))
        serve_peak[0] = max(serve_peak[0], server.peak_rss_mb())
        run.peak_rss_mb = peak_rss_mb([os.getpid()]) + max(fill_peak[0], serve_peak[0])
    finally:
        if server is not None:
            server.stop()
    if traced:
        for path in sorted(workdir.glob("*-trace.json")):
            run.server_traces[path.name[:-len("-trace.json")]] = json.loads(path.read_text())
    shutil.rmtree(base, ignore_errors=True)

    run.layer["serialize.result_bytes"] = result_bytes[0] / run.rounds
    run.layer["service.queue_wait_ms"] = _mean_ms(
        [started - submitted for submitted, started, _ in executed])
    run.layer["service.run_ms"] = _mean_ms(
        [finished - started for _, started, finished in executed])
    run.layer["service.polls_per_request"] = polls[0] / len(run.latencies)
    return run


def _db_files(workdir: Path) -> List[Path]:
    """The run database of a work directory with its WAL and shared-memory files."""
    return sorted(workdir.glob("runs.sqlite*"))


def _serve(workdir: Path, name: str, traced: bool) -> Server:
    server = Server(workdir, name, traced)
    json.loads(_http(f"{server.url}/v2/health", "health"))
    return server


def _mean_ms(values: List[float]) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0


WORKLOADS = {
    "cold_serial": cold_serial,
    "cold_jobs2": cold_jobs2,
    "warm_service": warm_service,
}
