"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded only around calls *into* the program's layers, by
wrappers this file installs on the public functions of each layer (plus
two private boundaries that have no public equivalent: one II attempt,
``SchedulerEngine._try``, and one service job, ``BatchScheduler._execute``).
The program itself is not modified.

A span is ``(id, parent, name, start_ns, end_ns, thread, request)``.
Parents come from a per-thread stack, so nested calls in one thread form a
tree; ``request`` is the client request the span serves (spans of one
request share it, across the client and the server process).  Times use
``time.monotonic_ns``, which reads the same system-wide clock in every
process of the machine, so client and server spans line up.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

Span = Tuple[int, int, str, int, int, int, str]

#: HTTP header carrying the client's request id to the traced server.
REQUEST_HEADER = "X-Bench-Request"


class Tracer:
    """Collects spans in memory; nothing is written until :meth:`dump`."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: job id -> client request id, filled when a job is submitted.
        self.job_requests: Dict[str, str] = {}
        #: Event counts recorded by the wrappers (rows written, bytes read...).
        self.counters: Dict[str, int] = {}

    # -- request identity ------------------------------------------------ #
    @property
    def request(self) -> str:
        return getattr(self._local, "request", "")

    @request.setter
    def request(self, value: str) -> None:
        self._local.request = value

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording --------------------------------------------------------- #
    def call(self, name, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span.

        ``name`` is the span's name, or a function of ``fn``'s return value
        (``None`` when it raised) that names the span after the outcome.
        """
        if os.getpid() != self.pid:
            # A forked worker inherits the wrappers but nobody collects its
            # spans: run the layer untraced there.
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.monotonic_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic_ns()
            stack.pop()
            label = name if isinstance(name, str) else name(result)
            with self._lock:
                self.spans.append((span_id, parent, label, start, end,
                                   threading.get_ident(), self.request))

    def wrapped(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a function or method) by a traced one."""
        setattr(owner, attr, self.wrapped(name, getattr(owner, attr)))

    def patch_factory(self, owner: object, attr: str, name: str) -> None:
        """Trace every function that the factory ``owner.attr`` returns."""
        factory = getattr(owner, attr)

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrapped(name, factory(*args, **kwargs))

        setattr(owner, attr, traced_factory)

    # -- output ------------------------------------------------------------ #
    def payload(self) -> Dict:
        return {"process": self.process, "pid": self.pid, "spans": self.spans,
                "counters": self.counters}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.payload()))


# --------------------------------------------------------------------------- #
# Layer wrappers
# --------------------------------------------------------------------------- #
def install_engine_wrappers(tracer: Tracer) -> None:
    """Scheduler, MII analysis and engine-build wrappers (any process)."""
    import repro.core.analysis_cache as analysis_cache
    import repro.core.engine as engine
    import repro.eval.experiments as experiments
    import repro.session.core as session_core

    tracer.patch(session_core, "build_workbench", "workloads.build")
    tracer.patch(experiments, "scaled_machine", "hwmodel.scaled_machine")
    tracer.patch(engine, "compute_mii", "ddg.compute_mii")
    tracer.patch(analysis_cache, "rec_mii", "ddg.compute_mii")
    tracer.patch(analysis_cache, "res_mii_components", "ddg.compute_mii")
    tracer.patch(engine.SchedulerEngine, "schedule_loop", "core.schedule_loop")
    attempt = engine.SchedulerEngine._try

    def traced_attempt(self, *args):
        return tracer.call(_attempt_outcome, attempt, self, *args)

    engine.SchedulerEngine._try = traced_attempt
    tracer.patch_factory(engine, "ordering_policy", "core.order")
    tracer.patch_factory(engine, "cluster_policy", "core.cluster_select")
    tracer.patch(engine, "plan_communication", "core.communication")
    tracer.patch(engine, "check_and_insert_spill", "core.spill")
    tracer.patch(engine, "cleanup_after_eject", "core.eject")


def _attempt_outcome(schedule) -> str:
    """One II attempt returns ``None`` when it fails at that II."""
    return "core.attempt.failed" if schedule is None else "core.attempt.ok"


def install_service_wrappers(tracer: Tracer) -> None:
    """Serialization, cache, shard store, run table, service and report."""
    import repro.report as report
    import repro.serialize as serialize
    import repro.eval.shards as shards
    from repro.eval.cache import EvalCache
    from repro.service.batch import BatchScheduler
    from repro.service.http import _Handler
    from repro.store.db import RunDatabase

    tracer.patch(serialize, "to_dict", "serialize.to_dict")
    tracer.patch(serialize, "loop_run_to_dict", "serialize.loop_run_to_dict")
    tracer.patch(serialize, "from_dict", "serialize.from_dict")
    tracer.patch(shards, "runs_digest", "shards.runs_digest")
    tracer.patch(shards.ResultStore, "put", "shards.put")
    tracer.patch(RunDatabase, "update_job", "store.update_job")
    tracer.patch(RunDatabase, "query_runs", "store.query_runs")
    tracer.patch(report, "build_report", "report.build")
    tracer.patch(report, "render_csv", "report.render")
    tracer.patch(report, "render_html", "report.render")

    counters = tracer.counters
    counters.update(add_runs_rows=0, shard_bytes=0, shard_hits=0,
                    shard_misses=0, cache_hits=0, cache_misses=0)

    add_runs = RunDatabase.add_runs

    def traced_add_runs(self, rows):
        counters["add_runs_rows"] += len(rows)
        return tracer.call("store.add_runs", add_runs, self, rows)

    RunDatabase.add_runs = traced_add_runs

    store_get = shards.ResultStore.get

    def traced_store_get(self, shard):
        runs = tracer.call("shards.get", store_get, self, shard)
        if runs is None:
            counters["shard_misses"] += 1
        else:
            counters["shard_hits"] += 1
            counters["shard_bytes"] += self.path_for(shard.key).stat().st_size
        return runs

    shards.ResultStore.get = traced_store_get

    cache_get = EvalCache.get

    def traced_cache_get(self, key):
        run = cache_get(self, key)
        counters["cache_hits" if run is not None else "cache_misses"] += 1
        return run

    EvalCache.get = traced_cache_get

    submit = BatchScheduler.submit

    def traced_submit(self, request, **kwargs):
        job_id = tracer.call("service.submit", submit, self, request, **kwargs)
        tracer.job_requests.setdefault(job_id, tracer.request)
        return job_id

    BatchScheduler.submit = traced_submit

    execute = BatchScheduler._execute

    def traced_execute(self, record):
        tracer.request = tracer.job_requests.get(record.job_id, "")
        try:
            return tracer.call("service.job", execute, self, record)
        finally:
            tracer.request = ""

    BatchScheduler._execute = traced_execute

    for verb in ("do_GET", "do_POST"):
        handler = getattr(_Handler, verb)

        def traced_handler(self, _handler=handler):
            tracer.request = self.headers.get(REQUEST_HEADER, "")
            try:
                return tracer.call("service.http", _handler, self)
            finally:
                tracer.request = ""

        setattr(_Handler, verb, traced_handler)


# --------------------------------------------------------------------------- #
# Summaries
# --------------------------------------------------------------------------- #
def load_spans(payloads: Iterable[Dict]) -> List[Dict]:
    """Flatten tracer payloads into span dicts with process-unique ids."""
    spans: List[Dict] = []
    for payload in payloads:
        process = payload["process"]
        for span_id, parent, name, start, end, thread, request in payload["spans"]:
            spans.append({
                "id": (process, span_id),
                "parent": (process, parent) if parent else None,
                "name": name, "start": start, "end": end,
                "process": process, "pid": payload["pid"],
                "thread": thread, "request": request,
            })
    return spans


def within(spans: Sequence[Dict], windows: Sequence[Tuple[int, int]]) -> List[Dict]:
    """Spans that start inside one of the ``[start, end)`` windows."""
    return [span for span in spans
            if any(lo <= span["start"] < hi for lo, hi in windows)]


def _covered(intervals: List[Tuple[int, int]]) -> int:
    total = 0
    cursor = None
    for start, end in sorted(intervals):
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total


def summarize(spans: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the part of its interval that its
    child spans cover.
    """
    children: Dict[object, List[Tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    summary: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        inner = [
            (max(start, span["start"]), min(end, span["end"]))
            for start, end in children.get(span["id"], ())
            if end > span["start"] and start < span["end"]
        ]
        entry = summary.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += duration / 1e9
        entry["self_s"] += (duration - _covered(inner)) / 1e9
    return summary


def layer_seconds(spans: Sequence[Dict], names: Sequence[str]) -> Tuple[float, int]:
    """Time and calls in spans named ``names``, not counting nested repeats.

    A span whose parent is itself one of ``names`` is already inside a
    counted interval, so only the outermost span of a nest is added.
    """
    wanted = set(names)
    by_id = {span["id"]: span for span in spans}
    seconds = 0.0
    calls = 0
    for span in spans:
        if span["name"] not in wanted:
            continue
        calls += 1
        parent = by_id.get(span["parent"])
        if parent is not None and parent["name"] in wanted:
            continue
        seconds += (span["end"] - span["start"]) / 1e9
    return seconds, calls


#: Spans shorter than this are left out of the Chrome trace (a cold round
#: makes some 10^5 calls of a few microseconds); the summary keeps them.
CHROME_MIN_NS = 50_000


def chrome_trace(spans: Sequence[Dict]) -> Dict:
    """Chrome trace-event JSON (complete events), as Perfetto opens it."""
    if not spans:
        return {"traceEvents": []}
    origin = min(span["start"] for span in spans)
    events = []
    for span in spans:
        if span["end"] - span["start"] < CHROME_MIN_NS:
            continue
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ph": "X",
            "ts": (span["start"] - origin) / 1e3,
            "dur": (span["end"] - span["start"]) / 1e3,
            "pid": span["pid"],
            "tid": span["thread"],
            "args": {"request": span["request"],
                     "parent": None if span["parent"] is None else span["parent"][1]},
        })
    processes = {span["pid"]: span["process"] for span in spans}
    for pid, name in processes.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
