"""Benchmark of the MIRS_HC pipeline: one command, three workloads.

    python3 mirsbench/run.py --workload cold_serial --seed 1 --seconds 10 --trace 0

Prints a few progress lines, then, as the last line of standard output,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run also writes its spans as a
per-layer summary and as Chrome trace-event JSON under ``.mirsbench/``.
See README.md for the workloads, the metrics and how they relate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from statistics import median
from typing import Dict, List

from common import OUT, SRC, TAIL_PERCENTILE, nearest_rank, tail_beyond, write_json

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "loops_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "sum_ii": "cycles",
    "exec_time_us": "us",
}

#: Per-layer metrics of the traced run: name -> unit.  Timings and counts
#: are per round of the timed phase unless the README says otherwise.
PER_LAYER = {
    "workloads.build_s": "s",
    "workloads.request_build_s": "s",
    "hwmodel.scaled_machine_s": "s",
    "ddg.compute_mii_s": "s",
    "ddg.compute_mii_calls": "count",
    "core.schedule_loop_s": "s",
    "core.attempts": "count",
    "core.attempts_failed": "count",
    "core.failed_attempt_s": "s",
    "core.attempt_yield": "ratio",
    "core.ii_bumps": "count",
    "core.order_s": "s",
    "core.cluster_select_s": "s",
    "core.cluster_select_calls": "count",
    "core.communication_s": "s",
    "core.communication_calls": "count",
    "core.spill_s": "s",
    "core.spill_calls": "count",
    "core.eject_s": "s",
    "core.eject_calls": "count",
    "core.slot_probes": "count",
    "core.probe_memo_hits": "count",
    "core.pressure_checks": "count",
    "core.analysis_cache_hits": "count",
    "core.analysis_cache_misses": "count",
    "session.pool_start_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.busy_share": "ratio",
    "parallel.first_result_ms": "ms",
    "parallel.tail_gap_ms": "ms",
    "serialize.to_dict_s": "s",
    "serialize.to_dict_calls": "count",
    "serialize.from_dict_s": "s",
    "serialize.result_bytes": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "shards.get_s": "s",
    "shards.get_calls": "count",
    "shards.put_s": "s",
    "shards.runs_digest_s": "s",
    "shards.bytes": "bytes",
    "store.add_runs_s": "s",
    "store.add_runs_rows": "count",
    "store.update_job_s": "s",
    "store.query_runs_s": "s",
    "store.db_bytes": "bytes",
    "service.queue_wait_ms": "ms",
    "service.run_ms": "ms",
    "service.polls_per_request": "count",
    "service.http_ms": "ms",
    "report.build_s": "s",
    "report.render_s": "s",
    "simulator.simulate_s": "s",
    "verify.validate_s": "s",
    "verify.differential_s": "s",
}

#: Per-layer timings taken from spans: metric -> span names.
SPAN_SECONDS = {
    "workloads.request_build_s": ["workloads.build"],
    "hwmodel.scaled_machine_s": ["hwmodel.scaled_machine"],
    "ddg.compute_mii_s": ["ddg.compute_mii"],
    "core.failed_attempt_s": ["core.attempt.failed"],
    "core.order_s": ["core.order"],
    "core.cluster_select_s": ["core.cluster_select"],
    "core.communication_s": ["core.communication"],
    "core.spill_s": ["core.spill"],
    "core.eject_s": ["core.eject"],
    "serialize.to_dict_s": ["serialize.to_dict", "serialize.loop_run_to_dict"],
    "serialize.from_dict_s": ["serialize.from_dict"],
    "shards.get_s": ["shards.get"],
    "shards.runs_digest_s": ["shards.runs_digest"],
    "store.add_runs_s": ["store.add_runs"],
    "store.update_job_s": ["store.update_job"],
    "store.query_runs_s": ["store.query_runs"],
    "report.build_s": ["report.build"],
    "report.render_s": ["report.render"],
}
#: Per-layer call counts taken from spans: metric -> span names.
SPAN_CALLS = {
    "ddg.compute_mii_calls": ["ddg.compute_mii"],
    "core.cluster_select_calls": ["core.cluster_select"],
    "core.communication_calls": ["core.communication"],
    "core.spill_calls": ["core.spill"],
    "core.eject_calls": ["core.eject"],
    "serialize.to_dict_calls": ["serialize.loop_run_to_dict"],
    "shards.get_calls": ["shards.get"],
}


def end_to_end(run) -> Dict[str, float]:
    """End-to-end metrics; the timed ones are medians over the rounds."""
    rates, p50s, tails = [], [], []
    previous = (0, 0, 0.0)
    for mark in run.round_marks:
        latencies = run.latencies[previous[0]:mark[0]]
        rates.append((mark[1] - previous[1]) / (mark[2] - previous[2]))
        p50s.append(median(latencies))
        tails.append(nearest_rank(latencies, TAIL_PERCENTILE[run.workload]))
        previous = mark
    return {
        "setup_s": median(run.setup_s),
        "loops_per_s": median(rates),
        "request_p50_ms": 1e3 * median(p50s),
        "request_tail_ms": 1e3 * median(tails),
        "peak_rss_mb": run.peak_rss_mb,
        "sum_ii": float(sum(item.result.ii for item in run.distinct)),
        "exec_time_us": run.layer["exec_time_us"],
    }


def _result_telemetry(sums: Dict[str, float], rounds: int) -> Dict[str, float]:
    """Per-round scheduler counters carried by fresh results (any process)."""
    attempts = sums["attempts"]
    return {
        "core.schedule_loop_s": sums["scheduling_time_s"] / rounds,
        "core.attempts": attempts / rounds,
        "core.attempts_failed": sums["attempts_failed"] / rounds,
        "core.attempt_yield": (attempts - sums["attempts_failed"]) / attempts if attempts else 0.0,
        "core.ii_bumps": sums["restarts"] / rounds,
        "core.slot_probes": sums["n_slot_probes"] / rounds,
        "core.probe_memo_hits": sums["n_probe_memo_hits"] / rounds,
        "core.pressure_checks": sums["n_pressure_checks"] / rounds,
        # Each schedule_loop looks up RecMII, ResMII and the order once.
        "core.analysis_cache_hits": sums["n_analysis_reuses"] / rounds,
        "core.analysis_cache_misses": (3 * sums["results"] - sums["n_analysis_reuses"]) / rounds,
    }


def per_layer(run, spans) -> Dict[str, float]:
    from spans import layer_seconds, within

    timed = within(spans, run.windows["timed"])
    setup = within(spans, run.windows["setup"])
    rounds = run.rounds
    values = {name: 0.0 for name in PER_LAYER}
    values.update(_result_telemetry(run.telemetry, rounds))
    for metric, names in SPAN_SECONDS.items():
        values[metric] = layer_seconds(timed, names)[0] / rounds
    for metric, names in SPAN_CALLS.items():
        values[metric] = layer_seconds(timed, names)[1] / rounds
    values["workloads.build_s"] = layer_seconds(setup, ["workloads.build"])[0]
    values["shards.put_s"] = layer_seconds(setup, ["shards.put"])[0]
    http = [span for span in timed if span["name"] == "service.http"]
    if http:
        values["service.http_ms"] = 1e3 * layer_seconds(http, ["service.http"])[0] / len(http)
    served: Dict[str, float] = {}
    for name, trace in run.server_traces.items():
        if name.startswith("serve"):
            for counter, value in trace["counters"].items():
                served[counter] = served.get(counter, 0) + value
    if served:
        values["cache.hits"] = (served["shard_hits"] + served["cache_hits"]) / rounds
        values["cache.misses"] = (served["shard_misses"] + served["cache_misses"]) / rounds
        values["shards.bytes"] = served["shard_bytes"] / rounds
        values["store.add_runs_rows"] = served["add_runs_rows"] / rounds
    for name, value in run.layer.items():
        if name in values:
            values[name] = value
    values["simulator.simulate_s"] = run.check_s["simulate"]
    values["verify.validate_s"] = run.check_s["validate"]
    values["verify.differential_s"] = run.check_s["differential"]
    return values


def write_trace(run, spans, layers: Dict[str, float], e2e: Dict[str, float]) -> None:
    from spans import chrome_trace, summarize, within

    stem = OUT / "traces" / f"{run.workload}-seed{run.seed}"
    write_json(stem.with_suffix(".layers.json"), {
        "workload": run.workload,
        "seed": run.seed,
        "rounds": run.rounds,
        "requests": len(run.latencies),
        "end_to_end_traced": e2e,
        "per_layer": layers,
        "spans": {phase: summarize(within(spans, window))
                  for phase, window in run.windows.items()},
    })
    write_json(stem.with_suffix(".trace.json"), chrome_trace(spans))
    print(f"trace written to {stem}.layers.json and {stem}.trace.json", flush=True)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_serial", "cold_jobs2", "warm_service"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = None
    if args.trace:
        from spans import Tracer, install_engine_wrappers, install_service_wrappers

        tracer = Tracer("client")
        install_engine_wrappers(tracer)
        install_service_wrappers(tracer)
    from workloads import WORKLOADS

    started = time.perf_counter()
    run = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    failed = sum(1 for found in run.faults if found)
    for found in run.faults:
        for fault in found[:3]:
            print(f"FAULT: {fault}", file=sys.stderr)
    per_round = run.round_marks[0][0] if run.round_marks else 0
    percentile = TAIL_PERCENTILE[run.workload]
    print(f"{run.workload}: {run.rounds} rounds of {per_round} requests "
          f"({tail_beyond(per_round, percentile)} beyond p{percentile}), "
          f"{failed} of {len(run.faults)} failed, {time.perf_counter() - started:.1f}s",
          flush=True)
    e2e = end_to_end(run)
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        from spans import load_spans

        spans = load_spans([tracer.payload(), *run.server_traces.values()])
        layers = per_layer(run, spans)
        write_trace(run, spans, layers, e2e)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.faults),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
