"""Output checks of the benchmark.

Each check returns a list of fault descriptions (empty when the output is
correct) and compares against an independent computation or a required
property, never against a stored copy of today's output.  The one stored
reference is ``expected_digests.json``, which ``digests.py`` regenerates
from a fresh serial run.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from typing import Dict, List, Sequence, Tuple

from common import BENCH_DIR

EXPECTED_DIGESTS = BENCH_DIR / "expected_digests.json"


@functools.lru_cache(maxsize=None)
def machine_for(org: str):
    """``(rf, clock-scaled machine, hardware spec)`` of an organization."""
    from repro.hwmodel.timing import scaled_machine
    from repro.machine.presets import baseline_machine, config_by_name

    rf = config_by_name(org)
    scaled, spec = scaled_machine(baseline_machine(), rf)
    return rf, scaled, spec


def schedule_faults(result) -> List[str]:
    """The schedule succeeded, ``ii >= mii``, and it passes the validator.

    :func:`repro.core.validate.validate_schedule` rebuilds dependences,
    reservations, bank reads and register pressure from scratch, without
    the scheduler's own trackers.
    """
    from repro.core.validate import ValidationError, validate_schedule

    where = f"{result.loop_name}@{result.config_name}"
    if not result.success:
        return [f"{where}: not scheduled"]
    faults = []
    if result.ii < result.mii:
        faults.append(f"{where}: II {result.ii} below MII {result.mii}")
    rf, scaled, _spec = machine_for(result.config_name)
    try:
        validate_schedule(result, scaled, rf)
    except ValidationError as exc:
        faults.append(f"{where}: invalid schedule: {exc}")
    except Exception as exc:  # a schedule the validator cannot even replay
        faults.append(f"{where}: validator raised {exc!r}")
    return faults


def differential_faults(loop, result) -> List[str]:
    """The emitted VLIW code computes what the scalar reference computes."""
    from repro.verify.differential import differential_check

    rf, scaled, _spec = machine_for(result.config_name)
    try:
        report = differential_check(loop, result, scaled, rf)
    except Exception as exc:  # a crash in allocation/codegen is a fault too
        return [f"{result.loop_name}@{result.config_name}: differential check crashed: {exc!r}"]
    return [] if report.ok else [report.describe_failure()]


def digest_faults(what: str, got: str, expected: str) -> List[str]:
    return [] if got == expected else [f"{what}: runs_digest {got[:12]} != expected {expected[:12]}"]


def roundtrip_faults(envelope: Dict) -> List[str]:
    """The envelope decodes and re-encodes to identical canonical JSON."""
    from repro import serialize

    original = json.dumps(envelope, sort_keys=True)
    try:
        again = json.dumps(serialize.to_dict(serialize.from_dict(envelope)), sort_keys=True)
    except Exception as exc:
        return [f"envelope does not decode: {exc!r}"]
    return [] if again == original else ["envelope does not round-trip byte-identically"]


def run_table_faults(report_csv: str, job_id: str, iis: Sequence[int]) -> List[str]:
    """The run table holds this job's loops with the II total of its result."""
    rows = [row for row in csv.DictReader(io.StringIO(report_csv)) if row["job_id"] == job_id]
    stored = sum(int(row["ii"]) for row in rows)
    faults = []
    if len(rows) != len(iis):
        faults.append(f"{job_id}: run table has {len(rows)} rows, result has {len(iis)} runs")
    if stored != sum(iis):
        faults.append(f"{job_id}: run-table II total {stored} != result II total {sum(iis)}")
    return faults


def prefix_digests(runs, step: int) -> Dict[int, str]:
    """``runs_digest(runs[:n])`` for every multiple ``n`` of ``step``.

    Hashes each run's canonical payload once, as ``runs_digest`` does,
    instead of once per prefix; the full-length digest is compared with
    ``runs_digest`` itself so the two cannot drift apart.
    """
    import hashlib

    from repro.eval.shards import canonical_run_payload, runs_digest

    digest = hashlib.sha256()
    prefixes: Dict[int, str] = {}
    for count, run in enumerate(runs, start=1):
        digest.update(json.dumps(canonical_run_payload(run), sort_keys=True).encode())
        digest.update(b"\n")
        if count % step == 0:
            prefixes[count] = digest.hexdigest()
    if prefixes.get(len(runs)) != runs_digest(runs):
        raise RuntimeError("prefix digests disagree with runs_digest")
    return prefixes


def load_expected_digests() -> Dict[str, str]:
    return json.loads(EXPECTED_DIGESTS.read_text())["digests"]


def check_distinct(runs) -> Tuple[List[List[str]], float, float]:
    """Validator and differential faults per run, with the seconds each took."""
    import time

    faults: List[List[str]] = []
    validate_s = differential_s = 0.0
    for run in runs:
        started = time.perf_counter()
        found = schedule_faults(run.result)
        validated = time.perf_counter()
        if not found:
            found = differential_faults(run.loop, run.result)
        differential_s += time.perf_counter() - validated
        validate_s += validated - started
        faults.append(found)
    return faults, validate_s, differential_s
