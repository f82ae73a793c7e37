"""Self-test of the benchmark's output checks, with planted faults.

    python3 mirsbench/selftest.py

At a small size (a few loops, one organization each) it first shows that
correct outputs pass every check, then plants one fault at a time in a
copy of a correct output and shows that the benchmark's check for it
reports the fault:

* one operation's cycle shifted in a copied schedule;
* a stored shard envelope tampered with in a copy of the store;
* a wrong II reported, by a result and by the run table.

Exits with 0 when every fault is caught and nothing correct is flagged.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sqlite3
import sys
from typing import List

from common import OUT, SRC, TIER, WARM_SHARD_SIZE

ORG = "2C32S32"
N_LOOPS = 8


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro import serialize
    from repro.eval.shards import ResultStore, runs_digest
    from repro.report import ReportQuery, build_report, render_csv
    from repro.service.batch import BatchScheduler
    from repro.session import Session
    from repro.store.db import RunDatabase

    import checks

    outcomes: List[bool] = []

    def expect(what: str, faults: List[str], caught: bool) -> None:
        ok = bool(faults) == caught
        outcomes.append(ok)
        verdict = "ok" if ok else "WRONG"
        shown = faults[0].splitlines()[0] if faults else "no fault reported"
        print(f"[{verdict}] {what}: {shown}")

    def copy_run(run):
        return serialize.from_dict(json.loads(serialize.dumps(run)))

    with Session(jobs=1) as session:
        loops = session.workbench(n_loops=N_LOOPS, tier=TIER)
        runs = session.evaluate_configuration(ORG, loops=loops).runs
    digest = runs_digest(runs)
    clean = []
    for run in runs:
        clean += checks.schedule_faults(run.result) + checks.differential_faults(run.loop, run.result)
    expect("correct schedules pass the validator and the differential check", clean, False)

    # 1. One operation's cycle shifted in a copied schedule: it now issues
    # together with a consumer of its value.
    shifted = [copy_run(run) for run in runs]
    result = shifted[-1].result
    edge = next(edge for edge in result.graph.edges()
                if edge.kind == "flow" and edge.distance == 0
                and edge.src in result.assignments and edge.dst in result.assignments)
    result.assignments[edge.src] = dataclasses.replace(
        result.assignments[edge.src], cycle=result.assignments[edge.dst].cycle)
    expect("shifted cycle: validator", checks.schedule_faults(result), True)
    expect("shifted cycle: digest", checks.digest_faults(ORG, runs_digest(shifted), digest), True)

    # 2. A stored shard envelope tampered with in a copy of the store.
    work = OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        request = {"kind": "evaluate", "params": {"config": ORG, "tier": TIER, "n_loops": N_LOOPS}}

        def serve_once(directory):
            """One evaluate job on a service over ``directory``'s shard store."""
            session = Session(checkpoint=ResultStore(directory / "shards"),
                              shard_size=WARM_SHARD_SIZE)
            db = RunDatabase(directory / "runs.sqlite")
            scheduler = BatchScheduler(session, db=db)
            try:
                job_id = scheduler.submit(request)
                scheduler.wait(job_id, timeout=300)
                return job_id, scheduler.status(job_id, include_result=True)
            finally:
                scheduler.shutdown()
                db.close()
                session.close()

        job_id, status = serve_once(work / "store")
        expect("stored job: digest", checks.digest_faults(job_id, status["runs_digest"], digest), False)
        expect("stored job: envelope round trip", checks.roundtrip_faults(status["result"]), False)

        tampered = work / "tampered"
        shutil.copytree(work / "store" / "shards", tampered / "shards")
        envelope_path = sorted((tampered / "shards").glob("*/*.json"))[0]
        envelope = json.loads(envelope_path.read_text())
        envelope["data"]["runs"][0]["result"]["ii"] += 1
        envelope_path.write_text(json.dumps(envelope))
        job_id, status = serve_once(tampered)
        expect("tampered shard: digest",
               checks.digest_faults(job_id, status["runs_digest"], digest), True)

        # 3. A wrong II: reported by a result, and by the run table.
        wrong = copy_run(max(runs, key=lambda run: run.result.mii)).result
        wrong.ii = wrong.mii - 1
        expect("II below MII: result check", checks.schedule_faults(wrong), True)

        job_id, status = serve_once(work / "store")
        iis = [entry["result"]["ii"] for entry in status["result"]["data"]["runs"]]
        table = work / "table.sqlite"
        shutil.copy(work / "store" / "runs.sqlite", table)
        with sqlite3.connect(table) as conn:
            conn.execute("UPDATE runs SET ii = ii + 1 WHERE rowid = (SELECT MIN(rowid) FROM runs)")
        for path, caught in ((work / "store" / "runs.sqlite", False), (table, True)):
            db = RunDatabase(path)
            try:
                report = render_csv(build_report(db, ReportQuery(configs=(ORG,))).rows)
            finally:
                db.close()
            what = "wrong II in the run table" if caught else "run table"
            expect(f"{what}: II totals", checks.run_table_faults(report, job_id, iis), caught)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{sum(outcomes)} of {len(outcomes)} self-test checks behaved as expected")
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
