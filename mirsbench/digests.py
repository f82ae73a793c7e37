"""Regenerate ``expected_digests.json`` from a fresh serial run.

    python3 mirsbench/digests.py

Schedules the cold workloads' problems (the first ``N_COLD_LOOPS`` loops
of the standard tier on the seven Figure-6 organizations) serially in
one process and records each organization's ``runs_digest``.  The
benchmark checks that the serial and the two-worker workloads reproduce
these digests.  Run it after a change that is meant to alter schedules.
"""

from __future__ import annotations

import sys

from common import FIGURE6_ORGS, N_COLD_LOOPS, SRC, TIER, write_json


def serial_digests():
    from repro.eval.shards import runs_digest
    from repro.session import Session
    from repro.workloads.suite import build_workbench

    loops = build_workbench(TIER, n_loops=N_COLD_LOOPS)
    with Session(jobs=1) as session:
        return {
            org: runs_digest(session.evaluate_configuration(org, loops=loops).runs)
            for org in FIGURE6_ORGS
        }


def main() -> int:
    sys.path.insert(0, str(SRC))
    from checks import EXPECTED_DIGESTS

    write_json(EXPECTED_DIGESTS, {
        "tier": TIER,
        "n_loops": N_COLD_LOOPS,
        "digests": serial_digests(),
        "regenerate": "python3 mirsbench/digests.py",
    })
    print(f"wrote {EXPECTED_DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
