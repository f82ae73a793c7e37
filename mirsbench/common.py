"""Shared pieces of the MIRS_HC benchmark: inputs, statistics, memory.

Every workload schedules loops from a fixed prefix of the ``standard``
workbench tier, so the scheduling work (and its expected digests) does
not depend on the workload seed.  The seed orders the requests and sets
the input sizes on which the simulated execution time is measured.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space of the runs (stores, databases, traces); git-ignored.
OUT = ROOT / ".mirsbench"

#: The workbench every workload draws its loops from.
TIER = "standard"
#: Cold workloads schedule this prefix: the named kernels, their variants
#: and unrolled versions (no generated loops, so no seed-dependent cost).
N_COLD_LOOPS = 48
#: The seven organizations of the paper's Figure 6.
FIGURE6_ORGS = ("S64", "2C64", "4C32", "1C32S64", "2C32S32", "4C32S16", "8C16S16")
#: Two cheap organizations (one monolithic, one hierarchical) on which
#: the warm service stores the first ``WARM_ROUND_LOOPS`` loops of the
#: tier during set-up.
WARM_ORGS = ("S64", "1C64S32")
#: Checkpoint shard size of the warm service; job prefixes are multiples
#: of it, so every job is served entirely from stored shards.
WARM_SHARD_SIZE = 4
#: The warm round asks, for every multiple ``p`` of the shard size below
#: this, for prefixes ``p`` and ``WARM_ROUND_LOOPS - p``: every job reads
#: only stored loops, and the round has the same work whatever the seed.
#: It is kept small so that a run repeats the round several times.
WARM_ROUND_LOOPS = 64

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Every run issues at least this many requests, so the tail percentile
#: below has ten or more requests beyond it.
MIN_REQUESTS = 40
#: Tail percentile per workload: the highest whose nearest rank leaves at
#: least 10 requests beyond it, over one round (336 requests of a cold
#: round, 60 of the warm sweep).
TAIL_PERCENTILE = {"cold_serial": 97, "cold_jobs2": 97, "warm_service": 83}
#: Relative spread of the seeded trip counts used for execution time.
TRIP_SPREAD = 0.05


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package's front doors."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.session, repro.serialize, repro.service"],
        env=child_env(), cwd=ROOT, check=True,
    )
    return time.perf_counter() - started


def write_json(path: Path, payload: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_beyond(n: int, percentile: float) -> int:
    """How many of ``n`` requests lie beyond the nearest-rank percentile."""
    return n - max(1, math.ceil(percentile / 100.0 * n))


# --------------------------------------------------------------------------- #
# Memory
# --------------------------------------------------------------------------- #
def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Live descendant process ids of ``pid`` (read from /proc)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set sizes (VmHWM) of ``pids``, in MB."""
    return sum(_hwm_kb(pid) for pid in pids) / 1024.0


# --------------------------------------------------------------------------- #
# Schedule quality
# --------------------------------------------------------------------------- #
def exec_time_us(runs, seed: int) -> float:
    """Simulated real-memory execution time of ``runs`` on seeded input sizes.

    Each loop runs ``trip_count`` scaled by a factor within
    ``1 +- TRIP_SPREAD`` drawn from the seed and the loop's name (the
    schedules do not depend on the trip count, only their run time does),
    at its organization's clock, through the lockup-free cache of the
    paper's Figure 6.
    """
    from repro.machine.presets import baseline_machine
    from repro.simulator.cache import CacheConfig
    from repro.simulator.vliw import simulate_loop_execution

    machine = baseline_machine()
    total_ns = 0.0
    for run in runs:
        spec = run.spec
        cache = CacheConfig(
            size_bytes=machine.cache_size_bytes,
            line_bytes=machine.cache_line_bytes,
            max_pending=machine.cache_max_pending,
            hit_latency=spec.mem_hit_latency,
            miss_latency=spec.miss_latency_cycles(machine.miss_latency_ns),
        )
        factor = 1.0 + random.Random(f"{seed}:{run.loop.name}").uniform(-TRIP_SPREAD, TRIP_SPREAD)
        loop = run.loop.copy()
        loop.trip_count = max(1, round(loop.trip_count * factor))
        stats = simulate_loop_execution(loop, run.result, cache)
        total_ns += stats.total_cycles * spec.clock_ns
    return total_ns / 1e3
