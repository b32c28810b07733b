"""Speedup benchmark for the vectorized allotment engine and the list scheduler.

Four measurements, printed as a table:

1. **Cold throughput** — γ(d) for all tasks over a sweep of *distinct*
   deadlines: the scalar per-task reference loop (the pre-engine code path,
   reimplemented here verbatim) against one vectorized engine pass per
   deadline.
2. **Cached dual-search replay** — the same deadline set evaluated
   repeatedly, the access pattern of the schedulers (the Property-2
   lower bound, ``dual_search`` and ``MRTScheduler`` all re-probe the same
   guesses).  This is where the LRU memoization pays; the acceptance bar is
   a ≥ 3× speedup over the scalar loop.
3. **End-to-end EXP-A** — a small ``sweep_workloads`` serially and with
   ``workers=4``, double-checking that the parallel records are identical
   to the serial ones (modulo the measured per-run wall times).
4. **Cold MRT** — ``MRTScheduler().schedule`` on the 9-instance grid
   {mixed, uniform, heavy-tailed} × {(50,32), (200,64), (500,128)}, each
   run on a fresh ``Instance``, against the same scheduler whose canonical
   list branch is the monotonic-deque list scheduler it replaced (kept
   verbatim in ``tests/deque_oracle.py``, the oracle of the differential
   tests).  The speedup is only meaningful between equal outputs, so every
   timed schedule must be byte-identical to the reference one; the
   acceptance bar is a ≥ 3× speedup.

Run directly (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_engine_speedup.py [--quick]

Exits non-zero when the cached speedup drops below its 3× bar, when the
cold-MRT speedup drops below its 3× bar or when any cold-MRT schedule
differs from the reference, so the perf harness cannot silently rot.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.experiments import sweep_workloads
from repro.core import mrt as mrt_module
from repro.core.allotment_engine import AllotmentEngine
from repro.core.mrt import MRTScheduler
from repro.model.instance import Instance
from repro.workloads.generators import make_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from deque_oracle import oracle_canonical_list_schedule  # noqa: E402


# --------------------------------------------------------------------------- #
# the scalar reference: the exact pre-engine per-task loop
# --------------------------------------------------------------------------- #
def scalar_allotment(instance: Instance, deadline: float):
    """Per-task γ(d) loop as it existed before the engine (reference)."""
    procs = np.empty(instance.num_tasks, dtype=int)
    times = np.empty(instance.num_tasks, dtype=float)
    works = np.empty(instance.num_tasks, dtype=float)
    for i, task in enumerate(instance.tasks):
        p = task.canonical_procs(deadline)
        if p is None:
            return None
        procs[i] = p
        times[i] = task.time(p)
        works[i] = task.work(p)
    return procs, times, works


def timeit(fn, *, repeat: int = 3) -> float:
    """Best-of-``repeat`` wall time of ``fn()``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_allotment_throughput(quick: bool) -> tuple[float, float]:
    """Return (cold_speedup, cached_speedup) of the engine vs the scalar loop."""
    n_tasks = 60 if quick else 200
    m = 32 if quick else 64
    n_deadlines = 40 if quick else 200
    repeats = 5 if quick else 20

    instance = make_workload("mixed", n_tasks, m, seed=42)
    lb = instance.lower_bound()
    deadlines = list(np.linspace(lb * 0.5, lb * 3.0, n_deadlines))

    def scalar_sweep() -> None:
        for d in deadlines:
            scalar_allotment(instance, d)

    def engine_cold_sweep() -> None:
        # A fresh engine per call: every deadline is a miss (pure
        # vectorization, no memoization).
        engine = AllotmentEngine(instance.times_matrix, instance.works_matrix)
        for d in deadlines:
            engine.gamma(d)

    scalar_t = timeit(scalar_sweep)
    cold_t = timeit(engine_cold_sweep)

    # Cached replay: the dual-search pattern — the same guesses probed over
    # and over by the lower-bound search, dual_search and the branch duals.
    engine = AllotmentEngine(instance.times_matrix, instance.works_matrix)
    for d in deadlines:
        engine.gamma(d)  # warm

    def scalar_replay() -> None:
        for _ in range(repeats):
            for d in deadlines:
                scalar_allotment(instance, d)

    def cached_replay() -> None:
        for _ in range(repeats):
            for d in deadlines:
                engine.gamma(d)

    scalar_replay_t = timeit(scalar_replay)
    cached_replay_t = timeit(cached_replay)

    cold_speedup = scalar_t / cold_t
    cached_speedup = scalar_replay_t / cached_replay_t
    print(f"profile matrix                 : {n_tasks} tasks x {m} procs, "
          f"{n_deadlines} deadlines")
    print(f"scalar loop (cold)             : {scalar_t * 1e3:9.2f} ms")
    print(f"engine      (cold, no cache)   : {cold_t * 1e3:9.2f} ms   "
          f"speedup {cold_speedup:6.1f}x")
    print(f"scalar loop ({repeats}x replay)        : {scalar_replay_t * 1e3:9.2f} ms")
    print(f"engine      ({repeats}x replay, cached): {cached_replay_t * 1e3:9.2f} ms   "
          f"speedup {cached_speedup:6.1f}x")
    return cold_speedup, cached_speedup


def bench_expa_end_to_end(quick: bool) -> None:
    """Small EXP-A sweep: serial vs workers=4, with a determinism check.

    For reference, the same serial sweep on the pre-engine scalar code path
    (seed commit) measures ~30% slower end-to-end; the parallel fan-out
    additionally wins on multi-core hosts (it cannot on a single-core CI
    runner, where the pool only adds startup overhead — the hard gate here
    is record *identity*, which must hold everywhere).
    """
    kwargs = dict(
        families=("uniform", "mixed")
        if quick
        else ("uniform", "mixed", "heavy-tailed", "rigid-heavy"),
        num_tasks=12 if quick else 100,
        machine_sizes=(8,) if quick else (32,),
        repetitions=1 if quick else 3,
        seed=7,
    )
    start = time.perf_counter()
    serial = sweep_workloads(**kwargs)
    serial_t = time.perf_counter() - start
    start = time.perf_counter()
    parallel = sweep_workloads(**kwargs, workers=4)
    parallel_t = time.perf_counter() - start
    identical = len(serial.records) == len(parallel.records) and all(
        dataclasses.replace(a, runtime_seconds=0.0)
        == dataclasses.replace(b, runtime_seconds=0.0)
        for a, b in zip(serial.records, parallel.records)
    )
    import os

    cores = os.cpu_count() or 1
    print(f"EXP-A sweep ({len(serial.records)} runs) serial   : {serial_t:7.2f} s")
    print(f"EXP-A sweep ({len(parallel.records)} runs) workers=4: {parallel_t:7.2f} s   "
          f"speedup {serial_t / parallel_t:5.2f}x  ({cores} core(s) available)")
    print(f"parallel records identical to serial: {identical}")
    if not identical:
        raise SystemExit("FAIL: workers=4 records differ from the serial run")


#: Acceptance bar of cold MRT over the deque list scheduler.
MIN_MRT_SPEEDUP = 3.0

MRT_GRID = [
    (family, n, m)
    for family in ("mixed", "uniform", "heavy-tailed")
    for n, m in ((50, 32), (200, 64), (500, 128))
]


def cold_mrt_pass() -> tuple[float, list[str]]:
    """One pass over the grid on fresh instances: (seconds, schedule JSON)."""
    instances = [make_workload(f, n, m, seed=0) for f, n, m in MRT_GRID]
    outputs = []
    elapsed = 0.0
    for instance in instances:
        start = time.perf_counter()
        schedule = MRTScheduler().schedule(instance)
        elapsed += time.perf_counter() - start
        outputs.append(json.dumps(schedule.as_dict(), sort_keys=True))
    return elapsed, outputs


def bench_cold_mrt(quick: bool) -> tuple[float, bool]:
    """Return (speedup, identical) of cold MRT vs the deque list scheduler.

    Best of ``repeat`` passes per side, alternating; every pass of either
    side must produce the same schedules.
    """
    repeat = 2 if quick else 5
    new_times, ref_times = [], []
    outputs = set()
    for _ in range(repeat):
        elapsed, out = cold_mrt_pass()
        new_times.append(elapsed)
        outputs.add(tuple(out))
        original = mrt_module.canonical_list_schedule
        mrt_module.canonical_list_schedule = oracle_canonical_list_schedule
        try:
            elapsed, out = cold_mrt_pass()
        finally:
            mrt_module.canonical_list_schedule = original
        ref_times.append(elapsed)
        outputs.add(tuple(out))
    speedup = min(ref_times) / min(new_times)
    identical = len(outputs) == 1
    print(f"grid                           : {len(MRT_GRID)} instances "
          "{mixed, uniform, heavy-tailed} x {(50,32), (200,64), (500,128)}")
    print(f"deque list scheduler (best of {repeat}): {min(ref_times) * 1e3:9.2f} ms")
    print(f"current scheduler    (best of {repeat}): {min(new_times) * 1e3:9.2f} ms   "
          f"speedup {speedup:6.2f}x")
    print(f"schedules byte-identical to the reference: {identical}")
    return speedup, identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI")
    parser.add_argument(
        "--min-cached-speedup",
        type=float,
        default=3.0,
        help="acceptance bar for the cached replay (default 3x)",
    )
    args = parser.parse_args(argv)

    print("=" * 72)
    print(">>> allotment throughput: scalar loop vs vectorized engine")
    print("=" * 72)
    _, cached_speedup = bench_allotment_throughput(args.quick)
    print()
    print("=" * 72)
    print(">>> end-to-end EXP-A: serial vs workers=4")
    print("=" * 72)
    bench_expa_end_to_end(args.quick)
    print()
    print("=" * 72)
    print(">>> cold MRT: doubling-window list scheduler vs the deque reference")
    print("=" * 72)
    mrt_speedup, identical = bench_cold_mrt(args.quick)
    print()
    failed = False
    if cached_speedup < args.min_cached_speedup:
        print(
            f"FAIL: cached replay speedup {cached_speedup:.1f}x is below the "
            f"{args.min_cached_speedup:.1f}x acceptance bar"
        )
        failed = True
    else:
        print(f"OK: cached replay speedup {cached_speedup:.1f}x "
              f"(bar: {args.min_cached_speedup:.1f}x)")
    if not identical:
        print("FAIL: cold MRT schedules differ from the deque reference")
        failed = True
    if mrt_speedup < MIN_MRT_SPEEDUP:
        print(
            f"FAIL: cold MRT speedup {mrt_speedup:.2f}x is below the "
            f"{MIN_MRT_SPEEDUP:.1f}x acceptance bar"
        )
        failed = True
    elif identical:
        print(f"OK: cold MRT speedup {mrt_speedup:.2f}x "
              f"(bar: {MIN_MRT_SPEEDUP:.1f}x), schedules byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
