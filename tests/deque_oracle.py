"""The monotonic-deque list scheduler, kept verbatim as a reference oracle.

This is the list scheduler ``repro.core.list_scheduling`` used before its
window maxima were computed by log-doubling.  ``tests/test_list_scheduling.py``
compares the current scheduler against it entry for entry, and
``benchmarks/bench_engine_speedup.py`` times cold MRT against it.  The module
name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.core.properties import canonical_allotment
from repro.exceptions import SchedulingError
from repro.model.allotment import Allotment
from repro.model.instance import Instance
from repro.model.schedule import Schedule


def oracle_sliding_window_max(values: np.ndarray, width: int) -> np.ndarray:
    n = values.size
    if width < 1 or width > n:
        raise ValueError(f"window width {width} outside 1..{n}")
    out = np.empty(n - width + 1, dtype=float)
    dq: deque[int] = deque()
    for i in range(n):
        while dq and values[dq[-1]] <= values[i]:
            dq.pop()
        dq.append(i)
        if dq[0] <= i - width:
            dq.popleft()
        if i >= width - 1:
            out[i - width + 1] = values[dq[0]]
    return out


def oracle_contiguous_list_schedule(
    allotment: Allotment,
    order: Sequence[int],
    *,
    algorithm: str = "list",
    start_offset: float = 0.0,
    initial_avail: np.ndarray | None = None,
) -> Schedule:
    instance = allotment.instance
    m = instance.num_procs
    if initial_avail is not None:
        avail = np.asarray(initial_avail, dtype=float).copy()
        if avail.shape != (m,):
            raise SchedulingError(
                f"initial_avail must have shape ({m},), got {avail.shape}"
            )
    else:
        avail = np.full(m, float(start_offset))
    base_time = float(avail.min())
    schedule = Schedule(instance, algorithm=algorithm)
    seen: set[int] = set()
    for task_index in order:
        if task_index in seen:
            raise SchedulingError(f"task index {task_index} appears twice in order")
        seen.add(task_index)
        width = allotment[task_index]
        if width > m:
            raise SchedulingError(
                f"task {instance.tasks[task_index].name!r} requests {width} > m={m} "
                "processors"
            )
        duration = instance.tasks[task_index].time(width)
        starts = oracle_sliding_window_max(avail, width)
        best_start = float(starts.min())
        positions = np.nonzero(starts <= best_start + 1e-12)[0]
        if best_start <= base_time + 1e-12:
            first_proc = int(positions[0])  # leftmost at the initial time
        else:
            first_proc = int(positions[-1])  # rightmost otherwise
        schedule.add(task_index, best_start, first_proc, width, duration=duration)
        avail[first_proc : first_proc + width] = best_start + duration
    return schedule


def oracle_canonical_list_schedule(instance: Instance, guess: float) -> Schedule | None:
    if guess <= 0:
        return None
    alloc = canonical_allotment(instance, guess)
    if alloc is None:
        return None
    allotment = Allotment(instance, alloc.procs)
    order = sorted(
        range(instance.num_tasks), key=lambda i: (-alloc.times[i], i)
    )
    schedule = oracle_contiguous_list_schedule(
        allotment, order, algorithm="canonical-list"
    )
    schedule.validate()
    return schedule
