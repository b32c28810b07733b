"""Contiguous list scheduling of rigid (allotted) tasks.

Both list algorithms of Section 3 schedule an already-allotted (rigid)
instance by going through the tasks in a priority order and placing each one
as early as possible on a contiguous block of processors.  This module holds
that shared machinery:

* :func:`sliding_window_max` — the earliest start of every contiguous block
  of a given width over a per-processor availability profile, computed by
  log-doubling: ⌈log2 width⌉ vectorised ``maximum`` passes over the profile,
  i.e. O(m·log w) element operations in O(log w) NumPy calls,
* :func:`contiguous_list_schedule` — the list scheduler itself, with the
  paper's tie-breaking convention (leftmost block when starting at time 0,
  rightmost block otherwise, Section 3.2), and
* :func:`compute_levels` — the "level" of each task in a schedule (first
  level = tasks starting at 0, second level = tasks resting directly on a
  first-level task, ...), used to state and verify Property 3 and Lemma 1.

The scheduler works on an availability profile (one completion time per
processor); it therefore produces the stacked "shelf-like" structure the
paper analyses (no backfilling into idle gaps between levels).  Window
maxima are exact (``max`` never rounds), so the placements do not depend on
how they are computed.  The scheduler is a pure function of the allotment
and the order: :func:`repro.core.canonical_list.canonical_list_schedule`
memoizes its placements per canonical allotment on the instance's
allotment engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import SchedulingError
from ..model.allotment import Allotment
from ..model.schedule import Schedule, ScheduledTask

__all__ = [
    "sliding_window_max",
    "contiguous_list_schedule",
    "compute_levels",
    "ListPlacement",
]


@dataclass(frozen=True)
class ListPlacement:
    """Placement decision taken by the list scheduler for one task."""

    task_index: int
    start: float
    first_proc: int
    num_procs: int


def _window_max(avail: np.ndarray, width: int) -> np.ndarray:
    """Entry ``s`` is ``max(avail[s : s + width])`` (may alias ``avail``).

    Doubling: after the pass with shift ``span`` every entry is the maximum
    of a window of ``2·span`` entries; the remainder ``width − span`` is one
    overlapping pass.  ``np.maximum`` keeps its first argument on ties, so
    on equal values the rightmost entry wins, as in a monotonic deque.
    """
    out = avail
    span = 1
    while 2 * span <= width:
        out = np.maximum(out[span:], out[:-span])
        span *= 2
    rest = width - span
    if rest:
        out = np.maximum(out[rest:], out[:-rest])
    return out


def sliding_window_max(values: np.ndarray, width: int) -> np.ndarray:
    """Maximum of every contiguous window of ``width`` entries of ``values``.

    Returns a new array of length ``len(values) - width + 1`` where entry
    ``s`` is ``max(values[s : s + width])``.  Computed by log-doubling in
    ⌈log2 width⌉ vectorised passes (O(len(values)·log width) element
    operations); the list scheduler uses the same kernel per placement.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if width < 1 or width > n:
        raise ValueError(f"window width {width} outside 1..{n}")
    return _window_max(values, width).copy()


def contiguous_list_schedule(
    allotment: Allotment,
    order: Sequence[int],
    *,
    algorithm: str = "list",
    start_offset: float = 0.0,
    initial_avail: np.ndarray | None = None,
) -> Schedule:
    """List-schedule the rigid tasks induced by ``allotment`` in ``order``.

    Each task is placed on the contiguous block of processors minimising its
    start time (the maximum availability over the block).  Tie-breaking
    follows the paper's convention: among blocks achieving the minimal start,
    the leftmost block is chosen when the start equals the initial time
    (time 0 / ``start_offset``), the rightmost one otherwise.  This is the
    rule Section 3.2 uses to keep the schedule contiguous and to create the
    "levels" structure analysed in the appendix.

    Parameters
    ----------
    allotment:
        Processor counts per task (defines the rigid instance).
    order:
        Task indices in scheduling priority order; every index must appear at
        most once.  Indices absent from ``order`` are simply not scheduled
        (used when composing partial schedules).
    algorithm:
        Name recorded on the produced schedule.
    start_offset:
        Time at which all processors become available (used to schedule a
        second phase after a first shelf).
    initial_avail:
        Optional explicit per-processor availability profile; overrides
        ``start_offset``.
    """
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
        starts = _window_max(avail, width)
        best_start = float(starts.min())
        fits = starts <= best_start + 1e-12
        if best_start <= base_time + 1e-12:
            first_proc = int(fits.argmax())  # leftmost at the initial time
        else:
            first_proc = fits.size - 1 - int(fits[::-1].argmax())  # rightmost
        schedule.add(task_index, best_start, first_proc, width, duration=duration)
        avail[first_proc : first_proc + width] = best_start + duration
    return schedule


def compute_levels(schedule: Schedule, *, tol: float = 1e-9) -> dict[int, int]:
    """Level of every scheduled task (1 = starts at the schedule's origin).

    A task is on level 1 when it starts at the earliest start time of the
    schedule; otherwise its level is one more than the maximal level among
    the tasks that *support* it — tasks sharing at least one processor and
    finishing no later than its start, taking on each shared processor the
    latest such task.  This matches the paper's informal definition ("the
    second level corresponds to the tasks scheduled on top of a task of the
    first level") for schedules produced by :func:`contiguous_list_schedule`.
    """
    entries = sorted(schedule.entries, key=lambda e: (e.start, e.first_proc))
    if not entries:
        return {}
    origin = min(e.start for e in entries)
    levels: dict[int, int] = {}
    # latest finished task per processor, updated as we sweep by start time.
    for entry in entries:
        if entry.start <= origin + tol:
            levels[entry.task_index] = 1
            continue
        support_level = 0
        for other in entries:
            if other is entry:
                continue
            if other.end > entry.start + tol:
                continue
            # shares a processor?
            lo = max(other.first_proc, entry.first_proc)
            hi = min(
                other.first_proc + other.num_procs,
                entry.first_proc + entry.num_procs,
            )
            if lo < hi and abs(other.end - entry.start) <= max(
                tol, 1e-9 * max(1.0, entry.start)
            ):
                support_level = max(support_level, levels.get(other.task_index, 1))
        if support_level == 0:
            # supported only by idle time: count it as resting on the level
            # below the deepest overlapping predecessor.
            for other in entries:
                if other is entry or other.end > entry.start + tol:
                    continue
                lo = max(other.first_proc, entry.first_proc)
                hi = min(
                    other.first_proc + other.num_procs,
                    entry.first_proc + entry.num_procs,
                )
                if lo < hi:
                    support_level = max(
                        support_level, levels.get(other.task_index, 1)
                    )
            if support_level == 0:
                support_level = 1
        levels[entry.task_index] = support_level + 1
    return levels
