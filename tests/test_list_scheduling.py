"""Tests for the contiguous list-scheduling machinery (repro.core.list_scheduling).

The differential classes compare the doubling-window scheduler against the
monotonic-deque implementation it replaced, kept verbatim in
``deque_oracle.py`` as the oracle: placements must be equal entry for entry,
not merely close.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deque_oracle import (
    oracle_canonical_list_schedule,
    oracle_contiguous_list_schedule,
    oracle_sliding_window_max,
)
from repro import Allotment, Instance, MalleableTask
from repro.core import mrt as mrt_module
from repro.core.list_scheduling import (
    compute_levels,
    contiguous_list_schedule,
    sliding_window_max,
)
from repro.core.mrt import MRTScheduler
from repro.exceptions import SchedulingError
from repro.workloads.generators import make_workload


class TestSlidingWindowMax:
    def test_window_one_is_identity(self, rng):
        values = rng.normal(size=20)
        assert np.allclose(sliding_window_max(values, 1), values)

    def test_window_full_is_global_max(self, rng):
        values = rng.normal(size=20)
        assert sliding_window_max(values, 20)[0] == pytest.approx(values.max())

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 7])
    def test_matches_naive(self, rng, width):
        values = rng.normal(size=30)
        fast = sliding_window_max(values, width)
        naive = np.array(
            [values[s : s + width].max() for s in range(values.size - width + 1)]
        )
        assert np.allclose(fast, naive)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            sliding_window_max(np.zeros(3), 0)
        with pytest.raises(ValueError):
            sliding_window_max(np.zeros(3), 4)


@pytest.fixture
def rigid_instance() -> Instance:
    tasks = [
        MalleableTask.rigid("w4", 2.0, 8),
        MalleableTask.rigid("w3", 1.5, 8),
        MalleableTask.rigid("w2", 1.0, 8),
        MalleableTask.rigid("s1", 0.8, 8),
        MalleableTask.rigid("s2", 0.6, 8),
    ]
    return Instance(tasks, 8)


def widths_allotment(inst: Instance, widths: list[int]) -> Allotment:
    return Allotment(inst, widths)


class TestContiguousListSchedule:
    def test_produces_valid_schedule(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [4, 3, 2, 1, 1])
        sched = contiguous_list_schedule(allot, range(5))
        sched.validate()
        assert sched.is_complete()

    def test_first_tasks_start_at_zero_leftmost(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [4, 3, 2, 1, 1])
        sched = contiguous_list_schedule(allot, range(5))
        e0 = sched.entry_for(0)
        e1 = sched.entry_for(1)
        assert e0.start == 0.0 and e0.first_proc == 0
        assert e1.start == 0.0 and e1.first_proc == 4

    def test_second_level_task_rests_on_support(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [4, 3, 2, 1, 1])
        sched = contiguous_list_schedule(allot, range(5))
        # width-2 task cannot fit next to 4+3 at time 0 (only 1 processor left)
        e2 = sched.entry_for(2)
        assert e2.start > 0.0
        supports = [
            e
            for e in sched.entries
            if e.end == pytest.approx(e2.start)
            and max(e.first_proc, e2.first_proc)
            < min(e.first_proc + e.num_procs, e2.first_proc + e2.num_procs)
        ]
        assert supports, "a second-level task must rest on an earlier task"

    def test_order_subset_schedules_partially(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [4, 3, 2, 1, 1])
        sched = contiguous_list_schedule(allot, [0, 1])
        assert len(sched) == 2
        sched.validate(require_complete=False)

    def test_duplicate_order_rejected(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [4, 3, 2, 1, 1])
        with pytest.raises(SchedulingError):
            contiguous_list_schedule(allot, [0, 0, 1])

    def test_start_offset(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [4, 3, 2, 1, 1])
        sched = contiguous_list_schedule(allot, range(5), start_offset=5.0)
        assert min(e.start for e in sched.entries) == pytest.approx(5.0)

    def test_initial_avail_profile(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [1, 1, 1, 1, 1])
        avail = np.array([0.0, 0.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0])
        sched = contiguous_list_schedule(allot, range(5), initial_avail=avail)
        # the two free processors get the first two tasks at time 0
        starts = sorted(e.start for e in sched.entries)
        assert starts[0] == 0.0 and starts[1] == 0.0

    def test_initial_avail_wrong_shape(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [1, 1, 1, 1, 1])
        with pytest.raises(SchedulingError):
            contiguous_list_schedule(allot, range(5), initial_avail=np.zeros(3))

    def test_makespan_at_least_area_bound(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [4, 3, 2, 1, 1])
        sched = contiguous_list_schedule(allot, range(5))
        assert sched.makespan() >= allot.area_bound() - 1e-9


class TestComputeLevels:
    def test_levels_of_simple_stack(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [8, 8, 8, 8, 8])
        sched = contiguous_list_schedule(allot, range(5))
        levels = compute_levels(sched)
        assert sorted(levels.values()) == [1, 2, 3, 4, 5]

    def test_first_level_is_start_zero(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [4, 3, 2, 1, 1])
        sched = contiguous_list_schedule(allot, range(5))
        levels = compute_levels(sched)
        for entry in sched.entries:
            if entry.start == 0.0:
                assert levels[entry.task_index] == 1
            else:
                assert levels[entry.task_index] >= 2

    def test_empty_schedule(self, rigid_instance):
        from repro.model.schedule import Schedule

        assert compute_levels(Schedule(rigid_instance)) == {}


# --------------------------------------------------------------------------- #
# differential: doubling windows vs the deque oracle
# --------------------------------------------------------------------------- #
@st.composite
def list_cases(draw):
    """An allotted instance, a partial order and a start profile.

    Durations and availabilities are drawn from small integers most of the
    time, so equal window maxima (ties) are common and both tie-break
    branches — leftmost at the initial time, rightmost later — run.
    """
    m = draw(st.integers(min_value=1, max_value=16))
    n = draw(st.integers(min_value=1, max_value=10))
    integral = draw(st.booleans())
    value = (
        st.integers(min_value=1, max_value=4).map(float)
        if integral
        else st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
    )
    tasks = [
        MalleableTask(f"t{i}", draw(st.lists(value, min_size=m, max_size=m)),
                      require_monotonic=False)
        for i in range(n)
    ]
    instance = Instance(tasks, m)
    widths = draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    order = order[: draw(st.integers(min_value=0, max_value=n))]
    start = draw(st.sampled_from(["zero", "offset", "avail"]))
    kwargs: dict = {}
    if start == "offset":
        kwargs["start_offset"] = draw(st.sampled_from([0.0, 1.0, 2.5, 7.0]))
    elif start == "avail":
        avail_value = (
            st.integers(min_value=0, max_value=3).map(float)
            if integral
            else st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
        )
        kwargs["initial_avail"] = np.array(
            draw(st.lists(avail_value, min_size=m, max_size=m))
        )
    return Allotment(instance, widths), order, kwargs


class TestDifferentialAgainstDequeOracle:
    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=3).map(float),
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            ),
            min_size=1,
            max_size=140,
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_sliding_window_max_equals_oracle_exactly(self, values, data):
        arr = np.array(values)
        width = data.draw(st.integers(min_value=1, max_value=len(values)))
        fast = sliding_window_max(arr, width)
        assert fast.dtype == float
        assert fast.tolist() == oracle_sliding_window_max(arr, width).tolist()

    def test_sliding_window_max_returns_a_fresh_array(self):
        values = np.array([3.0, 1.0, 2.0])
        out = sliding_window_max(values, 1)
        out[0] = -1.0
        assert values[0] == 3.0

    @given(case=list_cases())
    @settings(max_examples=400, deadline=None)
    def test_entries_equal_oracle_exactly(self, case):
        allotment, order, kwargs = case
        new = contiguous_list_schedule(allotment, order, **kwargs)
        old = oracle_contiguous_list_schedule(allotment, order, **kwargs)
        assert new.entries == old.entries

    def test_both_tie_branches_are_exercised(self):
        # Four unit tasks of width 2 on 4 processors: two start at 0
        # (leftmost ties), two rest on them at time 1 (rightmost ties).
        inst = Instance([MalleableTask.rigid(f"u{i}", 1.0, 4) for i in range(4)], 4)
        allot = Allotment(inst, [2, 2, 2, 2])
        new = contiguous_list_schedule(allot, range(4))
        assert new.entries == oracle_contiguous_list_schedule(allot, range(4)).entries
        assert [(e.start, e.first_proc) for e in new.entries] == [
            (0.0, 0), (0.0, 2), (1.0, 2), (1.0, 0),
        ]

    def test_error_paths_match_oracle(self, rigid_instance):
        allot = widths_allotment(rigid_instance, [4, 3, 2, 1, 1])
        for fn in (contiguous_list_schedule, oracle_contiguous_list_schedule):
            with pytest.raises(SchedulingError):
                fn(allot, [0, 0, 1])
            with pytest.raises(SchedulingError):
                fn(allot, range(5), initial_avail=np.zeros(3))

    GRID = [
        (family, n, m)
        for family in ("mixed", "uniform", "heavy-tailed")
        for n, m in ((50, 32), (200, 64), (500, 128))
    ]

    def test_mrt_on_grid_equals_oracle_run(self, monkeypatch):
        """The whole √3 scheduler, memo included, is byte-identical to a run
        whose canonical list branch is the pre-doubling implementation."""

        def run() -> list[str]:
            return [
                json.dumps(
                    MRTScheduler().schedule(make_workload(f, n, m, seed=0)).as_dict(),
                    sort_keys=True,
                )
                for f, n, m in self.GRID
            ]

        new = run()
        monkeypatch.setattr(
            mrt_module, "canonical_list_schedule", oracle_canonical_list_schedule
        )
        assert run() == new
