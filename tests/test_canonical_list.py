"""Tests for the Canonical List Algorithm (Section 3.2, Theorem 2, Lemma 1)."""

from __future__ import annotations

import gc
import json
import math
import pickle
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import CanonicalListScheduler, best_lower_bound, mixed_instance
from repro.core.canonical_list import (
    MU_STAR,
    CanonicalListDual,
    canonical_list_schedule,
    first_two_level_completion,
    outside_levels_are_small_sequential,
)
from repro.core import allotment_engine
from repro.core.list_scheduling import compute_levels
from repro.core.mrt import MRTScheduler
from repro.lint import run_lint
from repro.lower_bounds import canonical_area_lower_bound
from repro.model.schedule import Schedule
from repro.workloads.adversarial import property3_stress_instances
from repro.workloads.generators import make_workload


class TestCanonicalListSchedule:
    def test_mu_star_value(self):
        assert MU_STAR == pytest.approx(math.sqrt(3) / 2)

    def test_none_on_infeasible_guess(self, medium_instance):
        assert canonical_list_schedule(medium_instance, 1e-9) is None
        assert canonical_list_schedule(medium_instance, -1.0) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_valid_complete_schedule(self, seed):
        inst = mixed_instance(18, 12, seed=seed)
        guess = canonical_area_lower_bound(inst) * 1.3
        schedule = canonical_list_schedule(inst, guess)
        if schedule is None:
            pytest.skip("guess infeasible for the canonical allotment")
        schedule.validate()
        assert schedule.is_complete()

    def test_every_task_uses_canonical_allotment(self, medium_instance):
        guess = canonical_area_lower_bound(medium_instance) * 1.2
        schedule = canonical_list_schedule(medium_instance, guess)
        assert schedule is not None
        for entry in schedule.entries:
            task = medium_instance.tasks[entry.task_index]
            assert entry.num_procs == task.canonical_procs(guess)

    def test_tasks_with_time_above_half_on_first_level(self):
        """Tasks of canonical time > d/2 land on the first level when OPT <= d.

        This is the structural fact behind Lemma 1: only small sequential
        tasks can be pushed above the first level.
        """
        for inst in property3_stress_instances(12, MU_STAR, trials=10, rng=5):
            schedule = canonical_list_schedule(inst, 1.0)
            if schedule is None:
                continue
            levels = compute_levels(schedule)
            for entry in schedule.entries:
                t = inst.tasks[entry.task_index].canonical_time(1.0)
                if t is not None and t > 0.5 + 1e-9 and levels[entry.task_index] > 1:
                    # Such a violation would contradict the witness construction.
                    pytest.fail("a long task was pushed above the first level")

    def test_lemma1_outside_levels_small_sequential(self):
        """Lemma 1: tasks outside the first two levels are sequential and short."""
        for inst in property3_stress_instances(16, MU_STAR, trials=10, rng=9):
            schedule = canonical_list_schedule(inst, 1.0)
            if schedule is None:
                continue
            assert outside_levels_are_small_sequential(schedule, 1.0)

    def test_first_two_level_completion_bounded_by_makespan(self, medium_instance):
        guess = canonical_area_lower_bound(medium_instance) * 1.5
        schedule = canonical_list_schedule(medium_instance, guess)
        assert schedule is not None
        assert first_two_level_completion(schedule) <= schedule.makespan() + 1e-9


class TestPlacementMemo:
    """canonical_list_schedule memoizes placements per canonical allotment."""

    @staticmethod
    def fresh_instance():
        return make_workload("mixed", 30, 16, seed=4)

    def test_repeated_allotment_returns_equal_distinct_schedule(self):
        inst = self.fresh_instance()
        guess = canonical_area_lower_bound(inst) * 1.3
        first = canonical_list_schedule(inst, guess)
        second = canonical_list_schedule(inst, guess)
        assert first is not None and second is not None
        assert first is not second
        assert first.entries == second.entries
        assert second.algorithm == "canonical-list"
        info = inst.engine_cache_info()
        assert (info["placement_misses"], info["placement_hits"]) == (1, 1)

    def test_mutating_a_hit_does_not_leak_into_later_hits(self):
        inst = self.fresh_instance()
        guess = canonical_area_lower_bound(inst) * 1.3
        reference = canonical_list_schedule(inst, guess)
        hit = canonical_list_schedule(inst, guess)
        hit.add(0, 1e6, 0, 1)
        later = canonical_list_schedule(inst, guess)
        assert later.entries == reference.entries
        assert len(later) == inst.num_tasks

    def test_nearby_guess_with_same_allotment_is_a_hit(self):
        inst = self.fresh_instance()
        guess = canonical_area_lower_bound(inst) * 1.3
        canonical_list_schedule(inst, guess)
        nudged = guess * (1 + 1e-7)
        assert (
            inst.engine.allotment(nudged).procs.tolist()
            == inst.engine.allotment(guess).procs.tolist()
        )
        canonical_list_schedule(inst, nudged)
        assert inst.engine_cache_info()["placement_hits"] == 1

    def test_every_returned_schedule_is_validated(self, monkeypatch):
        inst = self.fresh_instance()
        guess = canonical_area_lower_bound(inst) * 1.3
        calls = []
        original = Schedule.validate

        def counting(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Schedule, "validate", counting)
        first = canonical_list_schedule(inst, guess)
        second = canonical_list_schedule(inst, guess)
        assert calls == [first, second]

    def test_gamma_counters_keep_their_meaning(self):
        inst = self.fresh_instance()
        engine = inst.engine
        guess = canonical_area_lower_bound(inst) * 1.3
        engine.clear_cache()
        canonical_list_schedule(inst, guess)
        canonical_list_schedule(inst, guess)
        info = inst.engine_cache_info()
        # one γ(d) pass, then a γ hit; one placement build, then a reuse
        assert (info["misses"], info["hits"]) == (1, 1)
        assert (info["placement_misses"], info["placement_hits"]) == (1, 1)
        assert info["size"] == 1 and info["placement_size"] == 1
        engine.clear_cache()
        info = engine.cache_info()
        assert info["placement_size"] == info["placement_hits"] == 0

    def test_placement_lru_is_bounded_by_the_engine_capacity(self):
        inst = make_workload("uniform", 5, 4, seed=1)
        engine = allotment_engine.AllotmentEngine(inst.times_matrix, cache_size=2)
        for key in range(5):
            engine.placements(bytes([key]), tuple)
        assert engine.cache_info()["placement_size"] == 2

    def test_pickling_drops_the_memo_with_the_engine(self):
        inst = self.fresh_instance()
        MRTScheduler().schedule(inst)
        assert inst.engine_cache_info()["placement_size"] > 0
        clone = pickle.loads(pickle.dumps(inst))
        assert clone.engine_cache_info() is None
        assert clone.engine.cache_info()["placement_size"] == 0

    def test_memo_dies_with_its_instance(self):
        inst = self.fresh_instance()
        schedule = canonical_list_schedule(inst, canonical_area_lower_bound(inst) * 1.3)
        # the entry is shared with the memo: it survives only if the memo does
        entry_ref = weakref.ref(schedule.entries[0])
        del inst, schedule
        gc.collect()
        assert entry_ref() is None

    def test_threads_sharing_one_instance_agree(self):
        serial = self.fresh_instance()
        expected = json.dumps(MRTScheduler().schedule(serial).as_dict(), sort_keys=True)
        info = serial.engine_cache_info()
        lookups = info["placement_hits"] + info["placement_misses"]
        shared = self.fresh_instance()

        def run(_):
            return json.dumps(MRTScheduler().schedule(shared).as_dict(), sort_keys=True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(run, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8
        # every lookup is counted once: a lost counter update would show
        info = shared.engine_cache_info()
        assert info["placement_hits"] + info["placement_misses"] == 8 * lookups

    def test_engine_lock_discipline_passes_rl004(self, tmp_path):
        # RL004 only scans service/; audit the engine's memo under it too.
        source = Path(allotment_engine.__file__).read_text()
        target = tmp_path / "service" / "allotment_engine.py"
        target.parent.mkdir()
        target.write_text(source)
        result = run_lint(tmp_path, rules=["RL004"])
        assert result.new == []


class TestCanonicalListDual:
    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            CanonicalListDual(mu=0.4)
        with pytest.raises(ValueError):
            CanonicalListDual(mu=1.1)

    def test_accepts_only_within_target(self, medium_instance):
        dual = CanonicalListDual()
        lb = canonical_area_lower_bound(medium_instance)
        for factor in (1.0, 1.3, 2.0, 4.0):
            schedule = dual.run(medium_instance, lb * factor)
            if schedule is not None:
                assert schedule.makespan() <= dual.rho * lb * factor + 1e-6

    def test_rho_is_two_mu(self):
        dual = CanonicalListDual(mu=0.9)
        assert dual.rho == pytest.approx(1.8)


class TestCanonicalListScheduler:
    @pytest.mark.parametrize("seed", range(4))
    def test_valid_and_reasonable(self, seed):
        inst = mixed_instance(16, 16, seed=seed)
        scheduler = CanonicalListScheduler()
        schedule = scheduler.schedule(inst)
        schedule.validate()
        lb = best_lower_bound(inst)
        # unconditional fallback keeps the ratio within 2 (plus search slack)
        assert schedule.makespan() <= 2.01 * lb * (1 + 1e-3) or schedule.makespan() <= 2.01 * scheduler.last_result.best_guess

    def test_theorem2_bound_when_hypotheses_hold(self):
        """When W_m <= mu*m*d at the accepted guess, makespan <= 2*mu*d."""
        inst = mixed_instance(25, 16, seed=42)
        scheduler = CanonicalListScheduler(eps=1e-3)
        schedule = scheduler.schedule(inst)
        d = scheduler.last_result.best_guess
        area = inst.mu_area(d)
        if area is not None and area <= MU_STAR * inst.num_procs * d:
            assert schedule.makespan() <= 2 * MU_STAR * d * (1 + 1e-6)
