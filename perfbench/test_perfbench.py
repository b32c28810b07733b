"""Tests of the benchmark's own helpers (no server is started)."""

from __future__ import annotations

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import loadgen  # noqa: E402
from measure import (  # noqa: E402
    percentile,
    proc_tree,
    tree_cpu_seconds,
    tree_peak_rss_mb,
    union_length,
)
from spans import build_forest, layer_budget  # noqa: E402


# ---------------------------------------------------------------------- #
# percentile
# ---------------------------------------------------------------------- #
def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 90) == pytest.approx(3.7)
    assert percentile([7.0], 90) == 7.0


def test_percentile_counts_failures_as_missing_every_limit():
    values = [1.0, 2.0, 3.0, math.inf]
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 100) == math.inf


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# ---------------------------------------------------------------------- #
# span self time
# ---------------------------------------------------------------------- #
def _span(pid, sid, parent, name, start, end, tid=1, attr=None):
    return {
        "key": (pid, sid),
        "parent": (pid, parent) if parent is not None else None,
        "name": name,
        "start": start,
        "end": end,
        "thread": (pid, tid),
        "attr": attr,
    }


def test_union_length_counts_overlap_once_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], 2, 4) == 2
    assert union_length([]) == 0


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        _span(1, 0, None, "root.daemon", 0.0, 10.0),
        _span(1, 1, 0, "http.parse", 1.0, 2.0),
        # a child with its own child: the grandchild does not count
        # against the root a second time
        _span(1, 2, 0, "service.submit", 3.0, 6.0),
        _span(1, 3, 2, "cache.lookup", 4.0, 5.0),
        # handed to another thread, overlapping the submit span
        _span(1, 4, None, "service.compute", 5.0, 8.0, tid=2),
        _span(1, 5, 4, "model.parse", 5.0, 6.0, tid=2),
    ]
    tops = build_forest(spans)
    assert [t["name"] for t in tops] == ["root.daemon"]
    budget = layer_budget(tops[0])
    # covered by children: [1,2] and [3,8] -> 6 of 10
    assert budget["unattributed"] == pytest.approx(4.0)
    assert budget["http.parse"] == pytest.approx(1.0)
    assert budget["service.submit"] == pytest.approx(2.0)
    assert budget["cache.lookup"] == pytest.approx(1.0)
    assert budget["service.compute"] == pytest.approx(2.0)
    assert budget["model.parse"] == pytest.approx(1.0)
    # submit and compute overlap on [5, 6] on two threads: each keeps that
    # second as its own self time, so the budget exceeds the root by it
    assert sum(budget.values()) == pytest.approx(11.0)


def test_shard_root_is_adopted_by_router_and_fallback_folds():
    spans = [
        _span(1, 0, None, "root.router", 0.0, 10.0),
        _span(2, 0, None, "root.daemon", 1.0, 9.0),
        _span(2, 1, 0, "core.fallback", 2.0, 8.0),
        _span(2, 2, 1, "core.dual_search", 3.0, 7.0),
        # an unrelated request of the shard process is not adopted by a
        # span of its own process
        _span(2, 3, None, "root.daemon", 20.0, 21.0, tid=3),
    ]
    tops = build_forest(spans)
    assert sorted(t["start"] for t in tops) == [0.0, 20.0]
    budget = layer_budget(next(t for t in tops if t["name"] == "root.router"))
    assert budget["router.forward"] == pytest.approx(2.0)
    assert budget["unattributed"] == pytest.approx(2.0)
    assert budget["core.fallback"] == pytest.approx(6.0)
    assert "core.dual_search" not in budget


# ---------------------------------------------------------------------- #
# /proc readings over a process tree
# ---------------------------------------------------------------------- #
_CHILD = """
import subprocess, sys, time
grandchild = subprocess.Popen([sys.executable, "-c", sys.argv[1]])
print("ready", flush=True)
time.sleep(30)
"""
_GRANDCHILD = """
import time
block = bytearray(64 * 1024 * 1024)
end = time.process_time() + 0.3
while time.process_time() < end:
    pass
time.sleep(30)
"""


def test_proc_tree_cpu_and_rss_are_summed_over_descendants():
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, _GRANDCHILD], stdout=subprocess.PIPE, text=True
    )
    try:
        assert child.stdout.readline().strip() == "ready"
        deadline = time.monotonic() + 20
        while tree_cpu_seconds(child.pid) < 0.25 and time.monotonic() < deadline:
            time.sleep(0.05)
        tree = proc_tree(child.pid)
        assert tree[0] == child.pid and len(tree) == 2
        assert tree_cpu_seconds(child.pid) >= 0.25
        assert tree_cpu_seconds(tree[0]) > tree_cpu_seconds(tree[1]) - 1e-9
        assert tree_peak_rss_mb(child.pid) >= 64
        assert tree_peak_rss_mb(child.pid) > tree_peak_rss_mb(tree[1])
    finally:
        loadgen.kill_tree(child.pid)
        child.wait(timeout=10)
        child.stdout.close()
    assert child.poll() is not None


# ---------------------------------------------------------------------- #
# request lists
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(loadgen.BUILDERS))
def test_same_seed_gives_byte_identical_request_lists(name):
    build = loadgen.BUILDERS[name]
    first = [r.body for r in build(7, 8).requests]
    again = [r.body for r in build(7, 8).requests]
    other = [r.body for r in build(8, 8).requests]
    assert first == again
    assert first != other


def test_cold_schedule_sends_distinct_bodies_in_equal_thirds():
    workload = loadgen.cold_schedule(3, 9)
    bodies = [r.body for r in workload.requests]
    assert len(set(bodies)) == 9
    sizes = sorted(
        (len(workload.inputs[r.key]["instance"]["tasks"]), workload.inputs[r.key]["instance"]["num_procs"])
        for r in workload.requests
    )
    assert sizes == sorted(loadgen.SIZE_CLASSES * 3)


def test_replay_sends_every_trace_twice_in_equal_kind_shares():
    workload = loadgen.replay_stream(3, 16)
    keys = [r.key for r in workload.requests]
    assert all(keys.count(k) == 2 for k in set(keys))
    kinds = [r.kind for r in workload.requests]
    assert len(set(kinds)) == 4
    assert all(kinds.count(k) == len(kinds) // 4 for k in set(kinds))


@pytest.mark.parametrize("seed", range(5))
def test_reuse_distance_lands_on_both_sides_of_plan_cache_capacity(seed):
    # 72 traces: the replay-stream list of a 15-second run.
    order, distances = loadgen.replay_order(np.random.default_rng(seed), 72)
    assert sorted(order) == sorted(list(range(72)) * 2)
    assert len(distances) == 72
    near = [d for d in distances if d <= 1]
    far = [d for d in distances if d > 2 * loadgen.CAPACITY_DISTANCE]
    assert len(near) == 54 and len(far) == 18


# ---------------------------------------------------------------------- #
# the client's host-speed calibration
# ---------------------------------------------------------------------- #
def test_drive_scales_each_chunk_by_the_calibrations_around_it(monkeypatch):
    calibrations = iter([0.004, 0.006, 0.010])
    monkeypatch.setattr(loadgen, "calibrate", lambda: next(calibrations))
    monkeypatch.setattr(loadgen, "CHUNK_S", 0.0)  # one request per chunk

    class Client:
        def schedule_raw(self, body):
            return {"result": {}}

    workload = loadgen.cold_schedule(3, 3)
    outcomes = loadgen.drive(Client(), workload, workload.requests[:2])
    c = loadgen.CALIBRATION_S
    assert [o.factor for o in outcomes] == pytest.approx([2 * c / 0.010, 2 * c / 0.016])
    assert all(0 < o.elapsed_s and o.scaled_ms == o.latency_ms * o.factor for o in outcomes)
