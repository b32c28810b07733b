"""The repository benchmark: the scheduling service under three workloads.

Usage::

    python3 perfbench/run.py --workload cold-schedule --seed 1 --seconds 15 --trace 0

Each run boots the server in its own process through the public CLI, sends
a fixed, seeded list of requests over the public client, and checks every
response against an in-process computation after the timed phase.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untraced pass and one pass against a server whose layer functions are
wrapped by ``serve_traced.py``, and reports the per-layer metrics.  See
``README.md`` for the workloads, the metrics and what each should move.
The exit status is non-zero on a wrong output, a failed workload-identity
guard, or when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import copy
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: Requests per second of ``--seconds``: the list length is this times the
#: seconds, so every run with the same arguments sends the same requests.
RATES = {"cold-schedule": 10.0, "warm-schedule": 120.0, "replay-stream": 10.0}
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5


@dataclass
class Phase:
    """One timed pass over a workload's request list.

    ``seconds`` is the sum of the requests' own times, without the
    calibrations between chunks; ``scaled_s`` is the same sum with each
    request's time multiplied by its chunk's host factor (see
    ``loadgen.drive``).
    """

    outcomes: list
    cpu_s: float
    start: float
    end: float
    rss_mb: float
    before: dict
    after: dict
    retries: int

    @property
    def ok(self) -> list:
        return [o for o in self.outcomes if o.response is not None]

    @property
    def seconds(self) -> float:
        return sum(o.elapsed_s for o in self.outcomes)

    @property
    def scaled_s(self) -> float:
        return sum(o.elapsed_s * o.factor for o in self.outcomes)

    @property
    def factor(self) -> float:
        return self.scaled_s / self.seconds

    @property
    def raw_rps(self) -> float:
        return len(self.ok) / self.seconds

    @property
    def rps(self) -> float:
        return len(self.ok) / self.scaled_s


def counters(doc: dict) -> dict:
    """The ``/metrics`` counters this benchmark reads, daemon or cluster."""
    body = doc.get("cluster", doc)
    return {
        "requests": body["requests_total"],
        "batches": body["batches"],
        "cache_hits": body["cache"]["hits"],
        "cache_misses": body["cache"]["misses"],
        "plan_hits": body["plan_cache"]["hits"],
        "plan_misses": body["plan_cache"]["misses"],
        "imbalance": (doc.get("imbalance") or {}).get("max_over_ideal") or 0.0,
    }


def delta(phase: Phase, key: str) -> int:
    return counters(phase.after)[key] - counters(phase.before)[key]


def hit_ratio(phase: Phase, prefix: str) -> float:
    hits = delta(phase, f"{prefix}_hits")
    lookups = hits + delta(phase, f"{prefix}_misses")
    return hits / lookups if lookups else 0.0


def set_up(workload, span_dir=None):
    """Boot a server and send the warm-up requests.

    Returns the server, a client, and the set-up time raw and scaled.  The
    boot is scaled by :func:`measure.calibrate_boot` timed before and after
    the set-up, and the warm-up by the calibrations between its chunks.
    """
    from loadgen import Server, drive
    from repro.service.client import ServiceClient

    from measure import BOOT_CALIBRATION_S, calibrate_boot

    before = calibrate_boot()
    start = time.perf_counter()
    server = Server(ROOT, WORK, workload.shards, span_dir)
    try:
        server.start()
        boot = time.perf_counter() - start
        client = ServiceClient(server.url, timeout=120.0)
        outcomes = drive(client, workload, workload.warmup)
        failed = [o.error for o in outcomes if o.error]
    except BaseException:
        server.stop()
        raise
    if failed:
        server.stop()
        raise RuntimeError(f"warm-up failed: {failed[0]}")
    boot_factor = 2 * BOOT_CALIBRATION_S / (before + calibrate_boot())
    raw = boot + sum(o.elapsed_s for o in outcomes)
    scaled = boot * boot_factor + sum(o.elapsed_s * o.factor for o in outcomes)
    return server, client, (raw, scaled)


def timed(server, client, workload) -> Phase:
    from loadgen import drive
    from measure import tree_cpu_seconds, tree_peak_rss_mb

    before = client.metrics()
    retries = client.retries_total
    cpu = tree_cpu_seconds(server.pid)
    start = time.perf_counter()
    outcomes = drive(client, workload, workload.requests, workload.host_exponent)
    end = time.perf_counter()
    # The calibrations between chunks run while the server is idle.
    cpu = tree_cpu_seconds(server.pid) - cpu
    rss = tree_peak_rss_mb(server.pid)
    after = client.metrics()
    return Phase(outcomes, cpu, start, end, rss, before, after, client.retries_total - retries)


# ---------------------------------------------------------------------- #
# output check
# ---------------------------------------------------------------------- #
def zero_wall_clock(doc: dict) -> dict:
    """A replay document without the fields that read the wall clock."""
    doc = copy.deepcopy(doc)
    doc.pop("elapsed_ms", None)
    doc["result"]["compute_ms"] = 0.0
    for epoch in doc["result"]["epochs"]:
        epoch["compute_ms"] = 0.0
    return doc


def expected_result(path: str, body: dict) -> str:
    """In-process result of one input, as canonical JSON."""
    from repro.online.replay import compute_replay_response, replay_from_payload
    from repro.service.core import canonical_json, compute_response

    if path == "/schedule":
        doc = compute_response(
            body["instance"], body["algorithm"], body.get("params", {}), body["validate"]
        )["result"]
    else:
        doc = zero_wall_clock(compute_replay_response(*replay_from_payload(body)))
    return canonical_json(doc)


def expected_results(workload) -> dict[int, str]:
    """In-process result of every distinct timed input.

    They are computed after the timed phase, in one process per CPU of the
    host (at most 4), not only on the benchmark's CPU: on cold-schedule
    this check costs about as much compute as the timed phase itself.
    """
    from measure import HOST_CPUS

    keys = sorted({r.key for r in workload.requests})
    bodies = [workload.inputs[key] for key in keys]
    with ProcessPoolExecutor(
        max_workers=min(len(HOST_CPUS), 4),
        mp_context=multiprocessing.get_context("fork"),
        initializer=os.sched_setaffinity,
        initargs=(0, HOST_CPUS),
    ) as pool:
        docs = pool.map(expected_result, [workload.path] * len(keys), bodies, chunksize=4)
        return dict(zip(keys, docs))


def check(workload, phase: Phase, expected: dict) -> list[str]:
    """Mismatches between the responses and the in-process results."""
    from repro.service.core import canonical_json

    problems = []
    for i, (request, out) in enumerate(zip(workload.requests, phase.outcomes)):
        if out.response is None:
            continue
        if workload.path == "/schedule":
            got = canonical_json(out.response["result"])
        else:
            if canonical_json(out.frames) != canonical_json(out.response["result"]["epochs"]):
                problems.append(f"request {i}: streamed frames differ from final epochs")
            got = canonical_json(zero_wall_clock(out.response))
        if got != expected[request.key]:
            problems.append(f"request {i} (input {request.key}): result differs from in-process")
    return problems


def identity_guard(name: str, phase: Phase) -> list[str]:
    """cold-schedule must never hit the result cache; warm-schedule always."""
    ratio = hit_ratio(phase, "cache")
    lookups = delta(phase, "cache_hits") + delta(phase, "cache_misses")
    if name == "cold-schedule" and (lookups == 0 or ratio != 0.0):
        return [f"cache.hit_ratio {ratio} on cold-schedule, expected 0"]
    if name == "warm-schedule" and (lookups == 0 or ratio != 1.0):
        return [f"cache.hit_ratio {ratio} on warm-schedule, expected 1"]
    return []


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def latency(workload, phase: Phase, q: float) -> float:
    """The ``q``-th percentile of latency within each request class, geometric
    mean over
    classes: the nine size x family cells of cold-schedule, the four
    kernel x pattern classes of replay-stream (first sends only), one class
    on warm-schedule.
    Each latency is scaled by its chunk's host factor.  A failed request
    is ``inf`` and so misses every limit; a percentile that lands on one
    reads as the whole timed phase."""
    from measure import geomean, percentile

    kinds: dict[str, list] = {}
    for request, out in zip(workload.requests, phase.outcomes):
        if not request.repeat:
            kinds.setdefault(request.kind, []).append(out.scaled_ms)
    values = [percentile(v, q) for v in kinds.values()]
    return geomean(min(v, phase.scaled_s * 1e3) for v in values)


def quality(workload, phase: Phase) -> tuple[float, float]:
    """Mean makespan over the best lower bound, and mean task stretch
    (completion minus release, over the task's fastest time)."""
    from repro.lower_bounds import best_lower_bound
    from repro.model.instance import Instance

    cache: dict[int, tuple] = {}
    ratios, stretches = [], []
    for request, out in zip(workload.requests, phase.outcomes):
        if out.response is None:
            continue
        if request.key not in cache:
            body = workload.inputs[request.key]
            inst = Instance.from_dict(body.get("instance") or body["trace"])
            cache[request.key] = (inst, best_lower_bound(inst))
        inst, bound = cache[request.key]
        result = out.response["result"]
        ratios.append(result["makespan"] / bound)
        if "mean_stretch" in result:
            stretches.append(result["mean_stretch"])
        else:
            entries = result["schedule"]["entries"]
            stretches.append(
                statistics.fmean(
                    (e["start"] + e["duration"]) / inst.tasks[e["task_index"]].min_time()
                    for e in entries
                )
            )
    return statistics.fmean(ratios), statistics.fmean(stretches)


def end_to_end(workload, phase: Phase, setups: list[tuple[float, float]]) -> dict:
    ratio, stretch = quality(workload, phase)
    ok = len(phase.ok)
    return {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "throughput_rps": (phase.rps, "1/s"),
        "p50_ms": (latency(workload, phase, 50), "ms"),
        "p90_ms": (latency(workload, phase, 90), "ms"),
        "server_cpu_ms_per_req": (phase.cpu_s * phase.factor * 1e3 / ok, "ms"),
        "server_rss_mb": (phase.rss_mb, "MB"),
        "ratio_to_lb": (ratio, "ratio"),
        "mean_stretch": (stretch, "ratio"),
    }


def per_layer(workload, plain: Phase, traced: Phase, span_files) -> dict:
    """Per-layer metrics: client-side ones from the untraced pass, span and
    ``/metrics`` ones from the traced pass."""
    from measure import percentile
    from spans import BRANCH_ENTRY, build_forest, layer_budget, load_spans, walk

    tops = build_forest(load_spans(span_files))
    wanted = f"POST {workload.path}"
    roots = [
        t for t in tops
        if t["name"].startswith("root.") and t["attr"] == wanted
        and traced.start <= t["start"] <= traced.end
    ]
    n = max(1, len(roots))
    server_s = sum(r["end"] - r["start"] for r in roots)
    budget: dict[str, float] = {}
    for root in roots:
        for layer, seconds in layer_budget(root).items():
            budget[layer] = budget.get(layer, 0.0) + seconds
    counts: dict[str, int] = {}
    tries = dict.fromkeys(BRANCH_ENTRY.values(), 0)
    accepts = dict.fromkeys(BRANCH_ENTRY.values(), 0)
    guesses, memo_hits, memo_misses, plan_ms = [], 0, 0, []
    compute_ms: dict[str, float] = {}
    for root in roots:
        for span in walk(root):
            kind = span["name"]
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "core.guess":
                for branch in {BRANCH_ENTRY[c["name"]] for c in span["children"] if c["name"] in BRANCH_ENTRY}:
                    tries[branch] += 1
                # the accepted schedule's algorithm, e.g. "two-shelves-trivial"
                accepted = span["attr"] or ""
                for branch in accepts:
                    if accepted.startswith(branch):
                        accepts[branch] += 1
            elif kind == "core.mrt" and span["attr"] is not None:
                guesses.append(span["attr"][0])
                memo_hits += span["attr"][1]
                memo_misses += span["attr"][2]
            elif kind == "online.plan":
                plan_ms.append((span["end"] - span["start"]) * 1e3)
            elif kind == "service.compute":
                compute_ms[span["attr"]] = (span["end"] - span["start"]) * 1e3

    def self_ms(layer: str) -> float:
        return budget.get(layer, 0.0) * 1e3 / n

    def p50(values) -> float:
        values = list(values)
        return percentile(values, 50) if values else 0.0

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    replays = workload.path == "/replay"
    metrics = {
        "http.gap_ms": (p50(o.latency_ms - o.response["elapsed_ms"] for o in plain.ok), "ms"),
        "client.retries": (plain.retries + traced.retries, "count"),
        "client.stream_errors": (
            sum(o.error.startswith("stream") for o in plain.outcomes + traced.outcomes), "count"
        ),
        "service.elapsed_ms": (p50(o.response["elapsed_ms"] for o in plain.ok), "ms"),
        "service.queue_wait_ms": (
            0.0 if replays else p50(
                o.response["elapsed_ms"] - compute_ms.get(o.response["fingerprint"], 0.0)
                for o in traced.ok
            ),
            "ms",
        ),
        "service.batch_size": (
            delta(traced, "requests") / delta(traced, "batches") if delta(traced, "batches") else 0.0,
            "count",
        ),
        "cache.hit_ratio": (hit_ratio(traced, "cache"), "ratio"),
        "core.dual_search_ms": (self_ms("core.dual_search"), "ms"),
        "core.guess_ms": (self_ms("core.guess"), "ms"),
        "core.guesses": (mean(guesses), "count"),
        "core.canonical_list_ms": (self_ms("core.canonical_list"), "ms"),
        "core.window_max_ms": (self_ms("core.window_max"), "ms"),
        "core.window_max_calls": (counts.get("core.window_max", 0) / n, "count"),
        "core.two_shelves_ms": (self_ms("core.two_shelves"), "ms"),
        "core.knapsack_ms": (self_ms("core.knapsack"), "ms"),
        "core.fallback_ms": (self_ms("core.fallback"), "ms"),
        "engine.memo_hit_ratio": (
            memo_hits / (memo_hits + memo_misses) if memo_hits + memo_misses else 0.0, "ratio"
        ),
        "model.parse_ms": (self_ms("model.parse"), "ms"),
        "model.validate_ms": (self_ms("model.validate"), "ms"),
        "model.validate_calls": (counts.get("model.validate", 0) / n, "count"),
        "model.serialize_ms": (self_ms("model.serialize"), "ms"),
        "lower_bounds.ms": (self_ms("lower_bounds"), "ms"),
        "online.plan_ms": (mean(plan_ms), "ms"),
        "online.kernel_self_ms": (self_ms("online.kernel"), "ms"),
        "online.epochs": (mean(o.response["result"]["num_epochs"] for o in traced.ok) if replays else 0.0, "count"),
        "online.frame_spread_ms": (
            p50(o.last_frame_ms - o.first_frame_ms for o in traced.ok) if replays else 0.0, "ms"
        ),
        "plancache.hit_ratio": (hit_ratio(traced, "plan"), "ratio"),
        "router.forward_ms": (self_ms("router.forward"), "ms"),
        "router.imbalance": (counters(traced.after)["imbalance"], "ratio"),
        "trace.overhead": (traced.rps - plain.rps, "1/s"),
        "trace.unattributed_share": (budget.get("unattributed", 0.0) / server_s if server_s else 0.0, "ratio"),
    }
    for branch in tries:
        metrics[f"core.branch_tries.{branch}"] = (tries[branch], "count")
        metrics[f"core.branch_accepts.{branch}"] = (accepts[branch], "count")
    for kernel in ("barrier", "availability"):
        sent = [o for r, o in zip(workload.requests, plain.outcomes) if r.kind.startswith(kernel) and not r.repeat]
        first = [o.first_frame_ms for o in sent]
        full = [o.latency_ms for o in sent]
        metrics[f"replay.first_frame_ms.{kernel}"] = (p50(first), "ms")
        metrics[f"replay.ms.{kernel}"] = (p50(full), "ms")
    return metrics


# ---------------------------------------------------------------------- #
# runs
# ---------------------------------------------------------------------- #
def report(label: str, phase: Phase) -> None:
    attempted = len(phase.outcomes)
    ok = len(phase.ok)
    stream = sum(o.error.startswith("stream") for o in phase.outcomes)
    print(
        f"{label}: attempted={attempted} succeeded={ok} failed={attempted - ok} "
        f"(http={attempted - ok - stream} stream={stream}) "
        f"retried={phase.retries} seconds={phase.seconds:.3f} "
        f"raw_rps={phase.raw_rps:.4f} host_factor={phase.factor:.4f}"
    )
    for out in phase.outcomes:
        if out.error:
            print(f"  failure: {out.error}")
            break


def run_plain(name: str, workload) -> tuple[dict, list[Phase], list[str]]:
    setups = []
    for i in range(SETUPS):
        server, client, seconds = set_up(workload)
        setups.append(seconds)
        if i < SETUPS - 1:
            server.stop()
    try:
        phase = timed(server, client, workload)
    finally:
        server.stop()
    print("setup_s per set-up, raw/scaled: " + " ".join(f"{r:.4f}/{c:.4f}" for r, c in setups))
    report("timed", phase)
    problems = identity_guard(name, phase) + check(workload, phase, expected_results(workload))
    return end_to_end(workload, phase, setups), [phase], problems


def run_traced(name: str, workload) -> tuple[dict, list[Phase], list[str]]:
    server, client, _ = set_up(workload)
    try:
        plain = timed(server, client, workload)
    finally:
        server.stop()
    span_dir = WORK / "spans"
    span_dir.mkdir()
    server, client, _ = set_up(workload, span_dir)
    try:
        traced = timed(server, client, workload)
    finally:
        server.stop()
    report("untraced", plain)
    report("traced", traced)
    expected = expected_results(workload)
    problems = []
    for phase in (plain, traced):
        problems += identity_guard(name, phase) + check(workload, phase, expected)
    span_files = sorted(span_dir.glob("spans-*.pkl"))
    metrics = per_layer(workload, plain, traced, span_files)
    return metrics, [plain, traced], problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the ``finally`` blocks stop the server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repository sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from measure import BENCH_CPUS

    # The server's process tree inherits the pinning.
    os.sched_setaffinity(0, BENCH_CPUS)
    from loadgen import BUILDERS

    workload = BUILDERS[args.workload](args.seed, max(4, round(RATES[args.workload] * args.seconds)))
    if workload.reuse_distances:
        d = sorted(workload.reuse_distances)
        print(f"reuse distances (requests): min={d[0]} median={d[len(d) // 2]} max={d[-1]}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        run = run_traced if args.trace else run_plain
        metrics, phases, problems = run(args.workload, workload)
    except BaseException:
        log = WORK / "server.log"
        if log.exists():
            print(log.read_text(errors="replace")[-4000:], file=sys.stderr)
        raise
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems[:10]:
        print(f"CHECK FAILED: {problem}")
    attempted = sum(len(p.outcomes) for p in phases)
    failed = attempted - sum(len(p.ok) for p in phases)
    for key, (value, unit) in metrics.items():
        print(f"{key:36s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
