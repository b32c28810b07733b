"""Span recording around the repository's public functions, and its analysis.

Recording happens in the traced server process (see ``serve_traced.py``):
:func:`install` replaces each function named in :data:`TARGETS` by a
wrapper that records one span per call.  The program's own code is not
changed; the wrappers live here, around the calls into each layer.

A span is the tuple ``(id, parent, name, start, end, thread, attr)``.  The
parent is the innermost open span of the same thread, or ``-1``.  Work that
one request hands to another thread (dispatcher, worker pool, replay
producer) or process (cluster shard) starts with parent ``-1``; the
analysis adopts it into the innermost span of another thread that contains
it in time (:func:`build_forest`).  ``time.perf_counter`` reads the
system-wide monotonic clock, so spans of different processes compare.

A layer's self time is its span's duration minus the part of that interval
its children cover (:func:`self_times`).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import os
import pickle
import sys
import threading
from time import perf_counter

from measure import union_length

__all__ = [
    "Recorder",
    "TARGETS",
    "build_forest",
    "install",
    "layer_budget",
    "load_spans",
    "self_times",
    "walk",
]

ROOT_DAEMON = "root.daemon"
ROOT_ROUTER = "root.router"

#: ``(module, qualified name, span name)``: each function that is timed,
#: and the layer name its spans carry.
TARGETS = [
    ("repro.service.http.app", "App.read_json_body", "http.parse"),
    ("repro.service.core", "request_from_payload", "service.request"),
    ("repro.service.core", "SchedulerService.submit", "service.submit"),
    ("repro.service.core", "compute_response", "service.compute"),
    ("repro.service.cache", "LRUTTLCache.get", "cache.lookup"),
    ("repro.service.cache", "LRUTTLCache.get_if_hit", "cache.lookup"),
    ("repro.service.cache", "LRUTTLCache.put", "cache.store"),
    ("repro.service.cluster.router", "routing_info", "router.route"),
    ("repro.service.cluster.router", "replay_routing_key", "router.route"),
    ("repro.model.instance", "Instance.from_dict", "model.parse"),
    ("repro.model.schedule", "Schedule.validate", "model.validate"),
    ("repro.model.schedule", "Schedule.as_dict", "model.serialize"),
    ("repro.service.core", "canonical_json", "model.serialize"),
    ("repro.core.mrt", "MRTScheduler.schedule", "core.mrt"),
    ("repro.core.dual", "dual_search", "core.dual_search"),
    ("repro.core.mrt", "MRTDual.run", "core.guess"),
    ("repro.core.malleable_list", "MalleableListDual.run", "core.malleable_list"),
    ("repro.core.canonical_list", "canonical_list_schedule", "core.canonical_list"),
    ("repro.core.list_scheduling", "sliding_window_max", "core.window_max"),
    ("repro.core.partition", "build_partition", "core.two_shelves"),
    ("repro.core.two_shelves", "find_trivial_solution", "core.two_shelves"),
    ("repro.core.two_shelves", "build_trivial_schedule", "core.two_shelves"),
    ("repro.core.two_shelves", "build_lambda_schedule", "core.two_shelves"),
    ("repro.core.two_shelves", "select_shelf2_subset", "core.knapsack"),
    ("repro.core.malleable_list", "MalleableListScheduler.schedule", "core.fallback"),
    ("repro.lower_bounds", "trivial_lower_bound", "lower_bounds"),
    ("repro.lower_bounds", "canonical_area_lower_bound", "lower_bounds"),
    ("repro.lower_bounds", "squashed_area_lower_bound", "lower_bounds"),
    ("repro.online.replay", "replay_from_payload", "online.parse"),
    ("repro.online.replay", "compute_replay_response", "online.response"),
    ("repro.online.epoch", "EpochRescheduler.replay", "online.kernel"),
    ("repro.online.availability", "AvailabilityRescheduler.replay", "online.kernel"),
    ("repro.online.epoch", "plan_batch", "online.plan"),
    ("repro.online.plancache", "PlanCache.fetch", "plancache"),
    ("repro.online.plancache", "PlanCache.store", "plancache"),
]

#: Modules imported before patching, so that every ``from x import f``
#: copy of a patched function already exists and is rebound too.
_PRELOAD = [
    "repro.cli",
    "repro.service",
    "repro.service.server",
    "repro.service.cluster",
    "repro.service.cluster.router",
    "repro.online.replay",
    "repro.online.availability",
    "repro.core.mrt",
]

#: Spans whose whole subtree is credited to them: the fallback scheduler
#: runs its own dual search, which is not the MRT search being measured.
_FOLDED = {"core.fallback"}

#: Spans that, directly under a ``core.guess`` span, mean that ``MRTDual.run``
#: tried that branch for the guess.
BRANCH_ENTRY = {
    "core.malleable_list": "malleable-list",
    "core.canonical_list": "canonical-list",
    "core.two_shelves": "two-shelves",
}


def _guess_attr(args, result):
    return args[0].last_branch


def _mrt_attr(args, result):
    search = args[0].last_result.search
    info = args[1].engine_cache_info() or {"hits": 0, "misses": 0}
    return (len(search.trace), info["hits"], info["misses"])


def _compute_attr(args, result):
    return result["fingerprint"]


_ATTRS = {
    "core.guess": _guess_attr,
    "core.mrt": _mrt_attr,
    "service.compute": _compute_attr,
}


class Recorder:
    """In-memory span sink of one process; written out once at exit."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Drop every span (a forked shard starts with an empty record)."""
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn, attr=None):
        """``fn`` recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                value = attr(args, result) if attr is not None and result is not None else None
                self.spans.append(
                    (sid, parent, name, start, end, threading.get_ident(), value)
                )

        return wrapper

    def wrap_handle(self, fn):
        """``App.handle`` as a root span that lasts until a stream is drained."""

        @functools.wraps(fn)
        def handle(app, request):
            stack = self._stack()
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                response = fn(app, request)
            finally:
                stack.pop()
            name = ROOT_ROUTER if type(app).__name__ == "RouterApp" else ROOT_DAEMON
            what = f"{request.method} {request.path}"
            if response.stream is None:
                self.spans.append(
                    (sid, -1, name, start, perf_counter(), threading.get_ident(), what)
                )
            else:
                response.stream = self._drain(response.stream, sid, name, start, what)
            return response

        return handle

    def _drain(self, frames, sid, name, start, what):
        try:
            yield from frames
        finally:
            self.spans.append(
                (sid, -1, name, start, perf_counter(), threading.get_ident(), what)
            )

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            pickle.dump({"pid": os.getpid(), "spans": self.spans}, fh)


def _rebind(raw, new) -> None:
    """Replace ``raw`` by ``new`` in every loaded ``repro`` module."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is raw:
                setattr(module, key, new)


def install(recorder: Recorder) -> None:
    """Wrap every target of :data:`TARGETS` and ``App.handle``."""
    for name in _PRELOAD:
        importlib.import_module(name)
    app_mod = importlib.import_module("repro.service.http.app")
    app_mod.App.handle = recorder.wrap_handle(app_mod.App.handle)
    for module_name, qualname, span in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr_name = qualname.rpartition(".")
        attr = _ATTRS.get(span)
        if not owner_name:
            raw = getattr(module, attr_name)
            _rebind(raw, recorder.wrap(span, raw, attr))
            continue
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr_name]
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr_name, type(raw)(recorder.wrap(span, raw.__func__, attr)))
        else:
            setattr(owner, attr_name, recorder.wrap(span, raw, attr))


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def load_spans(paths) -> list[dict]:
    """Spans of every dumped process as dicts with a ``key`` of (pid, id)."""
    spans = []
    for path in paths:
        with open(path, "rb") as fh:
            doc = pickle.load(fh)
        pid = doc["pid"]
        for sid, parent, name, start, end, tid, attr in doc["spans"]:
            spans.append(
                {
                    "key": (pid, sid),
                    "parent": (pid, parent) if parent >= 0 else None,
                    "name": name,
                    "start": start,
                    "end": end,
                    "thread": (pid, tid),
                    "attr": attr,
                }
            )
    return spans


def build_forest(spans: list[dict]) -> list[dict]:
    """Link children to parents and return the top-level spans.

    A span that began with no parent on its own thread is adopted by the
    innermost span of another thread that contains it: for a root span
    (``root.*``) only a span of another process (router -> shard), for
    any other span only one of the same process (hand-off to a worker).
    """
    by_key = {s["key"]: s for s in spans}
    for s in spans:
        s["children"] = []
    orphans = [s for s in spans if s["parent"] is None]
    orphans.sort(key=lambda s: s["start"])
    starts = [s["start"] for s in orphans]
    longest = max((s["end"] - s["start"] for s in orphans), default=0.0)
    for s in orphans:
        is_root = s["name"].startswith("root.")
        best = None
        i = bisect.bisect_right(starts, s["start"]) - 1
        while i >= 0 and starts[i] >= s["start"] - longest:
            c = orphans[i]
            i -= 1
            if c is s or c["thread"] == s["thread"] or c["end"] < s["end"]:
                continue
            same_process = c["key"][0] == s["key"][0]
            if same_process == is_root:
                continue
            if best is None or c["end"] - c["start"] < best["end"] - best["start"]:
                best = c
        if best is not None:
            s["parent"] = best["key"]
    tops = []
    for s in spans:
        parent = by_key.get(s["parent"]) if s["parent"] is not None else None
        if parent is None:
            tops.append(s)
        else:
            parent["children"].append(s)
    return tops


def self_times(span: dict) -> None:
    """Set ``self`` on ``span`` and its subtree (duration minus children)."""
    stack = [span]
    while stack:
        node = stack.pop()
        children = node["children"]
        covered = union_length(
            ((c["start"], c["end"]) for c in children), node["start"], node["end"]
        )
        node["self"] = node["end"] - node["start"] - covered
        stack.extend(children)


def layer_budget(root: dict) -> dict[str, float]:
    """Self seconds per layer under ``root``.

    A root's own self time is the router's relay work for ``root.router``
    and unattributed time for ``root.daemon`` (daemon or shard handler
    glue that no layer span covers).  Spans under a folded span count as
    that span's layer.
    """
    self_times(root)
    budget: dict[str, float] = {}
    stack = [(root, None)]
    while stack:
        node, folded = stack.pop()
        name = folded or node["name"]
        if name == ROOT_DAEMON:
            name = "unattributed"
        elif name == ROOT_ROUTER:
            name = "router.forward"
        budget[name] = budget.get(name, 0.0) + node["self"]
        if folded is None and node["name"] in _FOLDED:
            folded = node["name"]
        stack.extend((c, folded) for c in node["children"])
    return budget


def walk(root: dict):
    """Every span of ``root``'s subtree, parents before children."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node["children"])
