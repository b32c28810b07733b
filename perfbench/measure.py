"""Statistics, ``/proc`` readings and the host-speed calibration.

None of these helpers needs a server, so they can be tested on their own.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

__all__ = [
    "BENCH_CPUS",
    "BOOT_CALIBRATION_S",
    "CALIBRATION_S",
    "HOST_CPUS",
    "calibrate",
    "calibrate_boot",
    "geomean",
    "percentile",
    "proc_tree",
    "tree_cpu_seconds",
    "tree_peak_rss_mb",
    "union_length",
]

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    ``math.inf`` entries (failed requests) sort last, so a failure counts
    as missing every latency limit.  An empty input raises ``ValueError``.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi or data[hi] == data[lo]:
        return float(data[lo])
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def geomean(values) -> float:
    """Geometric mean of positive numbers."""
    data = list(values)
    if not data:
        raise ValueError("geometric mean of an empty sample")
    return math.exp(sum(math.log(v) for v in data) / len(data))


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by ``(start, end)`` intervals, clipped to [lo, hi].

    Overlapping intervals are counted once — the part of a span that its
    children cover when two children (on different threads) overlap.
    """
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo)
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _read_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name is parenthesised and may itself contain spaces.
    return raw[raw.rindex(")") + 2 :].split()


def proc_tree(root: int) -> list[int]:
    """``root`` and every live descendant process, root first."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _read_stat(int(entry))
        if fields is None:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    tree = [root]
    frontier = [root]
    while frontier:
        nxt = []
        for pid in frontier:
            nxt.extend(children.get(pid, []))
        tree.extend(nxt)
        frontier = nxt
    return tree


def tree_cpu_seconds(root: int) -> float:
    """User plus system CPU seconds of ``root`` and its live descendants."""
    total = 0
    for pid in proc_tree(root):
        fields = _read_stat(pid)
        if fields is not None:
            # utime and stime are fields 14 and 15 of stat(5); the slice
            # above starts at field 3 (state).
            total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def tree_peak_rss_mb(root: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``root`` and descendants."""
    total_kb = 0
    for pid in proc_tree(root):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0



#: Every CPU this process may use, read before :data:`BENCH_CPUS` pins it.
HOST_CPUS = os.sched_getaffinity(0)
#: The one CPU that the server under test (its whole process tree) and the
#: client share.  With one connection in a closed loop they never compete,
#: and a calibration timed on this CPU follows the speed that both get.
BENCH_CPUS = {min(HOST_CPUS)}

#: Seconds :func:`calibrate` takes on the 2-core dev box in a fast minute.
CALIBRATION_S = 0.0050

_CAL_DOC = {
    "tasks": [
        {"id": i, "times": [float(x) for x in np.random.default_rng(i).random(16)]}
        for i in range(30)
    ]
}


def calibrate() -> float:
    """Seconds of a fixed kernel, timed in the calling process.

    The host shares its cores with other tenants, and a core's speed drifts
    by up to 2x from one second to the next, so the benchmark times this
    kernel next to each chunk of requests, on the same CPU.  The kernel does
    not use the repository.  It encodes, decodes, hashes and sorts a small
    JSON document, then builds and drops 2000 small objects: interpreter,
    allocator and cache work like most of the server's.  Of the kernels
    tried (an arithmetic loop, a NumPy sliding-window maximum, pointer
    chasing over 300k objects, JSON alone, allocation alone), this pair
    tracked all three workloads closest.  The garbage collector is off
    while it runs, as a collection's cost depends on the whole heap.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            text = json.dumps(_CAL_DOC, sort_keys=True)
            doc = json.loads(text)
            hashlib.blake2b(text.encode()).digest()
            sorted(doc["tasks"], key=lambda t: t["times"][3])
        objects = [{"a": i, "b": (i, str(i)), "c": [i]} for i in range(2000)]
        json.dumps(objects[:400])
        del objects
        return time.perf_counter() - start
    finally:
        gc.enable()


#: Seconds :func:`calibrate_boot` takes on the 2-core dev box in a fast minute.
BOOT_CALIBRATION_S = 0.25


def calibrate_boot() -> float:
    """Seconds to start an interpreter that imports what the server's boot
    imports outside the repository: NumPy and the standard library's HTTP,
    JSON and executor modules.

    A boot is process start-up, file reads, page faults and unmarshalling,
    whose speed on this host moves unlike that of :func:`calibrate`, so the
    set-up time has a calibration of its own.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy, http.server, json, concurrent.futures"],
        check=True,
    )
    return time.perf_counter() - start
