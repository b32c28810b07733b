"""Seeded request lists, the server under test, and the closed-loop client.

The server runs in its own process, started through the public CLI
(``python -m repro serve``), and load comes from this process over the
public :class:`repro.service.client.ServiceClient`.  Every request body is
generated here from the workload seed; the server never generates inputs.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from measure import CALIBRATION_S, calibrate, proc_tree

#: ``/schedule`` size classes (tasks, processors) of cold-schedule, in
#: equal thirds so that the median stays inside the middle class.
SIZE_CLASSES = [(50, 16), (100, 32), (200, 64)]
FAMILIES = ["mixed", "uniform", "heavy-tailed"]
#: warm-schedule's pool, all sent once during set-up.  With 30x16 bodies
#: a hit costs 2 ms, most of it system calls and thread hand-offs, whose
#: cost this host varies apart from its compute speed: raw times of four
#: runs spread 0.39.  With 100x32 bodies (60 kB) parsing, fingerprinting
#: and serialising dominate, and four runs interleaved with those spread
#: 0.07.
WARM_POOL = 30
WARM_SIZE = (100, 32)
#: replay-stream traces: mixed family, 32 tasks on 16 processors.  With 64
#: tasks an availability replay took 670 ms, so a run held too few traces
#: for steady percentiles; with 32 tasks it takes about 200 ms.
REPLAY_SIZE = (32, 16)
PATTERNS = ["poisson", "burst"]
KERNELS = ["barrier", "availability"]
#: The server's default per-shard plan-cache capacity, and the mean number
#: of plan lookups of one replay of this mix (barrier 3-14, availability
#: 31-46, measured over ten traces each).  With two shards, one intervening replay adds about
#: PLANS_PER_REPLAY / SHARDS plans to the shard that will see the repeat,
#: so a repeat more than CAPACITY_DISTANCE requests after its first send
#: has usually lost its plans.
PLAN_CACHE_CAPACITY = 512
PLANS_PER_REPLAY = 20
SHARDS = 2
CAPACITY_DISTANCE = PLAN_CACHE_CAPACITY / (PLANS_PER_REPLAY / SHARDS)


@dataclass
class Request:
    """One request of a workload's list."""

    body: bytes
    #: Request class: latency percentiles are taken within a class.
    kind: str
    #: Index of the distinct input this request sends (for the output check).
    key: int
    #: The second send of a replay trace.  The plan cache may serve it, so
    #: its latency is left out of the latency percentiles: a class mixing
    #: hits and misses has its median between two modes.
    repeat: bool = False


@dataclass
class Workload:
    requests: list[Request]
    #: Distinct inputs by ``Request.key``, decoded; warm-up keys are < 0.
    inputs: dict[int, dict]
    #: Requests sent once during each set-up, outside the timed phase.
    warmup: list[Request]
    path: str
    shards: int
    #: How steeply the timed requests' cost follows the host speed that
    #: :func:`measure.calibrate` sees, as the slope of log time against
    #: log calibration time over runs (see :func:`drive`).
    host_exponent: float = 1.0
    #: replay-stream only: requests between the two sends of each trace.
    reuse_distances: list[int] = field(default_factory=list)


def _encode(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True).encode()


def _schedule_body(instance) -> dict:
    return {"instance": instance.as_dict(), "algorithm": "mrt", "validate": False}


def cold_schedule(seed: int, count: int) -> Workload:
    """``count`` distinct ``/schedule`` bodies, equal thirds per size class.

    Each (size class, family) cell is one request class: the cells' costs
    differ up to 25x, so a percentile over the whole mix falls between
    cells and moves with the seed.
    """
    from repro.workloads.generators import make_workload

    rng = np.random.default_rng([seed, 1])
    count = max(3, count - count % 3)
    inputs, requests = {}, []
    for k in range(count):
        n, m = SIZE_CLASSES[k % 3]
        family = FAMILIES[(k // 3) % 3]
        inst = make_workload(family, n, m, seed=int(rng.integers(2**31)))
        inputs[k] = _schedule_body(inst)
        requests.append(Request(_encode(inputs[k]), f"{n}x{m}/{family}", k))
    order = rng.permutation(count)
    warm_rng = np.random.default_rng([seed, 2])
    warmup = []
    for i, (n, m) in enumerate(SIZE_CLASSES):
        inst = make_workload("mixed", n, m, seed=int(warm_rng.integers(2**31)))
        inputs[-1 - i] = _schedule_body(inst)
        warmup.append(Request(_encode(inputs[-1 - i]), "warmup", -1 - i))
    return Workload(
        requests=[requests[i] for i in order],
        inputs=inputs,
        warmup=warmup,
        path="/schedule",
        shards=1,
    )


def warm_schedule(seed: int, count: int) -> Workload:
    """``count`` requests drawn from a pool that set-up puts in the cache."""
    from repro.workloads.generators import make_workload

    rng = np.random.default_rng([seed, 3])
    n, m = WARM_SIZE
    inputs = {}
    pool = []
    for k in range(WARM_POOL):
        inst = make_workload(FAMILIES[k % 3], n, m, seed=int(rng.integers(2**31)))
        inputs[k] = _schedule_body(inst)
        pool.append(Request(_encode(inputs[k]), "schedule", k))
    picks = rng.integers(WARM_POOL, size=count)
    return Workload(
        requests=[pool[int(i)] for i in picks],
        inputs=inputs,
        warmup=pool,
        path="/schedule",
        shards=1,
        # Over 19 runs whose calibration ranged over 2.4x, raw throughput
        # moved as calibration time to the power -1.31: cache hits are
        # system calls, loopback copies of 60 kB bodies and thread
        # hand-offs, which slow more under contention than the kernel.
        # Cold-schedule and replay-stream fitted 1.07 and 1.09, where 1.0
        # left the smaller spread.
        host_exponent=1.3,
    )


def _replay_body(trace, kernel: str) -> dict:
    return {"trace": trace.as_dict(), "kernel": kernel, "algorithm": "mrt", "validate": False}


def replay_order(rng: np.random.Generator, traces: int) -> tuple[list[int], list[int]]:
    """Send order of ``traces`` traces, each sent twice, and each repeat's
    reuse distance (requests between its two sends).

    Trace ``j`` is of kind ``j % 4``.  In each kind the seed picks about a
    quarter of the traces to repeat far and the rest near.  The list is
    every far trace's first send, then the near traces in pairs (``a a b b``
    or ``a b a b``), then the far repeats in the order of their first sends.
    A near repeat comes within 1 request, so at most 3 replays of 46 plans
    separate it from its first send: it always finds its plans cached.  A
    far repeat comes about ``1.75 * traces`` requests later, more than
    ``CAPACITY_DISTANCE`` for the lists of runs of 15 seconds or more, so
    its shard has usually evicted them.  Each seed thus has about the same
    number of plan-cache hits, and so about the same work.
    """
    far, near = [], []
    for kind in range(4):
        members = list(rng.permutation(range(kind, traces, 4)))
        split = (len(members) + kind) // 4
        far += members[:split]
        near += members[split:]
    far = [int(j) for j in rng.permutation(far)]
    near = [int(j) for j in rng.permutation(near)]
    middle = []
    for i in range(0, len(near), 2):
        pair = near[i : i + 2]
        middle += pair + pair if rng.integers(2) else [j for j in pair for _ in (0, 1)]
    order = far + middle + far
    first: dict[int, int] = {}
    distances = []
    for pos, j in enumerate(order):
        if j in first:
            distances.append(pos - first[j] - 1)
        else:
            first[j] = pos
    return order, distances


def replay_stream(seed: int, count: int) -> Workload:
    """``count`` streamed replays: ``count // 2`` traces, each sent twice."""
    from repro.workloads.arrivals import make_trace

    rng = np.random.default_rng([seed, 4])
    traces = max(4, count // 2)
    traces -= traces % 4
    n, m = REPLAY_SIZE
    inputs, kinds = {}, {}
    for j in range(traces):
        pattern = PATTERNS[j % 2]
        kernel = KERNELS[(j // 2) % 2]
        trace = make_trace(pattern, "mixed", n, m, seed=int(rng.integers(2**31)))
        inputs[j] = _replay_body(trace, kernel)
        kinds[j] = f"{kernel}/{pattern}"
    order, distances = replay_order(rng, traces)
    encoded = {j: _encode(body) for j, body in inputs.items()}
    warm_rng = np.random.default_rng([seed, 5])
    warmup = []
    for i, kernel in enumerate(KERNELS):
        trace = make_trace("poisson", "mixed", n, m, seed=int(warm_rng.integers(2**31)))
        inputs[-1 - i] = _replay_body(trace, kernel)
        warmup.append(Request(_encode(inputs[-1 - i]), "warmup", -1 - i))
    seen: set[int] = set()
    requests = []
    for j in order:
        requests.append(Request(encoded[j], kinds[j], j, repeat=j in seen))
        seen.add(j)
    return Workload(
        requests=requests,
        inputs=inputs,
        warmup=warmup,
        path="/replay",
        shards=SHARDS,
        reuse_distances=distances,
    )


BUILDERS = {
    "cold-schedule": cold_schedule,
    "warm-schedule": warm_schedule,
    "replay-stream": replay_stream,
}


# ---------------------------------------------------------------------- #
# the server under test
# ---------------------------------------------------------------------- #
def kill_tree(pid: int) -> None:
    """SIGKILL ``pid`` and its descendants (cluster shards included)."""
    for child in reversed(proc_tree(pid)):
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:
            pass


class Server:
    """One ``serve`` process tree, booted through the public CLI.  It
    inherits this process's pinning to :data:`measure.BENCH_CPUS`, and the
    cluster's shards inherit it in turn."""

    def __init__(self, root: Path, work: Path, shards: int, span_dir: Path | None = None):
        self.root = root
        self.work = work
        self.shards = shards
        self.span_dir = span_dir
        self.proc: subprocess.Popen | None = None
        self.log = None
        self.url = ""

    def start(self, timeout: float = 60.0) -> None:
        ready = self.work / "ready"
        if ready.exists():
            ready.unlink()
        args = ["--port", "0", "--allow-shutdown", "--ready-file", str(ready)]
        if self.shards > 1:
            args += ["--shards", str(self.shards)]
        if self.span_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            launcher = str(Path(__file__).resolve().parent / "serve_traced.py")
            cmd = [sys.executable, launcher, str(self.span_dir), *args]
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.log = open(self.work / "server.log", "ab")
        self.proc = subprocess.Popen(
            cmd,
            cwd=self.root,
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            preexec_fn=_die_with_parent,
        )
        deadline = time.monotonic() + timeout
        while True:
            text = ready.read_text() if ready.exists() else ""
            if text.endswith("\n"):
                host, port = text.split()
                self.url = f"http://{host}:{port}"
                return
            if self.proc.poll() is not None:
                self.log.flush()
                tail = (self.work / "server.log").read_text(errors="replace")[-2000:]
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} during boot: {tail!r}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("server did not become ready")
            time.sleep(0.005)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout: float = 30.0) -> None:
        """Shut down via ``POST /shutdown``, then kill whatever is left."""
        if self.proc is not None:
            tree = proc_tree(self.proc.pid)
            if not (self.url and self._shutdown(timeout)):
                kill_tree(self.proc.pid)
                self.proc.wait(timeout=timeout)
            # Shards end when the router stops them; any that outlived it
            # (the router was killed) are reparented, so kill them by pid.
            deadline = time.monotonic() + 5.0
            while any(_alive(pid) for pid in tree[1:]) and time.monotonic() < deadline:
                time.sleep(0.05)
            for pid in tree[1:]:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            self.proc = None
        if self.log is not None:
            self.log.close()
            self.log = None

    def _shutdown(self, timeout: float) -> bool:
        """``POST /shutdown`` and wait for the exit; False if either failed."""
        from repro.service.client import ServiceClient, ServiceHTTPError

        try:
            client = ServiceClient(self.url, timeout=10.0, retries=0)
            try:
                client.shutdown()
            finally:
                client.close()
            self.proc.wait(timeout=timeout)
        except (OSError, http.client.HTTPException, ServiceHTTPError, subprocess.TimeoutExpired):
            return False
        return True


PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the server's child process: have the kernel SIGKILL it when this
    benchmark process dies, even by SIGKILL, so no server outlives a run."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


# ---------------------------------------------------------------------- #
# the client
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one request observed; ``latency_ms`` is ``inf`` on failure."""

    latency_ms: float = math.inf
    first_frame_ms: float = math.inf
    last_frame_ms: float = math.inf
    response: dict | None = None
    frames: list = field(default_factory=list)
    error: str = ""
    #: Seconds from send to reply or failure.
    elapsed_s: float = 0.0
    #: Host-speed factor of the request's chunk (see :func:`drive`).
    factor: float = 1.0

    @property
    def scaled_ms(self) -> float:
        return self.latency_ms * self.factor


def _send(client, workload: Workload, request: Request) -> Outcome:
    from repro.service.client import ReplayStreamError, ServiceHTTPError

    out = Outcome()
    start = time.perf_counter()

    def on_epoch(frame: dict) -> None:
        now = (time.perf_counter() - start) * 1e3
        if not out.frames:
            out.first_frame_ms = now
        out.last_frame_ms = now
        out.frames.append(frame)

    try:
        if workload.path == "/schedule":
            out.response = client.schedule_raw(request.body)
        else:
            body = workload.inputs[request.key]
            out.response = client.replay(
                trace=body["trace"],
                kernel=body["kernel"],
                algorithm=body["algorithm"],
                on_epoch=on_epoch,
            )
    except ReplayStreamError as exc:
        out.error = f"stream: {exc}"
    except (ServiceHTTPError, OSError, http.client.HTTPException, ValueError) as exc:
        out.error = f"http: {exc}"
    else:
        out.latency_ms = (time.perf_counter() - start) * 1e3
    out.elapsed_s = time.perf_counter() - start
    return out


#: Seconds of requests between two calibrations.
CHUNK_S = 0.05


def drive(
    client, workload: Workload, requests: list[Request], exponent: float = 1.0
) -> list[Outcome]:
    """Closed loop over one connection: each request is sent after the
    previous reply.

    The requests go in chunks of at least :data:`CHUNK_S` seconds, with
    :func:`measure.calibrate` timed before the first chunk and after each.
    The server is idle then, and it shares this CPU, so the calibrations
    around a chunk show the speed it ran at.  Each request of the chunk
    gets the factor ``CALIBRATION_S`` over their mean, to the power
    ``exponent`` (see ``Workload.host_exponent``).
    """
    outcomes: list[Outcome] = []
    before = calibrate()
    i = 0
    while i < len(requests):
        first = i
        start = time.perf_counter()
        while i < len(requests) and (i == first or time.perf_counter() - start < CHUNK_S):
            outcomes.append(_send(client, workload, requests[i]))
            i += 1
        after = calibrate()
        factor = (2 * CALIBRATION_S / (before + after)) ** exponent
        for out in outcomes[first:]:
            out.factor = factor
        before = after
    return outcomes
