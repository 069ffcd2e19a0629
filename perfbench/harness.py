"""The benchmark's single timer, summary statistics and host fingerprint.

Every workload times its operations with :func:`timed_loop` and its set-up
with :class:`Phases`, both on a :class:`RefClock`; it summarizes them with
:class:`Summary` (median, quartiles, p90, min, max, n) and stamps its result
with :func:`fingerprint`.  Nothing here imports numpy at module level:
``run.py`` pins the BLAS thread count in the environment first, and numpy
reads it only once, when it is imported.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import importlib.util
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DECLARATION = ROOT / "BENCHMARK.json"

#: One BLAS thread, so a workload is one client on one core and its times
#: do not depend on how BLAS splits a call across cores that the harness's
#: own child processes and the host's other tenants also use.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin every BLAS/OpenMP pool to :data:`BLAS_THREADS` (before numpy loads)."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``; fail when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no repro package under {SRC}: run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_declaration() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads(DECLARATION.read_text())


# ---- statistics -----------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass(frozen=True)
class Summary:
    """Repeat statistics of one sampled quantity."""

    n: int
    median: float
    q1: float
    q3: float
    p90: float
    min: float
    max: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        return cls(
            n=len(values),
            median=percentile(values, 50),
            q1=percentile(values, 25),
            q3=percentile(values, 75),
            p90=percentile(values, 90),
            min=min(values),
            max=max(values),
        )

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)


# ---- the reference clock ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _operands() -> SimpleNamespace:
    import numpy as np

    rng = np.random.default_rng(0)
    return SimpleNamespace(
        np=np,
        matrix=rng.standard_normal((192, 192)),
        stream=np.arange(2_000_000, dtype=np.int64),  # 16 MB: beyond the caches
        out=np.empty(2_000_000, dtype=np.int64),
        gaps=rng.exponential(1.0, 6000).tolist(),
    )


def _gemm() -> None:
    """Compute-bound BLAS: what the inference GEMM stages mostly wait on."""
    ops = _operands()
    for _ in range(16):
        ops.np.matmul(ops.matrix, ops.matrix)


def _stream() -> None:
    """Memory-bound numpy: im2col patches, requantize passes, host stages."""
    ops = _operands()
    ops.np.add(ops.stream, 3, out=ops.out)
    ops.np.multiply(ops.out, ops.stream, out=ops.out)


def _events() -> None:
    """The interpreter: a miniature event loop of heaps, dicts and batches."""
    heap, now = [], 0.0
    for i, gap in enumerate(_operands().gaps):
        now += gap
        heap.append((now, 1, i))
    heapq.heapify(heap)
    free, waiting, done = list(range(16)), [], []
    while heap:
        now, kind, item = heapq.heappop(heap)
        if kind == 1:
            waiting.append({"id": item, "arrival": now, "urgent": item % 5 < 3})
        else:
            free.append(item)
        while free and waiting:
            batch, waiting = waiting[:8], waiting[8:]
            heapq.heappush(heap, (now + 0.5 + 0.1 * len(batch), 0, free.pop()))
            done.extend((r["id"], now - r["arrival"]) for r in batch)


#: Calibration kernels: fixed code outside the program, and each one's
#: median CPU seconds on the reference core (the 2-vCPU Intel Xeon guest
#: the bounds were set on).  The constants only fix the unit; changing one
#: rescales every result measured with it.
KERNELS: Dict[str, tuple] = {
    "gemm": (_gemm, 5.5e-3),
    "stream": (_stream, 4.0e-3),
    "events": (_events, 28e-3),
}


class RefClock:
    """CPU seconds rescaled to the reference core.

    On a shared host a core's speed drifts by tens of percent within
    seconds and between minutes, as other tenants load its hyperthread
    sibling, the caches and memory.  CPU time already leaves out the time
    this process waited for a core; for the drift, the chosen calibration
    kernels run right before and right after every timed interval, and the
    interval's CPU time is scaled by their reference time over their mean
    time around it.  The kernels are chosen to match the kind of work
    timed, so that a slowdown hits both alike and cancels.
    """

    def __init__(self, kernels: Sequence[str]) -> None:
        self.kernels = tuple(kernels)
        self.reference_s = sum(KERNELS[k][1] for k in self.kernels)
        self.calibrate()  # warm: operands allocated, their pages touched
        self._last: Optional[float] = None

    def calibrate(self) -> float:
        """CPU seconds of one pass over the kernels."""
        start = time.process_time()
        for kernel in self.kernels:
            KERNELS[kernel][0]()
        return time.process_time() - start

    def _scaled(self, cpu_s: float, before: float) -> float:
        self._last = self.calibrate()
        return cpu_s * self.reference_s * 2.0 / (before + self._last)

    def record(self, cpu_s: float) -> float:
        """Reference seconds of an interval measured just before this call."""
        return self._scaled(cpu_s, self.calibrate())

    @contextmanager
    def interval(self) -> Iterator[List[float]]:
        """Time the block; the yielded list holds its reference seconds after it."""
        # The pass after the previous interval serves as this one's "before".
        before = self._last if self._last is not None else self.calibrate()
        took: List[float] = []
        start = time.process_time()
        yield took
        took.append(self._scaled(time.process_time() - start, before))


@dataclass
class Loop:
    """Outcome of :func:`timed_loop`: who ran, how long, what failed."""

    seconds: Dict[int, float]  # operation index -> reference seconds, successes only
    failed: List[int]
    errors: List[str]
    wall: Dict[int, float] = field(default_factory=dict)  # the same, wall seconds

    @property
    def attempted(self) -> int:
        return len(self.seconds) + len(self.failed)


def timed_loop(
    prepare: Callable[[int], object],
    call: Callable[[object], object],
    check: Callable[[int, object], None],
    seconds: float,
    count: int,
    clock: Optional[RefClock],
) -> Loop:
    """Run operations until ``seconds`` have passed and ``count`` of them ran.

    Operation ``i`` is ``call(prepare(i))``; only ``call`` is timed, on
    ``clock`` (wall time when it is None: the caller times the operation
    itself).  ``prepare`` builds its input (the load generator's share) and
    ``check(i, result)`` verifies its output afterwards, raising on a
    mismatch.  A failing operation is counted and the loop goes on.
    """
    loop = Loop(seconds={}, failed=[], errors=[])
    begin = time.perf_counter()
    i = 0
    while i < count or time.perf_counter() - begin < seconds:
        try:
            argument = prepare(i)
            with clock.interval() if clock else nullcontext([]) as took:
                start = time.perf_counter()
                result = call(argument)
                wall = time.perf_counter() - start
            check(i, result)
            loop.seconds[i] = took[0] if took else wall
            loop.wall[i] = wall
        except Exception as error:  # counted toward `failed`, reported below
            loop.failed.append(i)
            if len(loop.errors) < 5:
                loop.errors.append(f"operation {i}: {type(error).__name__}: {error}")
        i += 1
    return loop


class Phases:
    """Reference seconds of named phases, as harness spans when traced."""

    def __init__(self, clock: RefClock, telemetry=None) -> None:
        self.clock = clock
        self.telemetry = telemetry
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        scope = self.telemetry.span(name) if self.telemetry is not None else nullcontext()
        with self.clock.interval() as took, scope:
            yield
        self.seconds[name] = self.seconds.get(name, 0.0) + took[0]

    def record(self, name: str, cpu_s: float) -> None:
        """A phase that ran before the clock existed (the imports)."""
        self.seconds[name] = self.clock.record(cpu_s)


def span_table(telemetry) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total seconds and self seconds.

    A span's self time is its duration minus the time its direct children
    cover, so self times add up to the root spans' total.
    """
    table: Dict[str, Dict[str, float]] = {}
    for span in telemetry.tracer.all_spans():
        if span.end_s is None:
            continue
        entry = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        children = sum(c.duration_s for c in span.children if c.end_s is not None)
        entry["count"] += 1
        entry["total_s"] += span.duration_s
        entry["self_s"] += span.duration_s - children
    return table


def trace_overhead_pct(untraced: Sequence[float], traced: Sequence[float]) -> float:
    """Median traced operation time over the untraced one, in percent above."""
    base = percentile(untraced, 50)
    return (percentile(traced, 50) - base) / base * 100.0


# ---- result helpers -------------------------------------------------------


def _canonical(value):
    """JSON-able ``value`` with floats cut to 9 significant digits.

    Model floats can differ in the last bits between CPUs whose BLAS or
    SIMD kernels sum in another order; nine digits keep every real change.
    """
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(*parts) -> str:
    """sha256 over bytes-like parts (exact) and canonical JSON of the rest."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray, memoryview)):
            h.update(bytes(part))
        else:
            h.update(json.dumps(_canonical(part), sort_keys=True).encode())
    return h.hexdigest()


def peak_rss_mb(include_self: bool = True) -> float:
    """Largest resident set of this process and its waited-for children."""
    peaks = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    if include_self:
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return max(peaks) / 1024.0  # Linux reports KiB


def child_json(args: Sequence[str], timeout_s: float = 150.0) -> dict:
    """Run ``run.py`` with ``args`` in a fresh interpreter; its last stdout line."""
    command = [sys.executable, str(Path(__file__).with_name("run.py")), *args]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=timeout_s, cwd=ROOT
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(args)} exited {done.returncode}: {done.stderr.strip()[-500:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---- host fingerprint -----------------------------------------------------


def gemm_peak_gflops(size: int = 1024, repeats: int = 5) -> float:
    """Best-of-``repeats`` float64 ``size``-cubed matmul rate on this host."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        np.matmul(a, b)
        best = min(best, time.perf_counter() - start)
    return 2.0 * size**3 / best / 1e9


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _blas() -> Dict[str, Optional[str]]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return {"name": None, "version": None}


def _git() -> Dict[str, object]:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=ROOT, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], capture_output=True, text=True,
            timeout=10, cwd=ROOT, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def fingerprint(gemm_gflops: float) -> Dict[str, object]:
    """Where a result was measured: CPU, Python/numpy/BLAS, threads, git."""
    import numpy as np

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "scipy": importlib.util.find_spec("scipy") is not None,
        "git": _git(),
        "host.gemm_peak_gflops": gemm_gflops,
    }
