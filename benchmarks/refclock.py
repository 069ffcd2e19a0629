"""Shared timing for the benchmark artifacts: perfbench's reference clock.

The artifacts time their paths on ``perfbench/harness.py``'s
:class:`RefClock` — CPU seconds rescaled by the interpreter calibration
kernel that brackets every interval, so a slow minute on a shared host
does not read as a regression — and stamp the host fingerprint the
perfbench results carry.
"""

import gc
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402  (perfbench/harness.py)

#: The simulator and the DSE grids are interpreter-bound, like perfbench's
#: ``design`` workload, so they share its calibration kernel.
KERNELS = ("events",)
CLOCK_UNIT = "reference seconds (perfbench harness.RefClock, events kernel)"

CLOCK = harness.RefClock(KERNELS)

#: The kernel benchmarks are BLAS GEMMs and memory-bound numpy passes, like
#: perfbench's ``run_batch`` timing, so they share its calibration kernels.
INFER_KERNELS = ("gemm", "stream")
INFER_CLOCK_UNIT = "reference seconds (perfbench harness.RefClock, gemm+stream kernels)"

INFER_CLOCK = harness.RefClock(INFER_KERNELS)


def timed(fn, clock=CLOCK) -> float:
    """Reference seconds of one call of ``fn`` on ``clock``."""
    with clock.interval() as took:
        fn()
    return took[0]


def best_of(fn, repeats: int, clock=CLOCK) -> float:
    """Best-of-``repeats`` reference seconds (min is the least noisy)."""
    return min(timed(fn, clock) for _ in range(repeats))


#: Reference seconds :func:`median_per_call` fills each interval with:
#: longer than the events calibration pass (~28 ms) that scales it.
INTERVAL_S = 0.05


def median_per_call(fn, repeats: int, clock=CLOCK) -> float:
    """Median over ``repeats`` intervals of reference seconds per call of ``fn``.

    For calls far shorter than the clock's calibration pass.  Each
    interval runs ``fn`` enough times to last about :data:`INTERVAL_S`,
    sized by one warm-up interval, so an interval is never a few
    milliseconds scaled by a pass ten times its length.  A full
    collection runs before every interval, so a generation-2 collection
    never lands in an interval or in the calibration pass that scales
    it; one that did made a best-of read ~25% low.
    """
    gc.collect()
    calls = max(1, round(INTERVAL_S / timed(fn, clock)))

    def batch():
        for _ in range(calls):
            fn()

    samples = []
    for _ in range(repeats):
        gc.collect()
        samples.append(timed(batch, clock) / calls)
    return statistics.median(samples)


def sgemm_peak_gflops(size: int = 1024, repeats: int = 5) -> float:
    """Best-of-``repeats`` float32 ``size``-cubed matmul rate on this host:
    the roof of every ``gemm32`` stage, beside the harness's float64 probe."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size), np.float32)
    b = rng.standard_normal((size, size), np.float32)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.matmul(a, b)
        best = min(best, time.perf_counter() - start)
    return 2.0 * size**3 / best / 1e9


def fingerprint() -> dict:
    """Where the artifact was measured (``harness.fingerprint``), with the
    float32 roof ``host.sgemm_peak_gflops`` beside its float64
    ``host.gemm_peak_gflops``."""
    return {
        **harness.fingerprint(harness.gemm_peak_gflops()),
        "host.sgemm_peak_gflops": sgemm_peak_gflops(),
    }


def telemetry_section(telemetry, families) -> dict:
    """Compact snapshot for bench artifacts: cache hit rates + span totals.

    ``families`` names the cache families to report, in order; a missing
    one raises ``KeyError``. A fixed list keeps the artifact a function of
    the bench, not of which modules happen to be imported.
    """
    from repro.telemetry.caches import cache_snapshot

    caches = cache_snapshot()
    return {
        "caches": {
            name: {
                key: caches[name][key]
                for key in ("hits", "misses", "evictions", "hit_rate")
            }
            for name in families
        },
        "span_totals": telemetry.tracer.totals(),
    }
