"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

The registry is the single metrics substrate for the whole repo — serving,
the accelerator simulator and the DSE flow all report through one
:class:`MetricsRegistry` so a snapshot tells the complete story of a run;
``serve-sim`` prints its latency and queue-wait lines from it. Design
constraints, in order:

- **Deterministic.** Histograms keep their raw samples and compute
  nearest-rank percentiles (``rank = ceil(p/100 * n) - 1`` over the
  sorted samples), so every figure is hand-pinnable.
- **Off is ``None``.** Code that may run untelemetered holds an
  ``Optional[Telemetry]`` (see :func:`repro.telemetry.context.get_active`);
  a registry always records.
- **Labeled families.** ``registry.counter("serve.requests",
  model="lenet")`` creates one child per label set, serialized into the
  snapshot as ``serve.requests{model="lenet"}`` — flat string keys keep
  the exported JSON trivially greppable.

Snapshots are plain JSON-serializable dicts; the exporters
(:mod:`repro.telemetry.exporters`) round-trip them losslessly.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS_S",
    "metric_key",
]

#: Default histogram buckets for virtual/wall times in seconds: geometric
#: decades from 1 microsecond to 10 seconds. Fixed and hand-enumerable so
#: bucket counts are pinnable in tests.
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0
)


def metric_key(name: str, labels: Dict[str, str]) -> str:
    """Flat snapshot key of one instrument: ``name{k="v",...}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with exact nearest-rank percentiles.

    ``buckets`` are finite upper bounds (inclusive, ascending); samples
    above the last bound land in ``overflow``. Raw samples are retained so
    ``percentile`` is the exact nearest-rank figure. Retention is fine at
    simulation scale (bounded request streams); production-scale callers
    can pass ``max_samples`` to cap the reservoir, which degrades
    percentiles to bucket-boundary precision once truncated.
    """

    __slots__ = ("_lock", "buckets", "bucket_counts", "overflow", "count",
                 "sum", "_min", "_max", "max_samples", "_samples", "truncated")

    def __init__(
        self,
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_S,
        max_samples: Optional[int] = None,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly ascending")
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self._lock = lock
        self.buckets = bounds
        self.bucket_counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self.max_samples = max_samples
        self._samples: List[float] = []
        self.truncated = False

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    break
            else:
                self.overflow += 1
            if self.max_samples is None or len(self._samples) < self.max_samples:
                self._samples.append(value)
            else:
                self.truncated = True

    def observe_many(self, values: Sequence[float]) -> None:
        """Bulk :meth:`observe` — one vectorized pass over ``values``.

        Semantically identical to observing each value in order (same
        bucket counts, same retained-sample prefix under ``max_samples``);
        the event-driven serving engine uses it to land millions of
        virtual latencies without a Python-level loop.
        """
        import numpy as np

        array = np.asarray(values, dtype=float)
        if array.ndim != 1:
            raise ValueError("observe_many takes a 1-D value sequence")
        if array.size == 0:
            return
        indices = np.searchsorted(self.buckets, array, side="left")
        counts = np.bincount(indices, minlength=len(self.buckets) + 1)
        with self._lock:
            self.count += int(array.size)
            self.sum += float(array.sum())
            low = float(array.min())
            high = float(array.max())
            self._min = low if self._min is None else min(self._min, low)
            self._max = high if self._max is None else max(self._max, high)
            for i in range(len(self.buckets)):
                self.bucket_counts[i] += int(counts[i])
            self.overflow += int(counts[len(self.buckets)])
            if self.max_samples is None:
                self._samples.extend(array.tolist())
            else:
                room = self.max_samples - len(self._samples)
                if room < array.size:
                    self.truncated = True
                if room > 0:
                    self._samples.extend(array[:room].tolist())

    @property
    def max(self) -> Optional[float]:
        return self._max

    @property
    def mean(self) -> Optional[float]:
        with self._lock:
            return self.sum / self.count if self.count else None

    def percentile(self, percentile: float) -> float:
        """Nearest-rank percentile over the retained samples:
        ``rank = ceil(p/100 * n) - 1`` over the sorted samples."""
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        with self._lock:
            if not self._samples:
                raise ValueError("histogram has no samples")
            ordered = sorted(self._samples)
        rank = math.ceil(percentile / 100 * len(ordered)) - 1
        return ordered[max(rank, 0)]

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable view (percentiles are None when empty)."""
        with self._lock:
            data: Dict[str, object] = {
                "count": self.count,
                "sum": self.sum,
                "min": self._min,
                "max": self._max,
                "mean": self.sum / self.count if self.count else None,
                "bucket_le": list(self.buckets),
                "bucket_counts": list(self.bucket_counts),
                "overflow": self.overflow,
                "truncated": self.truncated,
            }
            has_samples = bool(self._samples)
        for label, p in (("p50", 50), ("p95", 95), ("p99", 99)):
            data[label] = self.percentile(p) if has_samples else None
        return data


class MetricsRegistry:
    """Thread-safe home of every metric family in one process/run.

    Instruments are created on first use and identified by (kind, name,
    sorted labels).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ---- instrument accessors -----------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = metric_key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = Counter(self._lock)
                self._counters[key] = instrument
            return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = metric_key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = Gauge(self._lock)
                self._gauges[key] = instrument
            return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_S,
        max_samples: Optional[int] = None,
        **labels: str,
    ) -> Histogram:
        key = metric_key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = Histogram(
                    self._lock, buckets=buckets, max_samples=max_samples
                )
                self._histograms[key] = instrument
            return instrument

    # ---- snapshot ------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All metric families as one JSON-serializable dict."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
                "histograms": {
                    k: h.snapshot() for k, h in sorted(self._histograms.items())
                },
            }

