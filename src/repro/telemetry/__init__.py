"""Unified telemetry: metrics, spans, and cache observability.

One substrate for serving latencies, cache counters, plan/encode
counters and trace events:

- :class:`MetricsRegistry` — thread-safe counters, gauges and fixed-bucket
  histograms with deterministic nearest-rank percentiles and labeled
  families; ``serve-sim`` prints its latency and queue-wait lines from
  the serving histograms.
- :class:`Tracer` / :class:`Span` — request-scoped span trees with
  virtual-clock support, so serve-sim (virtual seconds), a batched
  ``run_batch`` pass, the accelerator simulator and the compiled kernel
  all nest into one trace.
- :class:`Memo` + the cache registry — every process-wide LRU in the
  codebase (plans, layer-sim results, DSE memos, window plans) reports
  hit/miss/eviction counters as :class:`CacheStats` under one dotted
  namespace, and :func:`clear_caches` resets them all.
- Exporters — lossless JSON-lines round-trip — plus
  :func:`validate_snapshot` for the CI schema check.
- :class:`Telemetry` — the facade bundling one registry + tracer, passed
  to the serving engine explicitly or installed process-wide via
  :func:`activate`; ``None`` is the one off switch.

See ``docs/observability.md`` for the full tour and overhead numbers.
"""

from .caches import cache_snapshot
from .context import Telemetry, activate

__all__ = [
    "cache_snapshot",
    "Telemetry",
    "activate",
]
