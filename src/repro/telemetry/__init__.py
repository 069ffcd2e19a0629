"""Unified telemetry: metrics, spans, and cache observability.

One substrate for everything the repo previously scattered across
``ServeStats``, the simulator cache's bare tuple, private plan/encode
counters and unaggregated trace events:

- :class:`MetricsRegistry` — thread-safe counters, gauges and fixed-bucket
  histograms with deterministic nearest-rank percentiles, labeled
  families, and a cheap no-op mode when disabled.
- :class:`Tracer` / :class:`Span` — request-scoped span trees with
  virtual-clock support, so serve-sim (virtual seconds), the system
  runtime, the accelerator simulator and the compiled kernel all nest
  into one trace.
- :class:`Memo` + the cache registry — every process-wide LRU in the
  codebase (plans, layer-sim results, DSE memos, window plans) reports
  hit/miss/eviction counters as :class:`CacheStats` under one dotted
  namespace, and :func:`clear_caches` resets them all.
- Exporters — lossless JSON-lines round-trip and Prometheus-style text —
  plus :func:`validate_snapshot` for the CI schema check.
- :class:`Telemetry` — the facade bundling one registry + tracer, passed
  to runtimes explicitly or installed process-wide via :func:`activate`.

See ``docs/observability.md`` for the full tour and overhead numbers.
"""

from .caches import (
    CacheStats,
    Memo,
    cache_snapshot,
    cache_stats,
    clear_caches,
    register_cache,
    registered_caches,
    unregister_cache,
)
from .context import SCHEMA, Telemetry, activate, get_active
from .exporters import (
    export_jsonl,
    parse_jsonl,
    prometheus_text,
    validate_snapshot,
    write_jsonl,
)
from .registry import (
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from .spans import Span, Tracer, VirtualClock

__all__ = [
    "SCHEMA",
    "CacheStats",
    "Counter",
    "DEFAULT_TIME_BUCKETS_S",
    "Gauge",
    "Histogram",
    "Memo",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "VirtualClock",
    "activate",
    "cache_snapshot",
    "cache_stats",
    "clear_caches",
    "export_jsonl",
    "get_active",
    "metric_key",
    "parse_jsonl",
    "prometheus_text",
    "register_cache",
    "registered_caches",
    "unregister_cache",
    "validate_snapshot",
    "write_jsonl",
]
