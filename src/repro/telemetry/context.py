"""The :class:`Telemetry` facade and the process-wide activation point.

A :class:`Telemetry` bundles one metrics registry and one tracer — the
observability context of a run. Components accept it explicitly
(``EventDrivenSimulator(..., telemetry=...)``); deep hot paths that
cannot thread a parameter through (the compiled kernel, the pipeline's
layer loop) consult the *active* telemetry instead:

    telemetry = get_active()
    if telemetry is not None:
        with telemetry.span("kernel", layer=name):
            ...

``get_active()`` is a single module-global read returning ``None`` by
default, so uninstrumented runs — the hot-path default — pay one ``is
None`` check and nothing else. :func:`activate` installs a context for a
``with`` scope; nesting restores the previous context on exit. ``None``
is the one off switch: a :class:`Telemetry` always records.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from .caches import cache_snapshot
from .registry import MetricsRegistry
from .spans import Tracer

__all__ = ["SCHEMA", "Telemetry", "activate", "get_active"]

#: Schema tag stamped into every snapshot; bump on incompatible changes.
SCHEMA = "repro.telemetry.v1"


class Telemetry:
    """One run's observability context: metrics + spans + cache view."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock)

    def span(self, name: str, **attrs: object):
        """Shorthand for ``self.tracer.span`` (still a context manager)."""
        return self.tracer.span(name, **attrs)

    def snapshot(self) -> Dict[str, object]:
        """Everything observable right now, as one JSON-serializable dict.

        Combines the registry's metric families, the global cache
        namespace (hit/miss/eviction counters of every registered LRU),
        the full span forest and the per-name span totals.
        """
        snapshot: Dict[str, object] = {"schema": SCHEMA}
        snapshot.update(self.registry.snapshot())
        snapshot["caches"] = cache_snapshot()
        snapshot["spans"] = [root.to_dict() for root in self.tracer.roots]
        snapshot["span_totals"] = self.tracer.totals()
        return snapshot


_active: Optional[Telemetry] = None


def get_active() -> Optional[Telemetry]:
    """The currently activated telemetry context, or ``None``.

    ``None`` is the default and the fast path: instrumentation sites do
    nothing beyond this lookup when telemetry is off.
    """
    return _active


@contextmanager
def activate(telemetry: Optional[Telemetry]) -> Iterator[Optional[Telemetry]]:
    """Install ``telemetry`` as the active context for a ``with`` scope.

    Nests: the previous context (usually ``None``) is restored on exit.
    Passing ``None`` deactivates for the scope.
    """
    global _active
    previous = _active
    _active = telemetry
    try:
        yield _active
    finally:
        _active = previous
