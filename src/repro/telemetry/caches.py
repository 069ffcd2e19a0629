"""Uniform cache observability: one namespace for every LRU in the repo.

Before this module, cache visibility was fragmented: a bare ``(hits,
misses)`` tuple from the simulator cache, private counters inside the
plan/encode caches, a ``CacheInfo`` dataclass in serving, and nothing at
all from the DSE memos. Here every cache family registers a *stats
provider* — a zero-argument callable returning a :class:`CacheStats` —
under a dotted name (``core.plan``, ``hw.sim``, ``serve.deploy``, ...).

Providers are pulled only at snapshot time, so registration adds zero
overhead to cache hot paths; a provider may return ``None`` to mean "no
live cache right now" (used by weakref-registered per-instance caches),
and such entries are skipped. Modules register their process-wide caches
at import time; instance caches register through
:func:`register_cache_object`, which holds only a weak reference.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

__all__ = [
    "CacheStats",
    "cache_snapshot",
    "cache_stats",
    "register_cache",
    "register_cache_object",
    "registered_caches",
    "unregister_cache",
]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction accounting of one cache."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: Optional[int] = None
    name: str = ""

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["hit_rate"] = self.hit_rate
        return data


_providers: Dict[str, Callable[[], Optional[CacheStats]]] = {}
_lock = threading.Lock()


def register_cache(
    name: str, provider: Callable[[], Optional[CacheStats]]
) -> None:
    """Register (or replace) the stats provider of one cache family.

    ``name`` is the family's dotted namespace entry; re-registering
    replaces the previous provider, which is what per-run instance caches
    (the serve deployment cache) want.
    """
    if not name:
        raise ValueError("cache family needs a name")
    with _lock:
        _providers[name] = provider


def register_cache_object(name: str, obj: object, stats: Callable[[object], CacheStats]) -> None:
    """Register an instance-owned cache through a weak reference.

    ``stats(obj)`` produces the CacheStats; once the object is garbage
    collected the provider yields ``None`` and the family drops out of
    snapshots instead of pinning the instance alive.
    """
    ref = weakref.ref(obj)

    def provider() -> Optional[CacheStats]:
        live = ref()
        return stats(live) if live is not None else None

    register_cache(name, provider)


def unregister_cache(name: str) -> None:
    with _lock:
        _providers.pop(name, None)


def registered_caches() -> List[str]:
    """Registered family names, sorted (providers may still yield None)."""
    with _lock:
        return sorted(_providers)


def cache_stats() -> Dict[str, CacheStats]:
    """Live stats of every registered family, keyed by family name."""
    with _lock:
        providers = dict(_providers)
    stats: Dict[str, CacheStats] = {}
    for name in sorted(providers):
        result = providers[name]()
        if result is not None:
            stats[name] = result
    return stats


def cache_snapshot() -> Dict[str, Dict[str, object]]:
    """JSON-serializable view of :func:`cache_stats`."""
    return {name: stats.as_dict() for name, stats in cache_stats().items()}
