"""Uniform cache observability: one namespace for every LRU in the repo.

Before this module, cache visibility was fragmented: a bare ``(hits,
misses)`` tuple from the simulator cache, private counters inside the
plan/encode caches, a ``CacheInfo`` dataclass in serving, and nothing at
all from the DSE memos. Here every cache family registers a *stats
provider* — a zero-argument callable returning a :class:`CacheStats` —
under a dotted name (``core.plan``, ``hw.sim``, ``dse.compiled``, ...).

Providers are pulled only at snapshot time, so registration adds zero
overhead to cache hot paths. Modules register their process-wide caches
at import time.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

__all__ = [
    "CacheStats",
    "cache_snapshot",
    "cache_stats",
    "register_cache",
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


_providers: Dict[str, Callable[[], CacheStats]] = {}
_lock = threading.Lock()


def register_cache(name: str, provider: Callable[[], CacheStats]) -> None:
    """Register (or replace) the stats provider of one cache family.

    ``name`` is the family's dotted namespace entry; re-registering
    replaces the previous provider.
    """
    if not name:
        raise ValueError("cache family needs a name")
    with _lock:
        _providers[name] = provider


def unregister_cache(name: str) -> None:
    with _lock:
        _providers.pop(name, None)


def registered_caches() -> List[str]:
    """Registered family names, sorted."""
    with _lock:
        return sorted(_providers)


def cache_stats() -> Dict[str, CacheStats]:
    """Live stats of every registered family, keyed by family name."""
    with _lock:
        providers = dict(_providers)
    return {name: providers[name]() for name in sorted(providers)}


def cache_snapshot() -> Dict[str, Dict[str, object]]:
    """JSON-serializable view of :func:`cache_stats`."""
    return {name: stats.as_dict() for name, stats in cache_stats().items()}
