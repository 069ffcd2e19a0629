"""Uniform cache observability: one namespace for every LRU in the repo.

Every process-wide cache is a :class:`Memo` — one bounded, thread-safe
LRU with hit/miss/eviction counters — registered under a dotted family
name (``core.plan``, ``hw.sim``, ``dse.compiled``, ...).  A cache that
is not a :class:`Memo` (``hw.windows`` is a ``functools.lru_cache``)
registers a zero-argument *stats provider* returning a
:class:`CacheStats`, and a ``clear`` callable, itself.

Providers are pulled only at snapshot time, so registration adds zero
overhead to cache hot paths.  :func:`clear_caches` empties every family
and resets its counters (tests and benchmarks that need a cold start).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Hashable, List, Optional, TypeVar

__all__ = [
    "CacheStats",
    "Memo",
    "cache_snapshot",
    "cache_stats",
    "clear_caches",
    "register_cache",
]

T = TypeVar("T")


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
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["hit_rate"] = self.hit_rate
        return data


_providers: Dict[str, Callable[[], CacheStats]] = {}
_clearers: Dict[str, Callable[[], None]] = {}
_lock = threading.Lock()


def register_cache(
    name: str,
    provider: Callable[[], CacheStats],
    clear: Optional[Callable[[], None]] = None,
) -> None:
    """Register (or replace) the stats provider of one cache family.

    ``name`` is the family's dotted namespace entry; re-registering
    replaces the previous provider.  ``clear`` empties the family and
    resets its counters; :func:`clear_caches` calls it.
    """
    if not name:
        raise ValueError("cache family needs a name")
    with _lock:
        _providers[name] = provider
        if clear is None:
            _clearers.pop(name, None)
        else:
            _clearers[name] = clear




def cache_stats() -> Dict[str, CacheStats]:
    """Live stats of every registered family, keyed by family name."""
    with _lock:
        providers = dict(_providers)
    return {name: providers[name]() for name in sorted(providers)}


def cache_snapshot() -> Dict[str, Dict[str, object]]:
    """JSON-serializable view of :func:`cache_stats`."""
    return {name: stats.as_dict() for name, stats in cache_stats().items()}


def clear_caches() -> None:
    """Empty every registered family and reset its counters."""
    with _lock:
        clearers = list(_clearers.values())
    for clear in clearers:
        clear()


_MISSING = object()


class Memo:
    """A bounded, thread-safe LRU registered as one cache family.

    :meth:`get` returns the entry for ``key`` or stores what ``build()``
    returns.  ``build`` runs outside the lock (it is the expensive part);
    racing threads may both build, but the first insert wins so callers
    share one value.

    With ``owner``, the entry is keyed by the owner's identity plus
    ``key`` and dropped when the owner is garbage collected, so an
    ``id()`` is never recycled into a stale hit and entries of dead
    owners do not hold capacity.  A value that references its owner keeps
    the owner alive until the LRU bound evicts the entry.
    """

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("memo capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._owners: Dict[int, weakref.finalize] = {}
        # Reentrant: an owner's finalizer can fire from a collection
        # triggered while this thread already holds the lock.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        register_cache(name, self.stats, clear=self.clear)

    def get(self, key: Hashable, build: Callable[[], T], owner: object = None) -> T:
        if owner is not None:
            key = (id(owner), key)
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            self.misses += 1
        value = build()
        with self._lock:
            raced = self._entries.get(key, _MISSING)
            if raced is not _MISSING:
                self._entries.move_to_end(key)
                return raced
            if owner is not None and id(owner) not in self._owners:
                self._owners[id(owner)] = weakref.finalize(
                    owner, self._drop_owner, id(owner)
                )
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

    def _drop_owner(self, owner_id: int) -> None:
        with self._lock:
            self._owners.pop(owner_id, None)
            stale = [key for key in self._entries if key[0] == owner_id]
            for key in stale:
                del self._entries[key]
            self.evictions += len(stale)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            for finalizer in self._owners.values():
                finalizer.detach()
            self._owners.clear()
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                size=len(self._entries),
                capacity=self.capacity,
                name=self.name,
            )
