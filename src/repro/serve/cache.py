"""LRU cache of deployed models.

Deployment is the expensive step of the serving path: it re-walks the
encoded layers, checks buffer fits and serializes the weight blob
(:func:`repro.deploy.deploy`). A serving frontend that flips between a
handful of models should pay that once per (model, configuration, device)
triple, the way an OpenCL host caches compiled kernels per device.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, List, Optional, Sequence, Tuple, TypeVar

from ..core.specs import LayerSpec
from ..deploy import DeployedModel, deploy
from ..hw.config import AcceleratorConfig
from ..hw.device import STRATIX_V_GXA7, FPGADevice
from ..pipeline import QuantizedPipeline
from ..telemetry.caches import CacheStats, register_cache_object

T = TypeVar("T")


class LRUCache:
    """A small least-recently-used cache with explicit accounting."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> List[Hashable]:
        """Keys from least- to most-recently used."""
        return list(self._entries)

    def get_or_create(self, key: Hashable, factory: Callable[[], T]) -> T:
        """Return the cached value for ``key``, creating it on a miss."""
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]  # type: ignore[return-value]
        self.misses += 1
        value = factory()
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    def info(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            capacity=self.capacity,
        )


def deployment_key(
    model: str, config: Optional[AcceleratorConfig], device: FPGADevice
) -> Tuple[str, Optional[AcceleratorConfig], str]:
    """Cache key of one deployment: (model, config, device).

    ``config=None`` means "let the DSE flow choose"; that choice depends
    only on the workload and device, so ``None`` is itself a stable key.
    """
    return (model, config, device.name)


class DeploymentCache:
    """LRU cache mapping (model, config, device) to a deployed model.

    Each instance registers itself (via weak reference) as the
    ``serve.deploy`` telemetry cache family; the most recently constructed
    cache wins the name, and a collected cache drops out of snapshots.
    """

    def __init__(self, capacity: int = 4) -> None:
        self._cache = LRUCache(capacity)
        register_cache_object(
            "serve.deploy",
            self,
            lambda cache: cache._stats(),
        )

    def _stats(self) -> CacheStats:
        info = self._cache.info()
        return CacheStats(
            hits=info.hits,
            misses=info.misses,
            evictions=info.evictions,
            size=info.size,
            capacity=info.capacity,
            name="serve.deploy",
        )

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def evictions(self) -> int:
        return self._cache.evictions

    def __len__(self) -> int:
        return len(self._cache)

    def info(self) -> CacheStats:
        return self._cache.info()

    def get_or_deploy(
        self,
        pipeline: QuantizedPipeline,
        specs: Sequence[LayerSpec],
        config: Optional[AcceleratorConfig] = None,
        device: FPGADevice = STRATIX_V_GXA7,
    ) -> DeployedModel:
        """A deployed model for the triple, re-encoding only on a miss."""
        key = deployment_key(pipeline.network.name, config, device)
        return self._cache.get_or_create(
            key,
            lambda: deploy(pipeline, specs, config=config, device=device),
        )
