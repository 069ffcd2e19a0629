"""Fleet management for the event-driven serving simulator.

A *fleet* is the pool of simulated accelerator instances the event engine
(:mod:`repro.serve.events`) dispatches onto. Each instance is a pure
timing model — a :class:`repro.system.pipeline.ServiceProfile` captures
the two-stage CPU/FPGA pipeline of one deployed
:class:`repro.runtime.SystemRuntime` (Section 6.1 of the paper) — so a
fleet of N instances costs N small records, and simulating millions of
requests never touches the ABM numerics.

Instances can be spawned and retired mid-run: :class:`AutoscalePolicy`
describes when the engine should do so (queue-depth watermarks with
cooldown and startup delay), and every decision is recorded as a
:class:`ScaleEvent` so tests can pin the scaling trajectory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..system.pipeline import ServiceProfile

__all__ = [
    "AutoscalePolicy",
    "Fleet",
    "Instance",
    "ScaleEvent",
    "ServiceProfile",
]


class Instance:
    """One simulated accelerator instance's mutable serving state."""

    __slots__ = (
        "instance_id",
        "tail_s",
        "lanes",
        "armed",
        "busy_s",
        "spawned_s",
        "retired_s",
    )

    def __init__(self, instance_id: int, spawned_s: float = 0.0) -> None:
        self.instance_id = instance_id
        #: Finish time of the last scheduled stream slot.
        self.tail_s = spawned_s
        #: ``(finish_s, seq)`` of the admitted requests, in admission order
        #: (so by finish), that may not have finished yet; the engine drops
        #: finished ones lazily.
        self.lanes: Deque[Tuple[float, int]] = deque()
        #: The first lane has a FINISH event in the heap.
        self.armed = False
        self.busy_s = 0.0
        self.spawned_s = spawned_s
        self.retired_s: Optional[float] = None

    def idle_at(self, now: float) -> bool:
        """No scheduled stream slot past ``now``."""
        return self.tail_s <= now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Instance({self.instance_id}, tail={self.tail_s})"


class Fleet:
    """The active instance pool plus lifetime accounting.

    Spawned instances get monotonically increasing ids (an id is never
    reused, so outcomes always attribute to one concrete instance even
    across scale-down/up cycles); retired instances are kept for the
    final utilization report. ``active`` stays in ascending id order —
    spawns append, retirements remove — and the engine's instance picks
    rely on it for their lowest-id tie rule.
    """

    def __init__(self, profile: ServiceProfile, instances: int = 1) -> None:
        if instances < 1:
            raise ValueError("a fleet needs at least one instance")
        self.profile = profile
        self._next_id = 0
        self.active: List[Instance] = []
        self.retired: List[Instance] = []
        self.peak_size = 0
        for _ in range(instances):
            self.spawn(0.0)

    @property
    def size(self) -> int:
        return len(self.active)

    def spawn(self, now: float) -> Instance:
        instance = Instance(self._next_id, spawned_s=now)
        self._next_id += 1
        self.active.append(instance)
        self.peak_size = max(self.peak_size, len(self.active))
        return instance

    def retire_idle(self, now: float) -> Optional[Instance]:
        """Retire the newest idle instance, if any; returns it or None."""
        for instance in reversed(self.active):
            if instance.idle_at(now):
                instance.retired_s = now
                self.active.remove(instance)
                self.retired.append(instance)
                return instance
        return None

    def all_instances(self) -> List[Instance]:
        """Active + retired, ordered by instance id."""
        return sorted(
            self.active + self.retired, key=lambda w: w.instance_id
        )

    def busy_seconds(self) -> Dict[int, float]:
        """instance id -> total virtual seconds of scheduled service."""
        return {w.instance_id: w.busy_s for w in self.all_instances()}


@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-depth driven horizontal scaling of the fleet.

    The engine evaluates the policy every ``check_interval_s`` of
    virtual time: when the number of admitted-but-unstarted requests
    exceeds ``scale_up_queue_per_instance`` per active instance it
    spawns one instance (up to ``max_instances``, honoring
    ``cooldown_s`` between decisions and ``startup_delay_s`` before the
    new instance takes work); when the queue is empty and an instance
    sits idle it retires one (down to ``min_instances``).
    """

    min_instances: int = 1
    max_instances: int = 4
    check_interval_s: float = 1e-3
    scale_up_queue_per_instance: float = 8.0
    cooldown_s: float = 0.0
    startup_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.min_instances < 1:
            raise ValueError("min_instances must be >= 1")
        if self.max_instances < self.min_instances:
            raise ValueError("max_instances must be >= min_instances")
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be positive")
        if self.scale_up_queue_per_instance <= 0:
            raise ValueError("scale_up_queue_per_instance must be positive")
        if self.cooldown_s < 0 or self.startup_delay_s < 0:
            raise ValueError("cooldown/startup delay cannot be negative")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling decision, for the report and the tests."""

    time_s: float
    action: str  # "up" | "down"
    instances: int  # fleet size *after* the decision
    queued: int
    reason: str

    def __post_init__(self) -> None:
        if self.action not in ("up", "down"):
            raise ValueError("scale action must be 'up' or 'down'")
