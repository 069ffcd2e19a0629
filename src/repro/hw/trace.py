"""Execution tracing for the accelerator simulator.

A :class:`TraceRecorder` captures one event per scheduled task — which CU
ran it, when, and for how long — so utilization claims can be audited at
event granularity: tests assert tasks on one CU never overlap, gaps equal
the reported stalls, and a Gantt rendering makes scheduling behaviour
visible (the semi-synchronous pipelining of consecutive prefetch windows).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, MutableSequence, Optional


@dataclass(frozen=True)
class TaskEvent:
    """One executed task."""

    layer: str
    window_index: int
    group_index: int
    cu: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("task ends before it starts")

    @property
    def cycles(self) -> int:
        return self.end - self.start


class TraceRecorder:
    """Collects task events during a simulation.

    ``capacity`` bounds memory for full-model traced runs: when set, the
    recorder is a ring buffer keeping only the most recent ``capacity``
    events, and ``dropped`` counts the evicted ones. The default (``None``)
    keeps every event, as the audit tests require.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = capacity
        self.events: MutableSequence[TaskEvent] = (
            [] if capacity is None else deque(maxlen=capacity)
        )
        self.dropped = 0

    @property
    def recorded(self) -> int:
        """Total events seen, including any dropped by the ring buffer."""
        return len(self.events) + self.dropped

    def record(
        self, layer: str, window_index: int, group_index: int, cu: int, start: int, end: int
    ) -> None:
        if self.capacity is not None and len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(
            TaskEvent(
                layer=layer,
                window_index=window_index,
                group_index=group_index,
                cu=cu,
                start=start,
                end=end,
            )
        )

    def by_cu(self) -> Dict[int, List[TaskEvent]]:
        """Events grouped by CU, each list sorted by start time."""
        grouped: Dict[int, List[TaskEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.cu, []).append(event)
        for events in grouped.values():
            events.sort(key=lambda e: e.start)
        return grouped

    def verify_no_overlap(self) -> None:
        """Raise if any CU runs two tasks at once (scheduler soundness)."""
        for cu, events in self.by_cu().items():
            for previous, current in zip(events, events[1:]):
                if current.start < previous.end:
                    raise AssertionError(
                        f"CU{cu}: task {current.layer}/{current.window_index}"
                        f"/{current.group_index} starts at {current.start} "
                        f"before previous task ends at {previous.end}"
                    )

    def windows_in_flight(self) -> int:
        """Maximum number of distinct prefetch windows concurrently active.

        Should never exceed 2 per layer: the ping-pong FT-Buffer has two
        halves (this is the double-buffering invariant the tests check).
        """
        peak = 0
        for layer in {event.layer for event in self.events}:
            events = [e for e in self.events if e.layer == layer]
            instants = sorted({e.start for e in events})
            for t in instants:
                active = {e.window_index for e in events if e.start <= t < e.end}
                peak = max(peak, len(active))
        return peak
