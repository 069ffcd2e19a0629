"""Span-based tracing with virtual-clock support.

One :class:`Tracer` holds the request-scoped trace of a run: spans nest
through a thread-local stack (``with tracer.span("infer"):``), worker
threads can adopt a parent from another thread (:meth:`Tracer.attach`),
and simulated components can record spans with *explicit* virtual times
(:meth:`Tracer.record_span`) so discrete-event simulations — serve-sim's
virtual seconds — and wall-clock instrumentation coexist in one tree.

The clock is injectable: production uses ``time.perf_counter``; tests use
a :class:`VirtualClock` for fully deterministic, hand-pinnable span times.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "VirtualClock"]


class VirtualClock:
    """A manually advanced clock for deterministic traces.

    Pass ``VirtualClock().now`` as a tracer's clock; ``advance()`` moves
    time forward explicitly, which makes span durations exact constants in
    tests and lets simulators drive traces in virtual seconds.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("virtual time cannot go backwards")
        with self._lock:
            self._now += seconds
            return self._now

    def advance_to(self, target_s: float) -> float:
        """Advance to an absolute time, exactly (no-op if already past).

        ``advance(t - now())`` lands on ``now + (t - now)``, which float
        rounding can leave a few ULP off ``t``; event-driven simulators
        need the clock to sit *exactly* on each event's timestamp.
        """
        with self._lock:
            if target_s > self._now:
                self._now = float(target_s)
            return self._now


class Span:
    """One named, timed interval with attributes and child spans."""

    __slots__ = ("name", "attrs", "start_s", "end_s", "children")

    def __init__(
        self,
        name: str,
        attrs: Dict[str, object],
        start_s: float,
        end_s: Optional[float] = None,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.start_s = start_s
        self.end_s = end_s
        self.children: List["Span"] = []

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_s - self.start_s

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {self.start_s}..{self.end_s}, {self.attrs})"


class Tracer:
    """Collects a forest of spans across threads.

    Each thread keeps its own active-span stack; closing a span attaches
    it to its parent (or the shared root list) under a lock, so concurrent
    workers never corrupt the tree.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.roots: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # ---- the active-span stack ----------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # ---- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a child span of this thread's current span."""
        opened = Span(name, attrs, start_s=self.clock())
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(opened)
        try:
            yield opened
        finally:
            opened.end_s = self.clock()
            stack.pop()
            self._adopt(parent, opened)

    def record_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        **attrs: object,
    ) -> Span:
        """Record an already-timed span (e.g. a virtual-time interval).

        The span nests under this thread's current span like any other,
        but its times are the caller's — this is how discrete-event
        simulators place events on their own virtual clock.
        """
        if end_s < start_s:
            raise ValueError("span ends before it starts")
        closed = Span(name, attrs, start_s=start_s, end_s=end_s)
        self._adopt(self.current, closed)
        return closed

    def _adopt(self, parent: Optional[Span], span: Span) -> None:
        with self._lock:
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)

    @contextmanager
    def attach(self, parent: Span) -> Iterator[None]:
        """Adopt ``parent`` as this thread's current span.

        Lets worker threads contribute children to a span opened on
        another thread. The parent may close before its cross-thread
        children do; children keep their own times either way.
        """
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    # ---- aggregation ---------------------------------------------------

    def all_spans(self) -> List[Span]:
        with self._lock:
            roots = list(self.roots)
        spans: List[Span] = []
        for root in roots:
            spans.extend(root.walk())
        return spans

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name aggregate: {"name": {"count": n, "total_s": t}}."""
        totals: Dict[str, Dict[str, float]] = {}
        for span in self.all_spans():
            if span.end_s is None:
                continue
            entry = totals.setdefault(span.name, {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span.duration_s
        return totals

    def clear(self) -> None:
        with self._lock:
            self.roots.clear()

    def render(self) -> str:
        """Indented ASCII view of the span forest."""
        lines: List[str] = []

        def emit(span: Span, depth: int) -> None:
            duration = (
                f"{span.duration_s * 1e3:9.3f} ms" if span.end_s is not None
                else "     open"
            )
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            lines.append(f"{'  ' * depth}{span.name:<12} {duration}  {attrs}".rstrip())
            for child in span.children:
                emit(child, depth + 1)

        with self._lock:
            roots = list(self.roots)
        for root in roots:
            emit(root, 0)
        return "\n".join(lines) if lines else "(no spans)"
