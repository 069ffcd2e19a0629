"""Event-driven, virtual-clock serving simulator with continuous batching.

This is the serving engine behind ``serve-sim``: a priority-queue event
loop over *virtual* time that pushes millions of simulated requests
through in seconds of wall time. It is a pure timing simulator —
instances are :class:`repro.serve.fleet.ServiceProfile` records, not live
pipelines — and it is **differentially pinned** against a test-local
reference that takes the literal full-scan argmin for every admission
(``_continuous_reference`` in ``tests/test_serve_events.py``): every
outcome, stream run and busy time is float-for-float equal.

Each instance is a pipelined stream of the paper's two-stage CPU/FPGA
system (Section 6.1) with ``max_batch`` lanes. Queued requests are
admitted *into the in-flight stream* whenever a lane frees up. An
admitted request finishes at ``max(now + fill, tail + step)``: either it
refills a drained pipeline or it slots in behind the last scheduled
image.

Event kinds, in tie-break order at equal virtual times:

1. ``FINISH`` — a lane frees; a waiting request takes it at once. Lanes
   finish lazily: each instance keeps its lanes' ``(finish_s, seq)`` in
   admission order, and at an ARRIVAL or SCALE a lane with
   ``finish_s <= now`` is free, since FINISH ranks first. Only while
   requests wait (every lane busy) does each instance's first lane
   become a FINISH event, with the ``seq`` of its admission, so lanes
   that free at the same instant still free one at a time, in admission
   order, with an admission after each; freeing them together would
   change picks.
2. ``ARRIVAL`` — a request arrives; admission control may reject it,
   otherwise it joins its SLO class's queue. An arrival into an empty
   queue is admitted directly. Arrivals are walked straight off the
   sorted trace array, so they never enter the heap.
3. ``SCALE`` — the autoscaler evaluates its policy.

The pick breaks ties to the lowest instance id. ``Fleet.active`` is in
ascending id order, so the pick is one upward walk that keeps only a
strictly earlier candidate, and stops at the first drained instance
(``tail + step <= now + fill``): it finishes at ``now + fill``, the
least possible. The virtual time is a local of the event loop, written
back to :attr:`EventDrivenSimulator.clock` once per trace, at the later
of the last event and the last finish.

SLO classes are served strictly by priority; per-class ``queue_limit``
gives admission control, and rejected requests surface in the report
and the telemetry snapshot with their reasons.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..system.pipeline import ServiceProfile
from ..telemetry.context import Telemetry
from ..telemetry.registry import MetricsRegistry
from ..telemetry.spans import VirtualClock
from .fleet import AutoscalePolicy, Fleet, Instance, ScaleEvent
from .loadgen import LoadTrace

__all__ = [
    "BatchPolicy",
    "DEFAULT_SLO",
    "EventBatch",
    "EventDrivenSimulator",
    "EventOutcome",
    "EventReport",
    "Rejection",
    "SLOClass",
]

# Tie-break ranks of same-instant events (see module docstring).
_FINISH, _ARRIVAL, _SCALE = 0, 1, 2
_NEVER = float("inf")


@dataclass(frozen=True)
class BatchPolicy:
    """Continuous-batching knobs: ``max_batch`` lanes per instance.

    ``max_wait_s`` is validated but never read by the engine: it was the
    deadline of the removed windows batching mode. The ``serve``
    benchmark workload still passes it, so removing the field waits for a
    change to the benchmark.
    """

    max_batch: int = 8
    max_wait_s: float = 0.005

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s cannot be negative")


@dataclass(frozen=True)
class SLOClass:
    """One service-level class of the request population.

    ``priority`` orders dispatch (lower = more latency-sensitive, served
    first); ``queue_limit`` bounds the class's admitted-but-unstarted
    requests (admission control — arrivals beyond it are rejected with
    reason ``"queue_full"``); ``target_latency_s`` is the SLO target
    reported alongside the measured percentiles (it does not change
    scheduling).
    """

    name: str
    priority: int = 0
    target_latency_s: Optional[float] = None
    queue_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an SLO class needs a name")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 (or None)")
        if self.target_latency_s is not None and self.target_latency_s <= 0:
            raise ValueError("target_latency_s must be positive")


DEFAULT_SLO = SLOClass("standard")


@dataclass(frozen=True)
class EventOutcome:
    """One served request's full timing attribution.

    The per-request record of one run (``collect_records=True``); the
    engine carries no payloads, so there is no output tensor.
    ``batch_id`` and ``batch_size`` name the request's stream run, and
    ``close_s`` and ``start_s`` are both its admission time.
    """

    request_id: int
    slo: str
    worker_id: int
    batch_id: int
    batch_size: int
    arrival_s: float
    close_s: float
    start_s: float
    finish_s: float


@dataclass(frozen=True)
class Rejection:
    """One request turned away by admission control, with the reason."""

    request_id: int
    slo: str
    arrival_s: float
    reason: str


@dataclass(frozen=True)
class EventBatch:
    """Record of one stream run: an instance's stretch of back-to-back
    lane admissions, from the first admission to the last finish."""

    batch_id: int
    worker_id: int
    slo: str
    size: int
    close_s: float
    start_s: float
    finish_s: float


@dataclass(frozen=True)
class EventReport:
    """Everything one event-driven serving run produced."""

    outcomes: Tuple[EventOutcome, ...]
    rejections: Tuple[Rejection, ...]
    batches: Tuple[EventBatch, ...]
    scale_events: Tuple[ScaleEvent, ...]
    class_names: Tuple[str, ...]
    offered: int
    served: int
    makespan_s: float
    max_queue_depth: int
    final_instances: int
    peak_instances: int
    busy_seconds: Dict[int, float]
    dense_ops_per_image: int
    records_collected: bool

    @property
    def rejected(self) -> int:
        return len(self.rejections)

    @property
    def requests_per_second(self) -> float:
        return self.served / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def aggregate_gops(self) -> float:
        """Dense-op throughput of the whole pool over the run (paper basis)."""
        if self.makespan_s <= 0:
            return 0.0
        return self.served * self.dense_ops_per_image / self.makespan_s / 1e9

    def render(self, registry: MetricsRegistry) -> str:
        """The ``serve-sim`` summary block of this run.

        Stream runs, makespan, queue depth, busy seconds and rejections
        come from the report; latency and queue wait from the
        ``serve/latency_s`` and ``serve/queue_wait_s`` histograms of the
        ``registry`` the run recorded into.
        """
        if not self.records_collected:
            raise ValueError(
                "per-request records were not collected "
                "(engine ran with collect_records=False)"
            )
        runs = Counter(batch.size for batch in self.batches)
        sizes = ", ".join(f"{size}x{runs[size]}" for size in sorted(runs))
        # An instance that served a request was busy for a positive time.
        utilization = "  ".join(
            f"w{worker}: {busy / self.makespan_s:.0%}"
            for worker, busy in sorted(self.busy_seconds.items())
            if busy > 0
        )
        latency = registry.histogram("serve/latency_s")
        wait = registry.histogram("serve/queue_wait_s")
        lines = [
            f"requests:        {self.served} in {len(self.batches)} stream "
            f"runs (sizes {sizes})",
            f"makespan:        {self.makespan_s * 1e3:.3f} ms virtual",
            f"latency:         mean {latency.mean * 1e3:.3f} ms   "
            f"p50 {latency.percentile(50) * 1e3:.3f} ms   "
            f"p95 {latency.percentile(95) * 1e3:.3f} ms   "
            f"max {latency.max * 1e3:.3f} ms",
            f"queue:           mean wait {wait.mean * 1e3:.3f} ms   "
            f"max depth {self.max_queue_depth}",
            f"throughput:      {self.requests_per_second:.1f} img/s   "
            f"{self.aggregate_gops:.1f} GOP/s aggregate",
            f"worker busy:     {utilization}",
        ]
        if self.rejections:
            reasons = _tally(r.reason for r in self.rejections)
            classes = _tally(r.slo for r in self.rejections)
            lines.append(
                f"rejected:        {self.rejected} of {self.offered} offered "
                f"({self.rejected / self.offered:.1%}; {reasons}; "
                f"by class {classes})"
            )
        return "\n".join(lines)


def _tally(keys) -> str:
    """``"a: 2, b: 1"`` — how often each key occurs, in key order."""
    return ", ".join(f"{k}: {n}" for k, n in sorted(Counter(keys).items()))


class _ClassState:
    """Mutable per-SLO-class serving state (internal)."""

    __slots__ = ("queue", "queue_head", "pending", "limit", "priority", "name")

    def __init__(self, slo: SLOClass) -> None:
        self.name = slo.name
        self.priority = slo.priority
        self.limit = slo.queue_limit
        self.queue: List[Tuple[int, float]] = []  # FIFO of (rid, arrival)
        self.queue_head = 0  # pop index (amortized O(1) FIFO on a list)
        self.pending = 0  # admitted but not yet started


class EventDrivenSimulator:
    """Virtual-clock, event-driven serving over a simulated fleet."""

    def __init__(
        self,
        profile: ServiceProfile,
        policy: BatchPolicy,
        classes: Sequence[SLOClass] = (DEFAULT_SLO,),
        instances: int = 1,
        continuous: bool = True,
        autoscale: Optional[AutoscalePolicy] = None,
        telemetry: Optional[Telemetry] = None,
        record_spans: bool = True,
        collect_records: bool = True,
    ) -> None:
        """``collect_records=False`` skips per-request outcome/batch
        materialization (fleet-scale runs keep only aggregate latencies
        and the telemetry instruments); ``record_spans=False`` keeps the
        metrics registry wiring but skips the per-run span tree.
        ``continuous`` accepts only ``True``, the one batching mode."""
        if not continuous:
            raise ValueError(
                "windows batching was removed; continuous batching is the "
                "only mode (continuous=True)"
            )
        if instances < 1:
            raise ValueError("need at least one instance")
        if not classes:
            raise ValueError("need at least one SLO class")
        names = [slo.name for slo in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO class names in {names}")
        if autoscale is not None and not (
            autoscale.min_instances <= instances <= autoscale.max_instances
        ):
            raise ValueError(
                "initial instance count must lie within "
                "[min_instances, max_instances] of the autoscale policy"
            )
        self.profile = profile
        self.policy = policy
        self.classes = tuple(classes)
        self.instances = instances
        self.autoscale = autoscale
        self.telemetry = telemetry
        self.record_spans = record_spans
        self.collect_records = collect_records
        self.clock = VirtualClock()
        self._class_index = {slo.name: i for i, slo in enumerate(self.classes)}

    # ---- entry point ----------------------------------------------------

    def run_trace(self, trace: LoadTrace) -> EventReport:
        """Simulate a :class:`LoadTrace`; request ids are trace indices."""
        try:
            remap = [self._class_index[name] for name in trace.class_names]
        except KeyError as error:
            raise ValueError(
                f"trace class {error.args[0]!r} not among engine classes "
                f"{sorted(self._class_index)}"
            ) from None
        class_ids = [remap[i] for i in trace.class_ids.tolist()]
        arrivals = trace.arrivals.tolist()
        return self._simulate(list(range(len(arrivals))), arrivals, class_ids)

    # ---- the event loop -------------------------------------------------

    def _simulate(
        self,
        ids: List[int],
        arrivals: List[float],
        class_ids: List[int],
    ) -> EventReport:
        profile = self.profile
        fill = profile.fill_s
        step = profile.step_s
        max_batch = self.policy.max_batch
        collect = self.collect_records
        fleet = Fleet(profile, self.instances)
        active = fleet.active  # ascending ids; spawn/retire edit it in place
        states = [_ClassState(slo) for slo in self.classes]
        by_priority = sorted(
            range(len(states)), key=lambda i: (states[i].priority, i)
        )

        heap: List[tuple] = []  # (time, rank, seq, instance or None)
        seq = 0
        next_batch_id = 0
        # The virtual clock lives in this local between events and is
        # written back to ``self.clock`` once, after the last event.
        now = self.clock.now()

        n = len(arrivals)
        i = 0  # next arrival index
        queued = 0  # admitted but not started, across classes
        max_queued = 0
        last_scale_s = -float("inf")
        scale_events: List[ScaleEvent] = []

        rejections: List[Rejection] = []
        # Per-request records (materialized at the end):
        # (rid, cls, worker, batch, arrival, close, start, finish).
        records: List[tuple] = []
        # Aggregates kept even when records are off; one wait per served
        # request.
        lat_by_class: List[List[float]] = [[] for _ in states]
        wait_all: List[float] = []
        last_finish_s = arrivals[0] if n else 0.0
        first_arrival_s = arrivals[0] if n else 0.0
        # Stream runs: [id, worker, cls, size, close, start, finish].
        batch_rows: List[list] = []
        # Instance id -> the row of its open stream run.
        open_run: Dict[int, list] = {}

        def more_work() -> bool:
            return i < n or queued > 0 or last_finish_s > now

        # ---- admission ---------------------------------------------

        def pick() -> Optional[Instance]:
            """The instance a request admitted now goes to, or None.

            Called at an ARRIVAL or SCALE only. An instance with
            ``max_batch`` lanes looks full; its first lane is free if it
            finished by ``now``, because FINISH ranks before both.
            """
            # A request admitted now finishes at max(floor, tail + step).
            floor = now + fill
            # Lowest finish, lowest id on ties: walk ids upwards and keep
            # only a strictly earlier finish. The first drained instance
            # (tail + step <= floor) finishes at floor, the least any
            # instance can, and every later tie has a larger id.
            best = None
            best_s = _NEVER
            for w in active:
                finish_s = w.tail_s + step
                if finish_s < best_s:
                    lanes = w.lanes
                    if len(lanes) >= max_batch:
                        if lanes[0][0] > now:
                            continue
                        lanes.popleft()
                    if finish_s <= floor:
                        return w
                    best, best_s = w, finish_s
            return best

        def book(w: Instance, rid: int, cls: int, arrival: float) -> None:
            """Admit request ``rid`` into a free lane of ``w`` at ``now``."""
            nonlocal seq, next_batch_id, last_finish_s
            tail_s = w.tail_s
            floor = now + fill
            finish_s = tail_s + step
            if finish_s < floor:
                finish_s = floor
            lanes = w.lanes
            if tail_s <= now:
                lanes.clear()  # every lane has finished
            if collect:
                if lanes:
                    row = open_run[w.instance_id]
                else:  # nothing in flight: a new stream run
                    row = [next_batch_id, w.instance_id, cls, 0, now, now, now]
                    next_batch_id += 1
                    open_run[w.instance_id] = row
                    batch_rows.append(row)
                row[3] += 1
                row[6] = max(row[6], finish_s)
                if row[2] != cls:
                    row[2] = -1  # mixed-class stream run
                records.append((rid, cls, w.instance_id, row[0],
                                arrival, now, now, finish_s))
            w.busy_s += finish_s - (tail_s if tail_s >= now else now)
            w.tail_s = finish_s
            lanes.append((finish_s, seq))
            seq += 1
            lat_by_class[cls].append(finish_s - arrival)
            wait_all.append(now - arrival)
            if finish_s > last_finish_s:
                last_finish_s = finish_s

        def dequeue() -> Tuple[int, int, float]:
            """(rid, class, arrival) of the next queued request, removed."""
            nonlocal queued
            for cls in by_priority:
                state = states[cls]
                if state.queue_head < len(state.queue):
                    break
            rid, arrival = state.queue[state.queue_head]
            state.queue_head += 1
            if state.queue_head > 64 and state.queue_head * 2 > len(state.queue):
                del state.queue[: state.queue_head]
                state.queue_head = 0
            state.pending -= 1
            queued -= 1
            return rid, cls, arrival

        def arm() -> None:
            """Every lane is busy: each instance's first lane gets a FINISH.

            The event keeps the ``seq`` of the lane's admission, so lanes
            that finish at the same instant free one at a time, in
            admission order.
            """
            for w in active:
                if not w.armed:
                    w.armed = True
                    finish_s, lane_seq = w.lanes[0]
                    heappush(heap, (finish_s, _FINISH, lane_seq, w))

        # ---- autoscaling -------------------------------------------

        def scale_check() -> None:
            nonlocal last_scale_s, seq
            policy = self.autoscale
            if policy is None:
                return
            if now - last_scale_s >= policy.cooldown_s:
                per_instance = queued / fleet.size
                if (
                    per_instance > policy.scale_up_queue_per_instance
                    and fleet.size < policy.max_instances
                ):
                    fleet.spawn(now + policy.startup_delay_s)
                    last_scale_s = now
                    scale_events.append(
                        ScaleEvent(
                            time_s=now,
                            action="up",
                            instances=fleet.size,
                            queued=queued,
                            reason=(
                                f"queue depth {queued} > "
                                f"{policy.scale_up_queue_per_instance:g}"
                                f"/instance x {fleet.size - 1}"
                            ),
                        )
                    )
                elif (
                    queued == 0
                    and fleet.size > policy.min_instances
                    and fleet.retire_idle(now) is not None
                ):
                    last_scale_s = now
                    scale_events.append(
                        ScaleEvent(
                            time_s=now,
                            action="down",
                            instances=fleet.size,
                            queued=0,
                            reason="idle instance, empty queue",
                        )
                    )
            # Always retry admission: an instance may have just left its
            # startup delay with no FINISH event pending to kick it.
            while queued:
                w = pick()
                if w is None:
                    arm()
                    break
                book(w, *dequeue())
            if more_work() or fleet.size > policy.min_instances:
                heappush(
                    heap, (now + policy.check_interval_s, _SCALE, seq, None)
                )
                seq += 1

        if self.autoscale is not None and n:
            heappush(heap, (first_arrival_s, _SCALE, seq, None))
            seq += 1

        # ---- main loop ---------------------------------------------

        while i < n or heap:
            # A heap event goes before arrival i when it is earlier, or a
            # FINISH at the same instant (arrivals never enter the heap).
            if heap and heap[0] < (arrivals[i] if i < n else _NEVER, _ARRIVAL):
                time_s, rank, _, w = heappop(heap)
                if time_s > now:
                    now = time_s
                if rank == _FINISH:
                    # Only armed lanes finish here, and only while every
                    # lane is busy: the lane that frees takes the next
                    # queued request. Equal-time lanes of other instances
                    # have later seqs and free after it.
                    w.lanes.popleft()
                    if queued:
                        book(w, *dequeue())
                    if queued:
                        finish_s, lane_seq = w.lanes[0]
                        heappush(heap, (finish_s, _FINISH, lane_seq, w))
                    else:
                        w.armed = False
                else:
                    scale_check()
                continue
            # Arrival i.
            t = arrivals[i]
            rid = ids[i]
            cls = class_ids[i]
            i += 1
            if t > now:
                now = t
            state = states[cls]
            limit = state.limit
            if limit is not None and state.pending >= limit:
                rejections.append(
                    Rejection(
                        request_id=rid,
                        slo=state.name,
                        arrival_s=t,
                        reason="queue_full",
                    )
                )
                continue
            if not queued:
                # An arrival into an empty queue is admitted directly.
                w = pick()
                if w is not None:
                    book(w, rid, cls, t)
                    continue
            state.pending += 1
            queued += 1
            if queued > max_queued:
                max_queued = queued
            # Requests wait only while every lane is busy, and only a
            # FINISH can free one: arm() when the wait begins.
            state.queue.append((rid, t))
            if queued == 1:
                arm()
        # Lanes that finished with an empty queue had no event.
        self.clock.advance_to(max(now, last_finish_s))

        # ---- report ------------------------------------------------

        served = len(wait_all)
        makespan_s = (
            last_finish_s - first_arrival_s if served else 0.0
        )
        outcomes: Tuple[EventOutcome, ...] = ()
        batches: Tuple[EventBatch, ...] = ()
        if collect:
            run_sizes = {row[0]: row[3] for row in batch_rows}
            outcomes = tuple(
                EventOutcome(
                    request_id=rid,
                    slo=states[cls].name,
                    worker_id=worker,
                    batch_id=batch,
                    batch_size=run_sizes[batch],
                    arrival_s=arrival,
                    close_s=close,
                    start_s=start,
                    finish_s=finish,
                )
                for rid, cls, worker, batch, arrival, close, start, finish
                in records
            )
            batches = tuple(
                EventBatch(
                    batch_id=row[0],
                    worker_id=row[1],
                    slo="mixed" if row[2] < 0 else states[row[2]].name,
                    size=row[3],
                    close_s=row[4],
                    start_s=row[5],
                    finish_s=row[6],
                )
                for row in sorted(batch_rows)
            )
        report = EventReport(
            outcomes=outcomes,
            rejections=tuple(rejections),
            batches=batches,
            scale_events=tuple(scale_events),
            class_names=tuple(state.name for state in states),
            offered=n,
            served=served,
            makespan_s=makespan_s,
            max_queue_depth=max_queued,
            final_instances=fleet.size,
            peak_instances=fleet.peak_size,
            busy_seconds=fleet.busy_seconds(),
            dense_ops_per_image=profile.dense_ops_per_image,
            records_collected=collect,
        )
        if self.telemetry is not None:
            self._record_telemetry(report, lat_by_class, wait_all)
        return report

    # ---- telemetry ------------------------------------------------------

    def _record_telemetry(
        self,
        report: EventReport,
        lat_by_class: List[List[float]],
        wait_all: List[float],
    ) -> None:
        """Mirror the run into the metrics registry and the span tree.

        Latencies land in sample-retaining histograms (global and one per
        SLO class) with exact nearest-rank percentiles, so
        p50/p99/p999-vs-offered-load curves and the ``serve-sim`` summary
        come straight from the registry.
        """
        telemetry = self.telemetry
        registry = telemetry.registry
        registry.counter("serve/offered").inc(report.offered)
        registry.counter("serve/requests").inc(report.served)
        rejected_counts: Dict[Tuple[str, str], int] = {}
        for rejection in report.rejections:
            key = (rejection.slo, rejection.reason)
            rejected_counts[key] = rejected_counts.get(key, 0) + 1
        for (slo, reason), count in sorted(rejected_counts.items()):
            registry.counter("serve/rejected", slo=slo, reason=reason).inc(
                count
            )
        latency = registry.histogram("serve/latency_s")
        for cls, latencies in enumerate(lat_by_class):
            if not latencies:
                continue
            latency.observe_many(latencies)
            registry.histogram(
                "serve/latency_s", slo=report.class_names[cls]
            ).observe_many(latencies)
        registry.histogram("serve/queue_wait_s").observe_many(wait_all)
        registry.gauge("serve/makespan_s").set(report.makespan_s)
        registry.gauge("serve/requests_per_second").set(
            report.requests_per_second
        )
        registry.gauge("serve/max_queue_depth").set(report.max_queue_depth)
        registry.gauge("serve/instances").set(report.final_instances)
        registry.gauge("serve/instances_peak").set(report.peak_instances)
        if self.record_spans and report.records_collected:
            tracer = telemetry.tracer
            for batch in report.batches:
                span = tracer.record_span(
                    "request",
                    start_s=batch.close_s,
                    end_s=batch.finish_s,
                    batch_id=batch.batch_id,
                    size=batch.size,
                    slo=batch.slo,
                )
                with tracer.attach(span):
                    tracer.record_span(
                        "batch",
                        start_s=batch.start_s,
                        end_s=batch.finish_s,
                        worker=batch.worker_id,
                        size=batch.size,
                        slo=batch.slo,
                    )
