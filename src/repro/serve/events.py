"""Event-driven, virtual-clock serving simulator.

This is the serving engine behind ``serve-sim``: a priority-queue event
loop over *virtual* time that pushes millions of simulated requests
through in seconds of wall time. It is a pure timing simulator —
instances are :class:`repro.serve.fleet.ServiceProfile` records, not live
pipelines — and it is **differentially pinned** against the offline
oracle :func:`repro.serve.batcher.form_batches` +
:func:`repro.serve.batcher.dispatch_batches`: with one SLO class,
windowed batching and no autoscaling, per-request latencies and batch
compositions are *exactly* (float-for-float) equal
(``tests/test_serve_events.py``).

Event kinds, in tie-break order at equal virtual times:

1. ``FINISH`` — an instance completes a batch (windows mode) or a lane
   frees (continuous mode); waiting work dispatches immediately.
   Continuous lanes finish lazily: each instance keeps its lanes'
   ``(finish_s, seq)`` in admission order, and at an ARRIVAL or SCALE a
   lane with ``finish_s <= now`` is free, since FINISH ranks first. Only
   while requests wait (every lane busy) does each instance's first lane
   become a FINISH event, with the ``seq`` of its admission, so lanes
   that free at the same instant still free one at a time, in admission
   order, with an admission after each; freeing them together would
   change picks.
2. ``ARRIVAL`` — a request arrives; admission control may reject it,
   otherwise it joins its SLO class's open batch (windows mode) or queue
   (continuous mode). An arrival into an empty continuous queue is
   admitted directly. Arrivals are walked straight off the sorted trace
   array, so they never enter the heap.
3. ``SEAL`` — a batching window expires (``max_wait_s`` after the oldest
   member arrived); processed after same-instant arrivals so a request
   arriving exactly at the deadline still joins, matching
   :func:`repro.serve.batcher.form_batches`.
4. ``SCALE`` — the autoscaler evaluates its policy.

Batching modes:

- **windows** (default, oracle-equivalent): a batch seals when full
  (``max_batch``) or at its window deadline, then dispatches whole to the
  earliest-free instance.
- **continuous**: no windows — each instance is a pipelined stream, and
  queued requests are admitted *into the in-flight batch* whenever a
  stream lane (``max_batch`` of them) frees up. An admitted request
  finishes at ``max(now + fill, tail + step)``: either it refills a
  drained pipeline or it slots in behind the last scheduled image.

Both picks break ties to the lowest instance id. ``Fleet.active`` is in
ascending id order, so each pick is one upward walk that keeps only a
strictly earlier candidate. The continuous walk stops at the first
drained instance (``tail + step <= now + fill``): it finishes at
``now + fill``, the least possible. The virtual time is a local of the
event loop, written back to :attr:`EventDrivenSimulator.clock` once per
trace, at the later of the last event and the last finish.

SLO classes are served strictly by priority; per-class ``queue_limit``
gives admission control, and rejected requests surface in the report,
``ServeStats`` and the telemetry snapshot with their reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..telemetry.context import Telemetry
from ..telemetry.spans import VirtualClock
from .batcher import BatchPolicy
from .fleet import AutoscalePolicy, Fleet, Instance, ScaleEvent, ServiceProfile
from .loadgen import LoadTrace
from .stats import Rejection, ServeStats

__all__ = [
    "DEFAULT_SLO",
    "EventBatch",
    "EventDrivenSimulator",
    "EventOutcome",
    "EventReport",
    "SLOClass",
]

# Tie-break ranks of same-instant events (see module docstring).
_FINISH, _ARRIVAL, _SEAL, _SCALE = 0, 1, 2, 3
_NEVER = float("inf")


@dataclass(frozen=True)
class SLOClass:
    """One service-level class of the request population.

    ``priority`` orders dispatch (lower = more latency-sensitive, served
    first); ``queue_limit`` bounds the class's admitted-but-unstarted
    requests (admission control — arrivals beyond it are rejected with
    reason ``"queue_full"``); ``max_wait_s`` optionally overrides the
    batch policy's window deadline for this class;
    ``target_latency_s`` is the SLO target reported alongside the
    measured percentiles (it does not change scheduling).
    """

    name: str
    priority: int = 0
    target_latency_s: Optional[float] = None
    queue_limit: Optional[int] = None
    max_wait_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an SLO class needs a name")
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 (or None)")
        if self.max_wait_s is not None and self.max_wait_s < 0:
            raise ValueError("max_wait_s cannot be negative")
        if self.target_latency_s is not None and self.target_latency_s <= 0:
            raise ValueError("target_latency_s must be positive")


DEFAULT_SLO = SLOClass("standard")


@dataclass(frozen=True)
class EventOutcome:
    """One served request's full timing attribution.

    The per-request record :class:`repro.serve.stats.ServeStats` reads;
    the engine carries no payloads, so there is no output tensor.
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

    @property
    def queue_wait_s(self) -> float:
        """Time from arrival until the batch starts on an instance."""
        return self.start_s - self.arrival_s

    @property
    def service_s(self) -> float:
        """Time the batch occupied its instance."""
        return self.finish_s - self.start_s

    @property
    def latency_s(self) -> float:
        """End-to-end request latency."""
        return self.finish_s - self.arrival_s


@dataclass(frozen=True)
class EventBatch:
    """Dispatch record of one batch (windows) or stream run (continuous)."""

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
    #: Continuous batching: ``batches`` holds stream runs.
    continuous: bool = False

    @property
    def rejected(self) -> int:
        return len(self.rejections)

    @property
    def requests_per_second(self) -> float:
        return self.served / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def stats(self) -> ServeStats:
        """ServeStats over the outcomes (needs ``collect_records=True``)."""
        if not self.records_collected:
            raise ValueError(
                "per-request records were not collected "
                "(engine ran with collect_records=False)"
            )
        return ServeStats(
            self.outcomes,
            dense_ops_per_image=self.dense_ops_per_image,
            rejections=self.rejections,
            busy_seconds=self.busy_seconds,
            continuous=self.continuous,
        )


class _ClassState:
    """Mutable per-SLO-class serving state (internal)."""

    __slots__ = ("open", "open_seq", "queue", "queue_head", "pending",
                 "max_wait_s", "limit", "priority", "name")

    def __init__(self, slo: SLOClass, max_wait_s: float) -> None:
        self.name = slo.name
        self.priority = slo.priority
        self.limit = slo.queue_limit
        self.max_wait_s = (
            slo.max_wait_s if slo.max_wait_s is not None else max_wait_s
        )
        self.open: List[Tuple[int, float]] = []  # windows: open batch
        self.open_seq = 0  # generation counter invalidating stale SEALs
        self.queue: List[Tuple[int, float]] = []  # continuous: FIFO queue
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
        continuous: bool = False,
        autoscale: Optional[AutoscalePolicy] = None,
        telemetry: Optional[Telemetry] = None,
        record_spans: bool = True,
        collect_records: bool = True,
    ) -> None:
        """``collect_records=False`` skips per-request outcome/batch
        materialization (fleet-scale runs keep only aggregate latencies
        and the telemetry instruments); ``record_spans=False`` keeps the
        metrics registry wiring but skips the per-batch span tree."""
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
        self.continuous = continuous
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
        continuous = self.continuous
        collect = self.collect_records
        fleet = Fleet(profile, self.instances)
        active = fleet.active  # ascending ids; spawn/retire edit it in place
        states = [
            _ClassState(slo, self.policy.max_wait_s) for slo in self.classes
        ]
        by_priority = sorted(
            range(len(states)), key=lambda i: (states[i].priority, i)
        )

        heap: List[tuple] = []  # (time, rank, seq, a, b)
        seq = 0
        dispatch: List[tuple] = []  # (priority, close_s, bseq, cls, members)
        bseq = 0
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
        # Batch traces; continuous mode finalizes stream runs at the end.
        batch_rows: List[list] = []  # [id, worker, cls, size, close, start, finish]
        # Continuous: instance id -> the row of its open stream run.
        open_run: Dict[int, list] = {}

        def more_work() -> bool:
            return i < n or queued > 0 or last_finish_s > now

        # ---- windows mode helpers ----------------------------------

        def seal(cls: int, close_s: float) -> None:
            nonlocal bseq
            state = states[cls]
            members = state.open
            state.open = []
            state.open_seq += 1
            heappush(dispatch, (state.priority, close_s, bseq, cls, members))
            bseq += 1
            try_dispatch()

        def try_dispatch() -> None:
            nonlocal seq, next_batch_id, queued, last_finish_s
            while dispatch:
                # Earliest-free instance, lowest id on ties: an ascending-id
                # walk that keeps only a strictly earlier one.
                worker = None
                for w in active:
                    if w.available_s <= now and (
                        worker is None or w.available_s < worker.available_s
                    ):
                        worker = w
                if worker is None:
                    return
                _, close_s, _, cls, members = heappop(dispatch)
                size = len(members)
                # Same expression as batcher.dispatch_batches, so start
                # and finish are float-identical on the restricted config.
                start_s = max(close_s, worker.available_s)
                finish_s = start_s + profile.batch_seconds(size)
                worker.available_s = finish_s
                worker.busy_s += finish_s - start_s
                worker.batches += 1
                batch_id = next_batch_id
                next_batch_id += 1
                states[cls].pending -= size
                queued -= size
                heappush(heap, (finish_s, _FINISH, seq, worker, None))
                seq += 1
                latencies = lat_by_class[cls]
                for _, arrival in members:
                    latencies.append(finish_s - arrival)
                    wait_all.append(start_s - arrival)
                if finish_s > last_finish_s:
                    last_finish_s = finish_s
                if collect:
                    worker_id = worker.instance_id
                    batch_rows.append(
                        [batch_id, worker_id, cls, size,
                         close_s, start_s, finish_s]
                    )
                    records.extend(
                        (rid, cls, worker_id, batch_id,
                         arrival, close_s, start_s, finish_s)
                        for rid, arrival in members
                    )

        # ---- continuous mode helpers -------------------------------

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
                    heappush(heap, (finish_s, _FINISH, lane_seq, w, None))

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
            # Always retry dispatch: an instance may have just left its
            # startup delay with no FINISH/SEAL event pending to kick it.
            if continuous:
                while queued:
                    w = pick()
                    if w is None:
                        arm()
                        break
                    book(w, *dequeue())
            else:
                try_dispatch()
            if more_work() or fleet.size > policy.min_instances:
                heappush(
                    heap,
                    (now + policy.check_interval_s, _SCALE, seq, None, None),
                )
                seq += 1

        if self.autoscale is not None and n:
            heappush(heap, (first_arrival_s, _SCALE, seq, None, None))
            seq += 1

        # ---- main loop ---------------------------------------------

        while i < n or heap:
            # A heap event goes before arrival i when it is earlier, or a
            # FINISH at the same instant (arrivals never enter the heap).
            if heap and heap[0] < (arrivals[i] if i < n else _NEVER, _ARRIVAL):
                time_s, rank, _, a, b = heappop(heap)
                if time_s > now:
                    now = time_s
                if rank == _FINISH:
                    if continuous:
                        # Only armed lanes finish here, and only while every
                        # lane is busy: the lane that frees takes the next
                        # queued request. Equal-time lanes of other
                        # instances have later seqs and free after it.
                        a.lanes.popleft()
                        if queued:
                            book(a, *dequeue())
                        if queued:
                            finish_s, lane_seq = a.lanes[0]
                            heappush(heap, (finish_s, _FINISH, lane_seq, a, None))
                        else:
                            a.armed = False
                    else:
                        try_dispatch()
                elif rank == _SEAL:
                    cls = a
                    if b == states[cls].open_seq and states[cls].open:
                        seal(cls, time_s)
                elif rank == _SCALE:
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
            if continuous and not queued:
                # An arrival into an empty queue is admitted directly.
                max_queued = max_queued or 1
                w = pick()
                if w is not None:
                    book(w, rid, cls, t)
                    continue
            state.pending += 1
            queued += 1
            if queued > max_queued:
                max_queued = queued
            if continuous:
                # Requests wait only while every lane is busy, and only a
                # FINISH can free one: arm() when the wait begins.
                state.queue.append((rid, t))
                if queued == 1:
                    arm()
            else:
                state.open.append((rid, t))
                if len(state.open) == 1:
                    state.open_seq += 1
                    heappush(
                        heap,
                        (t + state.max_wait_s, _SEAL, seq, cls,
                         state.open_seq),
                    )
                    seq += 1
                if len(state.open) >= max_batch:
                    seal(cls, t)
        # Continuous lanes that finished with an empty queue had no event.
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
            continuous=continuous,
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
        SLO class), so registry percentiles are *identical* to
        ``ServeStats.latency_percentile_s`` — p50/p99/p999-vs-offered-load
        curves come straight from the snapshot.
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
        # A continuous run's records are stream runs, not batches; like
        # ``ServeStats``, report batch statistics for windows runs only.
        if report.batches and not report.continuous:
            registry.counter("serve/batches").inc(len(report.batches))
            registry.histogram(
                "serve/batch_size", buckets=(1, 2, 4, 8, 16, 32, 64)
            ).observe_many([batch.size for batch in report.batches])
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
                if span is not None:
                    with tracer.attach(span):
                        tracer.record_span(
                            "batch",
                            start_s=batch.start_s,
                            end_s=batch.finish_s,
                            worker=batch.worker_id,
                            size=batch.size,
                            slo=batch.slo,
                        )
