"""Differential pinning of the event-driven serving engine.

The contract this file enforces is the one ``docs/serving.md`` promises:
the engine's continuous batching is *exactly* equal to
:func:`_continuous_reference`, a test-local reference that takes the
literal full-scan argmin for every admission: same outcomes, same stream
runs and float-for-float identical busy times, first on a fixed trace
through the profile of a real quantized pipeline and then on
hypothesis-randomized traces, with one or two SLO classes, queue limits
and lanes that fill, drain and fill again. Three autoscaled runs are
pinned by digest. Randomized traces also pin the engine's serving
invariants (served exactly once, FIFO within an SLO class, the lane cap).
"""

import hashlib
from collections import deque
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.events import (
    DEFAULT_SLO,
    BatchPolicy,
    EventBatch,
    EventDrivenSimulator,
    EventOutcome,
    Rejection,
    SLOClass,
)
from repro.serve.fleet import AutoscalePolicy, ServiceProfile
from repro.serve.loadgen import LoadTrace, burst_trace
from repro.telemetry.context import Telemetry

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _trace(arrivals, class_names=(DEFAULT_SLO.name,)):
    """A LoadTrace over ``arrivals``, classes assigned round-robin."""
    class_ids = np.arange(len(arrivals)) % len(class_names)
    return LoadTrace("test", arrivals, class_ids, class_names=class_names)


def _assert_matches_reference(arrivals, policy, profile, workers=1):
    """Engine and :func:`_continuous_reference` agree field for field."""
    report = EventDrivenSimulator(
        profile, policy, instances=workers
    ).run_trace(_trace(arrivals))
    outcomes, batches, busy = _continuous_reference(
        arrivals, policy.max_batch, profile, workers
    )
    # Dataclass equality compares every field, floats with ==.
    assert sorted(report.outcomes, key=lambda o: o.request_id) == outcomes
    assert list(report.batches) == batches
    assert report.busy_seconds == busy
    return report


# hypothesis building blocks: arrival gaps spanning idle gaps, ties and
# clusters, in units of the ~ms service times below. ``max_wait_s`` is
# drawn too: the engine never reads it, so no draw may change a result.
_GAPS = st.lists(
    st.floats(min_value=0.0, max_value=8e-3, allow_nan=False),
    min_size=1,
    max_size=48,
)
_POLICIES = st.builds(
    BatchPolicy,
    max_batch=st.integers(min_value=1, max_value=6),
    max_wait_s=st.sampled_from([0.0, 5e-4, 2e-3, 1e-2]),
)


def _arrivals_from_gaps(gaps):
    return np.cumsum(np.asarray(gaps))


# ---------------------------------------------------------------------------
# differential: fixed trace through a real pipeline
# ---------------------------------------------------------------------------


class TestDifferentialRealPipeline:
    @pytest.fixture(scope="class")
    def runtime(self, tiny_network_module):
        from repro.pipeline import QuantizedPipeline
        from repro.prune.schedules import uniform_schedule
        from repro.runtime import SystemRuntime

        architecture, network = tiny_network_module
        rng = np.random.default_rng(7)
        pipeline = QuantizedPipeline(network)
        names = [layer.name for layer in network.accelerated_layers()]
        pipeline.prune(uniform_schedule(names, 0.4).densities)
        pipeline.calibrate(rng.normal(size=network.input_shape.as_tuple()))
        pipeline.quantize()
        return SystemRuntime.from_pipeline(
            pipeline, architecture.accelerated_specs()
        )

    @pytest.fixture(scope="class")
    def tiny_network_module(self):
        from repro.nn.models import (
            Architecture,
            ConvDef,
            FCDef,
            FlattenDef,
            PoolDef,
            ReLUDef,
            SoftmaxDef,
        )

        architecture = Architecture(
            name="tiny",
            input_channels=3,
            input_rows=16,
            input_cols=16,
            defs=[
                ConvDef("conv1", 8, kernel=3, padding=1),
                ReLUDef("relu1"),
                PoolDef("pool1", kernel=2, stride=2),
                FlattenDef("flatten"),
                FCDef("fc2", 10, scale_output=False),
                SoftmaxDef("prob"),
            ],
        )
        return architecture, architecture.build(seed=10)

    def test_fixed_trace_exact_equality(self, runtime):
        """Fixed trace, two instances of a real model's profile."""
        profile = ServiceProfile.from_runtime(runtime)
        # Ties, a burst that fills every lane, idle gaps.
        step = profile.step_s
        arrivals = [
            0.0, 0.0, 0.1 * step, 0.2 * step, 0.2 * step, 0.3 * step,
            7.0 * step, 7.1 * step,
            30.0 * step,
        ]
        policy = BatchPolicy(max_batch=2, max_wait_s=0.5 * step)
        report = _assert_matches_reference(arrivals, policy, profile, 2)
        # The burst waited for lanes; the stragglers did not.
        waits = [
            o.start_s - o.arrival_s
            for o in sorted(report.outcomes, key=lambda o: o.request_id)
        ]
        assert max(waits) > 0
        assert waits[-3:] == [0.0, 0.0, 0.0]

    def test_profile_copies_runtime_floats(self, runtime):
        profile = ServiceProfile.from_runtime(runtime)
        fpga = runtime.simulation.seconds_per_image
        host = runtime.host_model.seconds_per_image(runtime.pipeline.network)
        assert profile.fpga_s == fpga
        assert profile.host_s == host
        assert profile.dense_ops_per_image == runtime.simulation.dense_ops
        assert profile.fill_s == fpga + host
        assert profile.step_s == max(fpga, host)


# ---------------------------------------------------------------------------
# differential: hypothesis-randomized traces (fake runtime, full floats)
# ---------------------------------------------------------------------------


class TestDifferentialRandomized:
    """Profiles and lane counts beyond those of the classes below: equal
    stage times and up to six lanes."""

    @settings(max_examples=60, deadline=None)
    @given(gaps=_GAPS, policy=_POLICIES)
    def test_single_worker_exact(self, gaps, policy):
        arrivals = _arrivals_from_gaps(gaps)
        profile = ServiceProfile(fpga_s=1.7e-3, host_s=0.9e-3)
        _assert_matches_reference(arrivals, policy, profile)

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=_GAPS,
        policy=_POLICIES,
        workers=st.integers(min_value=2, max_value=4),
    )
    def test_multi_worker_exact(self, gaps, policy, workers):
        arrivals = _arrivals_from_gaps(gaps)
        profile = ServiceProfile(fpga_s=2.1e-3, host_s=2.1e-3)
        _assert_matches_reference(arrivals, policy, profile, workers)

    @settings(max_examples=30, deadline=None)
    @given(gaps=_GAPS, policy=_POLICIES)
    def test_host_bound_profile_exact(self, gaps, policy):
        """host > fpga flips the pipeline bottleneck; equality must hold."""
        arrivals = _arrivals_from_gaps(gaps)
        profile = ServiceProfile(fpga_s=0.4e-3, host_s=3.0e-3)
        _assert_matches_reference(arrivals, policy, profile)


# ---------------------------------------------------------------------------
# differential: the literal reference
# ---------------------------------------------------------------------------


def _continuous_reference(
    arrivals, max_batch, profile, workers, classes=(DEFAULT_SLO,)
):
    """(outcomes, batches, busy seconds) of continuous batching, literally.

    No autoscaling; requests take ``classes`` round-robin, as ``_trace``
    assigns them. FINISH events go before same-instant arrivals and among
    themselves in admission order. An arrival whose class already has
    ``queue_limit`` requests queued is rejected and served by nobody.
    After every other event the queues are admitted while a lane is free:
    the class of least ``(priority, index)`` first, FIFO within a class,
    each request to the instance with the least ``(max(now + fill, tail +
    step), id)`` over a full scan of the fleet.
    """
    fill, step = profile.fill_s, profile.step_s
    tail = [0.0] * workers
    in_flight = [0] * workers
    busy = [0.0] * workers
    runs = []  # [batch_id, worker, class (-1: mixed), size, close, start, finish]
    open_run = [None] * workers
    admitted = []  # (rid, class, worker, run, arrival, admit time, finish)
    finishes = []  # heap of (time, admission seq, worker)
    queues = [deque() for _ in classes]
    order = sorted(range(len(classes)), key=lambda c: (classes[c].priority, c))
    now = 0.0

    def admit():
        while True:
            waiting = [c for c in order if queues[c]]
            lanes = [w for w in range(workers) if in_flight[w] < max_batch]
            if not waiting or not lanes:
                return
            finish, w = min(
                (max(now + fill, tail[w] + step), w) for w in lanes
            )
            cls = waiting[0]
            rid, arrival = queues[cls].popleft()
            if in_flight[w] == 0:
                open_run[w] = [len(runs), w, cls, 0, now, now, now]
                runs.append(open_run[w])
            run = open_run[w]
            if run[2] != cls:
                run[2] = -1
            run[3] += 1
            run[6] = max(run[6], finish)
            busy[w] += finish - max(tail[w], now)
            tail[w] = finish
            in_flight[w] += 1
            heappush(finishes, (finish, len(admitted), w))
            admitted.append((rid, cls, w, run, arrival, now, finish))

    i = 0
    while i < len(arrivals) or finishes:
        if finishes and (i == len(arrivals) or finishes[0][0] <= arrivals[i]):
            now, _, w = heappop(finishes)
            in_flight[w] -= 1
        else:
            now = float(arrivals[i])
            cls = i % len(classes)
            limit = classes[cls].queue_limit
            i += 1
            if limit is not None and len(queues[cls]) >= limit:
                continue  # rejected: queue_full
            queues[cls].append((i - 1, now))
        admit()

    outcomes = [
        EventOutcome(
            request_id=rid,
            slo=classes[cls].name,
            worker_id=w,
            batch_id=run[0],
            batch_size=run[3],
            arrival_s=arrival,
            close_s=start,
            start_s=start,
            finish_s=finish,
        )
        for rid, cls, w, run, arrival, start, finish in sorted(admitted)
    ]
    batches = [
        EventBatch(
            batch_id=batch_id, worker_id=w,
            slo="mixed" if cls < 0 else classes[cls].name,
            size=size, close_s=close, start_s=start, finish_s=finish,
        )
        for batch_id, w, cls, size, close, start, finish in runs
    ]
    return outcomes, batches, dict(enumerate(busy))


class TestContinuousDifferential:
    """The continuous pick's early exits against the literal full scan."""

    @settings(max_examples=80, deadline=None)
    # Bursts: drained instances tie at the floor, and then busy ones tie at
    # the same tail + step; both ties go to the lowest id.
    @example(gaps=[0.0] * 3, workers=2, max_batch=2, stages=(1.7e-3, 0.9e-3))
    @example(gaps=[0.0] * 9, workers=3, max_batch=4, stages=(0.4e-3, 3.0e-3))
    @given(
        gaps=_GAPS,
        workers=st.integers(min_value=1, max_value=6),
        max_batch=st.integers(min_value=1, max_value=4),
        stages=st.sampled_from([(1.7e-3, 0.9e-3), (0.4e-3, 3.0e-3)]),
    )
    def test_matches_reference_exactly(self, gaps, workers, max_batch, stages):
        """Compute-bound and host-bound profiles; zero gaps give ties."""
        arrivals = _arrivals_from_gaps(gaps)
        profile = ServiceProfile(fpga_s=stages[0], host_s=stages[1])
        report = EventDrivenSimulator(
            profile,
            BatchPolicy(max_batch=max_batch),
            instances=workers,
            continuous=True,
        ).run_trace(_trace(arrivals))
        outcomes, batches, busy = _continuous_reference(
            arrivals, max_batch, profile, workers
        )
        # Dataclass equality compares every field, floats with ==.
        assert (
            sorted(report.outcomes, key=lambda o: o.request_id) == outcomes
        )
        assert list(report.batches) == batches
        assert report.busy_seconds == busy


# Gaps that fill every lane (zero gaps) and then drain the queue (~62 ms),
# so waiting requests come and go several times in one trace. They and
# the dyadic stage times below are powers of two, so sums are exact and
# arrivals land exactly on lane finishes.
_SATURATING_GAPS = st.lists(
    st.sampled_from([0.0, 0.0, 0.0, 2.0**-11, 2.0**-10, 2.0**-4]),
    min_size=1,
    max_size=60,
)


def _run_classes_against_reference(
    gaps, workers, max_batch, limits, priorities, stages
):
    """Run engine and reference on two SLO classes; assert they agree."""
    arrivals = _arrivals_from_gaps(gaps)
    classes = (
        SLOClass("latency-sensitive", priority=priorities[0],
                 queue_limit=limits[0]),
        SLOClass("best-effort", priority=priorities[1],
                 queue_limit=limits[1]),
    )
    profile = ServiceProfile(fpga_s=stages[0], host_s=stages[1])
    engine = EventDrivenSimulator(
        profile,
        BatchPolicy(max_batch=max_batch),
        classes=classes,
        instances=workers,
        continuous=True,
    )
    report = engine.run_trace(
        _trace(arrivals, tuple(slo.name for slo in classes))
    )
    outcomes, batches, busy = _continuous_reference(
        arrivals, max_batch, profile, workers, classes
    )
    assert sorted(report.outcomes, key=lambda o: o.request_id) == outcomes
    assert list(report.batches) == batches
    assert report.busy_seconds == busy
    served = {o.request_id for o in outcomes}
    assert list(report.rejections) == [
        Rejection(rid, classes[rid % 2].name, float(arrivals[rid]),
                  "queue_full")
        for rid in range(len(arrivals))
        if rid not in served
    ]
    # The clock ends at the last arrival or the last finish.
    assert engine.clock.now() == max(
        [float(arrivals[-1])] + [o.finish_s for o in outcomes]
    )
    return outcomes


class TestContinuousClassesDifferential:
    """Priority classes, queue limits and full lanes against the reference."""

    @settings(max_examples=80, deadline=None)
    # Every lane busy: a zero-gap burst queues requests, a 50 ms gap drains
    # the queue, and a second burst queues them again.
    @example(gaps=[0.0] * 6 + [5e-2] + [0.0] * 6, workers=1, max_batch=1,
             limits=(None, 2), priorities=(0, 1), stages=(1.7e-3, 0.9e-3))
    @example(gaps=[0.0] * 10 + [5e-2] + [0.0] * 10, workers=2, max_batch=2,
             limits=(None, 3), priorities=(1, 0), stages=(0.4e-3, 3.0e-3))
    @example(gaps=[0.0] * 3 + [5e-4] * 20 + [5e-2] + [0.0] * 8, workers=3,
             max_batch=1, limits=(1, None), priorities=(0, 0),
             stages=(1.7e-3, 0.9e-3))
    # The last arrival lands exactly on a lane finish of a full instance:
    # that lane is free, and its instance beats a free one finishing later.
    @example(gaps=[0.0, 2.0**-10, 2.0**-10, 0.0, 0.0, 2.0**-10], workers=3,
             max_batch=2, limits=(None, None), priorities=(0, 1),
             stages=(2.0**-9, 2.0**-10))
    @given(
        gaps=_SATURATING_GAPS,
        workers=st.integers(min_value=1, max_value=3),
        max_batch=st.integers(min_value=1, max_value=4),
        limits=st.tuples(
            st.sampled_from([None, 1, 2, 4]), st.sampled_from([None, 1, 2, 4])
        ),
        priorities=st.sampled_from([(0, 1), (1, 0), (0, 0)]),
        stages=st.sampled_from(
            [(1.7e-3, 0.9e-3), (0.4e-3, 3.0e-3), (2.0**-9, 2.0**-10)]
        ),
    )
    def test_matches_reference_exactly(
        self, gaps, workers, max_batch, limits, priorities, stages
    ):
        _run_classes_against_reference(
            gaps, workers, max_batch, limits, priorities, stages
        )

    def test_queue_fills_drains_and_fills_again(self):
        """Both bursts of the first example above really wait for lanes."""
        outcomes = _run_classes_against_reference(
            [0.0] * 6 + [5e-2] + [0.0] * 6, 1, 1, (None, 2), (0, 1),
            (1.7e-3, 0.9e-3),
        )
        waited = [o.request_id for o in outcomes if o.start_s > o.arrival_s]
        assert any(rid < 6 for rid in waited)
        assert any(rid >= 6 for rid in waited)


def _autoscaled_continuous_run(seed):
    """(report, engine) of a bursty two-class run on an autoscaled fleet."""
    profile = ServiceProfile(fpga_s=2e-3, host_s=1e-3)
    classes = (
        SLOClass("latency-sensitive", priority=0),
        SLOClass("best-effort", priority=1, queue_limit=24),
    )
    trace = burst_trace(
        3000,
        1.1 * 2 * profile.capacity_rps,
        seed=seed,
        slo_mix={"latency-sensitive": 0.4, "best-effort": 0.6},
    )
    engine = EventDrivenSimulator(
        profile,
        BatchPolicy(max_batch=4),
        classes=classes,
        instances=2,
        continuous=True,
        autoscale=AutoscalePolicy(
            min_instances=2,
            max_instances=5,
            check_interval_s=2e-3,
            scale_up_queue_per_instance=3.0,
            cooldown_s=4e-3,
            startup_delay_s=3e-3,
        ),
    )
    return engine.run_trace(trace), engine


#: sha256 of the whole report of ``_autoscaled_continuous_run(seed)``, as
#: the engine produced it when every admitted request had its own FINISH
#: event. Lazily finished lanes must not change a single field.
_AUTOSCALED_DIGESTS = {
    1: "861e90333059bd5ac0e3a9150101674be902c1142238f5d5c0de87963ad4e347",
    2: "2609a1d8d25a7aa7fef052ffad736a6a64b29863776bde5ac6bfebec2e96da25",
    3: "4c23a8c3ae1cacdf9be790bb35a982fb8add0128f07428307d1ced0747363b75",
}


class TestContinuousPinnedReports:
    @pytest.mark.parametrize("seed", sorted(_AUTOSCALED_DIGESTS))
    def test_autoscaled_report_digest(self, seed):
        report, engine = _autoscaled_continuous_run(seed)
        # The run exercises what the digest is meant to cover.
        actions = {event.action for event in report.scale_events}
        assert actions == {"up", "down"}
        assert report.rejected > 0 and report.max_queue_depth > 24
        material = repr((
            report.outcomes, report.rejections, report.batches,
            report.scale_events, sorted(report.busy_seconds.items()),
            engine.clock.now(), report.makespan_s, report.max_queue_depth,
            report.final_instances, report.peak_instances,
        ))
        digest = hashlib.sha256(material.encode()).hexdigest()
        assert digest == _AUTOSCALED_DIGESTS[seed]


# ---------------------------------------------------------------------------
# invariants on randomized traces
# ---------------------------------------------------------------------------


def _run_events(arrivals, policy, classes=None, workers=1):
    profile = ServiceProfile(fpga_s=1.5e-3, host_s=0.8e-3)
    kwargs = {}
    if classes is not None:
        kwargs["classes"] = classes
    engine = EventDrivenSimulator(
        profile, policy, instances=workers, **kwargs
    )
    if classes is None:
        trace = _trace(arrivals)
    else:
        trace = _trace(arrivals, tuple(slo.name for slo in classes))
    return engine.run_trace(trace)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        gaps=_GAPS,
        policy=_POLICIES,
        workers=st.integers(min_value=1, max_value=3),
    )
    def test_served_exactly_once(self, gaps, policy, workers):
        arrivals = _arrivals_from_gaps(gaps)
        report = _run_events(arrivals, policy, workers=workers)
        assert report.rejected == 0
        served_ids = sorted(o.request_id for o in report.outcomes)
        assert served_ids == list(range(len(arrivals)))

    @settings(max_examples=60, deadline=None)
    @given(gaps=_GAPS, policy=_POLICIES)
    def test_fifo_within_slo_class(self, gaps, policy):
        """Earlier arrival in the same class never finishes later."""
        classes = (SLOClass("a", priority=0), SLOClass("b", priority=1))
        arrivals = _arrivals_from_gaps(gaps)
        report = _run_events(arrivals, policy, classes=classes)
        by_class = {}
        for outcome in sorted(
            report.outcomes, key=lambda o: (o.arrival_s, o.request_id)
        ):
            by_class.setdefault(outcome.slo, []).append(outcome)
        for outcomes in by_class.values():
            starts = [o.start_s for o in outcomes]
            finishes = [o.finish_s for o in outcomes]
            assert starts == sorted(starts)
            assert finishes == sorted(finishes)

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=_GAPS,
        policy=_POLICIES,
        workers=st.integers(min_value=1, max_value=3),
    )
    def test_continuous_lane_cap(self, gaps, policy, workers):
        """Per-instance in-flight concurrency never exceeds max_batch."""
        arrivals = _arrivals_from_gaps(gaps)
        report = _run_events(arrivals, policy, workers=workers)
        per_worker = {}
        for outcome in report.outcomes:
            per_worker.setdefault(outcome.worker_id, []).append(outcome)
        for outcomes in per_worker.values():
            events = sorted(
                [(o.start_s, 1) for o in outcomes]
                + [(o.finish_s, -1) for o in outcomes]
            )
            depth = 0
            for _, delta in events:
                depth += delta
                assert depth <= policy.max_batch

    def test_continuous_burst_is_exact_pipeline_arithmetic(self):
        """N simultaneous arrivals: last finish == fill + (N-1) * step."""
        profile = ServiceProfile(fpga_s=2e-3, host_s=1e-3)
        policy = BatchPolicy(max_batch=64, max_wait_s=1.0)
        engine = EventDrivenSimulator(profile, policy)
        n = 9
        report = engine.run_trace(_trace(np.zeros(n)))
        finishes = sorted(o.finish_s for o in report.outcomes)
        # The engine applies finish = prev + step sequentially; pin the
        # exact same accumulation, not the algebraically equal product.
        expected = profile.fill_s
        assert finishes[0] == expected
        for k in range(1, n):
            expected = expected + profile.step_s
            assert finishes[k] == expected
        assert finishes[-1] == pytest.approx(
            profile.fill_s + (n - 1) * profile.step_s
        )

    def test_unknown_slo_class_rejected(self):
        profile = ServiceProfile(fpga_s=1e-3, host_s=1e-3)
        engine = EventDrivenSimulator(profile, BatchPolicy())
        with pytest.raises(ValueError, match="not among engine classes"):
            engine.run_trace(_trace([0.0], class_names=("nope",)))

    def test_windows_mode_is_rejected(self):
        """Continuous batching is the only mode; asking for another fails
        loudly instead of silently batching differently."""
        profile = ServiceProfile(fpga_s=1e-3, host_s=1e-3)
        with pytest.raises(ValueError, match="windows batching was removed"):
            EventDrivenSimulator(profile, BatchPolicy(), continuous=False)


# ---------------------------------------------------------------------------
# fleet-scale report plumbing
# ---------------------------------------------------------------------------


class TestReportModes:
    def test_collect_records_false_keeps_aggregates_only(self):
        profile = ServiceProfile(fpga_s=1e-3, host_s=1e-3)
        policy = BatchPolicy(max_batch=4, max_wait_s=1e-3)
        trace = _trace(np.arange(50) * 5e-4)
        full = EventDrivenSimulator(profile, policy).run_trace(trace)
        telemetry = Telemetry()
        lean_engine = EventDrivenSimulator(
            profile, policy, collect_records=False, telemetry=telemetry
        )
        lean = lean_engine.run_trace(trace)
        assert lean.served == full.served == 50
        assert lean.makespan_s == full.makespan_s
        assert lean.outcomes == ()
        assert lean.batches == ()
        with pytest.raises(ValueError, match="collect_records"):
            lean.render(telemetry.registry)
