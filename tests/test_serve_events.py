"""Differential pinning of the event-driven serving engine.

The contract this file enforces is the one ``docs/serving.md`` promises:
on the restricted configuration — one SLO class, windowed batching, no
autoscaling — the event-driven engine is *exactly* equal to the offline
oracle, :func:`form_batches` + :func:`dispatch_batches`: same batch
compositions, same workers, and float-for-float identical
close/start/finish times, first on a fixed trace through the profile of a
real quantized pipeline and then on hypothesis-randomized traces.
Continuous mode is pinned the same way against a test-local reference
that takes the literal full-scan argmin for every admission.
Randomized traces also pin the engine's serving invariants (served
exactly once, FIFO within an SLO class, batch/lane caps, bounded batching
wait) in both batching modes.
"""

from collections import deque
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import (
    DEFAULT_SLO,
    BatchPolicy,
    EventBatch,
    EventDrivenSimulator,
    EventOutcome,
    LoadTrace,
    ServeRequest,
    ServeStats,
    ServiceProfile,
    SLOClass,
    dispatch_batches,
    form_batches,
)

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _trace(arrivals, class_names=(DEFAULT_SLO.name,)):
    """A LoadTrace over ``arrivals``, classes assigned round-robin."""
    class_ids = np.arange(len(arrivals)) % len(class_names)
    return LoadTrace("test", arrivals, class_ids, class_names=class_names)


def _oracle(arrivals, policy, profile, workers):
    """(dispatched batches, per-request outcomes) of the offline oracle."""
    requests = [ServeRequest(i, float(t)) for i, t in enumerate(arrivals)]
    dispatched = dispatch_batches(
        form_batches(requests, policy), profile, workers
    )
    outcomes = [
        EventOutcome(
            request_id=request.request_id,
            slo=DEFAULT_SLO.name,
            worker_id=d.worker_id,
            batch_id=batch_id,
            batch_size=d.batch.size,
            arrival_s=request.arrival_s,
            close_s=d.batch.close_s,
            start_s=d.start_s,
            finish_s=d.finish_s,
        )
        for batch_id, d in enumerate(dispatched)
        for request in d.batch.requests
    ]
    return dispatched, sorted(outcomes, key=lambda o: o.request_id)


def _run_both(arrivals, policy, fpga_s, host_s, workers=1):
    """(oracle, event report) over the same arrival trace."""
    profile = ServiceProfile(fpga_s=fpga_s, host_s=host_s)
    engine = EventDrivenSimulator(profile, policy, instances=workers)
    events = engine.run_trace(_trace(arrivals))
    return _oracle(arrivals, policy, profile, workers), events


def _assert_exactly_equal(oracle, events):
    """Per-request and per-batch float-for-float equality."""
    dispatched, outcomes = oracle
    # Dataclass equality compares every float with ==, not approx.
    assert sorted(events.outcomes, key=lambda o: o.request_id) == outcomes
    expected_batches = {
        batch_id: (d.worker_id, d.batch.size, d.batch.close_s, d.start_s,
                   d.finish_s)
        for batch_id, d in enumerate(dispatched)
    }
    evt_batches = {
        b.batch_id: (b.worker_id, b.size, b.close_s, b.start_s, b.finish_s)
        for b in events.batches
    }
    assert evt_batches == expected_batches


# hypothesis building blocks: arrival gaps spanning idle gaps, ties and
# sub-deadline clusters, in units of the ~ms service times below.
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
        from repro.prune import uniform_schedule
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
        """Fixed trace, windows, two instances of a real model's profile."""
        profile = ServiceProfile.from_runtime(runtime)
        # A trace with ties, a full batch, a deadline close and idle gaps.
        step = profile.step_s
        arrivals = [
            0.0, 0.0, 0.1 * step, 0.2 * step, 0.2 * step, 0.3 * step,
            7.0 * step, 7.1 * step,
            30.0 * step,
        ]
        policy = BatchPolicy(max_batch=4, max_wait_s=0.5 * step)
        oracle = _oracle(arrivals, policy, profile, workers=2)
        engine = EventDrivenSimulator(profile, policy, instances=2)
        events = engine.run_trace(_trace(arrivals))
        _assert_exactly_equal(oracle, events)
        # And the aggregate stats agree exactly too.
        expected = ServeStats(
            oracle[1], dense_ops_per_image=profile.dense_ops_per_image
        )
        assert events.stats.p50_latency_s == expected.p50_latency_s
        assert events.stats.makespan_s == expected.makespan_s
        assert (
            events.stats.batch_size_histogram()
            == expected.batch_size_histogram()
        )

    def test_profile_copies_runtime_floats(self, runtime):
        profile = ServiceProfile.from_runtime(runtime)
        fpga = runtime.simulation.seconds_per_image
        host = runtime.host_model.seconds_per_image(runtime.pipeline.network)
        assert profile.fpga_s == fpga
        assert profile.host_s == host
        assert profile.dense_ops_per_image == runtime.simulation.dense_ops
        for size in (1, 2, 5, 8):
            assert profile.batch_seconds(size) == (
                fpga + host + (size - 1) * max(fpga, host)
            )


# ---------------------------------------------------------------------------
# differential: hypothesis-randomized traces (fake runtime, full floats)
# ---------------------------------------------------------------------------


class TestDifferentialRandomized:
    @settings(max_examples=60, deadline=None)
    @given(gaps=_GAPS, policy=_POLICIES)
    def test_single_worker_exact(self, gaps, policy):
        arrivals = _arrivals_from_gaps(gaps)
        oracle, events = _run_both(arrivals, policy, 1.7e-3, 0.9e-3)
        _assert_exactly_equal(oracle, events)

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=_GAPS,
        policy=_POLICIES,
        workers=st.integers(min_value=2, max_value=4),
    )
    def test_multi_worker_exact(self, gaps, policy, workers):
        arrivals = _arrivals_from_gaps(gaps)
        oracle, events = _run_both(
            arrivals, policy, 2.1e-3, 2.1e-3, workers=workers
        )
        _assert_exactly_equal(oracle, events)

    @settings(max_examples=30, deadline=None)
    @given(gaps=_GAPS, policy=_POLICIES)
    def test_host_bound_profile_exact(self, gaps, policy):
        """host > fpga flips the pipeline bottleneck; equality must hold."""
        arrivals = _arrivals_from_gaps(gaps)
        oracle, events = _run_both(arrivals, policy, 0.4e-3, 3.0e-3)
        _assert_exactly_equal(oracle, events)


# ---------------------------------------------------------------------------
# differential: continuous mode against a literal reference
# ---------------------------------------------------------------------------


def _continuous_reference(arrivals, max_batch, profile, workers):
    """(outcomes, batches, busy seconds) of continuous batching, literally.

    One SLO class, no queue limit, no autoscaling. FINISH events go before
    same-instant arrivals and among themselves in admission order; after
    every event the FIFO queue is admitted while a lane is free, each
    request to the instance with the least ``(max(now + fill, tail +
    step), id)`` over a full scan of the fleet.
    """
    fill, step = profile.fill_s, profile.step_s
    tail = [0.0] * workers
    in_flight = [0] * workers
    busy = [0.0] * workers
    runs = []  # [batch_id, worker, size, close, start, finish]
    open_run = [None] * workers
    admitted = []  # (rid, worker, run, arrival, admit time, finish)
    finishes = []  # heap of (time, admission seq, worker)
    queue = deque()
    now = 0.0

    def admit():
        while queue:
            lanes = [w for w in range(workers) if in_flight[w] < max_batch]
            if not lanes:
                return
            finish, w = min(
                (max(now + fill, tail[w] + step), w) for w in lanes
            )
            rid, arrival = queue.popleft()
            if in_flight[w] == 0:
                open_run[w] = [len(runs), w, 0, now, now, now]
                runs.append(open_run[w])
            run = open_run[w]
            run[2] += 1
            run[5] = max(run[5], finish)
            busy[w] += finish - max(tail[w], now)
            tail[w] = finish
            in_flight[w] += 1
            heappush(finishes, (finish, len(admitted), w))
            admitted.append((rid, w, run, arrival, now, finish))

    i = 0
    while i < len(arrivals) or finishes:
        if finishes and (i == len(arrivals) or finishes[0][0] <= arrivals[i]):
            now, _, w = heappop(finishes)
            in_flight[w] -= 1
        else:
            now = float(arrivals[i])
            queue.append((i, now))
            i += 1
        admit()

    outcomes = [
        EventOutcome(
            request_id=rid,
            slo=DEFAULT_SLO.name,
            worker_id=w,
            batch_id=run[0],
            batch_size=run[2],
            arrival_s=arrival,
            close_s=start,
            start_s=start,
            finish_s=finish,
        )
        for rid, w, run, arrival, start, finish in sorted(admitted)
    ]
    batches = [
        EventBatch(
            batch_id=batch_id, worker_id=w, slo=DEFAULT_SLO.name,
            size=size, close_s=close, start_s=start, finish_s=finish,
        )
        for batch_id, w, size, close, start, finish in runs
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


# ---------------------------------------------------------------------------
# invariants on randomized traces (both batching modes)
# ---------------------------------------------------------------------------


def _run_events(arrivals, policy, continuous, classes=None, workers=1):
    profile = ServiceProfile(fpga_s=1.5e-3, host_s=0.8e-3)
    kwargs = {}
    if classes is not None:
        kwargs["classes"] = classes
    engine = EventDrivenSimulator(
        profile, policy, instances=workers, continuous=continuous, **kwargs
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
        continuous=st.booleans(),
        workers=st.integers(min_value=1, max_value=3),
    )
    def test_served_exactly_once(self, gaps, policy, continuous, workers):
        arrivals = _arrivals_from_gaps(gaps)
        report = _run_events(arrivals, policy, continuous, workers=workers)
        assert report.rejected == 0
        served_ids = sorted(o.request_id for o in report.outcomes)
        assert served_ids == list(range(len(arrivals)))

    @settings(max_examples=60, deadline=None)
    @given(gaps=_GAPS, policy=_POLICIES, continuous=st.booleans())
    def test_fifo_within_slo_class(self, gaps, policy, continuous):
        """Earlier arrival in the same class never finishes later."""
        classes = (SLOClass("a", priority=0), SLOClass("b", priority=1))
        arrivals = _arrivals_from_gaps(gaps)
        report = _run_events(arrivals, policy, continuous, classes=classes)
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
    @given(gaps=_GAPS, policy=_POLICIES)
    def test_windows_batch_and_wait_caps(self, gaps, policy):
        """No batch exceeds max_batch; no request waits past max_wait_s."""
        arrivals = _arrivals_from_gaps(gaps)
        report = _run_events(arrivals, policy, continuous=False)
        assert report.batches
        for batch in report.batches:
            assert 1 <= batch.size <= policy.max_batch
        for outcome in report.outcomes:
            # Batch-formation wait (close - arrival) honors the deadline;
            # the dispatch queue behind busy instances is extra and
            # unbounded by design.
            assert (
                outcome.close_s - outcome.arrival_s
                <= policy.max_wait_s + 1e-12
            )

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=_GAPS,
        policy=_POLICIES,
        workers=st.integers(min_value=1, max_value=3),
    )
    def test_continuous_lane_cap(self, gaps, policy, workers):
        """Per-instance in-flight concurrency never exceeds max_batch."""
        arrivals = _arrivals_from_gaps(gaps)
        report = _run_events(
            arrivals, policy, continuous=True, workers=workers
        )
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
        engine = EventDrivenSimulator(profile, policy, continuous=True)
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

    def test_continuous_beats_windows_on_tail_latency(self):
        """The point of continuous batching: stragglers stop waiting."""
        profile = ServiceProfile(fpga_s=2e-3, host_s=1e-3)
        policy = BatchPolicy(max_batch=8, max_wait_s=5e-3)
        trace = _trace(np.arange(32) * 1e-3)
        windows = EventDrivenSimulator(profile, policy).run_trace(trace)
        continuous = EventDrivenSimulator(
            profile, policy, continuous=True
        ).run_trace(trace)
        assert (
            continuous.stats.p99_latency_s <= windows.stats.p99_latency_s
        )

    def test_unknown_slo_class_rejected(self):
        profile = ServiceProfile(fpga_s=1e-3, host_s=1e-3)
        engine = EventDrivenSimulator(profile, BatchPolicy())
        with pytest.raises(ValueError, match="not among engine classes"):
            engine.run_trace(_trace([0.0], class_names=("nope",)))


# ---------------------------------------------------------------------------
# fleet-scale report plumbing
# ---------------------------------------------------------------------------


class TestReportModes:
    def test_collect_records_false_keeps_aggregates_only(self):
        profile = ServiceProfile(fpga_s=1e-3, host_s=1e-3)
        policy = BatchPolicy(max_batch=4, max_wait_s=1e-3)
        trace = _trace(np.arange(50) * 5e-4)
        full = EventDrivenSimulator(profile, policy).run_trace(trace)
        lean_engine = EventDrivenSimulator(
            profile, policy, collect_records=False
        )
        lean = lean_engine.run_trace(trace)
        assert lean.served == full.served == 50
        assert lean.makespan_s == full.makespan_s
        assert lean.outcomes == ()
        assert lean.batches == ()
        with pytest.raises(ValueError, match="collect_records"):
            _ = lean.stats
