"""Tests for the batched multi-accelerator serving runtime.

Covers the batching invariants (a batch never exceeds ``max_batch`` and
no request waits past ``max_wait_s``), sharding over instances, the
two-stage batch-time law of a real deployment's ``ServiceProfile``, and
the ``ServeStats`` arithmetic pinned against hand-computed values.
"""

import numpy as np
import pytest

from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from repro.runtime import SystemRuntime
from repro.serve.batcher import (
    BatchPolicy,
    ServeRequest,
    dispatch_batches,
    form_batches,
)
from repro.serve.events import EventDrivenSimulator, EventOutcome
from repro.serve.fleet import ServiceProfile
from repro.serve.loadgen import LoadTrace, poisson_trace
from repro.serve.stats import ServeStats


from repro.nn.models import (
    Architecture,
    ConvDef,
    FCDef,
    FlattenDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)


def _tiny_serving_architecture() -> Architecture:
    """Module-scope copy of the conftest tiny CNN (fixture scopes differ)."""
    return Architecture(
        name="tiny",
        input_channels=3,
        input_rows=16,
        input_cols=16,
        defs=[
            ConvDef("conv1", 8, kernel=3, padding=1),
            ReLUDef("relu1"),
            PoolDef("pool1", kernel=2, stride=2),
            ConvDef("conv2", 12, kernel=3, padding=1),
            ReLUDef("relu2"),
            PoolDef("pool2", kernel=2, stride=2),
            FlattenDef("flatten"),
            FCDef("fc3", 20),
            ReLUDef("relu3"),
            FCDef("fc4", 10, scale_output=False),
            SoftmaxDef("prob"),
        ],
    )


@pytest.fixture(scope="module")
def served_model():
    """A quantized tiny model plus its accelerated-layer specs."""
    tiny_architecture = _tiny_serving_architecture()
    network = tiny_architecture.build(seed=10)
    rng = np.random.default_rng(99)
    image = rng.normal(size=network.input_shape.as_tuple())
    names = [layer.name for layer in network.accelerated_layers()]
    pipeline = QuantizedPipeline(network)
    pipeline.prune(uniform_schedule(names, 0.4).densities)
    pipeline.calibrate(image)
    pipeline.quantize()
    return pipeline, tiny_architecture.accelerated_specs()


@pytest.fixture(scope="module")
def runtime(served_model):
    """The served model deployed on the default device."""
    pipeline, specs = served_model
    return SystemRuntime.from_pipeline(pipeline, specs)


def _requests(arrivals):
    """Placeholder requests for pure batcher tests."""
    return [
        ServeRequest(request_id=i, arrival_s=t) for i, t in enumerate(arrivals)
    ]


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1e-9)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            ServeRequest(request_id=0, arrival_s=-1.0)


class TestDynamicBatcher:
    def test_full_batch_closes_immediately(self):
        """The max_batch-th arrival seals the batch at its own arrival."""
        batches = form_batches(
            _requests([0.0] * 10), BatchPolicy(max_batch=4, max_wait_s=1.0)
        )
        assert [b.size for b in batches] == [4, 4, 2]
        assert batches[0].close_s == 0.0
        assert batches[1].close_s == 0.0
        # The trailing partial batch waits out the deadline.
        assert batches[2].close_s == 1.0

    def test_deadline_closes_partial_batch(self):
        """A late arrival cannot join a batch past the oldest's deadline."""
        batches = form_batches(
            _requests([0.0, 0.5, 2.0]), BatchPolicy(max_batch=8, max_wait_s=1.0)
        )
        assert [b.size for b in batches] == [2, 1]
        assert batches[0].close_s == 1.0  # first arrival + max_wait
        assert batches[1].close_s == 3.0

    def test_arrival_exactly_at_deadline_joins(self):
        batches = form_batches(
            _requests([0.0, 1.0]), BatchPolicy(max_batch=8, max_wait_s=1.0)
        )
        assert [b.size for b in batches] == [2]

    def test_never_exceeds_max_batch(self, rng):
        arrivals = np.sort(rng.uniform(0, 1e-3, size=200))
        for max_batch in (1, 3, 7):
            policy = BatchPolicy(max_batch=max_batch, max_wait_s=5e-5)
            batches = form_batches(_requests(arrivals), policy)
            assert all(b.size <= max_batch for b in batches)

    def test_max_wait_honored(self, rng):
        """No request's batch closes later than its arrival + max_wait."""
        arrivals = np.sort(rng.uniform(0, 1e-3, size=200))
        policy = BatchPolicy(max_batch=5, max_wait_s=5e-5)
        for batch in form_batches(_requests(arrivals), policy):
            for request in batch.requests:
                assert batch.close_s <= request.arrival_s + policy.max_wait_s + 1e-15
            # Close time never precedes the newest member either.
            assert batch.close_s >= batch.requests[-1].arrival_s

    def test_every_request_served_once_in_order(self, rng):
        arrivals = np.sort(rng.uniform(0, 1e-3, size=100))
        policy = BatchPolicy(max_batch=4, max_wait_s=2e-5)
        batches = form_batches(_requests(arrivals), policy)
        flat = [r.request_id for b in batches for r in b.requests]
        assert flat == sorted(flat)
        assert len(flat) == 100

    def test_max_batch_one_degenerates_to_fifo(self):
        batches = form_batches(
            _requests([0.0, 0.1, 0.2]), BatchPolicy(max_batch=1, max_wait_s=9.0)
        )
        assert [b.size for b in batches] == [1, 1, 1]
        assert [b.close_s for b in batches] == [0.0, 0.1, 0.2]


class TestWorkerPool:
    def test_pool_size_validation(self, runtime):
        profile = ServiceProfile.from_runtime(runtime)
        with pytest.raises(ValueError):
            EventDrivenSimulator(profile, BatchPolicy(), instances=0)
        with pytest.raises(ValueError):
            dispatch_batches([], profile, instances=0)

    def test_batches_shard_across_workers(self, runtime):
        """A saturated burst round-robins batches over the free workers."""
        profile = ServiceProfile.from_runtime(runtime)
        engine = EventDrivenSimulator(
            profile, BatchPolicy(max_batch=2, max_wait_s=0.0), instances=2
        )
        report = engine.run_trace(LoadTrace("burst", np.zeros(8), np.zeros(8)))
        assert [batch.worker_id for batch in report.batches] == [0, 1, 0, 1]
        busy = report.stats.worker_busy_s()
        assert busy[0] == pytest.approx(busy[1])
        # Two workers halve the makespan of four equal batches.
        service = profile.batch_seconds(2)
        assert report.stats.makespan_s == pytest.approx(2 * service)

    @staticmethod
    def _utilization_run(runtime, continuous):
        """A saturated Poisson run over three instances, lanes of two."""
        profile = ServiceProfile.from_runtime(runtime)
        policy = BatchPolicy(max_batch=2, max_wait_s=0.5 * profile.step_s)
        rate = 30 / profile.batch_seconds(2)  # far past the fleet capacity
        engine = EventDrivenSimulator(
            profile, policy, instances=3, continuous=continuous
        )
        return engine.run_trace(poisson_trace(256, rate, seed=4))

    def test_continuous_utilization_is_engine_busy_time(self, runtime):
        """A continuous batch is a whole stream run whose lanes overlap:
        utilization is the engine's per-instance busy time, not one
        lane's service time."""
        report = self._utilization_run(runtime, continuous=True)
        utilization = report.stats.worker_utilization()
        assert utilization == {
            w: report.busy_seconds[w] / report.makespan_s for w in range(3)
        }
        # Saturated: every instance is busy for almost the whole run.
        assert min(utilization.values()) > 0.9

    def test_windows_utilization_is_unchanged(self, runtime):
        """Windows batches do not overlap on an instance, so the engine's
        busy time is the per-batch service sum the records give."""
        report = self._utilization_run(runtime, continuous=False)
        per_batch = ServeStats(
            report.outcomes, dense_ops_per_image=report.dense_ops_per_image
        )
        assert report.stats.worker_busy_s() == pytest.approx(
            per_batch.worker_busy_s(), rel=1e-12
        )
        assert sorted(report.stats.worker_busy_s()) == [0, 1, 2]

    def test_continuous_run_reports_stream_runs(self, runtime):
        """A stream run admits requests into lanes as they free, so it holds
        far more requests than ``max_batch``; a continuous run reports
        stream runs and has no batch statistics, while a windows run never
        reports a batch above ``max_batch``."""
        report = self._utilization_run(runtime, continuous=True)
        stats = report.stats
        assert max(run.size for run in report.batches) > 2
        rendered = stats.render()
        assert f"{stats.count} in {len(report.batches)} stream runs" in rendered
        assert "batches" not in rendered
        for statistic in (
            lambda: stats.batch_count,
            stats.batch_size_histogram,
            lambda: stats.mean_batch_size,
        ):
            with pytest.raises(ValueError, match="stream runs"):
                statistic()

        windows = self._utilization_run(runtime, continuous=False).stats
        assert max(windows.batch_size_histogram()) <= 2
        assert f"in {windows.batch_count} batches" in windows.render()

    def test_empty_inputs_rejected(self, runtime):
        profile = ServiceProfile.from_runtime(runtime)
        with pytest.raises(ValueError):
            EventDrivenSimulator(profile, BatchPolicy(), classes=())
        with pytest.raises(ValueError):
            LoadTrace("empty", np.zeros(0), np.zeros(0))


class TestBatchSeconds:
    def test_single_image_is_sequential_time(self, runtime):
        profile = ServiceProfile.from_runtime(runtime)
        fpga = runtime.simulation.seconds_per_image
        host = runtime.host_model.seconds_per_image(runtime.pipeline.network)
        assert profile.batch_seconds(1) == pytest.approx(fpga + host)

    def test_pipelined_marginal_cost(self, runtime):
        profile = ServiceProfile.from_runtime(runtime)
        fpga = runtime.simulation.seconds_per_image
        host = runtime.host_model.seconds_per_image(runtime.pipeline.network)
        for batch in (2, 5, 16):
            expected = fpga + host + (batch - 1) * max(fpga, host)
            assert profile.batch_seconds(batch) == pytest.approx(expected)

    def test_validation(self, runtime):
        profile = ServiceProfile.from_runtime(runtime)
        with pytest.raises(ValueError):
            profile.batch_seconds(0)
        with pytest.raises(ValueError):
            runtime.infer_batch([])


def _response(request_id, worker, batch, size, arrival, close, start, finish):
    return EventOutcome(
        request_id=request_id,
        slo="standard",
        worker_id=worker,
        batch_id=batch,
        batch_size=size,
        arrival_s=arrival,
        close_s=close,
        start_s=start,
        finish_s=finish,
    )


class TestServeStats:
    """Every figure pinned against a tiny hand-computed scenario."""

    @pytest.fixture
    def stats(self):
        responses = [
            _response(0, worker=0, batch=0, size=2,
                      arrival=0.0, close=1.0, start=1.0, finish=3.0),
            _response(1, worker=0, batch=0, size=2,
                      arrival=1.0, close=1.0, start=1.0, finish=3.0),
            _response(2, worker=1, batch=1, size=1,
                      arrival=2.0, close=2.5, start=2.5, finish=4.5),
        ]
        return ServeStats(responses, dense_ops_per_image=1_000_000_000)

    def test_counts(self, stats):
        assert stats.count == 3
        assert stats.batch_count == 2
        assert stats.batch_size_histogram() == {1: 1, 2: 1}
        assert stats.mean_batch_size == pytest.approx(1.5)

    def test_latency_arithmetic(self, stats):
        assert stats.latencies_s() == [3.0, 2.0, 2.5]
        assert stats.mean_latency_s == pytest.approx(2.5)
        assert stats.max_latency_s == 3.0
        # Nearest-rank percentiles over [2.0, 2.5, 3.0].
        assert stats.p50_latency_s == 2.5
        assert stats.p95_latency_s == 3.0
        assert stats.latency_percentile_s(100) == 3.0
        with pytest.raises(ValueError):
            stats.latency_percentile_s(0)

    def test_queue_wait(self, stats):
        assert stats.mean_queue_wait_s == pytest.approx((1.0 + 0.0 + 0.5) / 3)

    def test_queue_depth_timeline(self, stats):
        assert stats.queue_depth_timeline() == [
            (0.0, 1), (1.0, 0), (2.0, 1), (2.5, 0)
        ]
        assert stats.max_queue_depth == 1

    def test_throughput(self, stats):
        assert stats.makespan_s == pytest.approx(4.5)
        assert stats.requests_per_second == pytest.approx(3 / 4.5)
        # 3 images x 1 GOP each over 4.5 s = 2/3 GOP/s.
        assert stats.aggregate_gops == pytest.approx(2 / 3)

    def test_worker_accounting(self, stats):
        assert stats.worker_busy_s() == {0: 2.0, 1: 2.0}
        utilization = stats.worker_utilization()
        assert utilization[0] == pytest.approx(2.0 / 4.5)
        assert utilization[1] == pytest.approx(2.0 / 4.5)

    def test_render_mentions_headlines(self, stats):
        text = stats.render()
        assert "GOP/s aggregate" in text
        assert "p95" in text
        assert "max depth" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ServeStats([], dense_ops_per_image=1)
