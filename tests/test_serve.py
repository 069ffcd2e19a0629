"""Tests for the batched multi-accelerator serving runtime.

Covers the continuous-batching lane cap, sharding over instances, the
two-stage batch-time law of a real deployment's ``ServiceProfile`` as
the engine serves a burst, and the ``ServeStats`` arithmetic pinned
against hand-computed values.
"""

import numpy as np
import pytest

from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from repro.runtime import SystemRuntime
from repro.serve.events import BatchPolicy, EventDrivenSimulator, EventOutcome
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


def _burst(n):
    """``n`` simultaneous requests at t = 0."""
    return LoadTrace("burst", np.zeros(n), np.zeros(n))


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1e-9)


class TestDynamicBatcher:
    def test_never_exceeds_max_batch(self, rng):
        """No instance ever has more than ``max_batch`` requests in flight."""
        profile = ServiceProfile(fpga_s=2e-5, host_s=1e-5)
        arrivals = np.sort(rng.uniform(0, 1e-3, size=200))
        for max_batch in (1, 3, 7):
            report = EventDrivenSimulator(
                profile, BatchPolicy(max_batch=max_batch), instances=2
            ).run_trace(LoadTrace("t", arrivals, np.zeros(200)))
            for worker in (0, 1):
                events = sorted(
                    [(o.start_s, 1) for o in report.outcomes
                     if o.worker_id == worker]
                    + [(o.finish_s, -1) for o in report.outcomes
                       if o.worker_id == worker]
                )
                depth = np.cumsum([delta for _, delta in events])
                assert depth.max() <= max_batch

    def test_max_batch_one_degenerates_to_fifo(self):
        """One lane: each request waits for the one before it to leave
        the pipeline, so a burst is served one at a time, unpipelined."""
        profile = ServiceProfile(fpga_s=2.0, host_s=1.0)
        report = EventDrivenSimulator(
            profile, BatchPolicy(max_batch=1)
        ).run_trace(_burst(3))
        assert [(o.start_s, o.finish_s) for o in report.outcomes] == [
            (0.0, 3.0), (3.0, 6.0), (6.0, 9.0)
        ]


class TestWorkerPool:
    def test_pool_size_validation(self, runtime):
        profile = ServiceProfile.from_runtime(runtime)
        with pytest.raises(ValueError):
            EventDrivenSimulator(profile, BatchPolicy(), instances=0)

    def test_batches_shard_across_workers(self, runtime):
        """A saturated burst shards evenly over the instances."""
        profile = ServiceProfile.from_runtime(runtime)
        engine = EventDrivenSimulator(
            profile, BatchPolicy(max_batch=2), instances=2
        )
        report = engine.run_trace(_burst(8))
        served = [o.worker_id for o in report.outcomes]
        assert served.count(0) == served.count(1) == 4
        busy = report.stats.worker_busy_s()
        assert busy[0] == pytest.approx(busy[1])
        # Each instance streams its four requests through one pipeline:
        # one fill, then three steps.
        assert report.stats.makespan_s == pytest.approx(
            profile.fill_s + 3 * profile.step_s
        )

    @staticmethod
    def _utilization_run(runtime):
        """A saturated Poisson run over three instances, lanes of two."""
        profile = ServiceProfile.from_runtime(runtime)
        rate = 30 / (profile.fill_s + profile.step_s)  # far past capacity
        engine = EventDrivenSimulator(
            profile, BatchPolicy(max_batch=2), instances=3
        )
        return engine.run_trace(poisson_trace(256, rate, seed=4))

    def test_continuous_utilization_is_engine_busy_time(self, runtime):
        """A stream run's lanes overlap: utilization is the engine's
        per-instance busy time, not one lane's service time."""
        report = self._utilization_run(runtime)
        utilization = report.stats.worker_utilization()
        assert utilization == {
            w: report.busy_seconds[w] / report.makespan_s for w in range(3)
        }
        # Saturated: every instance is busy for almost the whole run.
        assert min(utilization.values()) > 0.9

    def test_continuous_run_reports_stream_runs(self, runtime):
        """A stream run admits requests into lanes as they free, so it holds
        far more requests than ``max_batch``; the report counts stream
        runs, not batches."""
        report = self._utilization_run(runtime)
        stats = report.stats
        assert max(run.size for run in report.batches) > 2
        rendered = stats.render()
        assert f"{stats.count} in {len(report.batches)} stream runs" in rendered
        assert "batches" not in rendered

    def test_empty_inputs_rejected(self, runtime):
        profile = ServiceProfile.from_runtime(runtime)
        with pytest.raises(ValueError):
            EventDrivenSimulator(profile, BatchPolicy(), classes=())
        with pytest.raises(ValueError):
            LoadTrace("empty", np.zeros(0), np.zeros(0))


class TestBatchSeconds:
    """The two-stage batch-time law ``T(B) = fill + (B - 1) * step`` of a
    real profile, as one instance with ``B`` free lanes serves a burst."""

    @staticmethod
    def _burst_finish(profile, size):
        report = EventDrivenSimulator(
            profile, BatchPolicy(max_batch=size)
        ).run_trace(_burst(size))
        return max(o.finish_s for o in report.outcomes)

    def test_single_image_is_sequential_time(self, runtime):
        profile = ServiceProfile.from_runtime(runtime)
        fpga = runtime.simulation.seconds_per_image
        host = runtime.host_model.seconds_per_image(runtime.pipeline.network)
        assert self._burst_finish(profile, 1) == pytest.approx(fpga + host)

    def test_pipelined_marginal_cost(self, runtime):
        profile = ServiceProfile.from_runtime(runtime)
        fpga = runtime.simulation.seconds_per_image
        host = runtime.host_model.seconds_per_image(runtime.pipeline.network)
        for batch in (2, 5, 16):
            expected = fpga + host + (batch - 1) * max(fpga, host)
            assert self._burst_finish(profile, batch) == pytest.approx(expected)

    def test_validation(self, runtime):
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
        # Instance 2 served nothing, so it drops out of the per-worker view.
        return ServeStats(
            responses,
            dense_ops_per_image=1_000_000_000,
            busy_seconds={0: 2.0, 1: 2.0, 2: 0.0},
        )

    def test_counts(self, stats):
        assert stats.count == 3
        assert "3 in 2 stream runs (sizes 1x1, 2x1)" in stats.render()

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
            ServeStats([], dense_ops_per_image=1, busy_seconds={})
