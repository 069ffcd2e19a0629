"""Tests for the batched multi-accelerator serving runtime.

Covers the continuous-batching lane cap, sharding over instances, the
two-stage batch-time law of a real deployment's ``ServiceProfile`` as
the engine serves a burst, and the serving figures — the report's and
the registry histograms' — pinned against a hand-computed run.
"""

import numpy as np
import pytest

from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from repro.runtime import SystemRuntime
from repro.serve.events import BatchPolicy, EventDrivenSimulator
from repro.serve.fleet import ServiceProfile
from repro.serve.loadgen import LoadTrace, poisson_trace
from repro.telemetry.context import Telemetry


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
        busy = report.busy_seconds
        assert busy[0] == pytest.approx(busy[1])
        # Each instance streams its four requests through one pipeline:
        # one fill, then three steps.
        assert report.makespan_s == pytest.approx(
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
        assert sorted(report.busy_seconds) == [0, 1, 2]
        utilization = [
            report.busy_seconds[w] / report.makespan_s for w in range(3)
        ]
        # Saturated: every instance is busy for almost the whole run,
        # though each one's lanes hold more than its makespan of service.
        assert min(utilization) > 0.9

    def test_continuous_run_reports_stream_runs(self, runtime):
        """A stream run admits requests into lanes as they free, so it holds
        far more requests than ``max_batch``; the report counts stream
        runs, not batches."""
        telemetry = Telemetry()
        profile = ServiceProfile.from_runtime(runtime)
        report = EventDrivenSimulator(
            profile, BatchPolicy(max_batch=2), instances=3, telemetry=telemetry
        ).run_trace(
            poisson_trace(256, 30 / (profile.fill_s + profile.step_s), seed=4)
        )
        assert max(run.size for run in report.batches) > 2
        assert sum(run.size for run in report.batches) == report.served
        rendered = report.render(telemetry.registry)
        assert f"{report.served} in {len(report.batches)} stream runs" in rendered
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
        """An empty batch is refused before any plan compiles."""
        shape = runtime.pipeline.network.input_shape.as_tuple()
        with pytest.raises(ValueError, match="at least one image"):
            runtime.pipeline.run_batch(np.empty((0,) + shape))


#: Fill 3 s and step 2 s, 1 GOP per image.
HAND_PROFILE = ServiceProfile(fpga_s=2.0, host_s=1.0, dense_ops_per_image=10**9)


class TestServeStats:
    """The serving figures of a five-request burst on two instances of
    two lanes, pinned against hand-computed values.

    r0 -> w0 and r1 -> w1 refill drained pipelines (finish 3); r2 -> w0
    and r3 -> w1 slot in one step behind (finish 5); r4 waits for w0's
    first lane to free at t = 3 and slots in behind r2 (finish 7).
    """

    @pytest.fixture(scope="class")
    def run(self):
        telemetry = Telemetry()
        report = EventDrivenSimulator(
            HAND_PROFILE, BatchPolicy(max_batch=2), instances=2,
            telemetry=telemetry,
        ).run_trace(_burst(5))
        return report, telemetry.registry

    def test_counts(self, run):
        report, _ = run
        assert (report.offered, report.served, report.rejected) == (5, 5, 0)
        assert sorted(batch.size for batch in report.batches) == [2, 3]
        assert [(o.worker_id, o.finish_s) for o in report.outcomes] == [
            (0, 3.0), (1, 3.0), (0, 5.0), (1, 5.0), (0, 7.0)
        ]

    def test_latency_arithmetic(self, run):
        _, registry = run
        latency = registry.histogram("serve/latency_s")
        assert latency.count == 5
        assert latency.mean == pytest.approx(23 / 5)
        assert latency.max == 7.0
        # Nearest-rank percentiles over [3, 3, 5, 5, 7].
        assert latency.percentile(50) == 5.0
        assert latency.percentile(95) == 7.0
        assert latency.percentile(40) == 3.0
        assert latency.percentile(100) == 7.0
        with pytest.raises(ValueError):
            latency.percentile(0)

    def test_queue_wait(self, run):
        _, registry = run
        wait = registry.histogram("serve/queue_wait_s")
        assert wait.count == 5
        assert wait.mean == pytest.approx(3.0 / 5)
        assert wait.max == 3.0

    def test_queue_depth_timeline(self, run):
        """The engine's max depth is the peak of the queued-but-unstarted
        count walked from the records: +1 at arrival, -1 at admission."""
        report, _ = run
        steps = {}
        for outcome in report.outcomes:
            steps[outcome.arrival_s] = steps.get(outcome.arrival_s, 0) + 1
            steps[outcome.start_s] = steps.get(outcome.start_s, 0) - 1
        timeline = []
        depth = 0
        for time in sorted(steps):
            depth += steps[time]
            timeline.append((time, depth))
        assert timeline == [(0.0, 1), (3.0, 0)]
        assert report.max_queue_depth == 1

    def test_throughput(self, run):
        report, _ = run
        assert report.makespan_s == 7.0
        assert report.requests_per_second == pytest.approx(5 / 7)
        # 5 images x 1 GOP each over 7 s.
        assert report.aggregate_gops == pytest.approx(5 / 7)

    def test_worker_accounting(self, run):
        report, _ = run
        # w0 streams fill + 2 steps, w1 fill + 1 step.
        assert report.busy_seconds == {0: 7.0, 1: 5.0}

    def test_render_mentions_headlines(self, run):
        report, registry = run
        assert report.render(registry).splitlines() == [
            "requests:        5 in 2 stream runs (sizes 2x1, 3x1)",
            "makespan:        7000.000 ms virtual",
            "latency:         mean 4600.000 ms   p50 5000.000 ms   "
            "p95 7000.000 ms   max 7000.000 ms",
            "queue:           mean wait 600.000 ms   max depth 1",
            "throughput:      0.7 img/s   0.7 GOP/s aggregate",
            "worker busy:     w0: 100%  w1: 71%",
        ]
