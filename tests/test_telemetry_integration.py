"""Telemetry wired through serving, inference, deploy and the CLI.

The acceptance story of the observability subsystem: one simulated
serving run produces a request -> batch span tree and a snapshot carrying
hit/miss counters for every registered cache family; a batched
``run_batch`` pass under an activated telemetry nests its kernel spans
under the caller's ``infer`` span. Also checks that plain imports emit no
deprecation warnings, and covers the ``metrics`` / ``--metrics-out`` /
``--trace`` CLI surfaces.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.deploy import deploy
from repro.hw.trace import TraceRecorder
from repro.nn.models import (
    Architecture,
    ConvDef,
    FCDef,
    FlattenDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from repro.runtime import SystemRuntime
from repro.serve.events import BatchPolicy, EventDrivenSimulator
from repro.serve.fleet import ServiceProfile
from repro.serve.loadgen import LoadTrace
from repro.telemetry.caches import clear_caches
from repro.telemetry.context import Telemetry, activate
from repro.telemetry.exporters import parse_jsonl, validate_snapshot

# The cache families that register themselves at import time.
GLOBAL_CACHE_FAMILIES = {
    "core.plan",
    "core.model_plan",
    "hw.sim",
    "hw.windows",
    "dse.compiled",
    "dse.buffers",
}


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
def serve_run(served_model):
    """One telemetered serving run: (report, telemetry, snapshot).

    A burst of eight on two instances of two lanes: four requests are
    admitted at once and four wait for a lane.
    """
    pipeline, specs = served_model
    runtime = SystemRuntime.from_pipeline(pipeline, specs)
    trace = LoadTrace("burst", np.zeros(8), np.zeros(8))
    telemetry = Telemetry()
    engine = EventDrivenSimulator(
        ServiceProfile.from_runtime(runtime),
        BatchPolicy(max_batch=2, max_wait_s=1.0),
        instances=2,
        telemetry=telemetry,
    )
    report = engine.run_trace(trace)
    return report, telemetry, telemetry.snapshot()


class TestServeSpanTree:
    def test_request_batch_kernel_nesting(self, served_model):
        """A batched pass nests fused kernel spans under `infer`."""
        pipeline, _ = served_model
        telemetry = Telemetry()
        rng = np.random.default_rng(5)
        shape = pipeline.network.input_shape.as_tuple()
        for _ in range(2):
            with activate(telemetry), telemetry.span("infer"):
                pipeline.run_batch(rng.normal(size=(4,) + shape))
        roots = telemetry.tracer.roots
        assert [root.name for root in roots] == ["infer", "infer"]
        saw_fuse = False
        for root in roots:
            assert root.children, "infer span has no children"
            # The fused streaming path nests one kernel span per fused
            # stage directly under the pass (no per-layer spans), plus a
            # one-time `fuse` compile span on the first batch.
            assert {child.name for child in root.children} <= {"kernel", "fuse"}
            kernels = [c for c in root.children if c.name == "kernel"]
            saw_fuse = saw_fuse or any(c.name == "fuse" for c in root.children)
            # conv1, conv2, fc3, fc4 each run one fused stage per batch.
            assert len(kernels) == 4
            assert all("fused" in kernel.attrs for kernel in kernels)
        assert saw_fuse, "no batch recorded a model-plan compile span"

    def test_request_span_attrs_mirror_batch_trace(self, serve_run):
        report, telemetry, _ = serve_run
        by_id = {root.attrs["batch_id"]: root for root in telemetry.tracer.roots}
        assert len(by_id) == len(report.batches)
        for batch in report.batches:
            root = by_id[batch.batch_id]
            assert root.name == "request"
            assert root.start_s == batch.close_s
            assert root.end_s == batch.finish_s
            assert root.attrs["size"] == batch.size
            (child,) = root.children
            assert child.name == "batch"
            assert child.start_s == batch.start_s
            assert child.end_s == batch.finish_s
            assert child.attrs["worker"] == batch.worker_id

    def test_every_request_id_appears_exactly_once(self, serve_run):
        report, telemetry, _ = serve_run
        ids = [outcome.request_id for outcome in report.outcomes]
        assert sorted(ids) == list(range(8))
        # Each request sits under exactly one request span of its size.
        sizes = {
            root.attrs["batch_id"]: root.attrs["size"]
            for root in telemetry.tracer.roots
        }
        assert sum(sizes.values()) == len(ids)
        for outcome in report.outcomes:
            assert sizes[outcome.batch_id] == outcome.batch_size


class TestServeSnapshot:
    def test_all_cache_families_present(self, serve_run):
        _, _, snapshot = serve_run
        families = set(snapshot["caches"])
        assert GLOBAL_CACHE_FAMILIES <= families
        for name, data in snapshot["caches"].items():
            assert data["hits"] >= 0 and data["misses"] >= 0, name

    def test_serve_counters_and_gauges(self, serve_run):
        report, _, snapshot = serve_run
        assert snapshot["counters"]["serve/requests"] == report.served == 8
        assert snapshot["gauges"]["serve/makespan_s"] == report.makespan_s
        # Four requests wait for a lane: the report and the gauge agree.
        assert snapshot["gauges"]["serve/max_queue_depth"] == 4
        assert report.max_queue_depth == 4

    def test_no_wait_run_reports_zero_depth(self, served_model):
        """Four requests spread 10 ms apart on one instance: each finds a
        free lane, so no request ever waits and both depth surfaces read
        0."""
        pipeline, specs = served_model
        runtime = SystemRuntime.from_pipeline(pipeline, specs)
        profile = ServiceProfile.from_runtime(runtime)
        gap = 10 * (profile.fpga_s + profile.host_s)
        trace = LoadTrace("spread", gap * np.arange(4), np.zeros(4))
        telemetry = Telemetry()
        engine = EventDrivenSimulator(
            profile, BatchPolicy(max_batch=2), instances=1, telemetry=telemetry
        )
        report = engine.run_trace(trace)
        assert report.served == 4
        assert all(outcome.start_s == outcome.arrival_s for outcome in report.outcomes)
        assert report.max_queue_depth == 0
        assert telemetry.snapshot()["gauges"]["serve/max_queue_depth"] == 0

    def test_continuous_run_records_no_batch_metrics(self, served_model):
        """The engine admits requests into stream runs, not batches, so
        the snapshot carries no batch count or batch-size histogram."""
        pipeline, specs = served_model
        runtime = SystemRuntime.from_pipeline(pipeline, specs)
        trace = LoadTrace("burst", np.zeros(16), np.zeros(16))
        telemetry = Telemetry()
        engine = EventDrivenSimulator(
            ServiceProfile.from_runtime(runtime),
            BatchPolicy(max_batch=2, max_wait_s=1.0),
            instances=2,
            telemetry=telemetry,
        )
        report = engine.run_trace(trace)
        snapshot = telemetry.snapshot()
        assert report.batches, "the run recorded no stream runs"
        assert snapshot["counters"]["serve/requests"] == 16
        assert "serve/batches" not in snapshot["counters"]
        assert "serve/batch_size" not in snapshot["histograms"]

    def test_snapshot_validates_and_round_trips(self, serve_run):
        _, _, snapshot = serve_run
        assert validate_snapshot(snapshot) == []
        from repro.telemetry.exporters import export_jsonl

        assert parse_jsonl(export_jsonl(snapshot)) == snapshot


class TestRuntimeAndDeploySpans:
    def test_deployed_simulate_span_and_trace_gauges(self, served_model):
        pipeline, specs = served_model
        deployed = deploy(pipeline, specs)
        telemetry = Telemetry()
        recorder = TraceRecorder(capacity=16)
        clear_caches()
        with activate(telemetry):
            deployed.simulate(trace=recorder)
        (root,) = telemetry.tracer.roots
        assert root.name == "simulate"
        assert root.attrs["model"] == "tiny"
        gauges = telemetry.registry.snapshot()["gauges"]
        assert gauges["hw.trace.recorded"] == recorder.recorded
        assert gauges["hw.trace.dropped"] == recorder.dropped
        assert recorder.recorded == len(recorder.events) + recorder.dropped
        assert recorder.dropped > 0  # capacity 16 is far too small


class TestDeprecatedShims:
    def test_plain_imports_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            import repro.serve  # noqa: F401
            from repro.hw.accelerator import AcceleratorSimulator  # noqa: F401


class TestCLI:
    def test_metrics_demo_summary(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "demo/requests" in out
        assert "p95" in out

    def test_metrics_check_demo(self, capsys):
        assert main(["metrics", "--check"]) == 0
        assert "snapshot ok" in capsys.readouterr().out

    def test_metrics_formats(self, capsys):
        assert main(["metrics", "--format", "jsonl"]) == 0
        snapshot = parse_jsonl(capsys.readouterr().out)
        assert validate_snapshot(snapshot) == []

    def test_metrics_check_flags_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        assert main(["metrics", "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out
        snapshot = parse_jsonl(lines)
        snapshot["counters"]["demo/requests"] = -5
        from repro.telemetry.exporters import write_jsonl

        write_jsonl(snapshot, bad)
        assert main(["metrics", "--from", str(bad), "--check"]) == 1

    def test_serve_sim_metrics_out(self, tmp_path, capsys):
        out_path = tmp_path / "serve_metrics.jsonl"
        assert main([
            "serve-sim", "--requests", "6", "--workers", "2",
            "--max-batch", "2", "--rate", "100000",
            "--metrics-out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "metrics written" in out
        snapshot = parse_jsonl(out_path.read_text())
        assert validate_snapshot(snapshot) == []
        assert snapshot["counters"]["serve/requests"] == 6
        assert any(span["name"] == "request" for span in snapshot["spans"])
        # And the exported file round-trips through the metrics subcommand.
        assert main(["metrics", "--from", str(out_path), "--check"]) == 0

    def test_simulate_trace_reports_drops(self, capsys):
        assert main([
            "simulate", "--model", "alexnet", "--trace",
            "--trace-capacity", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "event(s) recorded" in out
        assert "dropped" in out
