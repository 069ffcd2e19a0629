"""Tests for the deployment bridge."""

import numpy as np
import pytest

from repro.core.serialize import dumps, load_model
from repro.deploy import DeploymentError, deploy
from repro.hw.buffers import buffer_report
from repro.hw.config import AcceleratorConfig
from repro.hw.device import STRATIX_V_GXA7
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from tests.conftest import op_totals


@pytest.fixture
def pipeline_and_specs(tiny_architecture, rng):
    network = tiny_architecture.build(seed=8)
    image = rng.normal(size=network.input_shape.as_tuple())
    names = [layer.name for layer in network.accelerated_layers()]
    pipeline = QuantizedPipeline(network)
    pipeline.prune(uniform_schedule(names, 0.4).densities)
    pipeline.calibrate(image)
    pipeline.quantize()
    return pipeline, tiny_architecture.accelerated_specs()


class TestDeploy:
    def test_auto_config_deployment(self, pipeline_and_specs):
        pipeline, specs = pipeline_and_specs
        deployed = deploy(pipeline, specs)
        assert deployed.fits
        assert deployed.workload.accumulate_ops > 0

    def test_simulation_runs(self, pipeline_and_specs):
        pipeline, specs = pipeline_and_specs
        deployed = deploy(pipeline, specs)
        result = deployed.simulate(STRATIX_V_GXA7)
        assert result.throughput_gops > 0
        assert 0 < result.cu_utilization <= 1

    def test_blob_roundtrips(self, pipeline_and_specs, tmp_path):
        pipeline, _ = pipeline_and_specs
        path = tmp_path / "deployed.abms"
        path.write_bytes(dumps(pipeline.encoded_layers()))
        layers = load_model(str(path))
        assert [l.name for l in layers] == [
            e.name for e in pipeline.encoded_layers()
        ]

    def test_explicit_config_checked(self, pipeline_and_specs):
        pipeline, specs = pipeline_and_specs
        # A tiny WT-Buffer cannot hold the deepest kernel stream.
        config = AcceleratorConfig(n_cu=1, n_knl=2, n_share=2, s_ec=4, d_w=2, d_f=4096)
        with pytest.raises(DeploymentError, match="WT-Buffer"):
            deploy(pipeline, specs, config=config)
        report = buffer_report(config, pipeline.encoded_layers())
        assert not all(requirement.fits for requirement in report)

    def test_unquantized_pipeline_rejected(self, tiny_architecture):
        network = tiny_architecture.build(seed=8)
        with pytest.raises(DeploymentError):
            deploy(QuantizedPipeline(network), tiny_architecture.accelerated_specs())

    def test_missing_specs_rejected(self, pipeline_and_specs):
        pipeline, specs = pipeline_and_specs
        with pytest.raises(DeploymentError):
            deploy(pipeline, specs[:1])

    def test_workload_matches_pipeline_counts(self, pipeline_and_specs, rng):
        """Static workload ops equal the dynamic execution's op counts."""
        pipeline, specs = pipeline_and_specs
        deployed = deploy(pipeline, specs)
        image = rng.normal(size=pipeline.network.input_shape.as_tuple())
        result = pipeline.run(image)
        workload = deployed.workload
        assert (workload.accumulate_ops, workload.multiply_ops) == op_totals(result)


class TestSetupBuildsNoKernelViews:
    def test_quantize_run_batch_and_deploy(self, tiny_architecture, rng, monkeypatch):
        """Set-up reads the flat encoded arrays: quantize(), the first
        run_batch and deploy() build no EncodedKernel or QTableEntry."""
        from repro.core import encoding

        built = []
        for cls in (encoding.EncodedKernel, encoding.QTableEntry):

            def counting(self, original=cls.__post_init__):
                built.append(type(self).__name__)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        network = tiny_architecture.build(seed=8)
        names = [layer.name for layer in network.accelerated_layers()]
        pipeline = QuantizedPipeline(network)
        pipeline.prune(uniform_schedule(names, 0.4).densities)
        pipeline.calibrate(rng.normal(size=network.input_shape.as_tuple()))
        pipeline.quantize()
        pipeline.run_batch(rng.normal(size=(2, *network.input_shape.as_tuple())))
        deploy(pipeline, tiny_architecture.accelerated_specs())
        assert built == []
        # The counter does see the per-kernel views when a walker asks.
        pipeline.encoded_layers()[0].kernels
        assert "EncodedKernel" in built and "QTableEntry" in built
