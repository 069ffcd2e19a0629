"""Tests for the deployed-system runtime and its timing profile."""

import numpy as np
import pytest

from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from repro.runtime import SystemRuntime
from repro.system.pipeline import ServiceProfile


@pytest.fixture
def runtime(tiny_architecture, rng):
    network = tiny_architecture.build(seed=10)
    image = rng.normal(size=network.input_shape.as_tuple())
    names = [layer.name for layer in network.accelerated_layers()]
    pipeline = QuantizedPipeline(network)
    pipeline.prune(uniform_schedule(names, 0.4).densities)
    pipeline.calibrate(image)
    pipeline.quantize()
    return (
        SystemRuntime.from_pipeline(pipeline, tiny_architecture.accelerated_specs()),
        image,
    )


class TestRuntime:
    def test_numerics_match_pipeline(self, runtime):
        system, image = runtime
        (batched,) = system.pipeline.run_batch(image[None])
        direct = system.pipeline.run(image)
        assert np.array_equal(batched.output, direct.output)
        assert batched.accumulate_ops == direct.accumulate_ops
        assert batched.multiply_ops == direct.multiply_ops

    def test_timing_attributed_per_layer(self, runtime):
        system, _ = runtime
        layers = system.simulation.layers
        expected = {layer.name for layer in system.pipeline.network.accelerated_layers()}
        assert {layer.layer for layer in layers} == expected
        assert all(layer.cycles_per_image > 0 for layer in layers)

    def test_fpga_time_is_sum_of_layers(self, runtime):
        system, _ = runtime
        profile = ServiceProfile.from_runtime(system)
        freq_hz = system.deployed.config.freq_mhz * 1e6
        total = sum(
            layer.cycles_per_image for layer in system.simulation.layers
        ) / freq_hz
        assert profile.fpga_s == pytest.approx(total)
        assert profile.host_s == system.host_model.seconds_per_image(
            system.pipeline.network
        )

    def test_simulation_cached(self, runtime):
        system, _ = runtime
        first = system.simulation
        ServiceProfile.from_runtime(system)
        assert system.simulation is first

    def test_throughput_metrics(self, runtime):
        system, _ = runtime
        profile = ServiceProfile.from_runtime(system)
        assert profile.dense_ops_per_image == system.simulation.dense_ops
        assert profile.fpga_gops > 0
        assert 0 < profile.system_gops <= profile.fpga_gops

    def test_latency_breakdown_order(self, runtime):
        system, _ = runtime
        names = [layer.layer for layer in system.simulation.layers]
        expected = [l.name for l in system.pipeline.network.accelerated_layers()]
        assert names == expected
