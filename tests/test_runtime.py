"""Tests for the co-simulation runtime."""

import numpy as np
import pytest

from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from repro.runtime import SystemRuntime


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
        outcome = system.infer(image)
        direct = system.pipeline.run(image)
        assert np.array_equal(outcome.output, direct.output)
        assert outcome.executed_ops == direct.total_ops

    def test_timing_attributed_per_layer(self, runtime):
        system, image = runtime
        outcome = system.infer(image)
        expected = {layer.name for layer in system.pipeline.network.accelerated_layers()}
        assert set(outcome.layer_cycles) == expected
        assert all(cycles > 0 for cycles in outcome.layer_cycles.values())

    def test_fpga_time_is_sum_of_layers(self, runtime):
        system, image = runtime
        outcome = system.infer(image)
        freq_hz = system.deployed.config.freq_mhz * 1e6
        total = sum(outcome.layer_cycles.values()) / freq_hz
        assert outcome.fpga_seconds == pytest.approx(total)

    def test_simulation_cached(self, runtime):
        system, image = runtime
        system.infer(image)
        first = system.simulation
        system.infer(image)
        assert system.simulation is first

    def test_throughput_metrics(self, runtime):
        system, image = runtime
        outcome = system.infer(image)
        assert outcome.effective_gops > 0

    def test_latency_breakdown_order(self, runtime):
        system, _ = runtime
        breakdown = system.latency_breakdown()
        names = [name for name, _ in breakdown]
        expected = [l.name for l in system.pipeline.network.accelerated_layers()]
        assert names == expected
        assert all(ms > 0 for _, ms in breakdown)

    def test_top1_property(self, runtime):
        system, image = runtime
        outcome = system.infer(image)
        assert outcome.top1 == int(np.argmax(outcome.output))
