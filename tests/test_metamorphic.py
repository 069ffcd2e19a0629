"""Metamorphic properties of the simulator and models.

These tests don't check absolute numbers — they check that the system
responds to transformed inputs the way the underlying physics must:
scaling invariances, monotonicities and conservation laws that hold
regardless of calibration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.abm import ConvGeometry, abm_conv2d
from repro.core.encoding import encode_layer
from repro.dse.performance import MODE_QUANTIZED, estimate_model
from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.config import AcceleratorConfig
from repro.hw.device import STRATIX_V_GXA7
from repro.hw.workload import ModelWorkload
from repro.workloads.synthetic import synthetic_layer_workload, synthetic_model_workload
from tests.conftest import sparse_weight_codes


@pytest.fixture(scope="module")
def alexnet_workload():
    return synthetic_model_workload("alexnet", seed=3)


def simulate(workload, **overrides):
    base = dict(n_cu=3, n_knl=14, n_share=4, s_ec=20, d_f=1568, freq_mhz=200.0)
    base.update(overrides)
    config = AcceleratorConfig(**base)
    return AcceleratorSimulator(config, STRATIX_V_GXA7).simulate(workload)


class TestSimulatorScaling:
    def test_frequency_scales_time_not_cycles(self, alexnet_workload):
        slow = simulate(alexnet_workload, freq_mhz=100.0)
        fast = simulate(alexnet_workload, freq_mhz=200.0)
        # Cycles shift only via the memory model (fewer bytes per cycle at
        # low clock); time must improve by roughly the frequency ratio.
        assert fast.seconds_per_image < slow.seconds_per_image
        assert slow.seconds_per_image / fast.seconds_per_image > 1.7

    def test_throughput_monotone_in_cus(self, alexnet_workload):
        results = [
            simulate(alexnet_workload, n_cu=n).throughput_gops for n in (1, 2, 3, 4)
        ]
        assert all(b > a for a, b in zip(results, results[1:]))

    def test_diminishing_returns_in_cus(self, alexnet_workload):
        one = simulate(alexnet_workload, n_cu=1).throughput_gops
        four = simulate(alexnet_workload, n_cu=4).throughput_gops
        assert four < 4.2 * one  # never superlinear beyond noise

    def test_denser_model_is_slower(self):
        from repro.prune.schedules import uniform_schedule
        from repro.nn.models import get_architecture

        specs = get_architecture("alexnet").accelerated_specs()
        names = [s.name for s in specs]
        sparse = synthetic_model_workload(
            "alexnet", seed=3, schedule=uniform_schedule(names, 0.2)
        )
        dense = synthetic_model_workload(
            "alexnet", seed=3, schedule=uniform_schedule(names, 0.8)
        )
        assert (
            simulate(dense).seconds_per_image > simulate(sparse).seconds_per_image
        )

    def test_ops_conserved_across_configs(self, alexnet_workload):
        a = simulate(alexnet_workload, n_cu=1, s_ec=12)
        b = simulate(alexnet_workload, n_cu=4, s_ec=24)
        acc_a = sum(l.accumulate_ops / l.images for l in a.layers)
        acc_b = sum(l.accumulate_ops / l.images for l in b.layers)
        assert acc_a == pytest.approx(acc_b)

    def test_model_tracks_simulator_across_configs(self, alexnet_workload):
        """The analytic model stays within 15% of the simulator anywhere
        in the reasonable region, not just at the paper point."""
        from repro.dse.explorer import size_buffers

        for overrides in (
            dict(n_cu=2, s_ec=16),
            dict(n_cu=4, s_ec=12),
            dict(n_knl=8),
            dict(n_share=8),
        ):
            base = dict(n_cu=3, n_knl=14, n_share=4, s_ec=20, freq_mhz=200.0)
            base.update(overrides)
            base["d_f"] = size_buffers(alexnet_workload, base["s_ec"]).d_f
            config = AcceleratorConfig(**base)
            predicted = estimate_model(
                alexnet_workload, config, mode=MODE_QUANTIZED
            ).throughput_gops
            simulated = AcceleratorSimulator(config, STRATIX_V_GXA7).simulate(
                alexnet_workload
            ).throughput_gops
            assert predicted == pytest.approx(simulated, rel=0.15), overrides


class TestAlgorithmicInvariances:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_feature_scaling_linearity(self, seed):
        """conv(2x) == 2*conv(x): the integer pipeline is linear."""
        rng = np.random.default_rng(seed)
        weights = sparse_weight_codes(rng, shape=(3, 4, 3, 3), density=0.4)
        features = rng.integers(-32, 32, size=(4, 6, 6))
        encoded = encode_layer("t", weights)
        geometry = ConvGeometry(kernel=3)
        once = abm_conv2d(features, encoded, geometry).output
        twice = abm_conv2d(2 * features, encoded, geometry).output
        assert np.array_equal(twice, 2 * once)

    def test_kernel_permutation_permutes_output(self, rng):
        """Reordering kernels reorders output channels, nothing else."""
        weights = sparse_weight_codes(rng, shape=(5, 4, 3, 3), density=0.4)
        features = rng.integers(-32, 32, size=(4, 6, 6))
        geometry = ConvGeometry(kernel=3)
        order = rng.permutation(5)
        direct = abm_conv2d(features, encode_layer("a", weights), geometry).output
        permuted = abm_conv2d(
            features, encode_layer("b", weights[order]), geometry
        ).output
        assert np.array_equal(permuted, direct[order])

    def test_workload_seed_stability_of_throughput(self, small_conv_spec, rng):
        """Different statistical draws move throughput only marginally."""
        gops = []
        for seed in range(5):
            layer = synthetic_layer_workload(
                small_conv_spec, 0.3, 16, np.random.default_rng(seed)
            )
            workload = ModelWorkload(name="w", layers=(layer,))
            gops.append(simulate(workload, n_cu=1, s_ec=8, d_f=512).throughput_gops)
        assert max(gops) / min(gops) < 1.2
