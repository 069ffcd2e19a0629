"""Tests for the calibrated synthetic workload generators."""

import numpy as np
import pytest

from repro.core.specs import conv_spec, fc_spec
from hypothesis import given, settings, strategies as st

from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.config import PAPER_CONFIG_VGG16, AcceleratorConfig
from repro.hw.device import STRATIX_V_GXA7
from repro.hw.workload import LayerWorkload, ModelWorkload, workload_from_arrays
from repro.prune import deep_compression_schedule
from repro.telemetry.caches import cache_stats, clear_caches
from repro.workloads.codebooks import (
    codebook_size,
    codebook_sizes,
    codebook_values,
    expected_distinct,
)
from repro.workloads.synthetic import (
    synthesize_layer_stats,
    synthesize_quantized_layer,
    synthetic_model_workload,
)
from repro.workloads.paper_targets import TABLE1_ROWS


class TestCodebooks:
    def test_table1_layers_have_exact_calibration(self):
        books = codebook_sizes("vgg16")
        assert books["conv1_1"] == 4
        assert books["conv4_2"] == 20
        assert books["fc6"] == 9

    def test_unknown_layer_gets_default(self):
        assert codebook_size("vgg16", "conv99") == 24

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            codebook_sizes("lenet")

    def test_codebook_values_distinct_nonzero(self):
        for size in (1, 2, 5, 9, 20, 39):
            values = codebook_values(size)
            assert values.size == size
            assert np.unique(values).size == size
            assert 0 not in values
            assert np.all(np.abs(values) <= 127)

    def test_expected_distinct_saturates(self):
        assert expected_distinct(1e6, 20) == pytest.approx(20, rel=1e-6)
        assert expected_distinct(0, 20) == 0.0


class TestSynthesizeStats:
    def test_density_matches_target(self, rng):
        spec = conv_spec("c", 512, 256, kernel=3, in_rows=14, in_cols=14, padding=1)
        nonzeros, distinct = synthesize_layer_stats(spec, 0.3, 20, rng)
        assert nonzeros.mean() == pytest.approx(0.3 * spec.weights_per_kernel, rel=0.02)
        assert np.all(distinct <= np.minimum(nonzeros, 20))

    def test_distinct_matches_expectation(self, rng):
        spec = conv_spec("c", 512, 400, kernel=3, in_rows=8, in_cols=8, padding=1)
        nonzeros, distinct = synthesize_layer_stats(spec, 0.27, 20, rng)
        predicted = expected_distinct(float(nonzeros.mean()), 20)
        assert distinct.mean() == pytest.approx(predicted, rel=0.03)

    def test_zero_density(self, rng):
        spec = conv_spec("c", 4, 8, kernel=3, in_rows=8, in_cols=8)
        nonzeros, distinct = synthesize_layer_stats(spec, 0.0, 20, rng)
        assert not nonzeros.any()
        assert not distinct.any()

    def test_invalid_density(self, rng):
        spec = conv_spec("c", 4, 8, kernel=3, in_rows=8, in_cols=8)
        with pytest.raises(ValueError):
            synthesize_layer_stats(spec, 1.2, 20, rng)

    @settings(max_examples=80, deadline=None)
    @given(
        weights=st.integers(1, 40),
        kernels=st.integers(1, 48),
        density=st.sampled_from([0.0, 0.02, 0.1, 1.0]) | st.floats(0.0, 1.0),
        codebook=st.sampled_from([1, 2]) | st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_draw_matches_per_kernel_loop(
        self, weights, kernels, density, codebook, seed
    ):
        """The single multinomial draw equals one draw per nonempty kernel,
        arrays and generator state alike."""
        spec = fc_spec("fc", weights, kernels)
        rng = np.random.default_rng(seed)
        nonzeros, distinct = synthesize_layer_stats(spec, density, codebook, rng)

        loop = np.random.default_rng(seed)
        want_nonzeros = loop.binomial(weights, density, size=kernels).astype(np.int64)
        probabilities = np.full(codebook, 1.0 / codebook)
        want_distinct = np.zeros(kernels, dtype=np.int64)
        for m, n in enumerate(want_nonzeros):
            if n:
                want_distinct[m] = np.count_nonzero(loop.multinomial(n, probabilities))

        assert nonzeros.dtype == distinct.dtype == np.int64
        np.testing.assert_array_equal(nonzeros, want_nonzeros)
        np.testing.assert_array_equal(distinct, want_distinct)
        assert rng.bit_generator.state == loop.bit_generator.state


class TestModelWorkload:
    @pytest.fixture(scope="class")
    def vgg(self):
        return synthetic_model_workload("vgg16", seed=1)

    def test_deterministic(self):
        a = synthetic_model_workload("vgg16", seed=5)
        b = synthetic_model_workload("vgg16", seed=5)
        assert a.accumulate_ops == b.accumulate_ops
        assert a.multiply_ops == b.multiply_ops

    def test_seed_sensitivity(self):
        a = synthetic_model_workload("alexnet", seed=5)
        b = synthetic_model_workload("alexnet", seed=6)
        assert a.accumulate_ops != b.accumulate_ops

    def test_vgg_accumulates_match_table1(self, vgg):
        """Table 1 'Entire CNN': ABM Acc = 5,040 MOP."""
        assert vgg.accumulate_ops / 1e6 == pytest.approx(5040, rel=0.01)

    def test_vgg_table1_per_layer_acc(self, vgg):
        for name, row in TABLE1_ROWS.items():
            layer = vgg.layer(name)
            assert layer.accumulate_ops / 1e6 == pytest.approx(
                row.abm_acc_mop, rel=0.05
            ), name

    def test_vgg_table1_per_layer_mult(self, vgg):
        for name, row in TABLE1_ROWS.items():
            layer = vgg.layer(name)
            assert layer.multiply_ops / 1e6 == pytest.approx(
                row.abm_mult_mop, rel=0.10
            ), name

    def test_densities_follow_schedule(self, vgg):
        schedule = deep_compression_schedule("vgg16")
        for layer in vgg.layers:
            assert layer.density == pytest.approx(
                schedule.density(layer.spec.name), rel=0.03
            )

    def test_layer_lookup(self, vgg):
        assert vgg.layer("conv4_2").spec.name == "conv4_2"
        with pytest.raises(KeyError):
            vgg.layer("conv0_0")

    def test_encoded_bytes_reasonable(self, vgg):
        """Encoded VGG16 lands near Table 3's 26.4 MB."""
        assert vgg.encoded_bytes / 1e6 == pytest.approx(26.4, rel=0.25)


class TestConcreteTensors:
    def test_quantized_layer_statistics(self, rng):
        spec = conv_spec("c", 64, 32, kernel=3, in_rows=8, in_cols=8, padding=1)
        codes = synthesize_quantized_layer(spec, 0.3, 20, rng)
        assert codes.shape == spec.weight_shape()
        density = np.count_nonzero(codes) / codes.size
        assert density == pytest.approx(0.3, abs=0.01)
        distinct = np.unique(codes[codes != 0])
        assert distinct.size <= 20


class TestVGG19Workload:
    def test_schedule_extends_vgg16(self):
        schedule = deep_compression_schedule("vgg19")
        assert schedule.density("conv3_4") == schedule.density("conv3_3")
        assert schedule.density("conv5_4") == schedule.density("conv5_3")
        assert schedule.density("fc6") == pytest.approx(0.04)

    def test_workload_builds_and_reduces(self):
        workload = synthetic_model_workload("vgg19", seed=1)
        reduction = workload.dense_ops / (2 * workload.accumulate_ops)
        # Extrapolated schedule keeps VGG16's ~3x MAC-reduction regime.
        assert 2.5 < reduction < 3.6

    def test_simulates_on_paper_config(self):
        workload = synthetic_model_workload("vgg19", seed=1)
        result = AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7).simulate(
            workload
        )
        # Deeper model, same accumulate-bound architecture: throughput in
        # the same band as VGG16, inference proportionally slower.
        assert 662 < result.throughput_gops < 1052
        vgg16 = AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7).simulate(
            synthetic_model_workload("vgg16", seed=1)
        )
        assert result.seconds_per_image > vgg16.seconds_per_image


class TestWorkloadValidation:
    def test_kernel_work_validation(self):
        spec = conv_spec("c", 4, 1, kernel=3, in_rows=8, in_cols=8)
        with pytest.raises(ValueError):
            LayerWorkload(spec, [2], [3])  # distinct > nonzeros
        with pytest.raises(ValueError):
            LayerWorkload(spec, [-1], [0])

    def test_layer_workload_length_check(self):
        spec = conv_spec("c", 4, 8, kernel=3, in_rows=8, in_cols=8)
        with pytest.raises(ValueError):
            workload_from_arrays(spec, [3, 3], [1, 1])  # 2 items, 8 kernels

    def test_distinct_length_mismatch_rejected(self):
        spec = conv_spec("c4", 4, 4, kernel=3, in_rows=8, in_cols=8)
        with pytest.raises(ValueError, match="c4"):
            workload_from_arrays(spec, [5, 5, 5, 5], [1, 1, 1, 1, 99, 99])

    def test_non_integral_counts_rejected(self):
        spec = conv_spec("c4", 4, 4, kernel=3, in_rows=8, in_cols=8)
        with pytest.raises(ValueError, match="c4"):
            workload_from_arrays(spec, [5.7, 5, 5, 5], [1, 1, 1, 1])

    def test_negative_encoded_bytes_rejected(self):
        spec = conv_spec("c4", 4, 4, kernel=3, in_rows=8, in_cols=8)
        with pytest.raises(ValueError, match="c4"):
            workload_from_arrays(spec, [5, 5, 5, 5], [1, 1, 1, 1], encoded_bytes=-3)

    def test_derived_encoded_bytes(self):
        spec = conv_spec("c", 4, 2, kernel=3, in_rows=8, in_cols=8)
        workload = workload_from_arrays(spec, [10, 4], [3, 2])
        # 2B header + 2B per q entry + 2B per index, per kernel.
        assert workload.encoded_bytes == (2 + 6 + 20) + (2 + 4 + 8)

    def test_model_workload_aggregates(self):
        spec = conv_spec("c", 4, 2, kernel=3, in_rows=8, in_cols=8)
        layer = workload_from_arrays(spec, [10, 4], [3, 2])
        model = ModelWorkload(name="m", layers=(layer,))
        assert model.accumulate_ops == layer.accumulate_ops
        assert model.dense_ops == spec.dense_ops


@st.composite
def kernel_counts(draw):
    kernels = draw(st.integers(1, 12))
    nonzeros = draw(st.lists(st.integers(0, 36), min_size=kernels, max_size=kernels))
    distinct = [draw(st.integers(0, n)) for n in nonzeros]
    return nonzeros, distinct


class TestArrayBackedWorkload:
    @pytest.fixture
    def spec(self):
        return conv_spec("c", 4, 3, kernel=3, in_rows=8, in_cols=8)

    def test_equal_content_compares_and_hashes_equal(self, spec):
        a = workload_from_arrays(spec, [10, 4, 0], [3, 2, 0])
        b = workload_from_arrays(spec, np.array([10, 4, 0]), (3, 2, 0))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != workload_from_arrays(spec, [10, 4, 1], [3, 2, 0])
        assert a != workload_from_arrays(spec, [10, 4, 0], [3, 2, 0], encoded_bytes=7)

    def test_equal_content_shares_sim_cache_entry(self, spec):
        config = AcceleratorConfig(n_cu=2, n_knl=2, n_share=2, s_ec=4, d_f=1568)
        simulator = AcceleratorSimulator(config, STRATIX_V_GXA7)
        clear_caches()
        simulator.simulate(
            ModelWorkload("m", (workload_from_arrays(spec, [10, 4, 0], [3, 2, 0]),))
        )
        assert cache_stats()["hw.sim"].hits == 0
        simulator.simulate(
            ModelWorkload("m", (workload_from_arrays(spec, [10, 4, 0], [3, 2, 0]),))
        )
        info = cache_stats()["hw.sim"]
        assert (info.hits, info.misses, info.size) == (1, 1, 1)
        clear_caches()

    def test_arrays_and_fields_are_read_only(self, spec):
        layer = workload_from_arrays(spec, [10, 4, 0], [3, 2, 0])
        with pytest.raises(ValueError):
            layer.nonzeros[0] = 1
        with pytest.raises(ValueError):
            layer.distinct[0] = 1
        with pytest.raises(AttributeError):
            layer.encoded_bytes = 1

    def test_caller_array_stays_writable(self, spec):
        nonzeros = np.array([10, 4, 0])
        workload_from_arrays(spec, nonzeros, [3, 2, 0])
        nonzeros[0] = 11

    @settings(max_examples=60, deadline=None)
    @given(counts=kernel_counts())
    def test_totals_match_per_kernel_sums(self, counts):
        nonzeros, distinct = counts
        spec = conv_spec("p", 4, len(nonzeros), kernel=3, in_rows=8, in_cols=8)
        layer = workload_from_arrays(spec, nonzeros, distinct)
        # The per-kernel Python sums are the definitions the arrays replace.
        pixels = spec.output_pixels
        assert layer.accumulate_ops == sum(nonzeros) * pixels
        assert layer.multiply_ops == sum(distinct) * pixels
        assert layer.density == sum(nonzeros) / spec.weight_count
        assert layer.encoded_bytes == sum(
            2 + 2 * d + 2 * n for n, d in zip(nonzeros, distinct)
        )
        model = ModelWorkload("m", (layer, layer))
        assert model.accumulate_ops == 2 * layer.accumulate_ops
        assert model.multiply_ops == 2 * layer.multiply_ops
