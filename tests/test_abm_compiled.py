"""Differential tests of the compiled layer plan (repro.core.plan).

The compiled plan must be *bit-exact* against the literal two-stage oracle
:func:`abm_conv2d_reference` — same outputs, same analytic
accumulate/multiply counts — on all three host datapaths: the float32
GEMM, the float64 GEMM and the exact int64 matmul fallback. The oracle
itself is anchored to Equation (1), the float :class:`repro.nn.layers.Conv2D`
layer run on int64 codes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.abm import ConvGeometry, abm_conv2d, abm_conv2d_reference
from repro.core.encoding import decode_layer, encode_layer
from repro.core.plan import ExactnessError, compile_layer_plan
from repro.core import plan as plan_module
from repro.telemetry.context import Telemetry, activate
from tests.conftest import direct_conv, sparse_weight_codes


@pytest.fixture(params=["sparse", "float64", "fallback"])
def datapath(request, monkeypatch):
    """Run the test body on each host datapath.

    ``sparse`` (the suite's historical id for the default run) leaves the
    choice to the plan, which picks the float32 GEMM for these codes;
    ``float64`` lowers the float32 limit to zero so every layer takes the
    float64 GEMM; ``fallback`` lowers both float limits to zero so every
    layer takes the exact int64 matmul.
    """
    if request.param != "sparse":
        monkeypatch.setattr(plan_module, "FLOAT32_EXACT", 0)
    if request.param == "fallback":
        monkeypatch.setattr(plan_module, "FLOAT64_EXACT", 0)
    return request.param


def assert_results_identical(fast, ref):
    assert np.array_equal(fast.output, ref.output)
    assert fast.output.dtype == ref.output.dtype
    assert fast.accumulate_ops == ref.accumulate_ops
    assert fast.multiply_ops == ref.multiply_ops


class TestDifferential:
    """Compiled path vs reference across the geometry space."""

    @pytest.mark.parametrize(
        "stride,padding,groups",
        [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 0, 2), (3, 2, 1)],
    )
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_geometry_sweep(self, rng, datapath, stride, padding, groups, with_bias):
        weights = sparse_weight_codes(rng, shape=(6, 8 // groups, 3, 3))
        features = rng.integers(-128, 128, size=(8, 9, 9))
        bias = rng.integers(-500, 500, size=6) if with_bias else None
        geometry = ConvGeometry(kernel=3, stride=stride, padding=padding, groups=groups)
        encoded = encode_layer("t", weights)
        fast = abm_conv2d(features, encoded, geometry, bias_codes=bias)
        ref = abm_conv2d_reference(features, encoded, geometry, bias_codes=bias)
        assert_results_identical(fast, ref)

    @given(
        weights=hnp.arrays(
            dtype=np.int64, shape=(4, 3, 2, 2), elements=st.integers(-128, 127)
        ),
        unit=hnp.arrays(
            dtype=np.int64, shape=(3, 6, 6), elements=st.integers(-128, 127)
        ),
        tier=st.sampled_from([(1, "gemm32"), (2**10, "gemm"), (2**38, "int64")]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
    )
    @settings(max_examples=120, deadline=None)
    def test_differential_property(self, weights, unit, tier, stride, padding):
        """Arbitrary integer tensors on all three datapaths.

        One code and three weights pinned at full scale put the bound
        between 128 * 381 * scale and 128 * 1536 * scale: codes of +-128
        keep it below 2**24 (float32 GEMM); scaled to +-2**17 it crosses
        2**24 but not 2**53 (float64 GEMM); scaled to +-2**45 it exceeds
        2**53 and the plan must take the int64 matmul — exact every way,
        int64 out.
        """
        scale, expected = tier
        weights[0, 0, 0, :] = 127
        weights[0, 0, 1, 0] = 127
        unit[0, 0, 0] = -128
        features = unit * scale
        geometry = ConvGeometry(kernel=2, stride=stride, padding=padding)
        encoded = encode_layer("h", weights)
        plan = compile_layer_plan(encoded, geometry)
        assert plan.datapath(128 * scale) == expected
        ref = abm_conv2d_reference(features, encoded, geometry)
        fast = abm_conv2d(features, encoded, geometry)
        assert_results_identical(fast, ref)
        assert fast.output.dtype == np.int64


@st.composite
def random_layers(draw):
    """One layer of the randomized differential space, biased toward awkward
    corners: 1x1 to 5x5 kernels, up to four groups, stride 2, padding up to
    K - 1, any density, value ranges from ternary-like to full 8-bit."""
    groups = draw(st.sampled_from([1, 2, 4]))
    kernel = draw(st.sampled_from([1, 2, 3, 5]))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, kernel - 1))
    size = draw(st.integers(kernel + stride, 13))
    in_channels = groups * draw(st.integers(1, 4))
    out_channels = groups * draw(st.integers(1, 3))
    density = draw(st.floats(0.0, 1.0))
    value_range = draw(st.sampled_from([2, 8, 127]))
    with_bias = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (out_channels, in_channels // groups, kernel, kernel)
    weights = rng.integers(-value_range, value_range + 1, size=shape)
    weights = (weights * (rng.random(shape) < density)).astype(np.int64)
    features = rng.integers(-128, 128, size=(in_channels, size, size))
    bias = rng.integers(-500, 500, size=out_channels) if with_bias else None
    geometry = ConvGeometry(kernel=kernel, stride=stride, padding=padding, groups=groups)
    return weights, features, bias, geometry


class TestRandomLayers:
    @given(layer=random_layers())
    @settings(max_examples=200, deadline=None)
    def test_fast_reference_and_equation_1_agree(self, layer):
        """Encoding round-trips; the compiled plan matches the reference on
        output, dtype and both op counts; the reference matches Eq. (1)."""
        weights, features, bias, geometry = layer
        encoded = encode_layer("random", weights)
        assert np.array_equal(decode_layer(encoded), weights)
        fast = abm_conv2d(features, encoded, geometry, bias_codes=bias)
        ref = abm_conv2d_reference(features, encoded, geometry, bias_codes=bias)
        assert_results_identical(fast, ref)
        assert np.array_equal(ref.output, direct_conv(features, weights, geometry, bias))


class TestExactness:
    """The datapath split and the loud failure past int64."""

    def _layer(self, rng):
        weights = sparse_weight_codes(rng, shape=(4, 2, 3, 3), density=0.5, value_range=127)
        return weights, encode_layer("wide", weights), ConvGeometry(kernel=3)

    def test_wide_codes_raise_instead_of_wrapping(self, rng):
        """56-bit feature codes on a 3x3 conv: int64 would wrap, so the
        plan refuses, just as the arbitrary-precision oracle overflows."""
        _, encoded, geometry = self._layer(rng)
        features = rng.integers(-(2**56), 2**56, size=(2, 6, 6))
        with pytest.raises(ExactnessError, match="does not fit int64"):
            abm_conv2d(features, encoded, geometry)
        with pytest.raises(OverflowError):
            abm_conv2d_reference(features, encoded, geometry)

    def test_bias_counts_toward_the_bound(self, rng):
        _, encoded, geometry = self._layer(rng)
        plan = compile_layer_plan(encoded, geometry)
        assert plan.datapath(0, 2**24 - 1) == "gemm32"
        assert plan.datapath(0, 2**24) == "gemm"
        assert plan.datapath(0, 2**53 - 1) == "gemm"
        assert plan.datapath(0, 2**53) == "int64"
        with pytest.raises(ExactnessError):
            plan.datapath(0, 2**63)

    def test_kernel_span_records_datapath(self, rng):
        weights, encoded, geometry = self._layer(rng)
        telemetry = Telemetry()
        with activate(telemetry):
            abm_conv2d(rng.integers(-128, 128, size=(2, 6, 6)), encoded, geometry)
            abm_conv2d(rng.integers(-(2**20), 2**20, size=(2, 6, 6)), encoded, geometry)
            wide = rng.integers(-(2**45), 2**45, size=(2, 6, 6))
            result = abm_conv2d(wide, encoded, geometry)
        assert np.array_equal(result.output, direct_conv(wide, weights, geometry))
        spans = [root.to_dict() for root in telemetry.tracer.roots]
        assert [s["attrs"]["datapath"] for s in spans] == ["gemm32", "gemm", "int64"]


class TestEdgeCases:
    def test_all_zero_kernel(self, rng, datapath):
        """A kernel with no nonzeros contributes an all-zero output plane."""
        weights = sparse_weight_codes(rng, shape=(4, 3, 3, 3))
        weights[2] = 0
        features = rng.integers(-64, 64, size=(3, 7, 7))
        geometry = ConvGeometry(kernel=3, padding=1)
        encoded = encode_layer("z", weights)
        fast = abm_conv2d(features, encoded, geometry)
        ref = abm_conv2d_reference(features, encoded, geometry)
        assert_results_identical(fast, ref)
        assert not fast.output[2].any()

    def test_all_zero_layer(self, rng, datapath):
        weights = np.zeros((3, 2, 3, 3), dtype=np.int64)
        features = rng.integers(-64, 64, size=(2, 5, 5))
        geometry = ConvGeometry(kernel=3)
        encoded = encode_layer("zz", weights)
        fast = abm_conv2d(features, encoded, geometry)
        ref = abm_conv2d_reference(features, encoded, geometry)
        assert_results_identical(fast, ref)
        assert not fast.output.any()
        assert fast.accumulate_ops == 0 and fast.multiply_ops == 0

    def test_single_distinct_value(self, rng, datapath):
        """Q=1: every nonzero weight shares one quantized value."""
        mask = rng.random(size=(4, 3, 3, 3)) < 0.4
        weights = np.where(mask, 5, 0).astype(np.int64)
        features = rng.integers(-64, 64, size=(3, 7, 7))
        geometry = ConvGeometry(kernel=3, padding=1)
        encoded = encode_layer("q1", weights)
        assert all(k.distinct_values <= 1 for k in encoded.kernels)
        fast = abm_conv2d(features, encoded, geometry)
        ref = abm_conv2d_reference(features, encoded, geometry)
        assert_results_identical(fast, ref)

    def test_int64_path_with_large_features(self, rng, datapath):
        """Features wide enough to leave float64 for the int64 matmul."""
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3), value_range=127)
        features = rng.integers(-(2**45), 2**45, size=(2, 6, 6))
        geometry = ConvGeometry(kernel=3)
        encoded = encode_layer("big", weights)
        fast = abm_conv2d(features, encoded, geometry)
        expected = direct_conv(features, weights, geometry)
        assert np.array_equal(fast.output, expected)

    def test_fc_path(self, rng, datapath):
        weights = sparse_weight_codes(rng, shape=(10, 32, 1, 1), density=0.2)
        features = rng.integers(-128, 128, size=32)
        encoded = encode_layer("fc", weights)
        result = abm_conv2d(features.reshape(-1, 1, 1), encoded, ConvGeometry(kernel=1))
        expected = weights.reshape(10, 32).astype(np.int64) @ features
        assert np.array_equal(result.output.reshape(-1), expected)


class TestPlanCache:
    def test_same_layer_reuses_plan(self, rng):
        plan_module._plans.clear()
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        encoded = encode_layer("c", weights)
        geometry = ConvGeometry(kernel=3, padding=1)
        first = compile_layer_plan(encoded, geometry)
        second = compile_layer_plan(encoded, geometry)
        assert first is second
        assert len(plan_module._plans) == 1

    def test_distinct_geometry_distinct_plan(self, rng):
        plan_module._plans.clear()
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        encoded = encode_layer("c", weights)
        a = compile_layer_plan(encoded, ConvGeometry(kernel=3, padding=1))
        b = compile_layer_plan(encoded, ConvGeometry(kernel=3, padding=0))
        assert a is not b
        assert len(plan_module._plans) == 2

    def test_clear_plan_cache(self, rng):
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        encoded = encode_layer("c", weights)
        compile_layer_plan(encoded, ConvGeometry(kernel=3))
        assert len(plan_module._plans) >= 1
        plan_module._plans.clear()
        assert len(plan_module._plans) == 0

    def test_op_counts_are_analytic(self, rng):
        """Plan op counts come from nnz / Q-Table sizes, not execution."""
        weights = sparse_weight_codes(rng, shape=(4, 3, 3, 3))
        encoded = encode_layer("c", weights)
        geometry = ConvGeometry(kernel=3, padding=1)
        plan = compile_layer_plan(encoded, geometry)
        pixels = 7 * 7
        nnz = sum(k.nonzero_count for k in encoded.kernels)
        qtable = sum(k.qtable_entries for k in encoded.kernels)
        assert plan.accumulates_per_pixel == nnz
        assert plan.multiplies_per_pixel == qtable
        features = rng.integers(-64, 64, size=(3, 7, 7))
        result = abm_conv2d(features, encoded, geometry)
        assert result.accumulate_ops == pixels * nnz
        assert result.multiply_ops == pixels * qtable
