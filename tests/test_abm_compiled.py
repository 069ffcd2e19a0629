"""Differential tests of the compiled layer plan (repro.core.plan).

The compiled plan must be *bit-exact* against the literal two-stage oracle
:func:`abm_conv2d_reference` — same outputs, same analytic
accumulate/multiply counts — on all three host datapaths: the float32
GEMM, the float64 GEMM and the exact int64 matmul fallback. The oracle
itself is anchored to Equation (1), the float :class:`repro.nn.layers.Conv2D`
layer run on int64 codes.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.abm import (
    ConvGeometry,
    abm_conv2d_batch,
    abm_conv2d_reference,
)
from repro.core.encoding import encode_layer
from repro.core.plan import (
    ExactnessError,
    Scratch,
    compile_layer_plan,
    conv_output_hw,
)
from repro.core import plan as plan_module
from repro.telemetry.context import Telemetry, activate
from tests.conftest import decode_layer, direct_conv, sparse_weight_codes


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
    """``fast`` is a batch of one, ``ref`` the oracle's one image."""
    assert np.array_equal(fast.output[0], ref.output)
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
        fast = abm_conv2d_batch(features[None], encoded, geometry, bias_codes=bias)
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
        fast = abm_conv2d_batch(features[None], encoded, geometry)
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
        fast = abm_conv2d_batch(features[None], encoded, geometry, bias_codes=bias)
        ref = abm_conv2d_reference(features, encoded, geometry, bias_codes=bias)
        assert_results_identical(fast, ref)
        assert np.array_equal(ref.output, direct_conv(features, weights, geometry, bias))


@st.composite
def banded_convs(draw):
    """A conv batch and a band size that splits its output into several
    bands: whole images or rows of one image, a last band of any size.

    Features are int8-range codes times a tier scale, with one code pinned
    at -128 and one weight at 127, so the sum bound lands below ``2**24``
    (float32 GEMM), in ``[2**24, 2**53)`` (float64 GEMM) or in
    ``[2**53, 2**63)`` (int64 matmul): at most two input channels per
    group keep ``max_weighted_sum <= 127 * 121 * 2``.
    """
    kernel = draw(st.sampled_from([1, 3, 5, 11]))
    stride = draw(st.sampled_from([1, 2, 4]))
    padding = draw(st.integers(0, min(2, kernel - 1)))
    groups = draw(st.sampled_from([1, 2]))
    images = draw(st.integers(1, 5))
    out_rows, out_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    # The input that gives this output extent, at least one pixel (a
    # padded kernel can cover a one-pixel input more than once).
    rows = max(kernel - 2 * padding + stride * (out_rows - 1), 1)
    cols = max(kernel - 2 * padding + stride * (out_cols - 1), 1)
    in_channels = groups * draw(st.integers(1, 2))
    out_channels = groups * draw(st.integers(1, 2))
    scale, tier = draw(st.sampled_from([(1, "gemm32"), (2**13, "gemm"), (2**40, "int64")]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (out_channels, in_channels // groups, kernel, kernel)
    value_range = draw(st.sampled_from([2, 8]))
    weights = rng.integers(-value_range, value_range + 1, size=shape)
    weights = weights * (rng.random(shape) < draw(st.floats(0.1, 1.0)))
    weights[0, 0, 0, 0] = 127
    unit = rng.integers(-128, 128, size=(images, in_channels, rows, cols))
    unit[0, 0, 0, 0] = -128
    bias = rng.integers(-500, 500, size=out_channels) if draw(st.booleans()) else None
    geometry = ConvGeometry(kernel=kernel, stride=stride, padding=padding, groups=groups)
    out_rows, out_cols = conv_output_hw(rows, cols, geometry)
    band = draw(st.integers(1, max(1, images * out_rows * out_cols // 2)))
    return weights.astype(np.int64), unit * scale, bias, geometry, band, tier


class TestBands:
    """The conv band loop: one tile per ~BAND_PIXELS output pixels."""

    @given(conv=banded_convs())
    @settings(max_examples=150, deadline=None)
    def test_banded_conv_matches_reference(self, conv):
        """Several bands — rows of one image, or whole images, a short last
        band — on every datapath: outputs and op counts equal the literal
        two-stage loop run image by image."""
        weights, features, bias, geometry, band, tier = conv
        encoded = encode_layer("banded", weights)
        plan = compile_layer_plan(encoded, geometry)
        images, _, rows, cols = features.shape
        bias_peak = 0 if bias is None else int(np.abs(bias).max())
        assert plan.datapath(int(np.abs(features).max()), bias_peak) == tier
        with mock.patch.object(plan_module, "BAND_PIXELS", band):
            bands = plan.bands(images, rows, cols)
            fast = abm_conv2d_batch(features, encoded, geometry, bias_codes=bias)
        refs = [
            abm_conv2d_reference(image, encoded, geometry, bias_codes=bias)
            for image in features
        ]
        assert fast.output.dtype == np.int64
        assert np.array_equal(fast.output, np.stack([r.output for r in refs]))
        assert fast.accumulate_ops == sum(r.accumulate_ops for r in refs)
        assert fast.multiply_ops == sum(r.multiply_ops for r in refs)
        out_rows = fast.output.shape[2]
        assert bands.count == -(-images // bands.images) * -(-out_rows // bands.rows)
        assert bands.images == 1 or bands.rows == out_rows

    @pytest.mark.parametrize(
        "images,side,expected",
        [
            (4, 56, (1, 8, 28)),  # 56x56: 8-row bands of 448 px, 7 per image
            (4, 28, (1, 14, 8)),  # 28x28: two 392 px bands per image
            (4, 14, (4, 14, 1)),  # 784 px in all: under two bands, one tile
            (8, 14, (2, 14, 4)),  # 196 px images: two whole images per band
            (1, 37, (1, 13, 3)),  # 37x37: bands of 13, 13 and 11 rows
        ],
    )
    def test_band_shapes(self, rng, images, side, expected):
        encoded = encode_layer("b", sparse_weight_codes(rng, shape=(4, 3, 3, 3)))
        plan = compile_layer_plan(encoded, ConvGeometry(kernel=3, padding=1))
        assert tuple(plan.bands(images, side, side)) == expected

    def test_fc_is_one_band(self, rng):
        encoded = encode_layer("fc", sparse_weight_codes(rng, shape=(10, 32, 1, 1)))
        plan = compile_layer_plan(encoded, ConvGeometry(kernel=1))
        assert plan.bands(4 * plan_module.BAND_PIXELS, 1, 1).count == 1

    def test_scratch_holds_one_tile_not_the_patch_matrix(self, rng):
        """A many-band conv works in one tile of patches: the scratch a call
        needs is that tile plus its output and padded input, and the most
        the call allocates is that scratch plus the int64 result it
        returns, far below the whole-batch patch matrix."""
        weights = sparse_weight_codes(rng, shape=(16, 16, 3, 3))
        encoded = encode_layer("wide", weights)
        plan = compile_layer_plan(encoded, ConvGeometry(kernel=3, padding=1))
        batch = rng.integers(-128, 128, size=(3, 16, 48, 48))
        plan.execute_batch(batch)  # builds the float32 weights once
        bands = plan.bands(3, 48, 48)
        assert bands.count >= 12
        item = np.dtype(np.float32).itemsize
        tile = bands.images * bands.rows * 48 * plan.patch_width * item
        output = 3 * 48 * 48 * 16 * item
        padded = 3 * 50 * 50 * 16 * item
        assert plan.scratch_bytes(3, 48, 48, "gemm32") == (padded, tile, output)
        tracemalloc.start()
        try:
            plan.execute_batch(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = 3 * 16 * 48 * 48 * np.dtype(np.int64).itemsize
        assert peak <= tile + output + padded + result + 64 * 1024
        assert peak < 3 * 48 * 48 * plan.patch_width * item

    def test_calls_share_one_scratch(self, rng):
        """Two layers with different padding are bound to one
        :class:`Scratch` sized for the larger: each run re-zeros its own
        halo over the other layer's interior, so both stay exact, also
        when the bound layers run again."""
        geometries = (ConvGeometry(kernel=3, padding=1), ConvGeometry(kernel=5, padding=2))
        shapes = ((6, 4, 3, 3), (6, 4, 5, 5))
        batches = (
            rng.integers(1, 128, size=(2, 4, 14, 14)),
            rng.integers(1, 128, size=(2, 4, 7, 7)),
        )
        plans, sizes = [], []
        for geometry, shape, batch in zip(geometries, shapes, batches):
            encoded = encode_layer("s", sparse_weight_codes(rng, shape=shape))
            plans.append((encoded, geometry, compile_layer_plan(encoded, geometry)))
            sizes.append(plans[-1][2].scratch_bytes(2, *batch.shape[2:], "gemm32"))
        assert sizes[0][0] > sizes[1][0]  # the larger padded input runs first
        scratch = Scratch.allocate(tuple(map(max, *sizes)))
        bound = [
            plan.bind(
                2, *batch.shape[2:], batch.transpose(0, 2, 3, 1), None, "gemm32", scratch
            )
            for (_, _, plan), batch in zip(plans, batches)
        ]
        for _ in range(2):
            for (encoded, geometry, _), (raw, calls), batch in zip(plans, bound, batches):
                for call in calls:
                    call()
                expected = abm_conv2d_batch(batch, encoded, geometry).output
                assert np.array_equal(raw.transpose(0, 3, 1, 2), expected)


    def test_bound_layer_rejects_other_extents(self, rng):
        """A bound layer's views fit one batch extent: a source of another
        size or channel count fails loudly instead of broadcasting."""
        encoded = encode_layer("s", sparse_weight_codes(rng, shape=(6, 4, 3, 3)))
        plan = compile_layer_plan(encoded, ConvGeometry(kernel=3, padding=1))
        scratch = Scratch.allocate(plan.scratch_bytes(2, 8, 8, "gemm32"))
        for shape in ((2, 8, 8, 3), (1, 8, 8, 4), (2, 1, 1, 4)):
            with pytest.raises(ValueError, match=r"bound to a \(2, 8, 8, 4\)"):
                plan.bind(2, 8, 8, np.zeros(shape, np.int64), None, "gemm32", scratch)

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
            abm_conv2d_batch(features[None], encoded, geometry)
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
            abm_conv2d_batch(rng.integers(-128, 128, size=(1, 2, 6, 6)), encoded, geometry)
            abm_conv2d_batch(
                rng.integers(-(2**20), 2**20, size=(1, 2, 6, 6)), encoded, geometry
            )
            wide = rng.integers(-(2**45), 2**45, size=(2, 6, 6))
            result = abm_conv2d_batch(wide[None], encoded, geometry)
        assert np.array_equal(result.output[0], direct_conv(wide, weights, geometry))
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
        fast = abm_conv2d_batch(features[None], encoded, geometry)
        ref = abm_conv2d_reference(features, encoded, geometry)
        assert_results_identical(fast, ref)
        assert not fast.output[0, 2].any()

    def test_all_zero_layer(self, rng, datapath):
        weights = np.zeros((3, 2, 3, 3), dtype=np.int64)
        features = rng.integers(-64, 64, size=(2, 5, 5))
        geometry = ConvGeometry(kernel=3)
        encoded = encode_layer("zz", weights)
        fast = abm_conv2d_batch(features[None], encoded, geometry)
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
        assert encoded.distinct.max() <= 1
        fast = abm_conv2d_batch(features[None], encoded, geometry)
        ref = abm_conv2d_reference(features, encoded, geometry)
        assert_results_identical(fast, ref)

    def test_int64_path_with_large_features(self, rng, datapath):
        """Features wide enough to leave float64 for the int64 matmul."""
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3), value_range=127)
        features = rng.integers(-(2**45), 2**45, size=(2, 6, 6))
        geometry = ConvGeometry(kernel=3)
        encoded = encode_layer("big", weights)
        fast = abm_conv2d_batch(features[None], encoded, geometry)
        expected = direct_conv(features, weights, geometry)
        assert np.array_equal(fast.output[0], expected)

    def test_fc_path(self, rng, datapath):
        weights = sparse_weight_codes(rng, shape=(10, 32, 1, 1), density=0.2)
        features = rng.integers(-128, 128, size=32)
        encoded = encode_layer("fc", weights)
        result = abm_conv2d_batch(
            features.reshape(1, -1, 1, 1), encoded, ConvGeometry(kernel=1)
        )
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
        assert plan_module._plans.stats().size == 1

    def test_distinct_geometry_distinct_plan(self, rng):
        plan_module._plans.clear()
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        encoded = encode_layer("c", weights)
        a = compile_layer_plan(encoded, ConvGeometry(kernel=3, padding=1))
        b = compile_layer_plan(encoded, ConvGeometry(kernel=3, padding=0))
        assert a is not b
        assert plan_module._plans.stats().size == 2

    def test_clear_plan_cache(self, rng):
        weights = sparse_weight_codes(rng, shape=(3, 2, 3, 3))
        encoded = encode_layer("c", weights)
        compile_layer_plan(encoded, ConvGeometry(kernel=3))
        assert plan_module._plans.stats().size >= 1
        plan_module._plans.clear()
        assert plan_module._plans.stats().size == 0

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
        result = abm_conv2d_batch(features[None], encoded, geometry)
        assert result.accumulate_ops == pixels * nnz
        assert result.multiply_ops == pixels * qtable
