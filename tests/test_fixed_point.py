"""Tests for repro.quant.fixed_point."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant.fixed_point import QFormat, best_frac_bits, fit_qformat


def saturates(fmt: QFormat, values) -> np.ndarray:
    """Mask of the values outside the format's representable range."""
    arr = np.asarray(values, dtype=np.float64)
    return (arr > fmt.max_value) | (arr < fmt.min_code * fmt.scale)


def sqnr_db(values: np.ndarray, fmt: QFormat) -> float:
    """Signal-to-quantization-noise ratio of a format on a tensor, in dB."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("inf")
    reconstructed = fmt.dequantize(fmt.quantize(arr))
    noise = np.mean((arr - reconstructed) ** 2)
    signal = np.mean(arr**2)
    if noise == 0.0:
        return float("inf")
    if signal == 0.0:
        return 0.0
    return float(10.0 * np.log10(signal / noise))


class TestQFormat:
    def test_ranges_8bit(self):
        fmt = QFormat(8, 0)
        assert fmt.min_code == -128
        assert fmt.max_code == 127
        assert fmt.dequantize(fmt.min_code) == -128.0
        assert fmt.max_value == 127.0

    def test_fractional_scale(self):
        fmt = QFormat(8, 4)
        assert fmt.scale == pytest.approx(1 / 16)
        assert fmt.max_value == pytest.approx(127 / 16)

    def test_negative_frac_bits_allowed(self):
        fmt = QFormat(8, -2)
        assert fmt.scale == 4.0
        assert fmt.quantize(8.0)[()] == 2

    def test_int_bits(self):
        assert QFormat(8, 4).int_bits == 3
        assert QFormat(16, 15).int_bits == 0

    def test_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            QFormat(1, 0)

    def test_quantize_rounds_nearest(self):
        fmt = QFormat(8, 0)
        assert fmt.quantize(2.5)[()] == 3  # half away from zero
        assert fmt.quantize(-2.5)[()] == -3
        assert fmt.quantize(2.4)[()] == 2

    def test_saturation(self):
        fmt = QFormat(8, 0)
        assert fmt.quantize(1000.0)[()] == 127
        assert fmt.quantize(-1000.0)[()] == -128

    def test_saturates_mask(self):
        """Exactly the values outside [-128, 127] clip."""
        fmt = QFormat(8, 0)
        values = np.array([0.0, 127.0, 127.6, -128.0, -129.0])
        clipped = fmt.dequantize(fmt.quantize(values)) != np.round(values)
        assert clipped.tolist() == [False, False, True, False, True]
        assert clipped.tolist() == saturates(fmt, values).tolist()

    def test_dequantize_inverse_on_codes(self):
        fmt = QFormat(8, 3)
        codes = np.arange(fmt.min_code, fmt.max_code + 1)
        assert np.array_equal(fmt.quantize(fmt.dequantize(codes)), codes)

    @given(
        st.floats(min_value=-7.9, max_value=7.9),
        st.integers(min_value=4, max_value=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_error_within_half_lsb(self, value, total_bits):
        fmt = QFormat(total_bits, total_bits - 1 - 3)  # 3 integer bits
        if saturates(fmt, value):
            return  # out-of-range values clip, by design
        recovered = fmt.dequantize(fmt.quantize(value))[()]
        assert abs(recovered - value) <= fmt.scale / 2 + 1e-12

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_quantize_is_monotone(self, values):
        fmt = QFormat(8, 2)
        arr = np.sort(np.asarray(values))
        codes = fmt.quantize(arr)
        assert np.all(np.diff(codes) >= 0)


def formula_quantize(fmt, values):
    """``QFormat.quantize`` as the out-of-place formula it replaced: the
    oracle for the in-place body."""
    scaled = np.asarray(values, dtype=np.float64) * (2.0**fmt.frac_bits)
    codes = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    codes = np.clip(codes, fmt.min_code, fmt.max_code)
    return codes.astype(np.int64)


#: Values at exact halves of a code step (after scaling by up to 2**40),
#: around zero and far past any format's range, with both infinities.
SPECIAL_VALUES = [0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 2.0**-41, -(2.0**-41),
                  1e300, -1e300, np.inf, -np.inf]


class TestQuantizeInPlace:
    """The in-place quantize against the formula it replaced."""

    @given(
        data=st.data(),
        total_bits=st.integers(2, 40),
        frac_bits=st.integers(-8, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_formula(self, data, total_bits, frac_bits):
        fmt = QFormat(total_bits, frac_bits)
        half = st.integers(-(2**20), 2**20).map(lambda k: (k + 0.5) * 2.0**-frac_bits)
        elements = st.one_of(
            st.floats(allow_nan=False), half, st.sampled_from(SPECIAL_VALUES)
        )
        values = data.draw(
            hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3), elements=elements)
        )
        with np.errstate(over="ignore"):
            expected = formula_quantize(fmt, values)
            got = fmt.quantize(values)
        assert type(got) is type(expected)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_scalars_and_lists(self):
        """A scalar gives an int64 scalar and a list an int64 array, as
        before; the input is never written."""
        fmt = QFormat(8, 1)
        for values in (2.25, -2.25, -0.0, 1e9, [2.25, -2.75, 63.75, -1e9], [[0.25], [-0.25]]):
            got = fmt.quantize(values)
            expected = formula_quantize(fmt, values)
            assert type(got) is type(expected) and got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        values = np.array([0.3, -0.7, 5.5])
        kept = values.copy()
        fmt.quantize(values)
        assert values.tobytes() == kept.tobytes()


class TestFitQFormat:
    def test_zero_tensor_gets_max_precision(self):
        assert best_frac_bits(np.zeros(4), 8) == 7

    def test_unit_range(self):
        fmt = fit_qformat(np.array([0.9, -0.5]), 8)
        assert not saturates(fmt, 0.9)
        assert not saturates(fmt, -0.9)
        assert fmt.frac_bits == 7

    def test_larger_range_gets_integer_bits(self):
        fmt = fit_qformat(np.array([5.0, -3.0]), 8)
        assert not saturates(fmt, 5.0)
        # 5.0 needs 3 integer bits -> frac = 8 - 1 - 3
        assert fmt.frac_bits == 4

    def test_power_of_two_edge(self):
        fmt = fit_qformat(np.array([1.0]), 8)
        assert not saturates(fmt, 1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_fit_never_saturates_the_peak(self, peak):
        fmt = fit_qformat(np.array([peak, -peak]), 8)
        assert not saturates(fmt, peak)
        assert not saturates(fmt, -peak)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_fit_is_tight(self, peak):
        """One fewer integer bit would saturate (format wastes no range)."""
        fmt = fit_qformat(np.array([peak]), 8)
        tighter = QFormat(8, fmt.frac_bits + 1)
        assert saturates(tighter, peak) or peak <= tighter.max_value
        # the chosen format covers the peak...
        assert peak <= fmt.max_value + 1e-9


class TestSQNR:
    def test_finer_format_higher_sqnr(self, rng):
        values = rng.uniform(-0.9, 0.9, 5000)
        coarse = QFormat(4, 3)
        fine = QFormat(8, 7)
        assert sqnr_db(values, fine) > sqnr_db(values, coarse) + 20

    def test_roughly_six_db_per_bit(self, rng):
        """The classic quantization law: ~6 dB of SQNR per bit."""
        values = rng.uniform(-0.99, 0.99, 50_000)
        gains = []
        for bits in (5, 6, 7, 8):
            gains.append(sqnr_db(values, QFormat(bits, bits - 1)))
        steps = np.diff(gains)
        assert np.all((steps > 4.5) & (steps < 7.5))

    def test_exact_representation_is_infinite(self):
        fmt = QFormat(8, 0)
        assert sqnr_db(np.array([1.0, 2.0, -3.0]), fmt) == float("inf")

    def test_empty(self):
        assert sqnr_db(np.array([]), QFormat(8, 0)) == float("inf")
