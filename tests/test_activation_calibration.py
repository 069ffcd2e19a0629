"""Tests for percentile calibration and the SQNR metric."""

import numpy as np
import pytest

from repro.quant.activation_calibration import (
    CALIBRATION_MAX,
    CALIBRATION_PERCENTILE,
    fit_qformat_percentile,
    fit_with_strategy,
)
from repro.quant.fixed_point import QFormat, fit_qformat


def sqnr_db(values: np.ndarray, fmt: QFormat) -> float:
    """Signal-to-quantization-noise ratio of a format on a tensor, in dB."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("inf")
    reconstructed = fmt.roundtrip(arr)
    noise = np.mean((arr - reconstructed) ** 2)
    signal = np.mean(arr**2)
    if noise == 0.0:
        return float("inf")
    if signal == 0.0:
        return 0.0
    return float(10.0 * np.log10(signal / noise))


class TestPercentileFit:
    def test_heavy_tail_gets_finer_lsb(self, rng):
        """One huge outlier should not cost the whole tensor its precision."""
        values = np.concatenate([rng.normal(0, 1, 10_000), [250.0]])
        max_fmt = fit_qformat(values, 8)
        pct_fmt = fit_qformat_percentile(values, 8, percentile=99.9)
        assert pct_fmt.frac_bits > max_fmt.frac_bits

    def test_percentile_improves_sqnr_on_inliers(self, rng):
        """The trade: the in-range mass gains many dB, the outlier clips."""
        values = np.concatenate([rng.normal(0, 1, 10_000), [250.0]])
        max_fmt = fit_qformat(values, 8)
        pct_fmt = fit_qformat_percentile(values, 8, percentile=99.9)
        inliers = values[np.abs(values) <= pct_fmt.max_value]
        assert sqnr_db(inliers, pct_fmt) > sqnr_db(inliers, max_fmt) + 6.0
        # And the outlier saturates, by design.
        assert pct_fmt.saturates(250.0)

    def test_uniform_data_similar_to_max(self, rng):
        values = rng.uniform(-1, 1, 10_000)
        max_fmt = fit_qformat(values, 8)
        pct_fmt = fit_qformat_percentile(values, 8, percentile=100.0)
        assert pct_fmt.frac_bits == max_fmt.frac_bits

    def test_zero_tensor(self):
        fmt = fit_qformat_percentile(np.zeros(10), 8)
        assert fmt.total_bits == 8

    def test_percentile_bounds(self, rng):
        with pytest.raises(ValueError):
            fit_qformat_percentile(rng.normal(size=10), 8, percentile=40.0)

    def test_strategy_dispatch(self, rng):
        values = rng.normal(size=100)
        assert fit_with_strategy(values, 8, CALIBRATION_MAX) == fit_qformat(values, 8)
        assert fit_with_strategy(
            values, 8, CALIBRATION_PERCENTILE
        ) == fit_qformat_percentile(values, 8)
        with pytest.raises(ValueError):
            fit_with_strategy(values, 8, "entropy")


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


class TestPipelineStrategy:
    def test_percentile_calibration_runs(self, tiny_architecture, rng):
        from repro.pipeline import QuantizedPipeline

        network = tiny_architecture.build(seed=4)
        x = rng.normal(size=network.input_shape.as_tuple())
        pipeline = QuantizedPipeline(network)
        pipeline.calibrate(x, strategy="percentile", percentile=99.5)
        pipeline.quantize()
        result = pipeline.run(x)
        reference = pipeline.run_float(x).ravel()
        # Clipping may reorder near-ties; the prediction must stay inside
        # the float reference's top-2.
        top2 = set(np.argsort(reference)[-2:].tolist())
        assert int(np.argmax(result.output)) in top2

    def test_unknown_strategy_rejected(self, tiny_architecture, rng):
        from repro.pipeline import QuantizedPipeline

        network = tiny_architecture.build(seed=4)
        x = rng.normal(size=network.input_shape.as_tuple())
        with pytest.raises(ValueError):
            QuantizedPipeline(network).calibrate(x, strategy="kl-divergence")
