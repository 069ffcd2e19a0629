"""Tests for the natural-image calibration generator."""

import numpy as np
import pytest

from repro.workloads.images import VALUE_RANGE, natural_image


def spectrum_slope(image_channel: np.ndarray) -> float:
    """Fitted log-log slope of the radial amplitude spectrum.

    Natural images sit near -1; white noise near 0.
    """
    arr = np.asarray(image_channel, dtype=np.float64)
    spectrum = np.abs(np.fft.fft2(arr - arr.mean()))
    fy = np.fft.fftfreq(arr.shape[0])[:, None]
    fx = np.fft.fftfreq(arr.shape[1])[None, :]
    radius = np.sqrt(fy**2 + fx**2).reshape(-1)
    amplitude = spectrum.reshape(-1)
    # Fit over a mid-frequency band, away from DC and Nyquist wrap.
    band = (radius > 0.02) & (radius < 0.35) & (amplitude > 0)
    slope, _ = np.polyfit(np.log(radius[band]), np.log(amplitude[band]), 1)
    return float(slope)


class TestNaturalImage:
    def test_shape_and_range(self, rng):
        image = natural_image((3, 64, 64), rng)
        lo, hi = VALUE_RANGE
        assert image.shape == (3, 64, 64)
        assert lo <= image.min() < 0.0 < image.max() <= hi

    def test_spectrum_is_pink(self, rng):
        """The fitted log-log slope sits near the natural-image -1 law."""
        image = natural_image((1, 128, 128), rng)
        slope = spectrum_slope(image[0])
        assert -1.5 < slope < -0.6

    def test_white_noise_slope_is_flat(self, rng):
        noise = rng.normal(size=(128, 128))
        assert abs(spectrum_slope(noise)) < 0.3

    def test_channels_correlated(self, rng):
        image = natural_image((3, 64, 64), rng)
        r = np.corrcoef(image[0].ravel(), image[1].ravel())[0, 1]
        assert r > 0.5

    def test_deterministic(self):
        a = natural_image((3, 32, 32), np.random.default_rng(5))
        b = natural_image((3, 32, 32), np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            natural_image((0, 8, 8), rng)


class TestCalibrationIntegration:
    def test_pipeline_calibrates_on_natural_image(self, tiny_architecture, rng):
        from repro.pipeline import QuantizedPipeline

        network = tiny_architecture.build(seed=2)
        image = natural_image(network.input_shape.as_tuple(), rng)
        pipeline = QuantizedPipeline(network)
        pipeline.calibrate(image)
        pipeline.quantize()
        result = pipeline.run(image)
        reference = pipeline.run_float(image)
        assert int(np.argmax(result.output)) == int(np.argmax(reference))
