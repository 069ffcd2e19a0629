"""Synthetic calibration images with natural-image statistics.

Dynamic fixed point is calibrated from activation ranges, and activation
ranges depend on input statistics. Plain white noise under-drives deep
layers; natural images famously follow a ~1/f amplitude spectrum with
strongly correlated color channels. This generator produces such images
offline, so calibration runs see realistic dynamic ranges without any
dataset.

Construction: white Gaussian noise shaped in the frequency domain by
``1 / f`` (the natural-image law), inverse-transformed,
then mixed across channels with a correlation factor and normalized to a
target range.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _pink_field(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """One 2-D field with a 1/f amplitude spectrum, zero mean."""
    spectrum = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.fftfreq(cols)[None, :]
    radius = np.sqrt(fy**2 + fx**2)
    radius[0, 0] = 1.0  # keep DC finite; it is re-centred below
    shaped = spectrum / radius
    field = np.real(np.fft.ifft2(shaped))
    field -= field.mean()
    deviation = field.std()
    if deviation > 0:
        field /= deviation
    return field


def natural_image(
    shape: Tuple[int, int, int],
    rng: np.random.Generator,
    channel_correlation: float = 0.85,
    value_range: Tuple[float, float] = (-1.0, 1.0),
) -> np.ndarray:
    """A CHW image with a 1/f spectrum and correlated channels."""
    channels, rows, cols = shape
    if channels < 1:
        raise ValueError("need at least one channel")
    if not 0.0 <= channel_correlation <= 1.0:
        raise ValueError("channel correlation must be in [0, 1]")
    lo, hi = value_range
    if hi <= lo:
        raise ValueError("value range must be increasing")
    shared = _pink_field(rows, cols, rng)
    image = np.empty(shape)
    for c in range(channels):
        own = _pink_field(rows, cols, rng)
        mixed = channel_correlation * shared + (1 - channel_correlation) * own
        image[c] = mixed
    # Normalize to the requested range with a 3-sigma soft clip.
    clipped = np.clip(image, -3.0, 3.0) / 3.0
    return lo + (clipped + 1.0) * (hi - lo) / 2.0
