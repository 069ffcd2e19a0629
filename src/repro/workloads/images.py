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
fixed range.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Weight of the field every channel shares against each channel's own.
CHANNEL_CORRELATION = 0.85
#: The range images are normalized to.
VALUE_RANGE = (-1.0, 1.0)


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


def natural_image(shape: Tuple[int, int, int], rng: np.random.Generator) -> np.ndarray:
    """A CHW image with a 1/f spectrum and correlated channels."""
    channels, rows, cols = shape
    if channels < 1:
        raise ValueError("need at least one channel")
    lo, hi = VALUE_RANGE
    shared = _pink_field(rows, cols, rng)
    image = np.empty(shape)
    for c in range(channels):
        own = _pink_field(rows, cols, rng)
        mixed = CHANNEL_CORRELATION * shared + (1 - CHANNEL_CORRELATION) * own
        image[c] = mixed
    # Normalize to VALUE_RANGE with a 3-sigma soft clip.
    clipped = np.clip(image, -3.0, 3.0) / 3.0
    return lo + (clipped + 1.0) * (hi - lo) / 2.0
