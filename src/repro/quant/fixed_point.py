"""Fixed-point number formats and conversions.

The ABM-SpConv accelerator stores weights and feature maps in narrow
fixed-point formats (8-bit in the paper's final design) while carrying the
datapath at 16 bits so that Equation (2) of the paper holds exactly: the
accumulate-before-multiply factorization is only valid when no intermediate
rounding occurs.

A :class:`QFormat` describes a signed two's-complement fixed-point format by
its total bit width and the number of fractional bits, mirroring the
dynamic-fixed-point scheme of Ristretto (Gysel et al., 2018) that the paper
adopts for 8-bit quantization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


def _round_half_away(x: np.ndarray) -> None:
    """Round float64 ``x`` in place to the nearest integer, ties away from
    zero: ``copysign(floor(|x| + 0.5), x)``, in one ``|x|`` buffer."""
    magnitude = np.abs(x, out=np.empty_like(x))  # an array even when 0-d
    magnitude += 0.5
    np.floor(magnitude, out=magnitude)
    np.copysign(magnitude, x, out=x)


@dataclass(frozen=True)
class QFormat:
    """A signed two's-complement fixed-point format.

    Parameters
    ----------
    total_bits:
        Width of the stored word, including the sign bit.
    frac_bits:
        Number of fractional bits. May be negative (values are multiples of
        a power of two greater than one) or exceed ``total_bits - 1`` (all
        stored bits are fractional), as in dynamic fixed point.
    """

    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise ValueError(f"total_bits must be >= 2, got {self.total_bits}")

    @property
    def scale(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.frac_bits)

    @property
    def min_code(self) -> int:
        """Most negative representable integer code."""
        return -(1 << (self.total_bits - 1))

    @property
    def max_code(self) -> int:
        """Most positive representable integer code."""
        return (1 << (self.total_bits - 1)) - 1

    @property
    def max_value(self) -> float:
        """Most positive representable real value."""
        return self.max_code * self.scale

    def quantize(self, values: ArrayLike) -> np.ndarray:
        """Convert real values to integer codes, rounding half away from
        zero (what most HLS ``round()`` cores do), with saturation.

        Returns an ``int64`` array of codes in ``[min_code, max_code]``.
        """
        # One float64 working copy, scaled and rounded in place, clipped
        # straight into the int64 result.
        scaled = np.array(values, dtype=np.float64)
        scaled *= 2.0**self.frac_bits
        _round_half_away(scaled)
        codes = np.empty(scaled.shape, np.int64)
        np.clip(scaled, self.min_code, self.max_code, out=codes, casting="unsafe")
        return codes if codes.ndim else codes[()]

    def dequantize(self, codes: ArrayLike) -> np.ndarray:
        """Convert integer codes back to real values."""
        return np.asarray(codes, dtype=np.float64) * self.scale


def best_frac_bits(values: ArrayLike, total_bits: int) -> int:
    """Choose the fractional bit count that covers ``max(|values|)``.

    This is the dynamic-fixed-point calibration rule used by Ristretto: give
    the integer part just enough bits to avoid saturating the largest
    magnitude, and spend every remaining bit on precision. An all-zero input
    gets the maximum fractional width (the format is arbitrary then).
    """
    arr = np.asarray(values, dtype=np.float64)
    max_abs = float(np.max(np.abs(arr))) if arr.size else 0.0
    if max_abs == 0.0:
        return total_bits - 1
    max_code = (1 << (total_bits - 1)) - 1
    # Largest frac with max_code * 2**-frac >= max_abs, i.e. the tightest
    # format whose positive range still covers the peak magnitude.
    frac = math.floor(math.log2(max_code / max_abs))
    # Guard against floating-point fuzz at exact powers of two.
    while QFormat(total_bits, frac).max_value < max_abs:
        frac -= 1
    while QFormat(total_bits, frac + 1).max_value >= max_abs:
        frac += 1
    return frac


def fit_qformat(values: ArrayLike, total_bits: int) -> QFormat:
    """Return the :class:`QFormat` chosen by :func:`best_frac_bits`."""
    return QFormat(total_bits, best_frac_bits(values, total_bits))


#: 8-bit weight / activation storage format family used in the paper.
WEIGHT_BITS = 8
#: Feature-map storage width (FT-Buffer entries are ``8 * S_ec`` bits wide).
FEATURE_BITS = 8
#: Datapath width of the accumulators and multiplier operands.
DATAPATH_BITS = 16
