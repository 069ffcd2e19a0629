"""Activation-range calibration strategies.

Max-abs calibration (the :func:`~repro.quant.fixed_point.fit_qformat`
default) devotes range to the single largest activation; on heavy-tailed
distributions that wastes most codes on outliers. Percentile calibration
clips the top tail instead, trading rare saturation for a finer LSB — the
refinement Ristretto-style flows apply when the plain dynamic range costs
accuracy. The pipeline exposes the strategy choice.
"""

from __future__ import annotations

import numpy as np

from .fixed_point import QFormat, fit_qformat

#: Calibration strategy names accepted by the pipeline.
CALIBRATION_MAX = "max"
CALIBRATION_PERCENTILE = "percentile"
CALIBRATION_STRATEGIES = (CALIBRATION_MAX, CALIBRATION_PERCENTILE)


def fit_qformat_percentile(
    values: np.ndarray,
    total_bits: int,
    percentile: float = 99.9,
) -> QFormat:
    """Fit a format to the given percentile of |values| instead of the max.

    Values beyond the percentile saturate; everything below gets up to a
    few extra fractional bits of precision.
    """
    if not 50.0 < percentile <= 100.0:
        raise ValueError("percentile must be in (50, 100]")
    arr = np.abs(np.asarray(values, dtype=np.float64)).reshape(-1)
    if arr.size == 0:
        return fit_qformat(values, total_bits)
    threshold = float(np.percentile(arr, percentile))
    if threshold == 0.0:
        threshold = float(arr.max())
    return fit_qformat(np.array([threshold]), total_bits)


def fit_with_strategy(
    values: np.ndarray,
    total_bits: int,
    strategy: str = CALIBRATION_MAX,
    percentile: float = 99.9,
) -> QFormat:
    """Dispatch on the calibration strategy name."""
    if strategy == CALIBRATION_MAX:
        return fit_qformat(values, total_bits)
    if strategy == CALIBRATION_PERCENTILE:
        return fit_qformat_percentile(values, total_bits, percentile)
    raise ValueError(
        f"unknown calibration strategy {strategy!r}; "
        f"choose from {CALIBRATION_STRATEGIES}"
    )
