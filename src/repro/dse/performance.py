"""Performance Model (paper Section 5.1).

The paper's theoretical execution time for convolution layer *l* is driven
by the number of accumulations: the accumulator array retires
``N_cu * N_knl * S_ec`` accumulates per cycle, so

    T_l = max(#ACC_l, N * #MULT_l) / (N_acc * Freq)

(the ``N * #MULT`` term captures layers whose accumulate/multiply intensity
ratio falls below the sharing factor N — they become multiplier-bound, the
effect the flow's choice of N is meant to avoid). The average performance
in image/s is ``1 / sum_l T_l``, and throughput in GOP/s follows the
paper's convention of dividing the *original dense* op count by the
inference time.

Two fidelity levels:

- ``ideal`` — the closed-form above, kept to compare with the paper;
- ``quantized`` — adds the discrete losses the event simulator exhibits:
  kernel-group ceiling (M may not divide N_knl * N_cu), vector-step
  ceiling on the prefetch windows, and per-group engine imbalance taken
  from the actual kernel statistics. Every shipped caller scores this
  one: the exploration sweeps of Figure 5, ``explore``'s chosen point,
  the joint search and the experiments.

This module is the *per-point reference* implementation: it scores one
(workload, config) pair at a time, re-deriving the kernel statistics and
walking the prefetch windows in Python. The DSE sweeps score the whole
``N_knl x S_ec x N_cu`` space at once through the float-identical compiled
evaluator in :mod:`repro.dse.compiled`; this path remains the differential
baseline (``tests/test_dse_compiled.py``) and the single-point scorer used
once a configuration is chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..hw.config import AcceleratorConfig
from ..hw.tiling import plan_windows
from ..hw.workload import LayerWorkload, ModelWorkload

MODE_IDEAL = "ideal"
MODE_QUANTIZED = "quantized"
_MODES = (MODE_IDEAL, MODE_QUANTIZED)


@dataclass(frozen=True)
class LayerPerformance:
    """Predicted cycles for one layer."""

    layer: str
    cycles_per_image: float
    bound: str  # 'accumulate' or 'multiply'

    def seconds_per_image(self, freq_mhz: float) -> float:
        return self.cycles_per_image / (freq_mhz * 1e6)


@dataclass(frozen=True)
class ModelPerformance:
    """Predicted whole-model performance."""

    model: str
    config: AcceleratorConfig
    layers: Tuple[LayerPerformance, ...]
    dense_ops: int

    @property
    def cycles_per_image(self) -> float:
        return float(sum(layer.cycles_per_image for layer in self.layers))

    @property
    def seconds_per_image(self) -> float:
        return self.cycles_per_image / (self.config.freq_mhz * 1e6)

    @property
    def images_per_second(self) -> float:
        return 1.0 / self.seconds_per_image

    @property
    def throughput_gops(self) -> float:
        """GOP/s on the paper's dense-op basis."""
        return self.dense_ops / self.seconds_per_image / 1e9


def _ideal_layer_cycles(
    workload: LayerWorkload, config: AcceleratorConfig
) -> Tuple[float, str]:
    acc = workload.accumulate_ops
    mult = workload.multiply_ops * config.n_share
    cycles = max(acc, mult) / config.total_accumulators
    return cycles, ("accumulate" if acc >= mult else "multiply")


def _quantized_layer_cycles(
    workload: LayerWorkload, config: AcceleratorConfig
) -> Tuple[float, str]:
    spec = workload.spec
    plan = plan_windows(spec, config)
    # Exact vector steps, window by window (edge windows are smaller).
    steps_total = 0
    for window_index in range(plan.windows):
        row_tile, col_tile = divmod(window_index, plan.g_c)
        rows = min(plan.window_rows, spec.out_rows - row_tile * plan.window_rows)
        cols = min(plan.window_cols, spec.out_cols - col_tile * plan.window_cols)
        steps_total += math.ceil(rows * cols / config.s_ec)
    # Engine cycles per window step group: slower of the two stages.
    engine = np.maximum(workload.nonzeros, workload.distinct * config.n_share)
    groups = math.ceil(len(engine) / config.n_knl)
    pad = groups * config.n_knl - len(engine)
    if pad:
        engine = np.concatenate([engine, np.zeros(pad, dtype=engine.dtype)])
    # Balanced grouping (the scheduler's default) sorts kernels by load
    # before chunking, which is what bounds intra-group imbalance.
    order = np.sort(engine)[::-1]
    group_max = order.reshape(groups, config.n_knl).max(axis=1)
    # The double-buffered (ping-pong) scheduler packs tasks of consecutive
    # windows onto idle CUs, so cross-CU packing is near-perfect and the
    # remaining losses are intra-group engine imbalance (the max() above)
    # and vector-step quantization (the ceil in `steps_total`).
    cycles = float(group_max.sum()) * steps_total / config.n_cu / plan.batch_images
    acc = workload.accumulate_ops
    mult = workload.multiply_ops * config.n_share
    return cycles, ("accumulate" if acc >= mult else "multiply")


def estimate_layer(
    workload: LayerWorkload, config: AcceleratorConfig, mode: str = MODE_IDEAL
) -> LayerPerformance:
    """Predict one layer's per-image cycles."""
    if mode not in _MODES:
        raise ValueError(f"unknown performance-model mode {mode!r}")
    if mode == MODE_IDEAL:
        cycles, bound = _ideal_layer_cycles(workload, config)
    else:
        cycles, bound = _quantized_layer_cycles(workload, config)
    return LayerPerformance(
        layer=workload.spec.name, cycles_per_image=cycles, bound=bound
    )


def estimate_model(
    workload: ModelWorkload, config: AcceleratorConfig, mode: str = MODE_IDEAL
) -> ModelPerformance:
    """Predict whole-model performance (paper Performance Model)."""
    layers = tuple(estimate_layer(layer, config, mode) for layer in workload.layers)
    return ModelPerformance(
        model=workload.name,
        config=config,
        layers=layers,
        dense_ops=workload.dense_ops,
    )


def share_factor_from_workloads(layers: Sequence[LayerWorkload]) -> int:
    """Choose N from the minimum accumulate/multiply intensity ratio.

    Paper Section 5.2: "the ratio of the arithmetic intensity between
    accumulate and multiply operations is analyzed and N is determined to
    fit the minimum ratio". Table 1's minimum ratio is CONV1_2's 3.4 and
    the paper's chosen N is 4: the sharing factor is the smallest integer
    covering the ratio (ceiling), which maximizes accumulators per DSP at
    the cost of making only the minimum-ratio layer marginally
    multiplier-bound. A ratio below 1 degenerates to N=1.
    """
    ratios = []
    for layer in layers:
        if layer.multiply_ops:
            ratios.append(layer.accumulate_ops / layer.multiply_ops)
    if not ratios:
        return 1
    return max(1, math.ceil(min(ratios)))
