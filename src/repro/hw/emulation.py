"""Hardware-faithful layer execution through the functional datapath.

The fast path (:func:`repro.core.abm.abm_conv2d_batch`) computes with
numpy; this module instead drives a whole layer through the
*microarchitectural* components — address generator decoding the WT-Buffer stream, accumulator
groups, partial-sum FIFO, shared multiplier — one kernel engine at a time,
the way RTL simulation would. It is slow by construction and is the single
oracle of the datapath design: the emulator and the fast path must agree
bit-for-bit on every layer, and its FIFO pushes must equal the fast path's
multiply count (``tests/test_emulation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.abm import ConvGeometry
from ..core.encoding import EncodedLayer
from .config import AcceleratorConfig
from .cu import FunctionalCU


@dataclass(frozen=True)
class EmulationResult:
    """Output of a hardware-faithful layer execution."""

    output: np.ndarray
    #: Total FIFO pushes observed (== multiplies == Q-Table group visits).
    fifo_pushes: int
    #: Deepest FIFO occupancy seen anywhere (validates the chosen depth).
    max_fifo_occupancy: int


def emulate_layer(
    feature_codes: np.ndarray,
    encoded: EncodedLayer,
    geometry: ConvGeometry,
    config: AcceleratorConfig,
    bias_codes: np.ndarray = None,
) -> EmulationResult:
    """Execute one conv layer through the functional CU datapath.

    Grouped convolutions route each kernel engine to its channel slice,
    mirroring the address generator's base-channel offset.
    """
    features = np.asarray(feature_codes)
    if features.ndim != 3:
        raise ValueError("expected CHW integer features")
    channels = features.shape[0]
    kernels = encoded.out_channels
    if kernels % geometry.groups or channels % geometry.groups:
        raise ValueError("channels must divide into groups")
    padded = np.pad(
        features.astype(np.int64),
        ((0, 0), (geometry.padding,) * 2, (geometry.padding,) * 2),
        mode="constant",
    )
    out_rows = (features.shape[1] + 2 * geometry.padding - geometry.kernel) // geometry.stride + 1
    out_cols = (features.shape[2] + 2 * geometry.padding - geometry.kernel) // geometry.stride + 1
    positions = [(r, c) for r in range(out_rows) for c in range(out_cols)]
    group_in = channels // geometry.groups
    group_out = kernels // geometry.groups
    output = np.zeros((kernels, out_rows, out_cols), dtype=np.int64)
    pushes = 0
    deepest = 0
    for m, kernel in enumerate(encoded.kernels):
        engine = FunctionalCU(config, geometry.kernel, geometry.stride)
        base = (m // group_out) * group_in
        window = padded[base : base + group_in]
        bias = int(bias_codes[m]) if bias_codes is not None else 0
        values = engine.run_kernel(kernel, window, positions, bias=bias)
        output[m] = np.asarray(values, dtype=np.int64).reshape(out_rows, out_cols)
        pushes += engine.fifo.pushes
        deepest = max(deepest, engine.fifo.max_occupancy)
    return EmulationResult(
        output=output, fifo_pushes=pushes, max_fifo_occupancy=deepest
    )
