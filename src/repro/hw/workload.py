"""Accelerator workload descriptions.

The simulator does not need weight *values* — cycle counts depend only on
each kernel's nonzero count (accumulate work) and distinct-value count
(multiply work), plus the layer geometry. A :class:`LayerWorkload` carries
exactly that, and can be built either from a real encoded layer
(:func:`workload_from_encoded`) or from calibrated synthetic statistics
(:mod:`repro.workloads`) for full-size models whose dense tensors would not
fit in laptop memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.encoding import EncodedLayer
from ..core.specs import LayerSpec

if TYPE_CHECKING:
    from .scheduler import DispatchTable


def _count_array(spec: LayerSpec, what: str, values: Sequence[int]) -> np.ndarray:
    """Validated read-only int64 copy of one per-kernel statistic."""
    raw = np.asarray(values)
    if raw.ndim != 1 or raw.size != spec.out_channels:
        raise ValueError(
            f"{spec.name}: {raw.size} {what} counts for {spec.out_channels} output channels"
        )
    counts = raw.astype(np.int64)
    if raw.dtype.kind not in "iu" and not np.array_equal(counts, raw):
        raise ValueError(f"{spec.name}: {what} counts must be integers")
    if (counts < 0).any():
        raise ValueError(f"{spec.name}: {what} counts cannot be negative")
    counts.setflags(write=False)
    return counts


@dataclass(frozen=True, eq=False)
class LayerWorkload:
    """Everything the simulator needs to schedule one layer.

    ``nonzeros[m]`` and ``distinct[m]`` are kernel ``m``'s accumulates and
    multiplies per output pixel, stored as read-only int64 arrays. The
    layer totals are computed once, here, because the DSE grid reads them
    per point. Workloads compare and hash by content, so equal workloads
    built separately share cache entries.
    """

    spec: LayerSpec
    nonzeros: np.ndarray
    distinct: np.ndarray
    #: Encoded weight bytes of the layer (drives the bandwidth model);
    #: ``None`` derives them from the encoding's 16-bit-per-entry format.
    encoded_bytes: Optional[int] = None
    #: Total accumulates / multiplies per image (Table 1 'Acc.' / 'Mult.').
    accumulate_ops: int = field(init=False, repr=False)
    multiply_ops: int = field(init=False, repr=False)
    density: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        spec = self.spec
        nonzeros = _count_array(spec, "nonzeros", self.nonzeros)
        distinct = _count_array(spec, "distinct", self.distinct)
        if (distinct > nonzeros).any():
            raise ValueError(f"{spec.name}: distinct values cannot exceed nonzeros")
        nonzero_total = int(nonzeros.sum())
        distinct_total = int(distinct.sum())
        encoded_bytes = self.encoded_bytes
        if encoded_bytes is None:
            # Per kernel: 2 B header + 2 B per Q-Table entry + 2 B per index.
            encoded_bytes = 2 * (spec.out_channels + distinct_total + nonzero_total)
        if encoded_bytes < 0 or int(encoded_bytes) != encoded_bytes:
            raise ValueError(f"{spec.name}: encoded_bytes {encoded_bytes!r} is not a count")
        encoded_bytes = int(encoded_bytes)
        derived = {
            "nonzeros": nonzeros,
            "distinct": distinct,
            "encoded_bytes": encoded_bytes,
            "accumulate_ops": nonzero_total * spec.output_pixels,
            "multiply_ops": distinct_total * spec.output_pixels,
            "density": nonzero_total / spec.weight_count if spec.weight_count else 0.0,
            "_key": (spec, nonzeros.tobytes(), distinct.tobytes(), encoded_bytes),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @cached_property
    def balanced_order(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(kernel order, nonzeros, distinct) of the balanced kernel grouping.

        Kernels sorted by descending nonzero count, ties in encoding order.
        The order does not depend on ``N_knl``, so every configuration the
        simulator schedules shares it. It is built on first use, not in
        ``__post_init__``, so constructing a workload costs no more than
        before.
        """
        order = np.argsort(-self.nonzeros, kind="stable")
        arrays = (order, self.nonzeros[order], self.distinct[order])
        for array in arrays:
            array.setflags(write=False)
        return arrays

    @cached_property
    def dispatch_tables(self) -> Dict[Tuple[int, int, str], "DispatchTable"]:
        """LPT dispatch tables of this layer by ``(N_knl, N, policy)``.

        :func:`repro.hw.scheduler.dispatch_table` fills it on first use.
        Everything a table holds depends on those three values alone, so
        configurations that differ only in ``n_cu``, ``s_ec``, ``d_f`` or
        the clock share one table.
        """
        return {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayerWorkload):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


@dataclass(frozen=True)
class ModelWorkload:
    """Ordered layer workloads of a whole network."""

    name: str
    layers: Tuple[LayerWorkload, ...]

    @cached_property
    def accumulate_ops(self) -> int:
        return sum(layer.accumulate_ops for layer in self.layers)

    @cached_property
    def multiply_ops(self) -> int:
        return sum(layer.multiply_ops for layer in self.layers)

    @cached_property
    def column_tables(self) -> Dict[Tuple[int, int], object]:
        """DSE grid tables by ``(d_f, S_ec)``; ``repro.dse.compiled`` fills it."""
        return {}

    @property
    def dense_ops(self) -> int:
        """Original-model op count that throughput is normalized to."""
        return sum(layer.spec.dense_ops for layer in self.layers)

    @property
    def encoded_bytes(self) -> int:
        return sum(layer.encoded_bytes for layer in self.layers)


def workload_from_encoded(spec: LayerSpec, encoded: EncodedLayer) -> LayerWorkload:
    """Build a layer workload from an actually-encoded weight tensor."""
    return LayerWorkload(spec, encoded.nonzeros, encoded.distinct, encoded.encoded_bytes)


def workload_from_arrays(
    spec: LayerSpec,
    nonzeros: Sequence[int],
    distinct: Sequence[int],
    encoded_bytes: int = 0,
) -> LayerWorkload:
    """Build a layer workload from per-kernel statistic arrays.

    When ``encoded_bytes`` is omitted it is derived from the encoding's
    16-bit-per-entry format (index stream + Q-Table + per-kernel header).
    Bad lengths, non-integral or negative counts raise ``ValueError``.
    """
    return LayerWorkload(spec, nonzeros, distinct, encoded_bytes or None)
