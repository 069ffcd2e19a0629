"""Fault injection on encoded weight streams.

The encoded model travels over DDR into on-chip buffers; this module
injects the classic transport faults — bit flips in the 16-bit index
entries, bit flips in Q-Table VAL bytes, and truncation — so the test
suite can characterize the decoder's behaviour under corruption:

- structural faults (counts no longer matching the stream, an index
  leaving its kernel) must be *detected*, never silently decoded: every
  corrupted layer is rebuilt through :class:`EncodedLayer`'s checks;
- value faults decode "successfully" but perturb the output, and the
  blast radius is measurable (a single VAL flip corrupts every output
  pixel of one kernel; a single index flip moves one accumulate).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..core.encoding import EncodedLayer, EncodingError


@dataclass(frozen=True)
class FaultReport:
    """What was corrupted."""

    kind: str
    kernel_index: int
    position: int
    bit: int


class CorruptionDetected(RuntimeError):
    """The decoder noticed a structurally-invalid encoded stream."""


def _rebuild(layer: EncodedLayer, **streams: np.ndarray) -> EncodedLayer:
    """``layer`` with streams replaced; a failed structural check is the detection."""
    try:
        return replace(layer, **streams)
    except EncodingError as exc:
        raise CorruptionDetected(str(exc)) from exc


def _entry(offsets: np.ndarray, kernel_index: int, entry_index: int, what: str) -> int:
    """Flat position of entry ``entry_index`` of kernel ``kernel_index``."""
    if not 0 <= kernel_index < offsets.size - 1:
        raise ValueError("kernel index out of range")
    start = int(offsets[kernel_index])
    if not 0 <= entry_index < int(offsets[kernel_index + 1]) - start:
        raise ValueError(f"{what} out of range")
    return start + entry_index


def flip_index_bit(
    layer: EncodedLayer,
    kernel_index: int,
    entry_index: int,
    bit: int,
    clamp_to_kernel: bool = True,
) -> EncodedLayer:
    """Flip one bit of one WT-Buffer index entry.

    With ``clamp_to_kernel`` the flipped index wraps into the kernel's
    valid range (an in-range wrong read — silent data corruption); without
    it the raw flipped value is kept, and an index that leaves the kernel
    raises :class:`CorruptionDetected`.
    """
    if not 0 <= bit < 16:
        raise ValueError("index entries are 16 bits wide")
    position = _entry(layer.stream_offsets, kernel_index, entry_index, "entry index")
    indices = layer.indices.copy()
    flipped = int(indices[position]) ^ (1 << bit)
    if clamp_to_kernel:
        flipped %= layer.kernel_width
    indices[position] = flipped
    return _rebuild(layer, indices=indices)


def flip_value_bit(
    layer: EncodedLayer, kernel_index: int, entry_index: int, bit: int
) -> EncodedLayer:
    """Flip one bit of one Q-Table VAL byte (8-bit two's complement)."""
    if not 0 <= bit < 8:
        raise ValueError("VAL fields are 8 bits wide")
    position = _entry(layer.qtable_offsets, kernel_index, entry_index, "Q-Table entry")
    values = layer.qtable_values.copy()
    flipped = (int(values[position]) & 0xFF) ^ (1 << bit)
    value = flipped - 256 if flipped >= 128 else flipped
    if value == 0:
        # A zero VAL is not encodable; flip lands on the adjacent code,
        # which is what a hardware decoder treating 0 as 1 LSB would see.
        value = 1
    values[position] = value
    return _rebuild(layer, qtable_values=values)


def truncate_stream(
    layer: EncodedLayer, kernel_index: int, drop_entries: int
) -> EncodedLayer:
    """Drop the tail of a kernel's index stream *without* fixing its
    Q-Table counts — the structural corruption a decoder must detect."""
    _entry(layer.stream_offsets, kernel_index, drop_entries - 1, "truncation length")
    end = int(layer.stream_offsets[kernel_index + 1])
    offsets = layer.stream_offsets.copy()
    offsets[kernel_index + 1 :] -= drop_entries
    return _rebuild(
        layer,
        indices=np.delete(layer.indices, np.s_[end - drop_entries : end]),
        stream_offsets=offsets,
    )


def random_fault(
    layer: EncodedLayer, rng: np.random.Generator, kind: Optional[str] = None
) -> tuple:
    """Inject one random fault; returns (corrupted_layer, FaultReport)."""
    kinds = ("index", "value")
    chosen = kind or kinds[int(rng.integers(len(kinds)))]
    candidates = np.flatnonzero(layer.nonzeros > 0)
    if not candidates.size:
        raise ValueError("layer has no nonzero kernels to corrupt")
    kernel_index = int(rng.choice(candidates))
    if chosen == "index":
        position = int(rng.integers(layer.nonzeros[kernel_index]))
        bit = int(rng.integers(16))
        corrupted = flip_index_bit(layer, kernel_index, position, bit)
    elif chosen == "value":
        entries = np.diff(layer.qtable_offsets)[kernel_index]
        position = int(rng.integers(entries))
        bit = int(rng.integers(8))
        corrupted = flip_value_bit(layer, kernel_index, position, bit)
    else:
        raise ValueError(f"unknown fault kind {chosen!r}")
    return corrupted, FaultReport(
        kind=chosen, kernel_index=kernel_index, position=position, bit=bit
    )
