"""Index-based sparse weight encoding (paper Figure 4).

The accelerator never stores the dense weight tensor. Each convolution
kernel (the N*K*K weight block of one output channel) is encoded as:

- **WT-Buffer stream** — one 16-bit entry per *nonzero* weight, holding the
  packed position index ``n*K*K + k*K + k'``. Entries are grouped by weight
  value: all positions sharing the first distinct value Wp come first, then
  the next value's positions, and so on. The accumulate stage walks this
  stream linearly, which is what turns the algorithm's "random" access into
  sequential reads of an on-chip buffer.
- **Q-Table** — one 16-bit entry per distinct nonzero value: the 8-bit
  fixed-point VAL and the 8-bit NUM of index entries that belong to it. The
  loop counter uses NUM to know when to cut a partial sum, and the
  multiplier uses VAL as its constant operand. A count larger than 255 is
  legal in the model: the encoder splits it across several entries with the
  same VAL, exactly what the hardware's 8-bit NUM field forces.

An :class:`EncodedLayer` keeps these as flat arrays — every kernel's
stream concatenated, every kernel's Q-Table concatenated, and per-kernel
offsets into both — built by :func:`encode_nonzeros` from one stable sort
of the layer's nonzeros (:func:`encode_layer` takes the dense codes). The
streams are held at the wire widths: uint16 indices, uint8 NUMs and VALs
in the narrowest signed dtype that holds them (int8 for 8-bit weights).
:class:`EncodedKernel` is a per-kernel view of them for the walkers that
step through one kernel at a time.

Decoding is exact: ``encode_layer(name, w).dense_codes()`` is ``w`` (as an
``(M, N*K*K)`` matrix) for any integer weight tensor, a property test in
the suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Tuple

import numpy as np


#: Bytes per WT-Buffer entry (16-bit packed index).
WT_ENTRY_BYTES = 2
#: Bytes per Q-Table entry (8-bit VAL + 8-bit NUM).
QT_ENTRY_BYTES = 2
#: Bytes of per-kernel header (total occurrence count used by the loop counter).
KERNEL_HEADER_BYTES = 2
#: Largest NUM representable in a Q-Table entry's 8-bit count field.
MAX_ENTRY_COUNT = 255
#: Largest packed index representable in a 16-bit WT-Buffer entry.
MAX_PACKED_INDEX = (1 << 16) - 1


class EncodingError(ValueError):
    """An :class:`EncodedLayer` failed a structural check: a stream that is
    not one-dimensional integers, non-monotone offsets, NUMs not summing to
    a kernel's stream length, a NUM outside [1, 255], a zero VAL, an index
    outside the kernel, or a kernel shape that is not (N, K, K) within the
    16-bit index width."""


@dataclass(frozen=True)
class QTableEntry:
    """One Q-Table row: a distinct quantized value and its occurrence count."""

    value: int
    count: int

    def __post_init__(self) -> None:
        if self.value == 0:
            raise ValueError("zero weights are never encoded")
        if not 1 <= self.count <= MAX_ENTRY_COUNT:
            raise ValueError(f"count must be in [1, {MAX_ENTRY_COUNT}], got {self.count}")


@dataclass(frozen=True)
class EncodedKernel:
    """One kernel's Q-Table rows and packed index stream: a view of an
    :class:`EncodedLayer` for the walkers that step through one kernel.
    ``indices[i]`` belongs to the Q-Table entry whose cumulative counts
    cover position ``i``; indices are sorted within each value group."""

    qtable: Tuple[QTableEntry, ...]
    indices: np.ndarray
    kernel_shape: Tuple[int, int, int]

    def __post_init__(self) -> None:
        total = sum(entry.count for entry in self.qtable)
        if total != int(self.indices.size):
            raise ValueError(
                f"Q-Table counts sum to {total} but {self.indices.size} indices given"
            )

    @property
    def nonzero_count(self) -> int:
        """Nonzero weights — accumulate operations per output pixel."""
        return int(self.indices.size)

    @property
    def qtable_entries(self) -> int:
        """Q-Table rows including any split continuation entries."""
        return len(self.qtable)

    @property
    def encoded_bytes(self) -> int:
        """On-chip/DDR footprint of this kernel's encoding."""
        return (
            KERNEL_HEADER_BYTES
            + QT_ENTRY_BYTES * self.qtable_entries
            + WT_ENTRY_BYTES * self.nonzero_count
        )

    @cached_property
    def _groups(self) -> Tuple[Tuple[int, np.ndarray], ...]:
        ends = np.cumsum([entry.count for entry in self.qtable], dtype=np.int64)
        return tuple(
            (entry.value, self.indices[end - entry.count : end])
            for entry, end in zip(self.qtable, ends.tolist())
        )

    def value_groups(self) -> Iterable[Tuple[int, np.ndarray]]:
        """Yield (value, packed index block) pairs in stream order.

        The blocks are sliced once and cached, so hot loops that walk the
        groups repeatedly (the reference kernel visits them per output
        pixel) stop re-slicing :attr:`indices` on every iteration.
        """
        return iter(self._groups)


def pack_index(n: int, k: int, k2: int, kernel: int) -> int:
    """Pack a (n, k, k') weight position into a WT-Buffer index."""
    return (n * kernel + k) * kernel + k2


def unpack_index(packed: int, kernel: int) -> Tuple[int, int, int]:
    """Inverse of :func:`pack_index`."""
    k2 = packed % kernel
    rest = packed // kernel
    return rest // kernel, rest % kernel, k2


def narrowest_int(values: np.ndarray):
    """The smallest signed integer dtype holding every element of ``values``."""
    peak = max(int(values.max()), -int(values.min()) - 1) if values.size else 0
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if peak <= np.iinfo(dtype).max:
            return dtype
    raise OverflowError(f"integers up to {peak} overflow int64")


def _value_runs(kernels: np.ndarray, values: np.ndarray):
    """Stable order by (kernel, value), both keys in that order, and a flag
    on the first element of every (kernel, value) run. Narrowed keys (8-bit
    codes sort as int8) take numpy's radix sort; no combined key, so no
    code range can overflow."""
    order = np.lexsort(
        (
            values.astype(narrowest_int(values), copy=False),
            kernels.astype(narrowest_int(kernels), copy=False),
        )
    )
    kernels = kernels[order]
    values = values[order]
    first = np.ones(values.size, dtype=bool)
    first[1:] = (kernels[1:] != kernels[:-1]) | (values[1:] != values[:-1])
    return order, kernels, values, first


def _stream(values) -> np.ndarray:
    """``values`` as a one-dimensional integer array, uncopied when it is one."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        if array.size:
            raise EncodingError(f"encoded streams hold integers, got {array.dtype}")
        array = array.astype(np.int64)
    if array.ndim != 1:
        raise EncodingError(f"encoded streams are one-dimensional, got shape {array.shape}")
    return array


def _frozen(values, dtype=np.int64) -> np.ndarray:
    """A read-only ``dtype`` copy of ``values``."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


def _offsets(lengths: np.ndarray) -> np.ndarray:
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


#: Stored dtype of each stream but ``qtable_values``, which takes
#: :func:`narrowest_int` of its VALs.
_WIDTHS = {
    "indices": np.uint16,
    "qtable_counts": np.uint8,
    "stream_offsets": np.int64,
    "qtable_offsets": np.int64,
}


@dataclass(frozen=True, eq=False)
class EncodedLayer:
    """All kernels of one conv/FC layer as flat WT-Buffer and Q-Table arrays.

    Kernel ``m``'s index stream is ``indices[stream_offsets[m]:stream_offsets[m + 1]]``
    and its Q-Table rows ``qtable_offsets[m]:qtable_offsets[m + 1]`` of
    ``qtable_values`` (VAL) and ``qtable_counts`` (NUM); each row owns the
    next NUM entries of the stream. Arrays are stored as checked read-only
    copies at Figure 4's widths: ``indices`` uint16, ``qtable_counts`` uint8,
    ``qtable_values`` the narrowest signed dtype holding them, offsets int64.
    Every check runs on the given values before the cast, so an out-of-range
    entry raises :class:`EncodingError` and never wraps. ``nonzeros`` and
    ``distinct`` (int64 accumulates and multiplies per output pixel, per
    kernel) are derived.
    """

    name: str
    kernel_shape: Tuple[int, int, int]
    indices: np.ndarray = field(repr=False)
    qtable_values: np.ndarray = field(repr=False)
    qtable_counts: np.ndarray = field(repr=False)
    stream_offsets: np.ndarray = field(repr=False)
    qtable_offsets: np.ndarray = field(repr=False)
    nonzeros: np.ndarray = field(init=False, repr=False)
    distinct: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shape = tuple(int(d) for d in self.kernel_shape)
        if len(shape) != 3 or shape[1] != shape[2] or min(shape) < 1:
            raise EncodingError(f"kernel shape must be (N, K, K) with N, K >= 1, got {shape}")
        object.__setattr__(self, "kernel_shape", shape)
        given = {name: _stream(getattr(self, name)) for name in (*_WIDTHS, "qtable_values")}
        for name in ("stream_offsets", "qtable_offsets"):  # unsigned diffs would wrap
            given[name] = given[name].astype(np.int64, copy=False)
        self._check(given)
        for name, array in given.items():
            width = _WIDTHS.get(name) or narrowest_int(array)
            object.__setattr__(self, name, _frozen(array, width))
        object.__setattr__(self, "nonzeros", _frozen(np.diff(self.stream_offsets)))
        kernels = np.repeat(np.arange(self.out_channels), np.diff(self.qtable_offsets))
        _, kernels, _, first = _value_runs(kernels, self.qtable_values)
        distinct = np.bincount(kernels[first], minlength=self.out_channels)
        object.__setattr__(self, "distinct", _frozen(distinct))

    def _check(self, given: Dict[str, np.ndarray]) -> None:
        """Vectorized structural checks of the given streams, before they are
        narrowed; raise :class:`EncodingError`."""

        def fail(message: str) -> None:
            raise EncodingError(f"layer {self.name!r}: {message}")

        indices, values, counts = given["indices"], given["qtable_values"], given["qtable_counts"]
        streams, tables = given["stream_offsets"], given["qtable_offsets"]
        if values.size != counts.size:
            fail(f"{values.size} Q-Table VALs but {counts.size} NUMs")
        if streams.size == 0 or streams.size != tables.size:
            fail("stream and Q-Table offsets need one entry per kernel plus one")
        for offsets, total, what in (
            (streams, indices.size, "stream"),
            (tables, values.size, "Q-Table"),
        ):
            if offsets[0] != 0 or offsets[-1] != total or (np.diff(offsets) < 0).any():
                fail(f"{what} offsets do not rise monotonically from 0 to {total}")
        if counts.size and not (1 <= int(counts.min()) and int(counts.max()) <= MAX_ENTRY_COUNT):
            fail(f"a Q-Table NUM lies outside [1, {MAX_ENTRY_COUNT}]")
        if (values == 0).any():
            fail("a Q-Table VAL is zero; zero weights are never encoded")
        if values.size and int(values.max()) > np.iinfo(np.int64).max:
            fail("a Q-Table VAL overflows int64 (qtable_values)")
        width = self.kernel_width
        if width - 1 > MAX_PACKED_INDEX:
            fail(f"kernel of {width} weights overflows the 16-bit index width")
        if indices.size and not (0 <= int(indices.min()) and int(indices.max()) < width):
            fail(f"an index lies outside the kernel's {width} weights")
        ends = _offsets(counts)
        sums = ends[tables[1:]] - ends[tables[:-1]]
        lengths = np.diff(streams)
        bad = np.flatnonzero(sums != lengths)
        if bad.size:
            m = bad[0]
            fail(f"kernel {m}: Q-Table counts sum to {sums[m]} but {lengths[m]} indices given")

    @property
    def out_channels(self) -> int:
        """Kernels in the layer (one per output channel)."""
        return int(self.stream_offsets.size - 1)

    @property
    def kernel_width(self) -> int:
        """Weights per kernel, N*K*K: the packed index range."""
        n, k, _ = self.kernel_shape
        return n * k * k

    @property
    def nonzero_count(self) -> int:
        return int(self.indices.size)

    @property
    def qtable_entries(self) -> int:
        return int(self.qtable_values.size)

    @property
    def encoded_bytes(self) -> int:
        """Total DDR footprint of the layer's encoded weights."""
        return (
            KERNEL_HEADER_BYTES * self.out_channels
            + QT_ENTRY_BYTES * self.qtable_entries
            + WT_ENTRY_BYTES * self.nonzero_count
        )

    @property
    def max_wt_entries_per_kernel(self) -> int:
        """Deepest per-kernel index stream (sizes the WT-Buffer depth D_w)."""
        return int(self.nonzeros.max(initial=0))

    @property
    def max_qtable_entries_per_kernel(self) -> int:
        """Deepest per-kernel Q-Table (sizes the Q-Table depth D_q)."""
        return int(np.diff(self.qtable_offsets).max(initial=0))

    def dense_codes(self, dtype=np.int64) -> np.ndarray:
        """The weight codes as a dense (M, N*K*K) matrix, in one scatter."""
        dense = np.zeros((self.out_channels, self.kernel_width), dtype=dtype)
        rows = np.repeat(np.arange(self.out_channels), self.nonzeros)
        dense[rows, self.indices] = np.repeat(self.qtable_values, self.qtable_counts)
        return dense

    @cached_property
    def kernels(self) -> Tuple[EncodedKernel, ...]:
        """Per-kernel views, built on first access, for the walkers that step
        through one kernel (address generator, CU, emulation, the ABM
        reference loop). Set-up reads the flat arrays."""
        entries = list(map(QTableEntry, self.qtable_values.tolist(), self.qtable_counts.tolist()))
        s, t, shape = self.stream_offsets.tolist(), self.qtable_offsets.tolist(), self.kernel_shape
        return tuple(
            EncodedKernel(tuple(entries[t[m] : t[m + 1]]), self.indices[s[m] : s[m + 1]], shape)
            for m in range(self.out_channels)
        )


def encode_layer(name: str, weight_codes: np.ndarray) -> EncodedLayer:
    """Encode a whole layer's (M, N, K, K) integer weight tensor.

    FC weights may be given as (M, N) and are read as (M, N, 1, 1). The
    nonzeros go to :func:`encode_nonzeros`. Raises if a packed index would
    overflow the 16-bit WT-Buffer width.
    """
    codes = np.asarray(weight_codes)
    if codes.ndim == 2:  # FC weights (M, N) -> (M, N, 1, 1)
        codes = codes.reshape(codes.shape[0], codes.shape[1], 1, 1)
    if codes.ndim != 4:
        raise ValueError(f"layer codes must be (M, N, K, K), got shape {codes.shape}")
    if not np.issubdtype(codes.dtype, np.integer):
        raise TypeError("kernel codes must be integers")
    flat = codes.reshape(-1)
    nonzero = np.flatnonzero(flat)
    return encode_nonzeros(name, codes.shape, nonzero, flat[nonzero])


def encode_nonzeros(
    name: str, shape: Tuple[int, int, int, int], positions: np.ndarray, codes: np.ndarray
) -> EncodedLayer:
    """Encode an (M, N, K, K) layer given only its nonzero weight codes.

    ``positions`` are ascending flat positions in the C-ordered layer and
    ``codes`` the nonzero integer codes there. One stable sort by (kernel,
    value) groups every kernel's positions by value, ascending within each
    value; runs longer than the 8-bit NUM field split into continuation
    Q-Table entries.
    """
    out_channels, *kernel_shape = shape
    width = int(np.prod(kernel_shape))
    kernels = positions // width
    # Stable, so positions stay ascending inside each (kernel, value) run.
    order, kernels, values, run_start = _value_runs(
        kernels, codes.astype(narrowest_int(codes), copy=False)
    )
    indices = positions[order] - kernels * width
    starts = np.flatnonzero(run_start)
    rank = np.arange(values.size) - np.repeat(starts, np.diff(starts, append=values.size))
    entries = np.flatnonzero(rank % MAX_ENTRY_COUNT == 0)
    return EncodedLayer(
        name=name,
        kernel_shape=kernel_shape,
        indices=indices,
        qtable_values=values[entries],
        qtable_counts=np.diff(entries, append=values.size),
        stream_offsets=_offsets(np.bincount(kernels, minlength=out_channels)),
        qtable_offsets=_offsets(np.bincount(kernels[entries], minlength=out_channels)),
    )


def encode_kernel(kernel_codes: np.ndarray) -> EncodedKernel:
    """Encode one kernel's (N, K, K) integer weight codes (FC: (N, 1, 1)).

    The kernel view of a one-kernel :func:`encode_layer`.
    """
    codes = np.asarray(kernel_codes)
    if codes.ndim != 3:
        raise ValueError(f"kernel codes must be (N, K, K), got {codes.shape}")
    return encode_layer("kernel", codes[None]).kernels[0]


def decode_kernel(encoded: EncodedKernel) -> np.ndarray:
    """Reconstruct the dense integer kernel from its encoding."""
    flat = np.zeros(int(np.prod(encoded.kernel_shape)), dtype=np.int64)
    for value, block in encoded.value_groups():
        flat[block] = value
    return flat.reshape(encoded.kernel_shape)
