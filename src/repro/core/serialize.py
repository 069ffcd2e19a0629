"""Binary serialization of encoded models.

A deployed accelerator consumes the encoded weights as a flat binary blob
streamed into the WT-Buffer and Q-Table; this module defines that artifact.
The on-wire layout mirrors the hardware widths of Figure 4 exactly — 16-bit
index entries, 16-bit Q-Table entries (8-bit VAL + 8-bit NUM), a 16-bit
per-kernel total — plus a small self-describing header so a host runtime
can validate and memory-map it.

Layout (little-endian)::

    magic   4s   b"ABMS"
    version u16  FORMAT_VERSION
    layers  u16
    per layer:
        name_len u8, name utf-8
        kernel_shape 3 x u32   (N, K, K)
        kernels u32
        per kernel:
            total u16          (nonzero count == index entries)
            qtable_entries u16
            qtable entries: (VAL i8, NUM u8) x qtable_entries
            indices: u16 x total
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, List, Sequence

import numpy as np

from .encoding import EncodedLayer, EncodingError

MAGIC = b"ABMS"
FORMAT_VERSION = 1

#: One Q-Table entry on the wire: 8-bit two's-complement VAL, 8-bit NUM.
_QTABLE_ENTRY = np.dtype([("value", "i1"), ("count", "u1")])


class SerializationError(ValueError):
    """Raised when a blob is malformed or version-incompatible."""


def _write_layer(stream: BinaryIO, layer: EncodedLayer) -> None:
    name = layer.name.encode("utf-8")
    if len(name) > 0xFF:
        raise SerializationError(f"layer name too long: {layer.name!r}")
    if not layer.out_channels:
        raise SerializationError(f"layer {layer.name!r} has no kernels")
    if layer.max_wt_entries_per_kernel > 0xFFFF:
        raise SerializationError(f"layer {layer.name!r} has a kernel stream over u16")
    values = layer.qtable_values
    if values.size and not (-128 <= values.min() and values.max() <= 127):
        raise SerializationError(f"layer {layer.name!r} has a VAL outside 8 bits")
    stream.write(struct.pack("<B", len(name)))
    stream.write(name)
    stream.write(struct.pack("<IIII", *layer.kernel_shape, layer.out_channels))
    headers = np.stack([layer.nonzeros, np.diff(layer.qtable_offsets)], 1).astype("<u2")
    qtable = np.empty(values.size, dtype=_QTABLE_ENTRY)
    qtable["value"] = values
    qtable["count"] = layer.qtable_counts
    indices = layer.indices.astype("<u2", copy=False)
    streams, tables = layer.stream_offsets.tolist(), layer.qtable_offsets.tolist()
    for m in range(layer.out_channels):
        stream.write(headers[m].tobytes())
        stream.write(qtable[tables[m] : tables[m + 1]].tobytes())
        stream.write(indices[streams[m] : streams[m + 1]].tobytes())


def _read(stream: BinaryIO, size: int, what: str) -> bytes:
    raw = stream.read(size)
    if len(raw) != size:
        raise SerializationError(f"truncated {what}")
    return raw


def _read_layer(stream: BinaryIO) -> EncodedLayer:
    (name_len,) = struct.unpack("<B", _read(stream, 1, "layer header"))
    try:
        name = _read(stream, name_len, "layer name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError(f"layer name is not UTF-8: {exc}") from exc
    *shape, kernels = struct.unpack("<IIII", _read(stream, 16, "layer shape record"))
    if not kernels:
        raise SerializationError(f"layer {name!r} has no kernels")
    headers, qtables, streams = [], [], []
    for _ in range(kernels):
        total, entries = struct.unpack("<HH", _read(stream, 4, "kernel header"))
        headers.append((total, entries))
        qtables.append(np.frombuffer(_read(stream, 2 * entries, "Q-Table"), _QTABLE_ENTRY))
        streams.append(np.frombuffer(_read(stream, 2 * total, "index stream"), "<u2"))
    qtable = np.concatenate(qtables)
    offsets = np.zeros((kernels + 1, 2), dtype=np.int64)
    np.cumsum(headers, axis=0, out=offsets[1:])
    try:
        return EncodedLayer(
            name=name,
            kernel_shape=tuple(shape),
            indices=np.concatenate(streams),
            qtable_values=qtable["value"],
            qtable_counts=qtable["count"],
            stream_offsets=offsets[:, 0],
            qtable_offsets=offsets[:, 1],
        )
    except EncodingError as exc:
        raise SerializationError(f"inconsistent layer record: {exc}") from exc


def dump_layers(layers: Sequence[EncodedLayer], stream: BinaryIO) -> None:
    """Serialize encoded layers to a binary stream."""
    if len(layers) > 0xFFFF:
        raise SerializationError("too many layers")
    stream.write(MAGIC)
    stream.write(struct.pack("<HH", FORMAT_VERSION, len(layers)))
    for layer in layers:
        _write_layer(stream, layer)


def load_layers(stream: BinaryIO) -> List[EncodedLayer]:
    """Deserialize encoded layers from a stream holding exactly one blob;
    any malformation, trailing bytes included, raises SerializationError."""
    if stream.read(4) != MAGIC:
        raise SerializationError("bad magic — not an ABM-SpConv model blob")
    version, layer_count = struct.unpack("<HH", _read(stream, 4, "file header"))
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {version}")
    layers = [_read_layer(stream) for _ in range(layer_count)]
    if stream.read(1):
        raise SerializationError("trailing bytes after the last layer")
    return layers


def dumps(layers: Sequence[EncodedLayer]) -> bytes:
    """Serialize to bytes."""
    buffer = io.BytesIO()
    dump_layers(layers, buffer)
    return buffer.getvalue()


def loads(blob: bytes) -> List[EncodedLayer]:
    """Deserialize from bytes."""
    return load_layers(io.BytesIO(blob))


def save_model(layers: Sequence[EncodedLayer], path: str) -> int:
    """Write a model blob to disk; returns its size in bytes."""
    blob = dumps(layers)
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)


def load_model(path: str) -> List[EncodedLayer]:
    """Read a model blob from disk."""
    with open(path, "rb") as handle:
        return load_layers(handle)
