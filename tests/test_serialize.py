"""Tests for the encoded-model binary format."""

import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.encoding import encode_layer
from repro.core.serialize import (
    SerializationError,
    dumps,
    load_model,
    loads,
    save_model,
)
from repro.core.serialize import FORMAT_VERSION, MAGIC
from tests.conftest import decode_layer, sparse_weight_codes

#: sha256 of ``dumps(_pinned_layers())``, recorded with the per-kernel
#: encoder: the flat-array encoder must write the same bytes.
PINNED_SHA256 = "26fce0032020436c330c3b3ea0c03788c876139a1c6ecfc6ff687257d8d0c3c2"


def _pinned_layers():
    """A fixed conv + FC model with an all-zero kernel and a NUM split."""
    rng = np.random.default_rng(2019)
    conv = sparse_weight_codes(rng, shape=(6, 4, 3, 3), density=0.4, value_range=127)
    conv[3] = 0
    fc = sparse_weight_codes(rng, shape=(4, 640), density=0.5, value_range=3)
    fc[1, :300] = 5
    return [encode_layer("conv1", conv), encode_layer("fc2", fc)]


_PINNED_BLOB = dumps(_pinned_layers())


def _blob(name=b"x", shape=(1, 3, 3), kernels=(([(1, 1)], [0]),), trailer=b""):
    """A one-layer blob written field by field; ``kernels`` holds
    (Q-Table (VAL, NUM) pairs, index stream) per kernel."""
    out = MAGIC + struct.pack("<HHB", FORMAT_VERSION, 1, len(name)) + name
    out += struct.pack("<IIII", *shape, len(kernels))
    for qtable, indices in kernels:
        out += struct.pack("<HH", len(indices), len(qtable))
        out += b"".join(struct.pack("<bB", value, count) for value, count in qtable)
        out += struct.pack(f"<{len(indices)}H", *indices)
    return out + trailer


@pytest.fixture
def layers(rng):
    return [
        encode_layer("conv1", sparse_weight_codes(rng, shape=(4, 3, 3, 3))),
        encode_layer("fc2", sparse_weight_codes(rng, shape=(6, 16, 1, 1), density=0.2)),
    ]


class TestRoundTrip:
    def test_bytes_roundtrip(self, layers):
        blob = dumps(layers)
        recovered = loads(blob)
        assert [l.name for l in recovered] == ["conv1", "fc2"]
        for original, restored in zip(layers, recovered):
            assert np.array_equal(decode_layer(original), decode_layer(restored))

    def test_file_roundtrip(self, layers, tmp_path):
        path = str(tmp_path / "model.abms")
        size = save_model(layers, path)
        assert size > 0
        recovered = load_model(path)
        assert np.array_equal(decode_layer(recovered[0]), decode_layer(layers[0]))

    def test_blob_size_tracks_encoding(self, layers):
        """The wire format carries the hardware widths: ~2 bytes per entry."""
        blob = dumps(layers)
        payload = sum(l.encoded_bytes for l in layers)
        # Header overhead is small and bounded.
        assert payload <= len(blob) <= payload + 64 + 2 * sum(
            l.qtable_entries for l in layers
        )

    def test_wide_fc_layer_roundtrips_every_array(self, rng):
        """Kernels 65,536 wide: indices up to 65,535 survive the u16 wire."""
        codes = sparse_weight_codes(rng, shape=(3, 65_536), density=0.05, value_range=127)
        codes[1, 65_535] = -128
        codes[2, :300] = 7  # one value past 255 occurrences: a NUM split
        layer = encode_layer("wide", codes)
        assert layer.indices.max() == 65_535 and (layer.indices >= 32_768).any()
        restored = loads(dumps([layer]))[0]
        assert restored.kernel_shape == layer.kernel_shape
        for stream in (
            "indices", "qtable_values", "qtable_counts", "stream_offsets",
            "qtable_offsets", "nonzeros", "distinct",
        ):
            original, loaded = getattr(layer, stream), getattr(restored, stream)
            assert loaded.dtype == original.dtype, stream
            assert np.array_equal(loaded, original), stream

    @given(
        hnp.arrays(
            dtype=np.int64,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 3), st.just(3), st.just(3)),
            elements=st.integers(-8, 8),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, codes):
        if not codes.any():
            codes[0, 0, 0, 0] = 1  # fully-empty kernels are legal; keep variety
        layer = encode_layer("p", codes)
        recovered = loads(dumps([layer]))[0]
        assert np.array_equal(decode_layer(recovered), codes)


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            loads(b"NOPE" + b"\x00" * 16)

    def test_truncated_header(self):
        with pytest.raises(SerializationError):
            loads(b"ABMS\x01")

    def test_wrong_version(self, layers):
        blob = bytearray(dumps(layers))
        blob[4] = 99
        with pytest.raises(SerializationError):
            loads(bytes(blob))

    def test_truncated_stream(self, layers):
        blob = dumps(layers)
        with pytest.raises(SerializationError):
            loads(blob[: len(blob) - 3])

    def test_corrupted_qtable_count_detected(self, layers):
        """A count that no longer matches the stream must not decode."""
        blob = bytearray(dumps(layers))
        # Locate the first kernel's total-count field and inflate it.
        offset = 4 + 4 + 1 + len("conv1") + 16
        blob[offset] = 0xFF
        blob[offset + 1] = 0xFF
        with pytest.raises(SerializationError):
            loads(bytes(blob))

    def test_empty_layer_rejected(self):
        empty = encode_layer("empty", np.zeros((0, 1, 3, 3), dtype=np.int64))
        with pytest.raises(SerializationError):
            dumps([empty])

    def test_stream_write_read(self, layers):
        from repro.core.serialize import dump_layers, load_layers

        buffer = io.BytesIO()
        dump_layers(layers, buffer)
        buffer.seek(0)
        assert [l.name for l in load_layers(buffer)] == ["conv1", "fc2"]


class TestPinnedBytes:
    def test_digest_is_unchanged(self):
        layers = _pinned_layers()
        assert (layers[0].nonzeros == 0).any()
        assert (layers[1].qtable_counts == 255).any()
        assert hashlib.sha256(_PINNED_BLOB).hexdigest() == PINNED_SHA256

    def test_reserialization_is_identity(self):
        assert dumps(loads(_PINNED_BLOB)) == _PINNED_BLOB


class TestMalformedBlobs:
    """Every malformed blob raises SerializationError, nothing else."""

    def test_hand_written_blob_loads(self):
        (layer,) = loads(_blob())
        assert layer.name == "x"
        assert decode_layer(layer)[0, 0, 0].tolist() == [1, 0, 0]

    def test_trailing_bytes(self):
        with pytest.raises(SerializationError, match="trailing"):
            loads(_blob(trailer=b"\x00"))
        with pytest.raises(SerializationError, match="trailing"):
            loads(_PINNED_BLOB + b"ABMS")

    def test_truncated_name(self):
        blob = MAGIC + struct.pack("<HHB", FORMAT_VERSION, 1, 10) + b"conv"
        with pytest.raises(SerializationError, match="layer name"):
            loads(blob)

    @pytest.mark.parametrize("name", [b"\xff\xfe", "\u00e9".encode()[:1]])
    def test_non_utf8_name(self, name):
        with pytest.raises(SerializationError, match="UTF-8"):
            loads(_blob(name=name))

    @pytest.mark.parametrize("index", [9, 0xFFFF])
    def test_index_outside_kernel(self, index):
        with pytest.raises(SerializationError, match="outside the kernel"):
            loads(_blob(kernels=(([(1, 1)], [index]),)))

    @pytest.mark.parametrize("shape", [(2, 3, 2), (0, 3, 3), (1, 0, 0), (70000, 1, 1)])
    def test_bad_kernel_shape(self, shape):
        with pytest.raises(SerializationError, match="kernel"):
            loads(_blob(shape=shape))

    def test_no_kernels(self):
        with pytest.raises(SerializationError, match="no kernels"):
            loads(_blob(kernels=()))

    @pytest.mark.parametrize("qtable", [[(0, 1)], [(1, 0)], [(1, 2)]])
    def test_bad_qtable(self, qtable):
        with pytest.raises(SerializationError):
            loads(_blob(kernels=((qtable, [0]),)))

    def test_val_outside_eight_bits_is_not_written(self):
        layer = encode_layer("wide", np.full((1, 1, 1, 1), 300, dtype=np.int64))
        with pytest.raises(SerializationError, match="8 bits"):
            dumps([layer])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_truncated_or_flipped_blob(self, data):
        """A damaged blob either loads and re-serializes to the same bytes,
        or raises SerializationError."""
        blob = bytearray(_PINNED_BLOB)
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            for _ in range(data.draw(st.integers(1, 3), label="flips")):
                position = data.draw(st.integers(0, len(blob) - 1), label="byte")
                blob[position] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        try:
            layers = loads(bytes(blob))
        except SerializationError:
            return
        assert dumps(layers) == bytes(blob)
