"""Tests for the sparse weight encoding (paper Figure 4)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.abm import ConvGeometry
from repro.core.encoding import (
    KERNEL_HEADER_BYTES,
    MAX_ENTRY_COUNT,
    QT_ENTRY_BYTES,
    WT_ENTRY_BYTES,
    EncodedKernel,
    EncodingError,
    QTableEntry,
    decode_kernel,
    encode_kernel,
    encode_layer,
    narrowest_int,
    pack_index,
    unpack_index,
)
from repro.core.plan import LayerPlan
from tests.conftest import decode_layer


def distinct_values(encoded: EncodedKernel) -> int:
    """Distinct nonzero values of a kernel: its multiplies per output pixel."""
    return len({entry.value for entry in encoded.qtable})


def reference_encode_kernel(kernel_codes):
    """The per-kernel encoder loop, kept as the oracle of :func:`encode_layer`.

    Returns the kernel's Q-Table as (VAL, NUM) pairs and its WT-Buffer
    index stream: positions grouped by ascending value, sorted inside each
    group, and a group longer than 255 split across several entries.
    """
    flat = np.asarray(kernel_codes).reshape(-1)
    nonzero_positions = np.flatnonzero(flat)
    qtable = []
    blocks = []
    if nonzero_positions.size:
        values = flat[nonzero_positions]
        order = np.argsort(values, kind="stable")
        sorted_positions = nonzero_positions[order]
        sorted_values = values[order]
        boundaries = np.flatnonzero(np.diff(sorted_values)) + 1
        for block, value_block in zip(
            np.split(sorted_positions, boundaries), np.split(sorted_values, boundaries)
        ):
            value = int(value_block[0])
            for start in range(0, block.size, MAX_ENTRY_COUNT):
                chunk = block[start : start + MAX_ENTRY_COUNT]
                qtable.append((value, int(chunk.size)))
                blocks.append(np.sort(chunk))
    indices = np.concatenate(blocks).astype(np.int64) if blocks else np.empty(0, np.int64)
    return qtable, indices


#: Codes the differential draws from: small 8-bit-like values and values
#: near +-2**62, where any combined (kernel, value) sort key would overflow.
_CODES = st.sampled_from(
    [-3, -1, 1, 2, 7, -128, 127, 2**62, -(2**62), 2**62 - 1, 1 - 2**62]
)


@st.composite
def layer_codes(draw):
    """(codes, groups): conv (M, N, K, K) or 2-D FC (M, N) integer weights
    with a small value alphabet, zero kernels and constant kernels."""
    groups = draw(st.integers(1, 3))
    kernels = groups * draw(st.integers(0, 3))
    if draw(st.booleans()):
        # Up to 65,536 weights wide: indices reach the top of the 16-bit range.
        width = st.one_of(st.integers(1, 40), st.integers(300, 700), st.integers(65_000, 65_536))
        shape = (kernels, draw(width))
    else:
        k = draw(st.sampled_from([1, 2, 3]))
        shape = (kernels, draw(st.integers(1, 40)), k, k)
    alphabet = draw(st.lists(_CODES, min_size=1, max_size=2))
    density = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.where(rng.random(shape) < density, rng.choice(alphabet, size=shape), 0)
    if kernels and draw(st.booleans()):
        codes[draw(st.integers(0, kernels - 1))] = 0
    if kernels and draw(st.booleans()):
        # One value everywhere: a run past 255 once the kernel is that wide.
        codes[draw(st.integers(0, kernels - 1))] = draw(_CODES)
    return codes.astype(np.int64), groups


class TestPackIndex:
    def test_roundtrip(self):
        for n in (0, 3, 100):
            for k in (0, 1, 2):
                for k2 in (0, 1, 2):
                    packed = pack_index(n, k, k2, kernel=3)
                    assert unpack_index(packed, kernel=3) == (n, k, k2)

    def test_matches_flat_order(self):
        """Packed index equals the position in the flattened (N,K,K) tensor."""
        shape = (4, 3, 3)
        flat = np.arange(np.prod(shape)).reshape(shape)
        for n in range(4):
            for k in range(3):
                for k2 in range(3):
                    assert pack_index(n, k, k2, 3) == flat[n, k, k2]


class TestQTableEntry:
    def test_rejects_zero_value(self):
        with pytest.raises(ValueError):
            QTableEntry(value=0, count=1)

    def test_rejects_oversize_count(self):
        with pytest.raises(ValueError):
            QTableEntry(value=1, count=MAX_ENTRY_COUNT + 1)


class TestEncodeKernel:
    def test_empty_kernel(self):
        encoded = encode_kernel(np.zeros((2, 3, 3), dtype=np.int64))
        assert encoded.nonzero_count == 0
        assert distinct_values(encoded) == 0
        assert decode_kernel(encoded).tolist() == np.zeros((2, 3, 3)).tolist()

    def test_simple_roundtrip(self):
        kernel = np.array([[[0, 2, 0], [2, 0, -1], [0, 0, 3]]], dtype=np.int64)
        encoded = encode_kernel(kernel)
        assert encoded.nonzero_count == 4
        assert distinct_values(encoded) == 3
        assert np.array_equal(decode_kernel(encoded), kernel)

    def test_stream_is_grouped_by_value(self):
        kernel = np.array([[[1, 2, 1], [2, 1, 0], [0, 2, 1]]], dtype=np.int64)
        encoded = encode_kernel(kernel)
        groups = list(encoded.value_groups())
        values = [value for value, _ in groups]
        assert values == sorted(values)
        # Indices inside a group are sorted (sequential buffer reads).
        for _, block in groups:
            assert np.all(np.diff(block) >= 0)

    def test_count_splitting_over_255(self):
        """A value with > 255 occurrences must split Q-Table entries."""
        kernel = np.zeros((300, 1, 1), dtype=np.int64)
        kernel[:260] = 7
        encoded = encode_kernel(kernel)
        assert encoded.qtable_entries == 2
        assert distinct_values(encoded) == 1
        assert encoded.nonzero_count == 260
        assert np.array_equal(decode_kernel(encoded), kernel)

    def test_rejects_rectangular_kernel(self):
        with pytest.raises(ValueError):
            encode_kernel(np.zeros((2, 3, 2), dtype=np.int64))

    def test_rejects_float_kernel(self):
        with pytest.raises(TypeError):
            encode_kernel(np.zeros((2, 3, 3)))

    def test_rejects_index_overflow(self):
        # 66000 x 1 x 1 would need a 17-bit index.
        with pytest.raises(ValueError):
            encode_kernel(np.zeros((66000, 1, 1), dtype=np.int64))

    def test_encoded_bytes_formula(self):
        kernel = np.array([[[0, 2, 0], [2, 0, -1], [0, 0, 3]]], dtype=np.int64)
        encoded = encode_kernel(kernel)
        expected = (
            KERNEL_HEADER_BYTES + 3 * QT_ENTRY_BYTES + 4 * WT_ENTRY_BYTES
        )
        assert encoded.encoded_bytes == expected

    def test_mismatched_qtable_rejected(self):
        with pytest.raises(ValueError):
            EncodedKernel(
                qtable=(QTableEntry(1, 2),),
                indices=np.array([0], dtype=np.int64),
                kernel_shape=(1, 3, 3),
            )

    @given(
        hnp.arrays(
            dtype=np.int64,
            shape=st.tuples(
                st.integers(1, 6), st.just(3), st.just(3)
            ),
            elements=st.integers(-8, 8),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, kernel):
        """decode(encode(w)) == w for any integer kernel."""
        encoded = encode_kernel(kernel)
        assert np.array_equal(decode_kernel(encoded), kernel)
        assert encoded.nonzero_count == np.count_nonzero(kernel)
        nonzero = kernel[kernel != 0]
        assert distinct_values(encoded) == np.unique(nonzero).size


class TestLayerEncoderDifferential:
    """The one-sort layer encoder against the per-kernel oracle."""

    @given(layer_codes())
    @settings(max_examples=150, deadline=None)
    def test_flat_arrays_match_reference(self, drawn):
        codes, groups = drawn
        layer = encode_layer("d", codes)
        kernels = codes.reshape(codes.shape[0], layer.kernel_width)
        reference = [reference_encode_kernel(kernel) for kernel in kernels]
        qtable = [entry for table, _ in reference for entry in table]
        assert layer.qtable_values.tolist() == [value for value, _ in qtable]
        assert layer.qtable_counts.tolist() == [count for _, count in qtable]
        streams = [stream for _, stream in reference]
        assert np.array_equal(
            layer.indices, np.concatenate([np.empty(0, np.int64), *streams])
        )
        assert np.diff(layer.stream_offsets).tolist() == [s.size for s in streams]
        assert np.diff(layer.qtable_offsets).tolist() == [len(t) for t, _ in reference]
        assert layer.nonzeros.tolist() == [np.count_nonzero(k) for k in kernels]
        assert layer.distinct.tolist() == [len({v for v, _ in t}) for t, _ in reference]
        if codes.shape[0]:
            assert np.array_equal(decode_layer(layer).reshape(kernels.shape), kernels)
        # The compiled plan reads the same arrays, grouped conv included.
        k = layer.kernel_shape[1]
        plan = LayerPlan(layer, ConvGeometry(kernel=k, groups=groups))
        assert plan.accumulates_per_pixel == sum(s.size for s in streams)
        assert plan.multiplies_per_pixel == len(qtable)
        assert plan.sum_bound(1) == max(
            [sum(abs(v) * c for v, c in table) for table, _ in reference], default=0
        )
        assert np.array_equal(plan._sparse_weights(np.int64).toarray(), kernels)
        grid = codes.reshape((codes.shape[0], *layer.kernel_shape)).transpose(2, 3, 1, 0)
        pixel_major = grid.reshape(layer.kernel_width, codes.shape[0])
        assert np.array_equal(plan._weights(np.int64), pixel_major)


class TestLayerValidation:
    """Every structural check of EncodedLayer raises EncodingError."""

    @pytest.fixture
    def layer(self):
        codes = np.zeros((3, 2, 3, 3), dtype=np.int64)
        codes[0, 0, 0] = [1, 1, 2]
        codes[2, 1, 2] = [-4, 0, 5]
        return encode_layer("v", codes)

    def test_arrays_are_read_only(self, layer):
        for array in (
            layer.indices,
            layer.qtable_values,
            layer.qtable_counts,
            layer.stream_offsets,
            layer.qtable_offsets,
            layer.nonzeros,
            layer.distinct,
        ):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_caller_arrays_are_copied(self, layer):
        indices = layer.indices.copy()
        rebuilt = replace(layer, indices=indices)
        indices[0] = 17
        assert rebuilt.indices[0] == layer.indices[0]

    def test_non_monotone_offsets(self, layer):
        with pytest.raises(EncodingError, match="stream offsets"):
            replace(layer, stream_offsets=[0, 4, 3, 5])
        with pytest.raises(EncodingError, match="Q-Table offsets"):
            replace(layer, qtable_offsets=[0, 1, 2, 9])

    def test_num_sum_must_match_stream_length(self, layer):
        with pytest.raises(EncodingError, match="kernel 0: Q-Table counts sum to 3"):
            replace(layer, stream_offsets=[0, 2, 2, 5])

    # 257 wraps to 1 in uint8: the NUM check must see it before the cast.
    @pytest.mark.parametrize("count", [0, MAX_ENTRY_COUNT + 1, 257])
    def test_num_range(self, layer, count):
        counts = layer.qtable_counts.astype(np.int64)
        counts[1] = count
        with pytest.raises(EncodingError, match="NUM"):
            replace(layer, qtable_counts=counts)

    def test_zero_val(self, layer):
        values = layer.qtable_values.copy()
        values[-1] = 0
        with pytest.raises(EncodingError, match="VAL is zero"):
            replace(layer, qtable_values=values)

    def test_val_beyond_int64(self, layer):
        """A uint64 VAL above int64 fails as EncodingError, not StopIteration."""
        values = layer.qtable_values.astype(np.uint64)
        values[-1] = 2**63
        with pytest.raises(EncodingError, match="qtable_values"):
            replace(layer, qtable_values=values)

    def test_narrowest_int_overflow(self):
        with pytest.raises(OverflowError, match="overflow int64"):
            narrowest_int(np.array([2**63], np.uint64))

    @pytest.mark.parametrize("index", [-1, 18, 0xFFFF])
    def test_index_outside_kernel(self, layer, index):
        indices = layer.indices.astype(np.int64)
        indices[0] = index
        with pytest.raises(EncodingError, match="outside the kernel"):
            replace(layer, indices=indices)

    def test_index_is_checked_before_narrowing(self):
        """Index -1 would wrap to 65,535, inside a 65,536-wide kernel."""
        codes = np.zeros((1, 65_536), dtype=np.int64)
        codes[0, [3, 40_000, 65_535]] = 1
        layer = encode_layer("wide", codes)
        indices = layer.indices.astype(np.int64)
        indices[0] = -1
        with pytest.raises(EncodingError, match="outside the kernel"):
            replace(layer, indices=indices)

    def test_float_stream_is_rejected_not_truncated(self, layer):
        with pytest.raises(EncodingError, match="integers"):
            replace(layer, indices=layer.indices + 0.5)

    @pytest.mark.parametrize("shape", [(2, 3, 2), (0, 3, 3), (2, 0, 0), (65537, 1, 1)])
    def test_bad_kernel_shape(self, layer, shape):
        with pytest.raises(EncodingError):
            replace(layer, kernel_shape=shape)


class TestEncodeLayer:
    def test_layer_roundtrip(self, rng):
        codes = rng.integers(-4, 5, size=(6, 3, 3, 3))
        encoded = encode_layer("layer", codes)
        assert len(encoded.kernels) == 6
        assert np.array_equal(decode_layer(encoded), codes)

    def test_fc_2d_weights_accepted(self, rng):
        codes = rng.integers(-4, 5, size=(5, 16))
        encoded = encode_layer("fc", codes)
        decoded = decode_layer(encoded)
        assert decoded.shape == (5, 16, 1, 1)
        assert np.array_equal(decoded.reshape(5, 16), codes)

    def test_aggregates(self, rng):
        codes = rng.integers(-4, 5, size=(4, 2, 3, 3))
        encoded = encode_layer("layer", codes)
        assert encoded.nonzero_count == np.count_nonzero(codes)
        assert encoded.encoded_bytes == sum(k.encoded_bytes for k in encoded.kernels)
        assert encoded.max_wt_entries_per_kernel == max(
            np.count_nonzero(codes[m]) for m in range(4)
        )

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            encode_layer("bad", np.zeros((2, 2, 2, 2, 2), dtype=np.int64))


class TestCacheThreadSafety:
    """The plan cache is shared process-wide; hammer it from threads and
    check every caller sees one consistent entry."""

    def test_concurrent_plan_compile(self, rng):
        import threading

        from repro.core.abm import ConvGeometry
        from repro.core.plan import _plans, compile_layer_plan

        _plans.clear()
        encoded = encode_layer("shared", rng.integers(-4, 5, size=(6, 3, 3, 3)))
        geometry = ConvGeometry(kernel=3)
        plans = [None] * 8
        barrier = threading.Barrier(len(plans))

        def worker(i):
            barrier.wait()
            plans[i] = compile_layer_plan(encoded, geometry)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(p is plans[0] for p in plans)
        assert _plans.stats().size == 1
        _plans.clear()
