"""Tests for FIFOs, on-chip buffers and the address generator."""

import numpy as np
import pytest

from repro.core.encoding import encode_kernel, encode_layer
from repro.hw.address_gen import AddressGenerator
from repro.hw.buffers import (
    buffer_report,
    ft_buffer_requirement,
    qtable_requirement,
    wt_buffer_requirement,
)
from repro.hw.config import AcceleratorConfig
from repro.hw.fifo import Fifo, FifoOverflow, FifoUnderflow
from tests.conftest import sparse_weight_codes


class TestFifo:
    def test_push_pop_order(self):
        fifo = Fifo(depth=4)
        fifo.push(0, 10)
        fifo.push(1, 20)
        assert fifo.pop() == (0, 10)
        assert fifo.pop() == (1, 20)

    def test_overflow(self):
        fifo = Fifo(depth=1)
        fifo.push(0, 1)
        assert not fifo.try_push(0, 2)
        assert fifo.push_stalls == 1
        with pytest.raises(FifoOverflow):
            fifo.push(0, 3)

    def test_underflow(self):
        with pytest.raises(FifoUnderflow):
            Fifo(depth=2).pop()

    def test_occupancy_tracking(self):
        fifo = Fifo(depth=3)
        for i in range(3):
            fifo.push(i, i)
        assert fifo.max_occupancy == 3
        assert fifo.full
        fifo.pop()
        assert not fifo.full
        assert fifo.peek() == (1, 1)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            Fifo(depth=0)


class TestAddressGenerator:
    def test_addresses_match_packed_indices(self, rng):
        kernel = sparse_weight_codes(rng, shape=(1, 4, 3, 3), density=0.4)[0]
        encoded = encode_kernel(kernel)
        gen = AddressGenerator(kernel_size=3, stride=2)
        addresses = list(gen.addresses(encoded, out_row=1, out_col=2))
        assert len(addresses) == encoded.nonzero_count
        for address in addresses:
            # Window anchored at (stride*row, stride*col).
            assert 2 <= address.row <= 4
            assert 4 <= address.col <= 6
            assert 0 <= address.channel < 4

    def test_gather_reproduces_inner_product(self, rng):
        """Address-generated reads x Q-Table values == direct dot product."""
        kernel = sparse_weight_codes(rng, shape=(1, 3, 3, 3), density=0.5)[0]
        encoded = encode_kernel(kernel)
        window = rng.integers(-16, 16, size=(3, 5, 5))
        gen = AddressGenerator(kernel_size=3, stride=1)
        values, groups = gen.gather(encoded, window, out_row=1, out_col=1)
        total = 0
        for g, (weight, block) in enumerate(encoded.value_groups()):
            total += weight * values[groups == g].sum()
        expected = int(np.sum(window[:, 1:4, 1:4] * kernel))
        assert total == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            AddressGenerator(kernel_size=0)


class TestBufferRequirements:
    @pytest.fixture
    def encoded_layers(self, rng):
        return [
            encode_layer("a", sparse_weight_codes(rng, shape=(4, 8, 3, 3), density=0.4)),
            encode_layer("b", sparse_weight_codes(rng, shape=(6, 4, 3, 3), density=0.6)),
        ]

    def test_wt_requirement_is_deepest_kernel(self, encoded_layers):
        config = AcceleratorConfig(n_cu=1, n_knl=2, n_share=2, s_ec=4, d_w=256)
        requirement = wt_buffer_requirement(config, encoded_layers)
        deepest = max(l.max_wt_entries_per_kernel for l in encoded_layers)
        assert requirement.required_depth == deepest
        assert requirement.fits

    def test_qtable_requirement(self, encoded_layers):
        config = AcceleratorConfig(n_cu=1, n_knl=2, n_share=2, s_ec=4, d_q=64)
        requirement = qtable_requirement(config, encoded_layers)
        deepest = max(l.max_qtable_entries_per_kernel for l in encoded_layers)
        assert requirement.required_depth == deepest

    def test_undersized_buffer_flagged(self, encoded_layers):
        config = AcceleratorConfig(n_cu=1, n_knl=2, n_share=2, s_ec=4, d_w=2)
        assert not wt_buffer_requirement(config, encoded_layers).fits

    def test_ft_requirement(self):
        config = AcceleratorConfig(n_cu=1, n_knl=2, n_share=2, s_ec=4, d_f=128)
        requirement = ft_buffer_requirement(config)
        assert requirement.entry_bits == 32  # 8 * s_ec
        assert requirement.fits

    def test_m20k_mapping(self):
        config = AcceleratorConfig(n_cu=1, n_knl=2, n_share=2, s_ec=20, d_f=1024)
        requirement = ft_buffer_requirement(config)
        # 160-bit entries -> 4 width blocks; 1024 deep -> 2 depth blocks.
        assert requirement.m20k_blocks == 8

    def test_report_covers_all_buffers(self, encoded_layers):
        config = AcceleratorConfig(n_cu=1, n_knl=2, n_share=2, s_ec=4)
        names = [r.name for r in buffer_report(config, encoded_layers)]
        assert names == ["FT-Buffer", "WT-Buffer", "Q-Table"]
