"""Tests pinning the functional datapath emulation to the fast path."""

import numpy as np
import pytest

from repro.core.abm import ConvGeometry, abm_conv2d
from repro.core.encoding import encode_layer
from repro.hw.config import AcceleratorConfig
from repro.hw.emulation import emulate_layer
from tests.conftest import sparse_weight_codes


@pytest.fixture
def config():
    return AcceleratorConfig(n_cu=1, n_knl=4, n_share=4, s_ec=8, d_f=512)


class TestEmulation:
    @pytest.mark.parametrize(
        "stride,padding,groups",
        [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2)],
    )
    def test_matches_fast_path(self, rng, config, stride, padding, groups):
        weights = sparse_weight_codes(rng, shape=(4, 6 // groups, 3, 3), density=0.5)
        features = rng.integers(-32, 32, size=(6, 7, 7))
        geometry = ConvGeometry(kernel=3, stride=stride, padding=padding, groups=groups)
        encoded = encode_layer("t", weights)
        fast = abm_conv2d(features, encoded, geometry)
        slow = emulate_layer(features, encoded, geometry, config)
        assert np.array_equal(slow.output, fast.output)

    def test_with_bias(self, rng, config):
        weights = sparse_weight_codes(rng, shape=(3, 4, 3, 3), density=0.5)
        features = rng.integers(-16, 16, size=(4, 6, 6))
        bias = rng.integers(-50, 50, size=3)
        geometry = ConvGeometry(kernel=3)
        encoded = encode_layer("t", weights)
        fast = abm_conv2d(features, encoded, geometry, bias_codes=bias)
        slow = emulate_layer(features, encoded, geometry, config, bias_codes=bias)
        assert np.array_equal(slow.output, fast.output)

    def test_fifo_pushes_equal_multiplies(self, rng, config):
        """Every partial sum crosses the FIFO exactly once."""
        weights = sparse_weight_codes(rng, shape=(4, 4, 3, 3), density=0.5)
        features = rng.integers(-16, 16, size=(4, 6, 6))
        geometry = ConvGeometry(kernel=3)
        encoded = encode_layer("t", weights)
        fast = abm_conv2d(features, encoded, geometry)
        slow = emulate_layer(features, encoded, geometry, config)
        assert slow.fifo_pushes == fast.multiply_ops

    def test_fifo_depth_sufficient(self, rng, config):
        """The default FIFO depth never overflows in the lockstep drain."""
        weights = sparse_weight_codes(rng, shape=(6, 8, 3, 3), density=0.8)
        features = rng.integers(-16, 16, size=(8, 6, 6))
        encoded = encode_layer("t", weights)
        slow = emulate_layer(features, encoded, ConvGeometry(kernel=3), config)
        assert slow.max_fifo_occupancy <= max(2 * config.n_share, 4)

    def test_validation(self, rng, config):
        weights = sparse_weight_codes(rng, shape=(3, 4, 3, 3))
        encoded = encode_layer("t", weights)
        with pytest.raises(ValueError):
            emulate_layer(
                rng.integers(-4, 4, size=(4, 6)), encoded, ConvGeometry(kernel=3), config
            )
        with pytest.raises(ValueError):
            emulate_layer(
                rng.integers(-4, 4, size=(4, 6, 6)),
                encoded,
                ConvGeometry(kernel=3, groups=2),
                config,
            )
