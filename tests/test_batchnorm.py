"""Tests for batch normalization and conv/FC folding."""

import numpy as np
import pytest

from repro.nn.layers import BatchNorm, Conv2D, FullyConnected, ReLU, fold_batchnorm
from repro.nn.network import Network
from repro.nn.tensor import FeatureShape


def make_bn(channels, rng):
    return BatchNorm(
        "bn",
        channels,
        gamma=rng.uniform(0.5, 1.5, channels),
        beta=rng.normal(0, 0.2, channels),
        running_mean=rng.normal(0, 0.5, channels),
        running_var=rng.uniform(0.2, 2.0, channels),
    )


class TestBatchNorm:
    def test_normalizes_per_channel(self, rng):
        bn = BatchNorm(
            "bn", 2,
            running_mean=np.array([1.0, -2.0]),
            running_var=np.array([4.0, 1.0]),
            eps=1e-12,
        )
        features = np.ones((2, 2, 2))
        out = bn.forward(features)
        assert np.allclose(out[0], (1.0 - 1.0) / 2.0)
        assert np.allclose(out[1], (1.0 + 2.0) / 1.0)

    def test_identity_defaults(self, rng):
        bn = BatchNorm("bn", 3, eps=1e-12)
        features = rng.normal(size=(3, 4, 4))
        assert np.allclose(bn.forward(features), features)

    def test_shape_validation(self):
        bn = BatchNorm("bn", 3)
        with pytest.raises(ValueError):
            bn.output_shape(FeatureShape(4, 8, 8))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            BatchNorm("bn", 2, gamma=np.zeros(3))
        with pytest.raises(ValueError):
            BatchNorm("bn", 2, running_var=np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            BatchNorm("bn", 0)


class TestFolding:
    def test_conv_fold_exact(self, rng):
        conv = Conv2D("c", 3, 4, kernel=3, padding=1)
        conv.weights = rng.normal(size=conv.weights.shape)
        conv.bias[:] = rng.normal(size=4)
        bn = make_bn(4, rng)
        features = rng.normal(size=(3, 6, 6))
        expected = bn.forward(conv.forward(features))
        folded = fold_batchnorm([conv, bn])
        assert len(folded) == 1
        assert np.allclose(folded[0].forward(features), expected)

    def test_fc_fold_exact(self, rng):
        fc = FullyConnected("f", 10, 6)
        fc.weights = rng.normal(size=(6, 10))
        fc.bias[:] = rng.normal(size=6)
        bn = make_bn(6, rng)
        features = rng.normal(size=(10, 1, 1))
        expected = bn.forward(fc.forward(features))
        folded = fold_batchnorm([fc, bn])
        assert len(folded) == 1
        assert np.allclose(folded[0].forward(features), expected)

    def test_unfoldable_bn_kept(self, rng):
        bn = make_bn(3, rng)
        layers = fold_batchnorm([ReLU("r"), bn])
        assert len(layers) == 2
        assert isinstance(layers[1], BatchNorm)

    def test_whole_network_fold(self, rng):
        conv = Conv2D("c", 3, 4, kernel=3, padding=1)
        conv.weights = rng.normal(size=conv.weights.shape)
        bn = make_bn(4, rng)
        relu = ReLU("r")
        original = Network("n", FeatureShape(3, 8, 8), [conv, bn, relu])
        folded = Network("n-folded", FeatureShape(3, 8, 8), fold_batchnorm([conv, bn, relu]))
        x = rng.normal(size=(3, 8, 8))
        assert np.allclose(original.forward(x), folded.forward(x))
        assert all(not isinstance(l, BatchNorm) for l in folded)

    def test_channel_mismatch_rejected(self, rng):
        conv = Conv2D("c", 3, 4, kernel=3)
        with pytest.raises(ValueError):
            fold_batchnorm([conv, make_bn(5, rng)])

    def test_folded_network_quantizes(self, rng):
        """The canonical deployment chain: fold BN, then the ABM pipeline."""
        from repro.pipeline import QuantizedPipeline

        conv1 = Conv2D("c1", 3, 6, kernel=3, padding=1)
        conv1.weights = rng.normal(size=conv1.weights.shape)
        bn1 = make_bn(6, rng)
        fc = FullyConnected("f", 6 * 8 * 8, 5)
        fc.weights = rng.normal(0, 0.1, size=(5, 6 * 8 * 8))
        from repro.nn.layers.activation import Flatten

        layers = fold_batchnorm([conv1, bn1, ReLU("r"), Flatten("fl"), fc])
        network = Network("folded", FeatureShape(3, 8, 8), layers)
        x = rng.normal(size=(3, 8, 8))
        pipeline = QuantizedPipeline(network)
        pipeline.calibrate(x)
        pipeline.quantize()
        result = pipeline.run(x)
        # 8-bit activations over a +-4.4 range: allow a few LSBs of error.
        assert np.allclose(result.output, network.forward(x), atol=0.5)
        assert np.argmax(result.output) == np.argmax(network.forward(x))
