"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.abm import ConvGeometry
from repro.core.specs import conv_spec, fc_spec
from repro.nn.layers import Conv2D
from repro.nn.models import (
    Architecture,
    ConvDef,
    FCDef,
    FlattenDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_conv_spec():
    """A 16->8 channel 3x3 convolution on a 10x10 input."""
    return conv_spec("small", 16, 8, kernel=3, in_rows=10, in_cols=10, padding=1)


@pytest.fixture
def small_fc_spec():
    return fc_spec("small_fc", 128, 32)


@pytest.fixture
def small_geometry() -> ConvGeometry:
    return ConvGeometry(kernel=3, stride=1, padding=1)


def sparse_weight_codes(
    rng: np.random.Generator,
    shape=(8, 16, 3, 3),
    density: float = 0.3,
    value_range: int = 8,
) -> np.ndarray:
    """Random sparse integer weights for ABM tests."""
    codes = rng.integers(-value_range, value_range + 1, size=shape)
    mask = rng.random(shape) < density
    return (codes * mask).astype(np.int64)


def direct_conv(
    features: np.ndarray,
    weights: np.ndarray,
    geometry: ConvGeometry,
    bias: np.ndarray = None,
) -> np.ndarray:
    """Equation (1) on integer codes: the float :class:`Conv2D` layer run
    on int64 features, weights and bias, so every product is exact."""
    weights = np.asarray(weights, dtype=np.int64)
    out_channels, group_in, kernel, _ = weights.shape
    layer = Conv2D(
        "eq1",
        group_in * geometry.groups,
        out_channels,
        kernel,
        stride=geometry.stride,
        padding=geometry.padding,
        groups=geometry.groups,
        weights=weights,
        bias=np.zeros(out_channels, np.int64) if bias is None else np.asarray(bias, np.int64),
    )
    return layer.forward(np.asarray(features, dtype=np.int64))


@pytest.fixture
def weight_codes(rng):
    return sparse_weight_codes(rng)


@pytest.fixture
def feature_codes(rng):
    return rng.integers(-128, 128, size=(16, 10, 10)).astype(np.int64)


@pytest.fixture
def tiny_architecture() -> Architecture:
    """A complete small CNN touching every layer kind the pipeline runs."""
    return Architecture(
        name="tiny",
        input_channels=3,
        input_rows=16,
        input_cols=16,
        defs=[
            ConvDef("conv1", 8, kernel=3, padding=1),
            ReLUDef("relu1"),
            PoolDef("pool1", kernel=2, stride=2),
            ConvDef("conv2", 12, kernel=3, padding=1),
            ReLUDef("relu2"),
            PoolDef("pool2", kernel=2, stride=2),
            FlattenDef("flatten"),
            FCDef("fc3", 20),
            ReLUDef("relu3"),
            FCDef("fc4", 10, scale_output=False),
            SoftmaxDef("prob"),
        ],
    )
