"""Randomized differential verification of the convolution schemes.

A reusable harness (also wired to ``abm-spconv verify``) that generates
random quantized sparse layers across the geometry space — kernel sizes,
strides, paddings, groups, densities, codebooks — and checks that every
functional scheme implementation agrees:

- ABM-SpConv (vectorized) == direct integer convolution, bit-exact;
- ABM-SpConv (reference loop) == vectorized, including op counts;
- zero-skipping SpConv == dense, bit-exact;
- FDConv (float FFT) == dense within float tolerance;
- encode/decode round-trips the weights.

This is the library's own continuous differential tester — the kind of
harness an accelerator bring-up team runs against RTL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .abm import ConvGeometry, abm_conv2d, abm_conv2d_reference, direct_conv2d_codes
from .encoding import decode_layer, encode_layer


@dataclass(frozen=True)
class TrialConfig:
    """Geometry of one randomized trial."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    padding: int
    groups: int
    size: int
    density: float
    value_range: int


@dataclass
class VerificationReport:
    """Outcome of a verification run."""

    trials: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"differential verification: {status} ({self.trials} trials)"]
        lines.extend(f"  FAILURE: {failure}" for failure in self.failures)
        return "\n".join(lines)


def random_trial_config(rng: np.random.Generator) -> TrialConfig:
    """Draw one geometry, biased toward awkward corners."""
    groups = int(rng.choice([1, 1, 1, 2, 4]))
    group_in = int(rng.integers(1, 5))
    group_out = int(rng.integers(1, 4))
    kernel = int(rng.choice([1, 2, 3, 5]))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, kernel))
    size = int(rng.integers(kernel + stride, 14))
    return TrialConfig(
        in_channels=groups * group_in,
        out_channels=groups * group_out,
        kernel=kernel,
        stride=stride,
        padding=padding,
        groups=groups,
        size=size,
        density=float(rng.uniform(0.0, 1.0)),
        value_range=int(rng.choice([2, 8, 127])),
    )


def run_trial(config: TrialConfig, rng: np.random.Generator) -> Optional[str]:
    """Run one trial; returns a failure description or None."""
    # Imported here, not at module scope: repro.core must not depend on
    # repro.baselines at import time (baselines itself builds on core).
    from ..baselines.fdconv import fdconv2d
    from ..baselines.spconv import spconv2d

    shape = (
        config.out_channels,
        config.in_channels // config.groups,
        config.kernel,
        config.kernel,
    )
    weights = rng.integers(-config.value_range, config.value_range + 1, size=shape)
    weights = (weights * (rng.random(shape) < config.density)).astype(np.int64)
    features = rng.integers(-128, 128, size=(config.in_channels, config.size, config.size))
    geometry = ConvGeometry(
        kernel=config.kernel,
        stride=config.stride,
        padding=config.padding,
        groups=config.groups,
    )
    encoded = encode_layer("trial", weights)
    if not np.array_equal(decode_layer(encoded), weights):
        return f"encode/decode mismatch at {config}"
    expected = direct_conv2d_codes(features, weights, geometry)
    fast = abm_conv2d(features, encoded, geometry)
    if not np.array_equal(fast.output, expected):
        return f"ABM != direct at {config}"
    reference = abm_conv2d_reference(features, encoded, geometry)
    if not np.array_equal(reference.output, expected):
        return f"ABM reference != direct at {config}"
    if (
        reference.accumulate_ops != fast.accumulate_ops
        or reference.multiply_ops != fast.multiply_ops
    ):
        return f"ABM op-count mismatch at {config}"
    sparse = spconv2d(features, weights, geometry)
    if not np.array_equal(sparse.output, expected):
        return f"SpConv != direct at {config}"
    if config.groups == 1:
        freq = fdconv2d(
            features.astype(float),
            weights.astype(float),
            stride=config.stride,
            padding=config.padding,
        )
        if not np.allclose(freq, expected, atol=1e-5 * max(1, config.value_range)):
            return f"FDConv != direct at {config}"
    return None


def verify_schemes(trials: int = 100, seed: int = 0) -> VerificationReport:
    """Run the full differential verification campaign."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    report = VerificationReport()
    for _ in range(trials):
        config = random_trial_config(rng)
        failure = run_trial(config, rng)
        report.trials += 1
        if failure is not None:
            report.failures.append(failure)
    return report
