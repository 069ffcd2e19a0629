"""On-chip buffer models: FT-Buffer, WT-Buffer and Q-Table (paper Figure 4).

These validate that an encoded layer actually fits the configured depths —
the check the paper's exploration flow performs when it "encodes the pruned
model layer-by-layer ... and determines the buffer sizes of D_w and D_q" —
and account the M20K blocks each buffer consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.encoding import EncodedLayer
from .config import AcceleratorConfig

#: Capacity of one M20K block in bits.
M20K_BITS = 20 * 1024


@dataclass(frozen=True)
class BufferRequirement:
    """Depth needed by a workload vs. depth provisioned by a configuration."""

    name: str
    required_depth: int
    provisioned_depth: int
    entry_bits: int

    @property
    def fits(self) -> bool:
        return self.required_depth <= self.provisioned_depth

    @property
    def m20k_blocks(self) -> int:
        """M20K blocks for the provisioned buffer (width-dominated mapping).

        An M20K configures at most 40 bits wide x 512 deep; wide buffers
        replicate across blocks, deep buffers cascade.
        """
        width_blocks = math.ceil(self.entry_bits / 40)
        depth_blocks = math.ceil(self.provisioned_depth / 512)
        return width_blocks * depth_blocks


def ft_buffer_requirement(config: AcceleratorConfig) -> BufferRequirement:
    """FT-Buffer: d_f entries of 8*S_ec bits (double-buffered in hardware)."""
    return BufferRequirement(
        name="FT-Buffer",
        required_depth=config.d_f,
        provisioned_depth=config.d_f,
        entry_bits=8 * config.s_ec,
    )


def wt_buffer_requirement(
    config: AcceleratorConfig, layers: Sequence[EncodedLayer]
) -> BufferRequirement:
    """WT-Buffer: holds the deepest single-kernel index stream of any layer.

    Each kernel engine streams its own kernel's indices with a private loop
    counter, so the per-engine buffer slice must cover the deepest kernel —
    the rule that reproduces the paper's D_w = 1024 (AlexNet, deepest
    kernel ~830 nonzeros) and 2048 (VGG16, ~1660).
    """
    return BufferRequirement(
        name="WT-Buffer",
        required_depth=max((layer.max_wt_entries_per_kernel for layer in layers), default=0),
        provisioned_depth=config.d_w,
        entry_bits=16,
    )


def qtable_requirement(
    config: AcceleratorConfig, layers: Sequence[EncodedLayer]
) -> BufferRequirement:
    """Q-Table: holds the deepest per-kernel value table of any layer."""
    return BufferRequirement(
        name="Q-Table",
        required_depth=max((layer.max_qtable_entries_per_kernel for layer in layers), default=0),
        provisioned_depth=config.d_q,
        entry_bits=16,
    )


def buffer_report(
    config: AcceleratorConfig, layers: Sequence[EncodedLayer]
) -> Sequence[BufferRequirement]:
    """All three buffer checks for a model on a configuration."""
    return (
        ft_buffer_requirement(config),
        wt_buffer_requirement(config, layers),
        qtable_requirement(config, layers),
    )
