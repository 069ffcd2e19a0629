"""Address generator: decodes encoded weights into feature-map addresses.

The hardware decodes each 16-bit WT-Buffer entry on the fly, maps the
packed (n, k, k') index onto the feature-map domain for the current output
position, and issues a sequential read of the FT-Buffer (paper Section 4.2,
"a dedicated Address Generator is designed to decode the weight on-the-fly").

This functional model reproduces that mapping exactly, so the CU functional
model can execute real encoded weights against a real feature window and be
checked bit-for-bit against :func:`repro.core.abm.abm_conv2d_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..core.encoding import EncodedKernel, unpack_index


@dataclass(frozen=True)
class FeatureAddress:
    """A decoded feature-map coordinate for one accumulate operation."""

    channel: int
    row: int
    col: int
    #: Q-Table entry index this accumulate belongs to.
    group: int


class AddressGenerator:
    """Decodes one kernel's index stream for a given output position.

    Parameters
    ----------
    kernel_size / stride:
        Convolution geometry; the output position (r', c') anchors the
        window at (r' * stride, c' * stride) in the padded input.
    """

    def __init__(self, kernel_size: int, stride: int = 1) -> None:
        if kernel_size < 1 or stride < 1:
            raise ValueError("kernel size and stride must be positive")
        self.kernel_size = kernel_size
        self.stride = stride

    def addresses(
        self, encoded: EncodedKernel, out_row: int, out_col: int
    ) -> Iterator[FeatureAddress]:
        """Yield the accumulate addresses for one output pixel, in order."""
        base_row = out_row * self.stride
        base_col = out_col * self.stride
        for group, (_, block) in enumerate(encoded.value_groups()):
            for packed in block:
                channel, k, k2 = unpack_index(int(packed), self.kernel_size)
                yield FeatureAddress(
                    channel=channel, row=base_row + k, col=base_col + k2, group=group
                )

    def gather(
        self, encoded: EncodedKernel, window: np.ndarray, out_row: int, out_col: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fetch all accumulate operands for one output pixel.

        Returns ``(values, groups)``: the feature words read from the padded
        input ``window`` (CHW) and the Q-Table group of each read.
        """
        values = []
        groups = []
        for address in self.addresses(encoded, out_row, out_col):
            values.append(window[address.channel, address.row, address.col])
            groups.append(address.group)
        return np.asarray(values, dtype=np.int64), np.asarray(groups, dtype=np.int64)
