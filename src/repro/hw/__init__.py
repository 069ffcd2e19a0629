"""Hardware substrate: FPGA device catalog and accelerator simulator.

The simulator realizes the architecture of paper Figure 2: semi-synchronous
convolution units, each a "big" accumulator array plus a "small" shared
multiplier array, fed by the encoded weight stream, double-buffered against
DDR. It is event-driven at task granularity and cycle-approximate; a
bit-accurate :class:`~repro.hw.cu.FunctionalCU` model additionally verifies
the datapath's numerics against the reference algorithm.
"""

from .accelerator import AcceleratorSimulator
from .config import PAPER_CONFIG_ALEXNET, PAPER_CONFIG_VGG16
from .device import STRATIX_V_GXA7

__all__ = [
    "AcceleratorSimulator",
    "PAPER_CONFIG_ALEXNET",
    "PAPER_CONFIG_VGG16",
    "STRATIX_V_GXA7",
]
