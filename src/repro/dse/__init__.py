"""Design space exploration: performance / bandwidth / resource models.

Implements the paper's Section 5: the three estimation models, the
constant-calibration stage (with a synthetic stand-in for the FPGA
compiler), the roofline view of Figure 1 and the exploration flow of
Figures 5-7.
"""

from .explorer import explore
from .joint_space import default_joint_space, exhaustive_search

__all__ = [
    "explore",
    "default_joint_space",
    "exhaustive_search",
]
