"""The paper's published numbers, collected in one place.

Every experiment prints a paper-vs-measured comparison; these constants are
the "paper" side. Transcribed from the DAC 2019 text (Tables 1-3, Figure 1,
Sections 6-7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional


@dataclass(frozen=True)
class Table1Row:
    """One layer row of paper Table 1 (#OP in MOP)."""

    layer: str
    pruning_ratio: float
    sdconv_mop: float
    fdconv_mop: float
    spconv_mop: float
    abm_acc_mop: float
    abm_mult_mop: float
    acc_to_mult: float


#: Paper Table 1, the selected VGG16 layers it prints.
TABLE1_ROWS: Mapping[str, Table1Row] = {
    row.layer: row
    for row in (
        Table1Row("conv1_1", 0.42, 173, 52.5, 100, 50.3, 12.1, 4.1),
        Table1Row("conv1_2", 0.78, 3699, 1119, 814, 407, 119, 3.4),
        Table1Row("conv4_1", 0.68, 1849, 559, 592, 296, 9.23, 32.0),
        Table1Row("conv4_2", 0.73, 3699, 1119, 998, 499, 7.95, 62.7),
        Table1Row("fc6", 0.96, 205, 205, 8.23, 4.11, 0.037, 111),
        Table1Row("fc7", 0.96, 33.6, 33.6, 1.34, 0.67, 0.021, 31.9),
    )
}

#: Paper Table 1, 'Entire CNN' row (MOP).
TABLE1_TOTALS = {
    "sdconv": 30941.0,
    "fdconv": 9531.0,
    "spconv": 10082.0,
    "abm": 5040.0,
}

#: Paper Table 1, '#OP Saved' row.
TABLE1_SAVINGS = {"fdconv": 0.692, "spconv": 0.674, "abm": 0.836}

#: ABM's reduction over the other schemes (Section 3 text).
ABM_REDUCTION_VS = {"sdconv": 0.836, "fdconv": 0.471, "spconv": 0.50}


@dataclass(frozen=True)
class Table2Column:
    """One accelerator column of paper Table 2."""

    key: str
    reference: str
    scheme: str
    cnn: str
    fpga: str
    freq_mhz: float
    precision: str
    logic_alms: Optional[int]
    logic_fraction: Optional[float]
    dsps: int
    dsp_fraction: float
    m20k: Optional[int]
    m20k_fraction: Optional[float]
    methodology: str
    throughput_gops: float
    perf_density: float


#: Paper Table 2 (published baselines + the proposed design's two columns).
TABLE2_COLUMNS = (
    Table2Column(
        "suda-alexnet", "[13]", "SDConv", "alexnet", "Stratix-V GXA7", 100,
        "8-16 fixed", 121_000, 0.52, 256, 1.00, 1552, 0.61, "RTL", 134.1, 0.52,
    ),
    Table2Column(
        "ma-vgg16", "[12]", "SDConv", "vgg16", "Arria-10 GT1150", 231,
        "8-16 fixed", 313_000, 0.73, 1500, 0.98, 1668, 0.61, "RTL", 1171.0, 0.78,
    ),
    Table2Column(
        "zhang-vgg16", "[4]", "SDConv", "vgg16", "Arria-10 GX1150", 385,
        "16 fixed", None, None, 1378, 0.91, 1450, 0.53, "RTL+OpenCL", 1790.0, 1.29,
    ),
    Table2Column(
        "aydonat-alexnet", "[10]", "FDConv", "alexnet", "Arria-10 GX1150", 303,
        "16 float", 246_000, 0.58, 1476, 0.97, 2487, 0.92, "OpenCL", 1382.0, 0.94,
    ),
    Table2Column(
        "zeng-alexnet", "[3]", "FDConv", "alexnet", "Stratix-V GXA7", 200,
        "16 fixed", 107_000, 0.46, 256, 1.00, 1377, 0.73, "RTL", 663.5, 2.59,
    ),
    Table2Column(
        "zeng-vgg16", "[3]", "FDConv", "vgg16", "Stratix-V GXA7", 200,
        "16 fixed", 107_000, 0.46, 256, 1.00, 1377, 0.73, "RTL", 662.3, 2.58,
    ),
    Table2Column(
        "proposed-alexnet", "this work", "ABM-SpConv", "alexnet",
        "Stratix-V GXA7", 202, "8 fixed", 170_000, 0.73, 243, 0.95, 2460, 0.96,
        "OpenCL", 699.0, 2.87,
    ),
    Table2Column(
        "proposed-vgg16", "this work", "ABM-SpConv", "vgg16",
        "Stratix-V GXA7", 204, "8 fixed", 160_000, 0.68, 240, 0.94, 2435, 0.95,
        "OpenCL", 1029.0, 4.29,
    ),
)

#: Headline claims around Table 2.
VGG16_SPEEDUP_VS_FDCONV = 1.55
ALEXNET_SPEEDUP_VS_FDCONV = 1.054

#: Section 7: measured execution efficiency of the proposed design.
CU_EFFICIENCY = {"vgg16": 0.87, "alexnet": 0.81}
#: Execution efficiency of baseline [2], for comparison.
BASELINE_LI_EFFICIENCY = 0.645

#: Paper Table 3: design parameters and weight sizes (MB).
TABLE3 = {
    "alexnet": {
        "n_knl": 14, "n_cu": 3, "n_share": 4, "s_ec": 20,
        "d_f": 1152, "d_w": 1024, "d_q": 128,
        "original_mb": 61.0, "encoded_mb": 11.9,
    },
    "vgg16": {
        "n_knl": 14, "n_cu": 3, "n_share": 4, "s_ec": 20,
        "d_f": 1568, "d_w": 2048, "d_q": 128,
        "original_mb": 138.0, "encoded_mb": 26.4,
    },
}

#: Figure 1 roofs on the Stratix-V GXA7 at 200 MHz (GOP/s).
FIG1_ROOFS = {"sdconv": 204.8, "fdconv": 675.0, "abm": 1046.0}

#: Figure 6/7: the exploration optimum.
OPTIMAL_N_KNL = 14
OPTIMAL_S_EC = 20
OPTIMAL_N_CU = 3
