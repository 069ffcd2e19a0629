"""Experiment: paper Table 2 — comparison with state-of-the-art accelerators.

The baseline columns are literature numbers (they are in the paper too);
the 'Proposed' columns are *regenerated* by running the calibrated
synthetic AlexNet/VGG16 workloads through the accelerator simulator at the
paper's configurations and the resource model. Derived rows — performance
density, the 1.55x headline speedup over [3], the 3.8x frequency-normalized
advantage over [13] and the >3x density advantage over [4]/[12]/[10] — are
recomputed from both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Tuple

from ..analysis.compare import Comparison
from ..analysis.tables import render_table
from ..baselines.published import PublishedAccelerator, get_baseline
from ..dse.resources import ResourceEstimate, estimate_resources
from ..hw.accelerator import AcceleratorSimulator, ModelSimResult
from ..hw.config import PAPER_CONFIG_ALEXNET, PAPER_CONFIG_VGG16, AcceleratorConfig
from ..hw.device import STRATIX_V_GXA7
from ..workloads.paper_targets import (
    ALEXNET_SPEEDUP_VS_FDCONV,
    TABLE2_COLUMNS,
    VGG16_SPEEDUP_VS_FDCONV,
)
from ..workloads.synthetic import synthetic_model_workload


@dataclass(frozen=True)
class ProposedColumn:
    """The regenerated 'Proposed' column for one CNN."""

    cnn: str
    config: AcceleratorConfig
    simulation: ModelSimResult
    resources: ResourceEstimate

    @property
    def throughput_gops(self) -> float:
        return self.simulation.throughput_gops

    @property
    def perf_density(self) -> float:
        return self.simulation.perf_density(self.resources.dsps)


@dataclass(frozen=True)
class Table2Result:
    """Regenerated Table 2."""

    proposed: Mapping[str, ProposedColumn]
    comparisons: Tuple[Comparison, ...]

    def render(self) -> str:
        headers = (
            "design", "CNN", "FPGA", "MHz", "ALMs", "DSPs", "M20K",
            "GOP/s", "GOP/s/DSP",
        )
        rows: List[Tuple] = []
        for column in TABLE2_COLUMNS:
            if column.reference == "this work":
                continue
            rows.append(
                (
                    f"{column.reference} {column.scheme}",
                    column.cnn,
                    column.fpga,
                    column.freq_mhz,
                    column.logic_alms,
                    column.dsps,
                    column.m20k,
                    column.throughput_gops,
                    column.throughput_gops / column.dsps,
                )
            )
        for cnn, proposed in self.proposed.items():
            rows.append(
                (
                    "ABM-SpConv (measured)",
                    cnn,
                    STRATIX_V_GXA7.name,
                    proposed.config.freq_mhz,
                    proposed.resources.alms,
                    proposed.resources.dsps,
                    proposed.resources.m20ks,
                    proposed.throughput_gops,
                    proposed.perf_density,
                )
            )
        return render_table(rows=rows, headers=headers, title="Table 2 — comparison with state of the art")


def _proposed(cnn: str, config: AcceleratorConfig, seed: int) -> ProposedColumn:
    workload = synthetic_model_workload(cnn, seed=seed)
    simulator = AcceleratorSimulator(config, STRATIX_V_GXA7)
    simulation = simulator.simulate(workload)
    resources = estimate_resources(config)
    return ProposedColumn(
        cnn=cnn, config=config, simulation=simulation, resources=resources
    )


def run(seed: int = 1) -> Table2Result:
    """Regenerate Table 2's proposed columns and derived claims."""
    proposed = {
        "alexnet": _proposed("alexnet", PAPER_CONFIG_ALEXNET, seed),
        "vgg16": _proposed("vgg16", PAPER_CONFIG_VGG16, seed),
    }
    comparisons: List[Comparison] = []
    for cnn, column in proposed.items():
        paper = get_baseline(f"proposed-{cnn}").column
        comparisons.extend(
            [
                Comparison("table2", f"{cnn}.throughput_gops", paper.throughput_gops, column.throughput_gops),
                Comparison("table2", f"{cnn}.perf_density", paper.perf_density, column.perf_density),
                Comparison("table2", f"{cnn}.dsps", paper.dsps, column.resources.dsps),
                Comparison("table2", f"{cnn}.alms", paper.logic_alms, column.resources.alms),
                Comparison("table2", f"{cnn}.m20k", paper.m20k, column.resources.m20ks),
            ]
        )
    # Headline: speedup over the FDConv design [3] on the same device.
    zeng_vgg = get_baseline("zeng-vgg16")
    zeng_alex = get_baseline("zeng-alexnet")
    comparisons.append(
        Comparison(
            "table2",
            "vgg16.speedup_vs_fdconv",
            VGG16_SPEEDUP_VS_FDCONV,
            proposed["vgg16"].throughput_gops / zeng_vgg.throughput_gops,
        )
    )
    comparisons.append(
        Comparison(
            "table2",
            "alexnet.speedup_vs_fdconv",
            ALEXNET_SPEEDUP_VS_FDCONV,
            proposed["alexnet"].throughput_gops / zeng_alex.throughput_gops,
        )
    )
    # 3.8x frequency-normalized speedup over the SDConv design [13] on the
    # same device (the paper compares its VGG16 column: 1029/204 MHz vs
    # 134.1/100 MHz = 3.8x).
    suda = get_baseline("suda-alexnet")
    measured_norm = (
        proposed["vgg16"].throughput_gops / proposed["vgg16"].config.freq_mhz
    ) / (suda.throughput_gops / suda.column.freq_mhz)
    comparisons.append(
        Comparison("table2", "vgg16.norm_speedup_vs_sdconv", 3.8, measured_norm)
    )
    # >3x performance-density advantage over [4], [12], [10].
    for key in ("zhang-vgg16", "ma-vgg16", "aydonat-alexnet"):
        baseline: PublishedAccelerator = get_baseline(key)
        cnn = baseline.column.cnn
        advantage = proposed[cnn].perf_density / baseline.perf_density
        comparisons.append(
            Comparison(
                "table2",
                f"density_advantage_vs_{key}",
                get_baseline(f"proposed-{cnn}").perf_density / baseline.perf_density,
                advantage,
            )
        )
    return Table2Result(proposed=proposed, comparisons=tuple(comparisons))
