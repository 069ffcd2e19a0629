"""Experiment: CU utilization / execution efficiency (Sections 6-7).

The paper credits the semi-synchronous CU architecture with solving the
workload-imbalance problem and reports execution efficiencies of 87%
(VGG16) and 81% (AlexNet), against 64.5% for the lockstep design of [2].

Efficiency here follows the paper's basis: achieved throughput over the
configuration's own computational roof ``2 * R_mac * N_acc * Freq`` (the
roof counts original ops, so the pruning reduction R_mac enters). The
simulator additionally reports scheduler-level CU occupancy and
within-task engine occupancy, which decompose where the loss comes from.

The paper's own numbers disagree on this roof. Table 2's GOP/s over the
roof is the efficiency the paper's throughput implies: ~98% for VGG16
(1029 GOP/s of ~1052) and ~86% for AlexNet (699 of ~816), against the
stated 87% and 81%. Those rows are emitted as comparisons too, so the
VGG16 gap between the simulator and Table 2 reads as the paper's own
arithmetic rather than a reproduction error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Tuple

from ..analysis.compare import Comparison
from ..analysis.tables import render_table
from ..baselines.published import get_baseline
from ..hw.accelerator import AcceleratorSimulator, ModelSimResult
from ..hw.config import PAPER_CONFIG_ALEXNET, PAPER_CONFIG_VGG16
from ..hw.device import STRATIX_V_GXA7
from ..hw.scheduler import POLICY_BALANCED, POLICY_NATURAL
from ..workloads.paper_targets import BASELINE_LI_EFFICIENCY, CU_EFFICIENCY
from ..workloads.synthetic import synthetic_model_workload


@dataclass(frozen=True)
class UtilizationRow:
    """Efficiency figures for one model."""

    model: str
    simulation: ModelSimResult
    mac_reduction: float

    @property
    def roof_gops(self) -> float:
        """2 * R_mac * N_acc * Freq on the original-op basis."""
        config = self.simulation.config
        return (
            2.0
            * self.mac_reduction
            * config.total_accumulators
            * config.freq_mhz
            / 1e3
        )

    @property
    def execution_efficiency(self) -> float:
        return self.simulation.throughput_gops / self.roof_gops

    @property
    def paper_implied_efficiency(self) -> float:
        """Table 2's published GOP/s over the same roof."""
        return get_baseline(f"proposed-{self.model}").throughput_gops / self.roof_gops

    @property
    def cu_utilization(self) -> float:
        return self.simulation.cu_utilization

    @property
    def engine_utilization(self) -> float:
        return self.simulation.engine_utilization


@dataclass(frozen=True)
class UtilizationResult:
    rows: Mapping[str, UtilizationRow]
    #: Execution efficiency with kernels grouped in raw encode order
    #: instead of balanced: the scheduling ablation's baseline.
    natural_efficiency: Mapping[str, float]
    comparisons: Tuple[Comparison, ...]

    def render(self) -> str:
        table = []
        for model, row in self.rows.items():
            table.append(
                (
                    model,
                    row.simulation.throughput_gops,
                    row.roof_gops,
                    f"{row.execution_efficiency:.1%}",
                    f"{self.natural_efficiency[model]:.1%}",
                    f"{row.cu_utilization:.1%}",
                    f"{row.engine_utilization:.1%}",
                    f"{CU_EFFICIENCY[model]:.0%}",
                    f"{row.paper_implied_efficiency:.1%}",
                )
            )
        table.append(
            ("[2] lockstep", None, None, f"{BASELINE_LI_EFFICIENCY:.1%}", None, None,
             None, "64.5%", None)
        )
        return render_table(
            ("model", "GOP/s", "roof GOP/s", "efficiency", "encode order", "CU occ",
             "engine occ", "paper", "Table 2 / roof"),
            table,
            title="Execution efficiency (semi-synchronous CUs)",
        )


def _efficiency_rows(seed: int, policy: str) -> Mapping[str, UtilizationRow]:
    rows = {}
    for model, config in (
        ("vgg16", PAPER_CONFIG_VGG16),
        ("alexnet", PAPER_CONFIG_ALEXNET),
    ):
        workload = synthetic_model_workload(model, seed=seed)
        simulation = AcceleratorSimulator(config, STRATIX_V_GXA7, policy=policy).simulate(
            workload
        )
        mac_reduction = workload.dense_ops / (2.0 * workload.accumulate_ops)
        rows[model] = UtilizationRow(
            model=model, simulation=simulation, mac_reduction=mac_reduction
        )
    return rows


def run(seed: int = 1) -> UtilizationResult:
    """Measure execution efficiency for both models, with balanced kernel
    grouping and, as the ablation, with raw encode-order grouping."""
    rows = _efficiency_rows(seed, POLICY_BALANCED)
    natural = _efficiency_rows(seed, POLICY_NATURAL)
    comparisons: List[Comparison] = []
    for model, row in rows.items():
        comparisons.append(
            Comparison(
                "utilization",
                f"{model}.execution_efficiency",
                CU_EFFICIENCY[model],
                row.execution_efficiency,
            )
        )
        comparisons.append(
            Comparison(
                "utilization",
                f"{model}.paper_implied_efficiency",
                CU_EFFICIENCY[model],
                row.paper_implied_efficiency,
            )
        )
        comparisons.append(
            Comparison(
                "utilization",
                f"{model}.beats_lockstep_baseline",
                1.0,
                float(row.execution_efficiency > BASELINE_LI_EFFICIENCY),
            )
        )
    return UtilizationResult(
        rows=rows,
        natural_efficiency={
            model: row.execution_efficiency for model, row in natural.items()
        },
        comparisons=tuple(comparisons),
    )
