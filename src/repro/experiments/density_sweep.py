"""Extension experiment: pruning density vs throughput — the crossover.

ABM-SpConv's advantage is proportional to sparsity: accumulates scale
with the surviving weights, so the paper's 1.55x win over FDConv [3]
rests on Deep Compression's ~3x MAC reduction. This sweep varies a
*uniform* density across VGG16 and simulates the accelerator at the
paper's configuration, locating the crossover density beyond which the
fixed FDConv baseline (662.3 GOP/s on the same device) would win — the
regime boundary a deployer of moderately-prunable models needs to know.

The distinct-value side also saturates with density (a denser kernel
cannot exceed its codebook), so the sharing factor N stays valid across
the sweep; the experiment reports the multiply-bound layer count as a
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..analysis.ascii_plots import line_plot
from ..analysis.tables import render_table
from ..baselines.published import get_baseline
from ..hw.accelerator import AcceleratorSimulator
from ..hw.config import PAPER_CONFIG_VGG16
from ..hw.device import STRATIX_V_GXA7
from ..nn.models import get_architecture
from ..prune.schedules import uniform_schedule
from ..workloads.synthetic import synthetic_model_workload


@dataclass(frozen=True)
class DensityPoint:
    """Simulated outcome at one uniform density."""

    density: float
    throughput_gops: float
    mac_reduction: float
    acc_to_mult_ratio: float

    def beats(self, baseline_gops: float) -> bool:
        return self.throughput_gops > baseline_gops


@dataclass(frozen=True)
class DensitySweepResult:
    model: str
    points: Tuple[DensityPoint, ...]
    baseline_gops: float
    baseline_label: str

    @property
    def crossover_density(self) -> Optional[float]:
        """Largest swept density at which ABM still beats the baseline."""
        winning = [p.density for p in self.points if p.beats(self.baseline_gops)]
        return max(winning) if winning else None

    def render(self) -> str:
        rows = [
            (
                p.density,
                p.throughput_gops,
                f"{p.mac_reduction:.2f}x",
                p.acc_to_mult_ratio,
                p.beats(self.baseline_gops),
            )
            for p in self.points
        ]
        table = render_table(
            ("density", "GOP/s", "MAC reduction", "Acc/Mult", f"beats {self.baseline_label}"),
            rows,
            title=f"uniform-density sweep ({self.model}, paper config)",
        )
        curve = line_plot(
            [p.density for p in self.points],
            [p.throughput_gops for p in self.points],
            title=f"throughput vs density (baseline {self.baseline_gops:.0f} GOP/s)",
            mark_x=self.crossover_density,
        )
        return table + "\n\n" + curve


def run(
    seed: int = 1,
    densities: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1.0),
) -> DensitySweepResult:
    """Sweep a uniform density across VGG16 and simulate each point."""
    architecture = get_architecture("vgg16")
    names = [spec.name for spec in architecture.accelerated_specs()]
    baseline = get_baseline("zeng-vgg16")
    points = []
    for density in densities:
        workload = synthetic_model_workload(
            "vgg16", seed=seed, schedule=uniform_schedule(names, density)
        )
        simulation = AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7).simulate(
            workload
        )
        reduction = workload.dense_ops / (2.0 * workload.accumulate_ops)
        ratio = workload.accumulate_ops / max(workload.multiply_ops, 1)
        points.append(
            DensityPoint(
                density=density,
                throughput_gops=simulation.throughput_gops,
                mac_reduction=reduction,
                acc_to_mult_ratio=ratio,
            )
        )
    return DensitySweepResult(
        model="vgg16",
        points=tuple(points),
        baseline_gops=baseline.throughput_gops,
        baseline_label="FDConv [3]",
    )
