"""Experiment: paper Figure 6 — exploration for the optimal N_knl.

Sweeps N_knl at the paper's preset (N_cu=3, S_ec=20, 200 MHz) on VGG16 and
reports the normalized performance boost curve whose maximum picks the
kernel-parallelism degree. The paper lands on 14; the reproduction asserts
the optimum falls in the same feasibility-bounded plateau (the GXA7's DSPs
admit at most N_knl=15 at this preset, and the boost curve is within a few
per cent across 11-15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..analysis.ascii_plots import line_plot
from ..analysis.compare import Comparison
from ..analysis.tables import render_table
from ..dse.explorer import NknlPoint, optimal_nknl, sweep_nknl
from ..dse.performance import share_factor_from_workloads
from ..hw.device import STRATIX_V_GXA7
from ..workloads.paper_targets import OPTIMAL_N_KNL
from ..workloads.synthetic import synthetic_model_workload


@dataclass(frozen=True)
class Fig6Result:
    points: Tuple[NknlPoint, ...]
    chosen_n_knl: int
    comparisons: Tuple[Comparison, ...]

    def render(self) -> str:
        rows = [
            (p.n_knl, p.throughput_gops, p.logic_alms, p.normalized_boost, p.feasible)
            for p in self.points
        ]
        table = render_table(
            ("N_knl", "GOP/s", "ALMs", "norm boost", "feasible"),
            rows,
            title="Figure 6 — optimal N_knl exploration (VGG16, 200 MHz)",
        )
        curve = line_plot(
            [p.n_knl for p in self.points],
            [p.normalized_boost for p in self.points],
            title="normalized performance boost vs N_knl ('|' = chosen)",
            mark_x=self.chosen_n_knl,
        )
        return table + "\n\n" + curve


def run(seed: int = 1) -> Fig6Result:
    """Regenerate the Figure 6 sweep."""
    workload = synthetic_model_workload("vgg16", seed=seed)
    n_share = share_factor_from_workloads(workload.layers)
    points = sweep_nknl(
        workload,
        n_share,
        device=STRATIX_V_GXA7,
        n_cu=3,
        s_ec=20,
        freq_mhz=200.0,
    )
    chosen = optimal_nknl(points)
    comparisons: List[Comparison] = [
        Comparison("fig6", "optimal_n_knl", OPTIMAL_N_KNL, chosen),
        Comparison("fig6", "n_share", 4, n_share),
    ]
    return Fig6Result(
        points=tuple(points), chosen_n_knl=chosen, comparisons=tuple(comparisons)
    )
