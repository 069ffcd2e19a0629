"""Experiment: paper Figure 7 — attainable throughput over S_ec x N_cu.

Evaluates the Performance and Resource models over the S_ec x N_cu grid at
N_knl=14, N=4, 200 MHz with the paper's 75% logic constraint, and reports
the feasible region and the top design candidates. The paper implements
(S_ec=20, N_cu=3); the reproduction asserts that point is feasible, lands
within a few per cent of the measured best candidate, and that all three
resources are near their limits there (the balanced-utilization argument
of the paper's conclusion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.ascii_plots import heatmap
from ..analysis.compare import Comparison
from ..analysis.tables import render_table
from ..dse.explorer import GridPoint, best_candidates, sweep_sec_ncu
from ..dse.frequency import refine_with_frequency
from ..dse.resources import LOGIC_BUDGET
from ..hw.device import STRATIX_V_GXA7
from ..workloads.paper_targets import OPTIMAL_N_CU, OPTIMAL_N_KNL, OPTIMAL_S_EC
from ..workloads.synthetic import synthetic_model_workload


@dataclass(frozen=True)
class Fig7Result:
    grid: Tuple[GridPoint, ...]
    candidates: Tuple[GridPoint, ...]
    paper_point: Optional[GridPoint]
    comparisons: Tuple[Comparison, ...]

    def render(self) -> str:
        surface = {
            (c.s_ec, c.n_cu): c.throughput_gops for c in self.grid
        }
        mask = {(c.s_ec, c.n_cu): not c.feasible for c in self.grid}
        chart = heatmap(
            surface,
            title="attainable GOP/s over S_ec (cols) x N_cu (rows)",
            mark=(OPTIMAL_S_EC, OPTIMAL_N_CU),
            mask=mask,
        )
        rows = [
            (
                c.s_ec,
                c.n_cu,
                c.throughput_gops,
                f"{c.utilization.logic:.0%}",
                f"{c.utilization.dsp:.0%}",
                f"{c.utilization.memory:.0%}",
                c.feasible,
            )
            for c in self.candidates
        ]
        table = render_table(
            ("S_ec", "N_cu", "GOP/s", "logic", "DSP", "M20K", "feasible"),
            rows,
            title=(
                "Figure 7 — S_ec x N_cu exploration "
                f"(N_knl={OPTIMAL_N_KNL}, logic <= {LOGIC_BUDGET:.0%}), top candidates"
            ),
        )
        refined = render_table(
            ("S_ec", "N_cu", "Fmax MHz", "delivered GOP/s"),
            [
                (r.point.s_ec, r.point.n_cu, r.fmax_mhz, r.delivered_gops)
                for r in refine_with_frequency(list(self.candidates))[:5]
            ],
            title="top candidates re-ranked at their congestion-limited Fmax",
        )
        return "\n\n".join((chart, table, refined))


def run(seed: int = 1) -> Fig7Result:
    """Regenerate the Figure 7 exploration."""
    workload = synthetic_model_workload("vgg16", seed=seed)
    grid = sweep_sec_ncu(
        workload,
        STRATIX_V_GXA7,
        n_knl=OPTIMAL_N_KNL,
        n_share=4,
        freq_mhz=200.0,
    )
    candidates = best_candidates(grid, count=8)
    paper_point = next(
        (p for p in grid if p.s_ec == OPTIMAL_S_EC and p.n_cu == OPTIMAL_N_CU), None
    )
    comparisons: List[Comparison] = []
    if paper_point is not None and candidates:
        comparisons.append(
            Comparison(
                "fig7",
                "paper_point_vs_best_gops",
                candidates[0].throughput_gops,
                paper_point.throughput_gops,
            )
        )
        comparisons.append(
            Comparison("fig7", "paper_point_feasible", 1.0, float(paper_point.feasible))
        )
        ranked = [(p.s_ec, p.n_cu) for p in candidates]
        comparisons.append(
            Comparison(
                "fig7",
                "paper_point_rank_in_top8",
                1.0,
                float((OPTIMAL_S_EC, OPTIMAL_N_CU) in ranked),
            )
        )
    return Fig7Result(
        grid=tuple(grid),
        candidates=tuple(candidates),
        paper_point=paper_point,
        comparisons=tuple(comparisons),
    )
