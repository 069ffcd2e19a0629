"""Joint exploration across several workloads.

The paper ships one bitstream per model (Table 3: AlexNet and VGG16 get
separate configurations differing only in buffer depths and achieved
clock). A deployment that must serve *both* without reconfiguration wants
a single design point that is good everywhere — the natural objective is
the worst-case normalized throughput across workloads (max-min fairness
against each workload's own best).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hw.config import AcceleratorConfig
from ..hw.device import FPGADevice
from ..hw.workload import ModelWorkload
from .compiled import GridEvaluation, compile_workload
from .explorer import size_buffers
from .performance import MODE_QUANTIZED, estimate_model, share_factor_from_workloads
from .resources import DEFAULT_RESOURCE_MODEL, ResourceModel

#: The S_ec x N_cu exploration grid of Figure 7 (same axes as
#: :func:`repro.dse.explorer.sweep_sec_ncu`).
_S_EC_VALUES = tuple(range(4, 33, 2))
_N_CU_VALUES = tuple(range(1, 7))


@dataclass(frozen=True)
class JointPoint:
    """One configuration evaluated against every workload."""

    config: AcceleratorConfig
    throughput: Mapping[str, float]
    normalized: Mapping[str, float]
    feasible: bool

    @property
    def worst_normalized(self) -> float:
        """Max-min objective: the worst workload's fraction of its best."""
        return min(self.normalized.values())


@dataclass(frozen=True)
class JointExplorationResult:
    device: FPGADevice
    models: Tuple[str, ...]
    best_single: Mapping[str, float]
    chosen: JointPoint
    candidates: Tuple[JointPoint, ...]
    #: Workload seed, for provenance (mirrors
    #: :class:`repro.dse.explorer.ExplorationResult`).
    seed: Optional[int] = None

    def render(self) -> str:
        lines = [
            f"joint exploration on {self.device.name} for {', '.join(self.models)}",
            f"chosen: {self.chosen.config.describe()}",
        ]
        for model in self.models:
            lines.append(
                f"  {model:<10} {self.chosen.throughput[model]:7.1f} GOP/s "
                f"({self.chosen.normalized[model]:.1%} of its solo best "
                f"{self.best_single[model]:.1f})"
            )
        return "\n".join(lines)


def co_deployment_objectives(
    evaluations: Sequence[GridEvaluation],
) -> Dict[str, np.ndarray]:
    """Combine same-shape per-workload grids into co-deployment objectives.

    A single bitstream serving every workload is only as good as its
    worst case, so the combination is conservative elementwise:
    throughput is the minimum across workloads, power/utilization the
    maximum, efficiency the minimum, and a point is feasible only when it
    is feasible for *every* workload. The joint-space search
    (:mod:`repro.dse.joint_space`) scores multi-model sets through this
    seam.
    """
    if not evaluations:
        raise ValueError("need at least one grid evaluation")
    shape = evaluations[0].shape
    if any(e.shape != shape for e in evaluations):
        raise ValueError("grid evaluations must share one shape")
    combined: Dict[str, np.ndarray] = {
        "throughput_gops": np.minimum.reduce(
            [e.throughput_gops for e in evaluations]
        ),
        "total_power_w": np.maximum.reduce([e.power_w for e in evaluations]),
        "gops_per_watt": np.minimum.reduce(
            [e.gops_per_watt for e in evaluations]
        ),
        "feasible": np.logical_and.reduce([e.feasible for e in evaluations]),
    }
    if all(e.logic_util is not None for e in evaluations):
        combined["logic_util"] = np.maximum.reduce(
            [e.logic_util for e in evaluations]
        )
        combined["dsp_util"] = np.maximum.reduce(
            [e.dsp_util for e in evaluations]
        )
        combined["mem_util"] = np.maximum.reduce(
            [e.mem_util for e in evaluations]
        )
    return combined


def _joint_grids(
    workloads: Sequence[ModelWorkload],
    device: FPGADevice,
    resources: ResourceModel,
    n_share: int,
    n_knl: int,
    freq_mhz: float,
    logic_limit: float,
) -> Tuple[List[AcceleratorConfig], List[np.ndarray], List[np.ndarray], np.ndarray]:
    """Per-model grids in sweep order (N_cu outer, S_ec inner).

    Returns the candidate configs (buffer depths sized for the *first*
    workload — the covering re-derivation happens after selection), one
    flat throughput array per model, one per-model feasibility array
    (for solo bests), and the joint feasibility mask. Each workload's
    grid is scored by the compiled evaluator and the grids are combined
    through :func:`co_deployment_objectives`.
    """
    flat = [
        (k, j)
        for k in range(len(_N_CU_VALUES))
        for j in range(len(_S_EC_VALUES))
    ]
    evaluations = [
        compile_workload(workload, n_share).evaluate_grid(
            workload,
            resources,
            device=device,
            n_knl_values=(n_knl,),
            s_ec_values=_S_EC_VALUES,
            n_cu_values=_N_CU_VALUES,
            freq_mhz=freq_mhz,
            logic_limit=logic_limit,
        )
        for workload in workloads
    ]
    combined = co_deployment_objectives(evaluations)
    configs = [evaluations[0].config_at(0, j, k) for k, j in flat]
    throughput = [
        np.array([float(e.throughput_gops[0, j, k]) for k, j in flat])
        for e in evaluations
    ]
    per_model = [
        np.array([bool(e.feasible[0, j, k]) for k, j in flat])
        for e in evaluations
    ]
    joint = np.array([bool(combined["feasible"][0, j, k]) for k, j in flat])
    return configs, throughput, per_model, joint


def explore_joint(
    workloads: Sequence[ModelWorkload],
    device: FPGADevice,
    resources: ResourceModel = DEFAULT_RESOURCE_MODEL,
    n_knl: int = 14,
    freq_mhz: float = 200.0,
    logic_limit: float = 0.75,
    candidates: int = 5,
    seed: Optional[int] = None,
) -> JointExplorationResult:
    """Pick one configuration serving every workload (max-min normalized).

    The sharing factor N is set by the most multiply-intensive workload
    (smallest intensity ratio), since an under-provisioned multiplier
    array hurts everyone.

    The S_ec x N_cu grid is scored per workload by the compiled
    whole-grid evaluator and combined through
    :func:`co_deployment_objectives`. ``seed`` is pure provenance (the
    exhaustive sweep has no randomness), mirroring
    :class:`repro.dse.explorer.ExplorationResult`.
    """
    if not workloads:
        raise ValueError("need at least one workload")
    # The joint N must fit the smallest intensity ratio across *all*
    # workloads — the most multiply-intensive model dictates the
    # multiplier provisioning.
    n_share = min(
        share_factor_from_workloads(workload.layers) for workload in workloads
    )
    models = tuple(workload.name for workload in workloads)
    # Buffer depths differ per model, so every config is evaluated against
    # each workload with that workload's own buffer sizing.
    configs, throughput_arrays, feasible_arrays, feasible_mask = _joint_grids(
        workloads, device, resources, n_share, n_knl, freq_mhz,
        logic_limit,
    )
    best_single = {
        name: float(
            max(
                (
                    t
                    for t, ok in zip(throughput_arrays[m], feasible_arrays[m])
                    if ok
                ),
                default=0.0,
            )
        )
        for m, name in enumerate(models)
    }
    joint: List[JointPoint] = []
    for index, config in enumerate(configs):
        throughput = {
            name: float(throughput_arrays[m][index])
            for m, name in enumerate(models)
        }
        normalized = {
            name: (throughput[name] / best_single[name] if best_single[name] else 0.0)
            for name in models
        }
        joint.append(
            JointPoint(
                config=config,
                throughput=throughput,
                normalized=normalized,
                feasible=bool(feasible_mask[index]),
            )
        )
    feasible_points = [point for point in joint if point.feasible]
    if not feasible_points:
        raise RuntimeError("no jointly feasible configuration")
    ranked = sorted(feasible_points, key=lambda p: -p.worst_normalized)
    chosen = ranked[0]
    # Re-derive buffer depths covering every workload at the chosen S_ec.
    d_f = d_w = d_q = 1
    for workload in workloads:
        buffers = size_buffers(workload, chosen.config.s_ec)
        d_f, d_w, d_q = max(d_f, buffers.d_f), max(d_w, buffers.d_w), max(d_q, buffers.d_q)
    final_config = AcceleratorConfig(
        n_cu=chosen.config.n_cu,
        n_knl=n_knl,
        n_share=n_share,
        s_ec=chosen.config.s_ec,
        d_f=d_f,
        d_w=d_w,
        d_q=d_q,
        freq_mhz=freq_mhz,
    )
    throughput = {
        workload.name: estimate_model(
            workload, final_config, mode=MODE_QUANTIZED
        ).throughput_gops
        for workload in workloads
    }
    normalized = {
        name: throughput[name] / best_single[name] if best_single[name] else 0.0
        for name in models
    }
    chosen = JointPoint(
        config=final_config,
        throughput=throughput,
        normalized=normalized,
        feasible=True,
    )
    return JointExplorationResult(
        device=device,
        models=models,
        best_single=best_single,
        chosen=chosen,
        candidates=tuple(ranked[:candidates]),
        seed=seed,
    )
