"""Partition search: co-optimizing cuts, devices and shard configs.

The paper's flow picks one configuration for one device. This module
searches *pipelined deployments* over a heterogeneous device catalog
(HPIPE's regime, see PAPERS.md): contiguous layer cuts split the model
into shards, every shard gets its own device and its own best
accelerator configuration (buffer depths sized to *its* layers only —
a conv-only shard needs a fraction of the whole model's D_f, which frees
M20K blocks for more compute units), and inter-shard activation traffic
is priced through a :class:`repro.shard.link.LinkModel`.

Pipeline timing is the deterministic tandem-line law pinned by
:mod:`repro.shard.pipeline_sim`: steady-state throughput is the
bottleneck stage's (or link's) rate, latency is the fill sum. The
replication baseline the search must beat runs the whole model solo on
every catalog device — a device that cannot fit the whole model
contributes zero there, but can still carry a light shard in a pipeline,
which is exactly where partitioned deployments win.

:func:`search_partitions` is exhaustive over contiguous cuts and
injective device assignments; a memoized shard evaluator (telemetry
cache family ``dse.partition``) collapses the product to one compiled
grid per (layer slice, device).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hw.config import AcceleratorConfig
from ..hw.device import FPGADevice
from ..hw.workload import ModelWorkload
from ..shard.link import DEFAULT_LINK, LinkModel
from ..shard.plan import ModelPartition, ShardPlan, ShardSpec
from ..telemetry.caches import Memo
from .compiled import CompiledWorkload
from .performance import share_factor_from_workloads
from .resources import DEFAULT_RESOURCE_MODEL, ResourceModel

__all__ = [
    "PartitionSearchResult",
    "ReplicationBaseline",
    "replication_baseline",
    "search_partitions",
]

#: Default exploration grid per shard — the paper's Figure 7 axes.
_S_EC_RANGE = tuple(range(4, 33, 2))
_N_CU_RANGE = tuple(range(1, 7))


# ---------------------------------------------------------------------------
# Memoized per-(layer slice, device) shard evaluation.
# ---------------------------------------------------------------------------

#: Memoized shard evaluations. Every cut set re-uses O(L^2) contiguous
#: slices, so the memo turns the cut x assignment product into one grid
#: evaluation per (slice, device).
_shard_evals = Memo("dse.partition", capacity=4096)


@dataclass(frozen=True)
class _ShardEval:
    """Best feasible configuration of one layer slice on one device."""

    config: AcceleratorConfig
    seconds_per_image: float
    throughput_gops: float


def _best_shard_config(
    workload: ModelWorkload,
    start: int,
    end: int,
    device: FPGADevice,
    resources: ResourceModel,
    n_knl: int,
    freq_mhz: float,
    logic_limit: float,
) -> Optional[_ShardEval]:
    """Best feasible config for layers ``[start, end)`` on ``device``.

    ``None`` when no grid point fits the device — the slice (or whole
    model, for the replication baseline) is infeasible there. Memoized
    until ``workload`` is collected.
    """

    def build() -> Optional[_ShardEval]:
        layers = workload.layers[start:end]
        shard = ModelWorkload(name=f"{workload.name}[{start}:{end}]", layers=layers)
        # Not compile_workload: a fresh slice is never looked up again, and
        # a memo entry would pin it past this call.
        evaluation = CompiledWorkload(
            shard, share_factor_from_workloads(layers)
        ).evaluate_grid(
            shard,
            resources,
            device=device,
            n_knl_values=(n_knl,),
            s_ec_values=_S_EC_RANGE,
            n_cu_values=_N_CU_RANGE,
            freq_mhz=freq_mhz,
            logic_limit=logic_limit,
        )
        if not evaluation.feasible.any():
            return None
        cycles = np.where(evaluation.feasible, evaluation.cycles_per_image, np.inf)
        idx = np.unravel_index(int(np.argmin(cycles)), cycles.shape)
        return _ShardEval(
            config=evaluation.config_at(*idx),
            seconds_per_image=float(cycles[idx]) / (freq_mhz * 1e6),
            throughput_gops=float(evaluation.throughput_gops[idx]),
        )

    key = (start, end, device.name, n_knl, freq_mhz, logic_limit, resources)
    return _shard_evals.get(key, build, owner=workload)


# ---------------------------------------------------------------------------
# Replication baseline.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicationBaseline:
    """The whole catalog running whole-model replicas (no pipelining).

    Each device serves complete requests with its own best whole-model
    configuration; devices that cannot fit the whole model contribute
    zero — they idle, which is the waste pipelining recovers.
    """

    model: str
    per_device_ips: Mapping[str, float]

    @property
    def total_ips(self) -> float:
        return sum(self.per_device_ips.values())

    @property
    def feasible_devices(self) -> Tuple[str, ...]:
        return tuple(
            sorted(n for n, ips in self.per_device_ips.items() if ips > 0)
        )


def replication_baseline(
    workload: ModelWorkload,
    devices: Sequence[FPGADevice],
    resources: ResourceModel = DEFAULT_RESOURCE_MODEL,
    n_knl: int = 14,
    freq_mhz: float = 200.0,
    logic_limit: float = 0.75,
) -> ReplicationBaseline:
    """Aggregate throughput of whole-model replicas across the catalog."""
    if not devices:
        raise ValueError("need at least one device")
    per_device: Dict[str, float] = {}
    for device in devices:
        best = _best_shard_config(
            workload, 0, len(workload.layers), device, resources,
            n_knl, freq_mhz, logic_limit,
        )
        per_device[device.name] = (
            1.0 / best.seconds_per_image if best is not None else 0.0
        )
    return ReplicationBaseline(model=workload.name, per_device_ips=per_device)


# ---------------------------------------------------------------------------
# Exhaustive search.
# ---------------------------------------------------------------------------


def _plan_for(
    workload: ModelWorkload,
    cuts: Tuple[int, ...],
    assignment: Sequence[FPGADevice],
    resources: ResourceModel,
    n_knl: int,
    freq_mhz: float,
    logic_limit: float,
    link: LinkModel,
) -> Optional[ShardPlan]:
    """Price one (cuts, device assignment) point; None when infeasible."""
    partition = ModelPartition(workload=workload, cuts=cuts)
    bounds = partition.boundaries
    shards: List[ShardSpec] = []
    for i, device in enumerate(assignment):
        best = _best_shard_config(
            workload, bounds[i], bounds[i + 1], device, resources,
            n_knl, freq_mhz, logic_limit,
        )
        if best is None:
            return None
        slice_layers = workload.layers[bounds[i] : bounds[i + 1]]
        shards.append(
            ShardSpec(
                index=i,
                layers=tuple(l.spec.name for l in slice_layers),
                device=device,
                config=best.config,
                seconds_per_image=best.seconds_per_image,
                dense_ops_per_image=sum(
                    l.spec.dense_ops for l in slice_layers
                ),
            )
        )
    transfers = tuple(
        link.transfer(elements) for elements in partition.cut_elements()
    )
    return ShardPlan(
        model=workload.name,
        shards=tuple(shards),
        transfers=transfers,
        dense_ops_per_image=workload.dense_ops,
    )


def _rank_key(plan: ShardPlan) -> Tuple[float, float, int]:
    """Deterministic ranking: rate first, then fill, then fewer shards."""
    return (-plan.throughput_ips, plan.fill_latency_s, plan.n_shards)


@dataclass(frozen=True)
class PartitionSearchResult:
    """Outcome of one partition search over a device catalog."""

    model: str
    devices: Tuple[FPGADevice, ...]
    link: LinkModel
    best: ShardPlan
    candidates: Tuple[ShardPlan, ...]
    replication: ReplicationBaseline
    evaluated: int
    space_size: int
    seed: Optional[int] = None

    @property
    def speedup_vs_replication(self) -> float:
        """Pipelined best over the replicated catalog (images/s ratio)."""
        total = self.replication.total_ips
        return self.best.throughput_ips / total if total > 0 else float("inf")

    def render(self) -> str:
        lines = [
            f"partition search for {self.model} over "
            f"{', '.join(d.name for d in self.devices)} "
            f"({self.evaluated}/{self.space_size} points, exhaustive)",
            f"best: {self.best.describe()}",
            f"replication baseline: {self.replication.total_ips:.1f} img/s "
            f"({', '.join(self.replication.feasible_devices) or 'no feasible device'})",
            f"pipelined vs replicated: {self.speedup_vs_replication:.2f}x",
        ]
        for plan in self.candidates[1:4]:
            lines.append(f"  alt: {plan.describe()}")
        return "\n".join(lines)


def search_partitions(
    workload: ModelWorkload,
    devices: Sequence[FPGADevice],
    resources: ResourceModel = DEFAULT_RESOURCE_MODEL,
    max_shards: Optional[int] = None,
    n_knl: int = 14,
    freq_mhz: float = 200.0,
    logic_limit: float = 0.75,
    link: LinkModel = DEFAULT_LINK,
    candidates: int = 5,
    seed: Optional[int] = None,
) -> PartitionSearchResult:
    """Exhaustive search over contiguous cuts and device assignments.

    Every shard count up to ``max_shards`` (default: the catalog size,
    capped at 3), every strictly increasing cut set, and every injective
    device assignment is priced; the per-slice evaluations are memoized,
    so the combinatorial product collapses to one compiled grid per
    (slice, device). Ranking is bottleneck rate, then fill latency.

    ``seed`` is pure provenance (the exhaustive search has no internal
    randomness), mirroring :class:`repro.dse.explorer.ExplorationResult`.
    """
    if not devices:
        raise ValueError("need at least one device")
    names = [d.name for d in devices]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate devices in catalog: {names}")
    n_layers = len(workload.layers)
    if n_layers < 1:
        raise ValueError("workload has no layers")
    if max_shards is None:
        max_shards = min(len(devices), 3)
    max_shards = min(max_shards, len(devices), n_layers)
    if max_shards < 1:
        raise ValueError("max_shards must be >= 1")

    plans: List[ShardPlan] = []
    evaluated = 0
    space_size = 0
    for k in range(1, max_shards + 1):
        for cuts in combinations(range(1, n_layers), k - 1):
            for assignment in permutations(devices, k):
                space_size += 1
                plan = _plan_for(
                    workload, cuts, assignment, resources,
                    n_knl, freq_mhz, logic_limit, link,
                )
                evaluated += 1
                if plan is not None:
                    plans.append(plan)
    if not plans:
        raise RuntimeError(
            f"no feasible deployment of {workload.name!r} on "
            f"{', '.join(names)}"
        )
    plans.sort(key=_rank_key)
    baseline = replication_baseline(
        workload, devices, resources, n_knl, freq_mhz, logic_limit
    )
    return PartitionSearchResult(
        model=workload.name,
        devices=tuple(devices),
        link=link,
        best=plans[0],
        candidates=tuple(plans[:candidates]),
        replication=baseline,
        evaluated=evaluated,
        space_size=space_size,
        seed=seed,
    )

