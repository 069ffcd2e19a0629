"""Layer-pipeline sharding of compiled models across device catalogs.

The subsystem splits a fused :class:`repro.core.model_plan.ModelPlan`
into contiguous shards (:mod:`repro.shard.plan`), prices inter-shard
activation traffic through a bandwidth/latency link model
(:mod:`repro.shard.link`), and validates pipeline timing against a
finite-FIFO tandem-line simulation (:mod:`repro.shard.pipeline_sim`).
The partition *search* lives in :mod:`repro.dse.partition`.
"""

from .link import DEFAULT_LINK, LinkModel, LinkTransfer
from .plan import (
    ModelPartition,
    ShardPlan,
    ShardSpec,
    ShardedModelPlan,
    compile_sharded_plan,
    sharded_run_batch,
    stage_cuts_for_layers,
)
from .pipeline_sim import (
    PipelineSimReport,
    analytic_bottleneck_s,
    analytic_fill_s,
    simulate_pipeline,
    simulate_shard_plan,
)

__all__ = [
    "DEFAULT_LINK",
    "LinkModel",
    "LinkTransfer",
    "ModelPartition",
    "PipelineSimReport",
    "ShardPlan",
    "ShardSpec",
    "ShardedModelPlan",
    "analytic_bottleneck_s",
    "analytic_fill_s",
    "compile_sharded_plan",
    "sharded_run_batch",
    "simulate_pipeline",
    "simulate_shard_plan",
    "stage_cuts_for_layers",
]
