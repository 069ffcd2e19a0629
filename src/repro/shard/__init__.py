"""Layer-pipeline sharding of compiled models across device catalogs.

The subsystem splits a fused :class:`repro.core.model_plan.ModelPlan`
into contiguous shards (:mod:`repro.shard.plan`), prices inter-shard
activation traffic through a bandwidth/latency link model
(:mod:`repro.shard.link`), and validates pipeline timing against a
finite-FIFO tandem-line simulation (:mod:`repro.shard.pipeline_sim`).
The partition *search* lives in :mod:`repro.dse.partition`.
"""
