"""Layer-pipeline sharding of models across device catalogs.

The subsystem cuts a model workload into contiguous shards
(:mod:`repro.shard.plan`), prices inter-shard
activation traffic through a bandwidth/latency link model
(:mod:`repro.shard.link`), and validates pipeline timing against a
finite-FIFO tandem-line simulation (:mod:`repro.shard.pipeline_sim`).
The partition *search* lives in :mod:`repro.dse.partition`.
"""
