"""Partition search over heterogeneous device catalogs (repro.dse.partition).

Pins the acceptance story of the partitioned-deployment PR: the
exhaustive search finds a pipelined plan that *beats single-device
replication* for a real (model, catalog) pair; the memoized shard
evaluator keeps honest telemetry counters.
"""

import gc

import pytest

from repro.dse import explore
from repro.dse.partition import (
    PartitionSearchResult,
    _shard_evals,
    replication_baseline,
    search_partitions,
)
from repro.hw.device import (
    ARRIA_10_GX1150,
    CYCLONE_V_SE,
    STRATIX_V_GXA3,
    STRATIX_V_GXA7,
)
from repro.shard import LinkModel
from repro.telemetry import cache_stats
from repro.workloads import synthetic_model_workload

BENCH_SCALE = dict(scale=0.25, spatial_scale=0.25)

#: The memos the partition search shares with ``explore``.
DSE_MEMOS = ("dse.compiled", "dse.buffers")


@pytest.fixture(autouse=True)
def fresh_partition_cache():
    _shard_evals.clear()
    yield
    _shard_evals.clear()


@pytest.fixture(scope="module")
def vgg_quarter():
    return synthetic_model_workload("vgg16", seed=1, **BENCH_SCALE)


@pytest.fixture(scope="module")
def alexnet_half():
    return synthetic_model_workload(
        "alexnet", seed=1, scale=0.5, spatial_scale=0.5
    )


class TestExhaustiveSearch:
    def test_pipelined_beats_replication(self, vgg_quarter):
        """The PR's acceptance pair: bench-scale VGG16 over GXA7+GXA3.

        The GXA3 is whole-model feasible but slow; giving it the light
        front shard while the GXA7 runs the heavy tail beats running
        whole-model replicas on both boards.
        """
        result = search_partitions(
            vgg_quarter, [STRATIX_V_GXA7, STRATIX_V_GXA3]
        )
        assert result.best.n_shards == 2
        assert result.best.throughput_ips > result.replication.total_ips
        assert result.speedup_vs_replication > 1.0

    def test_search_is_exhaustive_and_ranked(self, alexnet_half):
        result = search_partitions(
            alexnet_half, [STRATIX_V_GXA7, ARRIA_10_GX1150], max_shards=2
        )
        layers = len(alexnet_half.layers)
        # k=1: 2 assignments; k=2: (layers-1) cuts x 2 orderings.
        assert result.space_size == 2 + (layers - 1) * 2
        assert result.evaluated == result.space_size
        rates = [plan.throughput_ips for plan in result.candidates]
        assert rates == sorted(rates, reverse=True)

    def test_single_device_degenerates_to_whole_model(self, alexnet_half):
        result = search_partitions(
            alexnet_half, [STRATIX_V_GXA7], max_shards=1
        )
        assert result.best.n_shards == 1
        assert result.best.transfers == ()
        assert result.best.throughput_ips == pytest.approx(
            result.replication.per_device_ips[STRATIX_V_GXA7.name]
        )

    def test_link_pricing_penalizes_wide_cuts(self, vgg_quarter):
        fast = search_partitions(
            vgg_quarter,
            [STRATIX_V_GXA7, STRATIX_V_GXA3],
            link=LinkModel(bandwidth_gbs=100.0, name="fast"),
        )
        slow = search_partitions(
            vgg_quarter,
            [STRATIX_V_GXA7, STRATIX_V_GXA3],
            link=LinkModel(bandwidth_gbs=0.05, latency_s=1e-3, name="slow"),
        )
        assert fast.best.throughput_ips >= slow.best.throughput_ips

    def test_duplicate_devices_rejected(self, alexnet_half):
        with pytest.raises(ValueError):
            search_partitions(alexnet_half, [STRATIX_V_GXA7, STRATIX_V_GXA7])

    def test_render_mentions_baseline(self, vgg_quarter):
        result = search_partitions(
            vgg_quarter, [STRATIX_V_GXA7, STRATIX_V_GXA3]
        )
        text = result.render()
        assert "replication baseline" in text
        assert "pipelined vs replicated" in text


class TestReplicationBaseline:
    def test_infeasible_device_contributes_zero(self, vgg_quarter):
        baseline = replication_baseline(
            vgg_quarter, [STRATIX_V_GXA7, CYCLONE_V_SE]
        )
        assert baseline.per_device_ips[STRATIX_V_GXA7.name] > 0
        assert baseline.per_device_ips[CYCLONE_V_SE.name] == 0.0
        assert baseline.feasible_devices == (STRATIX_V_GXA7.name,)
        assert baseline.total_ips == pytest.approx(
            baseline.per_device_ips[STRATIX_V_GXA7.name]
        )


class TestPartitionCache:
    def test_memo_hits_across_repeat_searches(self, alexnet_half):
        search_partitions(alexnet_half, [STRATIX_V_GXA7, STRATIX_V_GXA3])
        first = _shard_evals.stats()
        assert first.name == "dse.partition"
        assert first.misses > 0
        # The cut x assignment product re-visits slices: hits must occur.
        assert first.hits > 0
        search_partitions(alexnet_half, [STRATIX_V_GXA7, STRATIX_V_GXA3])
        second = _shard_evals.stats()
        assert second.misses == first.misses  # everything memoized
        assert second.hits > first.hits

    def test_search_leaves_no_dead_shard_entries(self, alexnet_half):
        """Shard slices are throwaway workloads: once the search returns
        and they are collected, the DSE memos hold only the design's own
        entries again."""
        explore(alexnet_half, STRATIX_V_GXA7)
        sizes = {name: cache_stats()[name].size for name in DSE_MEMOS}
        search_partitions(alexnet_half, [STRATIX_V_GXA7, STRATIX_V_GXA3])
        gc.collect()
        assert {name: cache_stats()[name].size for name in DSE_MEMOS} == sizes


class TestProvenance:
    def test_seed_field_round_trips(self, alexnet_half):
        result = search_partitions(
            alexnet_half, [STRATIX_V_GXA7, STRATIX_V_GXA3], seed=42
        )
        assert isinstance(result, PartitionSearchResult)
        assert result.seed == 42
