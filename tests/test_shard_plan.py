"""The repro.shard partition/plan layer (repro.shard.plan, .link).

Cut validation, per-shard workload slicing, link pricing and the
tandem-line timing arithmetic.
"""

import pytest

from repro.hw.device import STRATIX_V_GXA3, STRATIX_V_GXA7
from repro.hw.config import AcceleratorConfig
from repro.shard.link import LinkModel
from repro.shard.pipeline_sim import simulate_shard_plan
from repro.shard.plan import ModelPartition, ShardPlan, ShardSpec
from repro.workloads import synthetic_model_workload


@pytest.fixture(scope="module")
def alexnet_workload():
    return synthetic_model_workload("alexnet", seed=1)


def _config() -> AcceleratorConfig:
    return AcceleratorConfig(
        n_cu=2, n_knl=14, n_share=4, s_ec=16, d_f=64, d_w=64, d_q=64,
        freq_mhz=200.0,
    )


class TestModelPartition:
    def test_boundaries_and_shard_workloads(self, alexnet_workload):
        partition = ModelPartition(workload=alexnet_workload, cuts=(2, 5))
        assert partition.n_shards == 3
        assert partition.boundaries == (0, 2, 5, len(alexnet_workload.layers))
        shards = partition.shard_workloads()
        assert [len(s.layers) for s in shards] == [
            2, 3, len(alexnet_workload.layers) - 5,
        ]
        assert shards[0].name == f"{alexnet_workload.name}/shard0"
        # Slices tile the layer list exactly.
        names = [l.spec.name for s in shards for l in s.layers]
        assert names == [l.spec.name for l in alexnet_workload.layers]

    def test_cut_elements_are_boundary_activation_sizes(self, alexnet_workload):
        partition = ModelPartition(workload=alexnet_workload, cuts=(3,))
        (elements,) = partition.cut_elements()
        assert elements == alexnet_workload.layers[2].spec.output_size

    def test_invalid_cuts_rejected(self, alexnet_workload):
        n = len(alexnet_workload.layers)
        for cuts in ((0,), (n,), (3, 3), (5, 2), (-1,)):
            with pytest.raises(ValueError):
                ModelPartition(workload=alexnet_workload, cuts=cuts)


class TestLinkModel:
    def test_transfer_pricing(self):
        link = LinkModel(bandwidth_gbs=10.0, latency_s=1e-6, name="t")
        transfer = link.transfer(1000)
        assert transfer.wire_bytes == 1000
        assert transfer.seconds == pytest.approx(1e-6 + 1000 / 10e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel(bandwidth_gbs=0.0)
        with pytest.raises(ValueError):
            LinkModel(bandwidth_gbs=1.0, latency_s=-1.0)
        with pytest.raises(ValueError):
            LinkModel(bandwidth_gbs=1.0).transfer(-1)


def _two_shard_plan() -> ShardPlan:
    link = LinkModel(bandwidth_gbs=6.0, latency_s=5e-6)
    return ShardPlan(
        model="toy",
        shards=(
            ShardSpec(
                index=0, layers=("conv1",), device=STRATIX_V_GXA7,
                config=_config(), seconds_per_image=2e-4,
                dense_ops_per_image=1_000_000,
            ),
            ShardSpec(
                index=1, layers=("conv2", "fc3"), device=STRATIX_V_GXA3,
                config=_config(), seconds_per_image=3e-4,
                dense_ops_per_image=2_000_000,
            ),
        ),
        transfers=(link.transfer(10_000),),
        dense_ops_per_image=3_000_000,
    )


class TestShardPlanTiming:
    def test_tandem_line_arithmetic(self):
        plan = _two_shard_plan()
        link_s = plan.transfers[0].seconds
        assert plan.service_times == (2e-4, link_s, 3e-4)
        assert plan.bottleneck_s == 3e-4
        assert plan.fill_latency_s == pytest.approx(5e-4 + link_s)
        assert plan.throughput_ips == pytest.approx(1 / 3e-4)
        assert plan.batch_seconds(5) == pytest.approx(
            plan.fill_latency_s + 4 * plan.bottleneck_s
        )
        assert plan.throughput_gops == pytest.approx(
            plan.throughput_ips * 3_000_000 / 1e9
        )

    def test_simulation_matches_plan_estimates(self):
        plan = _two_shard_plan()
        report = simulate_shard_plan(plan, images=10, queue_depth=2)
        assert report.fill_latency_s == pytest.approx(plan.fill_latency_s)
        assert report.steady_interval_s == pytest.approx(plan.bottleneck_s)

    def test_transfer_count_must_match(self):
        plan = _two_shard_plan()
        with pytest.raises(ValueError):
            ShardPlan(
                model="toy", shards=plan.shards, transfers=(),
                dense_ops_per_image=1,
            )

    def test_describe_names_devices(self):
        text = _two_shard_plan().describe()
        assert "Stratix-V GXA7" in text and "Stratix-V GXA3" in text
        assert "img/s" in text
