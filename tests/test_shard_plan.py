"""The repro.shard partition/plan layer (repro.shard.plan, .link).

Correctness pin of the tentpole: sharded execution must be *bit-exact*
against the unsharded fused ModelPlan for every contiguous cut set —
same outputs, same per-image op attribution. Plus the static partition/timing layer: cut
validation, per-shard workload slicing, link pricing, the tandem-line
timing arithmetic, and the shard-plan cache's telemetry accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model_plan import compile_model_plan
from repro.hw.device import STRATIX_V_GXA3, STRATIX_V_GXA7
from repro.hw.config import AcceleratorConfig
from repro.pipeline import QuantizedPipeline
from repro.shard import (
    LinkModel,
    ModelPartition,
    ShardPlan,
    ShardSpec,
    ShardedModelPlan,
    compile_sharded_plan,
    sharded_run_batch,
    simulate_shard_plan,
    stage_cuts_for_layers,
)
from repro.shard.plan import _sharded_plans
from repro.workloads import synthetic_model_workload


@pytest.fixture(autouse=True)
def fresh_shard_cache():
    _sharded_plans.clear()
    yield
    _sharded_plans.clear()


def _tiny_architecture():
    """Module copy of the conftest tiny CNN (fixture scopes differ)."""
    from repro.nn.models import (
        Architecture,
        ConvDef,
        FCDef,
        FlattenDef,
        PoolDef,
        ReLUDef,
        SoftmaxDef,
    )

    return Architecture(
        name="tiny",
        input_channels=3,
        input_rows=16,
        input_cols=16,
        defs=[
            ConvDef("conv1", 8, kernel=3, padding=1),
            ReLUDef("relu1"),
            PoolDef("pool1", kernel=2, stride=2),
            ConvDef("conv2", 12, kernel=3, padding=1),
            ReLUDef("relu2"),
            PoolDef("pool2", kernel=2, stride=2),
            FlattenDef("flatten"),
            FCDef("fc3", 20),
            ReLUDef("relu3"),
            FCDef("fc4", 10, scale_output=False),
            SoftmaxDef("prob"),
        ],
    )


def _quantized(feature_bits: int) -> QuantizedPipeline:
    network = _tiny_architecture().build(seed=7)
    pipeline = QuantizedPipeline(network, feature_bits=feature_bits)
    rng = np.random.default_rng(3)
    pipeline.calibrate(rng.standard_normal((3, 16, 16)))
    pipeline.quantize()
    return pipeline


@pytest.fixture(scope="module")
def quantized():
    """8-bit features: the fused plan stores float32 codes."""
    return _quantized(8)


@pytest.fixture(scope="module")
def quantized_wide():
    """16-bit features: past the float32 bounds, the plan stores int64 codes."""
    return _quantized(16)


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


def _assert_identical(sharded, reference):
    assert len(sharded) == len(reference)
    for a, b in zip(sharded, reference):
        assert np.array_equal(a.output, b.output)
        assert [
            (s.name, s.accumulate_ops, s.multiply_ops) for s in a.layer_stats
        ] == [
            (s.name, s.accumulate_ops, s.multiply_ops) for s in b.layer_stats
        ]


class TestShardedExecutionBitExact:
    def test_every_single_cut_is_bit_exact(self, quantized):
        rng = np.random.default_rng(11)
        images = rng.standard_normal((3, 3, 16, 16))
        reference = quantized.run_batch(images)
        plan = compile_model_plan(quantized, images.shape)
        for cut in range(1, len(plan.stages)):
            _assert_identical(
                sharded_run_batch(quantized, images, (cut,)), reference
            )

    def test_layer_name_cuts_resolve_to_stage_cuts(self, quantized):
        rng = np.random.default_rng(12)
        images = rng.standard_normal((2, 3, 16, 16))
        plan = compile_model_plan(quantized, images.shape)
        cuts = stage_cuts_for_layers(plan, ["fc3"])
        _assert_identical(
            sharded_run_batch(quantized, images, cuts),
            quantized.run_batch(images),
        )

    @given(
        data=st.data(),
        batch=st.integers(min_value=1, max_value=3),
        image_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_differential_across_cut_sets(
        self, quantized, data, batch, image_seed
    ):
        """Any strictly increasing stage cut set is bit-exact."""
        rng = np.random.default_rng(image_seed)
        images = rng.standard_normal((batch, 3, 16, 16))
        n_stages = len(compile_model_plan(quantized, images.shape).stages)
        cuts = tuple(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=1, max_value=n_stages - 1),
                        min_size=1,
                        max_size=3,
                    )
                )
            )
        )
        _assert_identical(
            sharded_run_batch(quantized, images, cuts),
            quantized.run_batch(images),
        )

    def test_transfer_elements_recorded(self, quantized):
        rng = np.random.default_rng(14)
        images = rng.standard_normal((2, 3, 16, 16))
        sharded = compile_sharded_plan(quantized, images.shape, (2,))
        assert sharded.transfer_elements is None  # before the first run
        sharded_run_batch(quantized, images, (2,))
        assert sharded.transfer_elements is not None
        assert len(sharded.transfer_elements) == 1
        assert sharded.transfer_elements[0] > 0

    def test_invalid_cuts_rejected(self, quantized):
        rng = np.random.default_rng(15)
        images = rng.standard_normal((1, 3, 16, 16))
        for cuts in ((0,), (99,), (2, 2)):
            with pytest.raises(ValueError):
                sharded_run_batch(quantized, images, cuts)


class TestShardedArenaDtypes:
    CUT_SETS = [(1,), (3,), (2, 4), (1, 3, 5)]

    def _runs(self, pipeline, codes):
        plan = compile_model_plan(pipeline, codes.shape)
        expected, _ = plan.run(codes)
        expected = expected.copy()
        transfers = []
        for cuts in self.CUT_SETS:
            sharded = ShardedModelPlan(plan, cuts)
            assert [a.codes for a in sharded.arenas] == [plan.arena.codes] * (len(cuts) + 1)
            out, fmt = sharded.run(codes)
            assert fmt == plan.output_fmt
            assert out.dtype == expected.dtype == np.int64
            assert out.tobytes() == expected.tobytes()
            transfers.append(sharded.transfer_elements)
        return plan.arena.codes, transfers

    def test_shards_inherit_the_plan_code_dtype(self, quantized, quantized_wide):
        """Shard arenas copy the parent's dtypes; on a float32 plan and an
        int64 plan the sharded bytes equal ``plan.run`` bytes, and the
        per-cut transfer sizes do not depend on the code dtype."""
        rng = np.random.default_rng(17)
        images = rng.standard_normal((3, 3, 16, 16))
        narrow, narrow_transfers = self._runs(
            quantized, quantized.input_fmt.quantize(images)
        )
        wide, wide_transfers = self._runs(
            quantized_wide, quantized_wide.input_fmt.quantize(images)
        )
        assert (narrow, wide) == (np.float32, np.int64)
        assert narrow_transfers == wide_transfers


class TestShardedPlanCache:
    def test_cache_hits_and_family_name(self, quantized):
        rng = np.random.default_rng(16)
        images = rng.standard_normal((2, 3, 16, 16))
        first = compile_sharded_plan(quantized, images.shape, (2,))
        again = compile_sharded_plan(quantized, images.shape, (2,))
        assert first is again
        other = compile_sharded_plan(quantized, images.shape, (1,))
        assert isinstance(other, ShardedModelPlan)
        stats = _sharded_plans.stats()
        assert stats.name == "shard.plans"
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.size == 2
