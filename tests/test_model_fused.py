"""Differential tests of the fused model plan (repro.core.model_plan).

The fused streaming path must be *bit-exact* against the retained
per-layer reference — same outputs, same per-image op counts — across
the architecture space (groups, padding, strided convs, FC stacks,
standalone and fused pooling, LRN/AvgPool host-layer splits), on all
three host datapaths: the float32 GEMM, the float64 GEMM and the exact
int64 fallback — and on both arena code dtypes, float32 and int64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import plan as plan_module
from repro.core.model_plan import (
    FLOAT32_REQUANTIZE_EXACT,
    ModelPlan,
    _Arena,
    _FusedStage,
    _float32_codes,
    _integer_maxpool,
    _model_plans,
    _normal_float32,
    compile_model_plan,
    requantize,
)
from repro.core.plan import ExactnessError
from repro.nn.layers import MaxPool2D
from repro.nn.models import (
    Architecture,
    ConvDef,
    DropoutDef,
    FCDef,
    FlattenDef,
    LRNDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)
from repro.pipeline import QuantizedPipeline
from repro.shard.plan import ShardedModelPlan
from repro.telemetry.context import Telemetry, activate

@pytest.fixture(params=["sparse", "float64", "fallback"])
def datapath(request, monkeypatch):
    """Run the test body on each host datapath.

    ``sparse`` (the suite's historical id for the default run) leaves the
    choice to the plans, which pick the float32 GEMM for 8-bit models;
    ``float64`` lowers the float32 limit to zero so every fused stage and
    every reference layer takes the float64 GEMM; ``fallback`` lowers both
    float limits to zero so they all take the exact int64 matmul.
    """
    if request.param != "sparse":
        monkeypatch.setattr(plan_module, "FLOAT32_EXACT", 0)
    if request.param == "fallback":
        monkeypatch.setattr(plan_module, "FLOAT64_EXACT", 0)
    return request.param


@pytest.fixture(autouse=True)
def fresh_model_plan_cache():
    _model_plans.clear()
    yield
    _model_plans.clear()


def build_pipeline(
    arch: Architecture, rng: np.random.Generator, feature_bits: int = 8
) -> QuantizedPipeline:
    network = arch.build(seed=7)
    pipeline = QuantizedPipeline(network, feature_bits=feature_bits)
    sample = rng.standard_normal(
        (arch.input_channels, arch.input_rows, arch.input_cols)
    )
    pipeline.calibrate(sample)
    pipeline.quantize()
    return pipeline


def assert_batches_identical(fused, reference):
    """Same outputs byte for byte (``array_equal`` cannot see ``-0.0``)
    and same per-image op counts."""
    assert len(fused) == len(reference)
    for f, r in zip(fused, reference):
        assert f.output.dtype == r.output.dtype
        assert f.output.tobytes() == r.output.tobytes()
        assert [(s.name, s.accumulate_ops, s.multiply_ops) for s in f.layer_stats] == [
            (s.name, s.accumulate_ops, s.multiply_ops) for s in r.layer_stats
        ]


# ---- architecture space ---------------------------------------------------

#: Fixed architectures covering every fusion shape the compiler can emit.
ARCHITECTURES = {
    "conv_relu_pool": Architecture(
        name="crp",
        input_channels=3,
        input_rows=12,
        input_cols=12,
        defs=[
            ConvDef("c1", 6, kernel=3, padding=1),
            ReLUDef("r1"),
            PoolDef("p1", kernel=2, stride=2),
            FlattenDef("fl"),
            FCDef("fc", 5, scale_output=False),
            SoftmaxDef("sm"),
        ],
    ),
    "grouped_strided": Architecture(
        name="grp",
        input_channels=4,
        input_rows=11,
        input_cols=11,
        defs=[
            ConvDef("c1", 8, kernel=3, stride=2, padding=2, groups=2),
            ReLUDef("r1"),
            ConvDef("c2", 6, kernel=1),
            FlattenDef("fl"),
            FCDef("fc", 4, scale_output=False),
        ],
    ),
    # LRN and AvgPool split the integer stream onto the host float path,
    # and the pool after LRN is *not* adjacent to a conv: standalone stage.
    "host_split": Architecture(
        name="host",
        input_channels=3,
        input_rows=13,
        input_cols=13,
        defs=[
            ConvDef("c1", 6, kernel=3, padding=1),
            ReLUDef("r1"),
            LRNDef("lrn", local_size=3),
            PoolDef("p1", kernel=3, stride=2),
            ConvDef("c2", 8, kernel=3, padding=1),
            PoolDef("p2", kernel=2, stride=2, kind="avg"),
            FlattenDef("fl"),
            FCDef("fc", 6, scale_output=False),
            SoftmaxDef("sm"),
        ],
    ),
    # Conv straight into pool (no ReLU between): the two-step peek-ahead.
    "conv_pool_no_relu": Architecture(
        name="cp",
        input_channels=2,
        input_rows=9,
        input_cols=9,
        defs=[
            ConvDef("c1", 5, kernel=3),
            PoolDef("p1", kernel=3, stride=3),
            FlattenDef("fl"),
            FCDef("fc", 3, scale_output=False),
        ],
    ),
    # AlexNet's stride-4 11x11 stem; the pool fuses into the conv, so the
    # ReLU after it runs as a standalone stage, then Flatten's 3x3 map is
    # copied to CHW order for the FC.
    "strided_stem": Architecture(
        name="stem",
        input_channels=3,
        input_rows=27,
        input_cols=27,
        defs=[
            ConvDef("c1", 8, kernel=11, stride=4, padding=2),
            PoolDef("p1", kernel=3, stride=2),
            ReLUDef("r1"),
            FlattenDef("fl"),
            FCDef("fc", 5, scale_output=False),
        ],
    ),
    # FC stack with dropout and a trailing standalone ReLU epilogue.
    "fc_stack": Architecture(
        name="fcs",
        input_channels=4,
        input_rows=8,
        input_cols=8,
        defs=[
            FlattenDef("fl"),
            FCDef("fc1", 16),
            ReLUDef("r1"),
            DropoutDef("do"),
            FCDef("fc2", 8),
            ReLUDef("r2"),
            FCDef("fc3", 4, scale_output=False),
            SoftmaxDef("sm"),
        ],
    ),
}


class TestDifferential:
    """Fused plan vs per-layer reference across the architecture space."""

    @pytest.mark.parametrize("arch_name", sorted(ARCHITECTURES))
    @pytest.mark.parametrize("batch", [1, 3])
    def test_architecture_sweep(self, rng, datapath, arch_name, batch):
        arch = ARCHITECTURES[arch_name]
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal(
            (batch, arch.input_channels, arch.input_rows, arch.input_cols)
        )
        assert_batches_identical(
            pipeline.run_batch(images), pipeline.run_batch_reference(images)
        )

    @pytest.mark.parametrize("arch_name", sorted(ARCHITECTURES))
    def test_matches_per_image_run(self, rng, arch_name):
        arch = ARCHITECTURES[arch_name]
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal(
            (2, arch.input_channels, arch.input_rows, arch.input_cols)
        )
        fused = pipeline.run_batch(images)
        for i, result in enumerate(fused):
            single = pipeline.run(images[i])
            assert np.array_equal(result.output, single.output)
            assert [
                (s.name, s.accumulate_ops, s.multiply_ops)
                for s in result.layer_stats
            ] == [
                (s.name, s.accumulate_ops, s.multiply_ops)
                for s in single.layer_stats
            ]

    @given(
        seed=st.integers(0, 2**31 - 1),
        out1=st.integers(3, 8),
        kernel=st.sampled_from([1, 3]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        groups=st.sampled_from([1, 2]),
        pool_after=st.booleans(),
        relu_after=st.booleans(),
        host_layer=st.sampled_from([None, "lrn", "avg"]),
        batch=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_networks(
        self,
        seed,
        out1,
        kernel,
        stride,
        padding,
        groups,
        pool_after,
        relu_after,
        host_layer,
        batch,
    ):
        """Randomized conv tower + host split + FC head, fused == reference."""
        defs = [ConvDef("c1", out1 * groups, kernel=kernel, stride=stride,
                        padding=padding, groups=groups)]
        if relu_after:
            defs.append(ReLUDef("r1"))
        if pool_after:
            defs.append(PoolDef("p1", kernel=2, stride=2))
        if host_layer == "lrn":
            defs.append(LRNDef("lrn", local_size=3))
        elif host_layer == "avg":
            defs.append(PoolDef("avg", kernel=2, stride=2, kind="avg"))
        defs += [FlattenDef("fl"), FCDef("fc", 4, scale_output=False)]
        arch = Architecture(
            name="rand", input_channels=2 * groups, input_rows=10,
            input_cols=10, defs=defs,
        )
        rng = np.random.default_rng(seed)
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal((batch, 2 * groups, 10, 10))
        assert_batches_identical(
            pipeline.run_batch(images), pipeline.run_batch_reference(images)
        )

    def test_large_batch_grouped_strided_is_byte_exact(self, rng):
        """Batch 256 on the float32 arena: enough zero outputs that a
        ``-0.0`` leaking from the float32 requantize would change bytes."""
        arch = ARCHITECTURES["grouped_strided"]
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal((256, 4, 11, 11))
        assert compile_model_plan(pipeline, images.shape).arena.codes == np.float32
        assert_batches_identical(
            pipeline.run_batch(images), pipeline.run_batch_reference(images)
        )

    @pytest.mark.parametrize("cuts", [None, (2,), (3,)], ids=["plan", "cut2", "cut3"])
    def test_run_returns_a_fresh_array(self, rng, datapath, cuts):
        """``run`` detaches its result on every arena dtype, sharded or not
        (cut on either side of the Flatten): a second run leaves the first
        result as it was.  The network ends in a fused FC, whose codes are
        written into a ping buffer."""
        pipeline = build_pipeline(ARCHITECTURES["grouped_strided"], rng)
        codes = [
            pipeline.input_fmt.quantize(rng.standard_normal((2, 4, 11, 11)))
            for _ in range(2)
        ]
        plan = compile_model_plan(pipeline, codes[0].shape)
        runner = plan if cuts is None else ShardedModelPlan(plan, cuts)
        first, _ = runner.run(codes[0])
        kept = first.copy()
        second, _ = runner.run(codes[1])
        assert first.flags.c_contiguous and first.dtype == np.int64
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, buf) for buf in plan.arena.ping)
        assert first.tobytes() == kept.tobytes()
        assert first.tobytes() != second.tobytes()

    def test_repeated_runs_reuse_plan_and_stay_exact(self, rng):
        """The cached plan's arena is reused; results must not alias it."""
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        a = rng.standard_normal((2, 3, 12, 12))
        b = rng.standard_normal((2, 3, 12, 12))
        out_a = pipeline.run_batch(a)
        out_b = pipeline.run_batch(b)
        assert_batches_identical(out_a, pipeline.run_batch_reference(a))
        assert_batches_identical(out_b, pipeline.run_batch_reference(b))
        stats = _model_plans.stats()
        assert stats.misses == 1 and stats.hits == 1


# ---- integer max-pool -----------------------------------------------------


class TestIntegerMaxPool:
    #: (arena code dtype, largest |code| drawn): int64 arenas hold wide
    #: codes, float32 arenas every integer code below 2**24.
    ARENAS = [(np.int64, 2**40), (np.float32, 2**24 - 1)]

    @pytest.mark.parametrize("dtype,peak", ARENAS, ids=["int64", "float32"])
    @given(data=st.data(), kernel=st.integers(1, 3), stride=st.integers(1, 3),
           negative=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_float_maxpool(self, dtype, peak, data, kernel, stride, negative):
        """Strided max passes == the float64 oracle, bit for bit.

        The pool runs on the plan's channels-last stream, so the BCHW draw
        is transposed in and the result back out.  Odd and even extents
        exercise the ceil-mode overhang; all-negative maps check that the
        overhang never contributes a padding value.
        """
        codes = data.draw(
            hnp.arrays(
                dtype=np.int64,
                shape=st.tuples(
                    st.integers(1, 2), st.integers(1, 3), st.integers(3, 8),
                    st.integers(3, 8),
                ),
                elements=st.integers(-peak, peak),
            )
        )
        if negative:
            codes = np.maximum(codes - (int(codes.max()) + 1), -peak)
        pool = MaxPool2D("p", kernel, stride)
        arena = _Arena(codes.size, 1, dtype)
        nhwc = codes.astype(dtype).transpose(0, 2, 3, 1)
        fused = _integer_maxpool(arena, pool, nhwc).transpose(0, 3, 1, 2)
        expected = pool.forward_batch(codes).astype(np.int64)
        assert fused.dtype == dtype
        assert fused.shape == expected.shape
        assert np.array_equal(fused.astype(np.int64), expected)


# ---- datapath choice ------------------------------------------------------


def fused_datapaths(plan):
    return [s.datapath for s in plan.stages if isinstance(s, _FusedStage)]


class TestDatapathChoice:
    """Each fused stage's datapath follows from its input format's range."""

    def test_8bit_models_run_the_gemm(self, rng):
        pipeline = build_pipeline(ARCHITECTURES["conv_relu_pool"], rng)
        plan = compile_model_plan(pipeline, (1, 3, 12, 12))
        assert fused_datapaths(plan) == ["gemm32", "gemm32"]

    def test_wide_features_take_the_int64_matmul(self, rng):
        """48-bit feature codes break the 2**53 bound but fit int64."""
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = QuantizedPipeline(arch.build(seed=7), feature_bits=48)
        pipeline.calibrate(rng.standard_normal((3, 12, 12)))
        pipeline.quantize()
        images = rng.standard_normal((2, 3, 12, 12))
        fused = pipeline.run_batch(images)
        assert fused_datapaths(compile_model_plan(pipeline, images.shape)) == [
            "int64",
            "int64",
        ]
        assert_batches_identical(fused, pipeline.run_batch_reference(images))

    def test_features_too_wide_for_int64_fail_at_compile(self, rng):
        """60-bit codes could wrap int64: the stage refuses at fuse time."""
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = QuantizedPipeline(arch.build(seed=7), feature_bits=60)
        pipeline.calibrate(rng.standard_normal((3, 12, 12)))
        pipeline.quantize()
        with pytest.raises(ExactnessError, match="c1.*does not fit int64"):
            compile_model_plan(pipeline, (1, 3, 12, 12))


# ---- activation code dtype -------------------------------------------------


def reference_requantize(raw, e, clip_lo, clip_hi):
    """The int64 arena's float64 requantize: the reference's arithmetic,
    as the differential suite pins."""
    scratch = np.empty(raw.shape, np.float64)
    out = np.empty(raw.shape, np.float64)
    requantize(raw, 2.0**e, clip_lo, clip_hi, scratch, out)
    return out


def float32_requantize(raw, e, clip_lo, clip_hi):
    """The float32-arena requantize, cast to int64 as ``ModelPlan.run`` does.

    Large factors overflow to inf, which the clip saturates exactly as the
    float64 path saturates its finite value."""
    raw = raw.astype(np.float32)
    scratch = np.empty(raw.shape, np.float32)
    out = np.empty(raw.shape, np.float32)
    with np.errstate(over="ignore"):
        requantize(raw, 2.0**e, clip_lo, clip_hi, scratch, out)
    return out.astype(np.int64)


def requantize_probes(e):
    """|raw| < 2**23 near powers of two, near 2**23, and at the half-integer
    points (2k+1) * 2**(-e-1) +- 1 where ``raw * 2**e`` ties, both signs."""
    top = FLOAT32_REQUANTIZE_EXACT
    powers = [1 << p for p in range(23)]
    probes = {0, top - 1, top - 2, top - 3}
    probes.update(p + d for p in powers for d in (-1, 0, 1))
    if e < 0:
        half = 1 << (-e - 1)
        for k in (0, 1, 2, 3, 62, 63, 126, 127, 128, 4095, 2**22):
            center = (2 * k + 1) * half
            probes.update(center + d for d in (-1, 0, 1))
    magnitudes = np.array(sorted(p for p in probes if 0 <= p < top), np.int64)
    return np.concatenate([magnitudes, -magnitudes])


#: (clip_lo, clip_hi) of 4/8/16/24-bit outputs, with and without ReLU.
CLIPS = [
    (lo, (1 << (bits - 1)) - 1)
    for bits in (4, 8, 16, 24)
    for lo in (-(1 << (bits - 1)), 0)
]


class TestFloat32Codes:
    """The compile-time predicate that stores a plan's codes in float32."""

    def test_requantize_float32_matches_float64(self):
        """Below 2**23 the float32 requantize rounds like the float64 one
        for every normal float32 factor; the rest the predicate refuses."""
        for e in range(-140, 131):
            if not _normal_float32(2.0**e):
                assert e < -126 or e > 127
                continue
            raw = requantize_probes(e)
            for lo, hi in CLIPS:
                expected = reference_requantize(raw, e, lo, hi)
                got = float32_requantize(raw, e, lo, hi)
                mismatch = np.flatnonzero(got != expected)
                assert mismatch.size == 0, (e, lo, hi, raw[mismatch[:4]])

    def test_24_bit_sums_break_the_float32_requantize(self):
        """Why the bound is 2**23: (2**24 - 1) * 2**-25 + 0.5 rounds up to
        1.0 in float32, where float64 rounds it to 0."""
        raw = np.array([2**24 - 1, -(2**24 - 1)], np.int64)
        assert reference_requantize(raw, -25, -128, 127).tolist() == [0, 0]
        assert float32_requantize(raw, -25, -128, 127).tolist() == [1, -1]

    def test_non_normal_factors_are_refused(self, rng):
        """2**128 overflows float32: ``0 * inf`` is NaN where float64 gives 0,
        so a stage with that factor keeps the plan on int64 codes."""
        with np.errstate(over="ignore", invalid="ignore"):
            scratch = np.empty(1, np.float32)
            out = np.empty(1, np.float32)
            requantize(np.zeros(1, np.float32), 2.0**128, -128, 127, scratch, out)
        assert np.isnan(out[0])
        pipeline = build_pipeline(ARCHITECTURES["conv_relu_pool"], rng)
        plan = compile_model_plan(pipeline, (1, 3, 12, 12))
        assert _float32_codes(plan.stages, [plan.input_fmt])
        plan.stages[0].factor = 2.0**128
        assert not _float32_codes(plan.stages, [plan.input_fmt])

    def test_8bit_plans_store_float32(self, rng, datapath):
        """Only a plan whose every stage runs the float32 GEMM goes float32:
        the float64 and fallback fixtures keep int64 codes."""
        pipeline = build_pipeline(ARCHITECTURES["host_split"], rng)
        plan = compile_model_plan(pipeline, (2, 3, 13, 13))
        expected = np.float32 if datapath == "sparse" else np.int64
        assert plan.arena.codes == expected
        assert f"codes={np.dtype(expected)}" in plan.describe()

    def check_int64_plan(self, pipeline, arch, rng):
        images = rng.standard_normal(
            (3, arch.input_channels, arch.input_rows, arch.input_cols)
        )
        plan = compile_model_plan(pipeline, images.shape)
        assert plan.arena.codes == np.int64
        assert plan.arena.scratch.dtype == np.float64
        assert_batches_identical(
            pipeline.run_batch(images), pipeline.run_batch_reference(images)
        )
        return plan

    def test_sum_bound_between_2_23_and_2_24_stays_int64(self, rng):
        """12-bit features put the FC's bound in [2**23, 2**24): every stage
        runs the float32 GEMM, but the requantize stays float64."""
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng, feature_bits=12)
        plan = self.check_int64_plan(pipeline, arch, rng)
        stages = [s for s in plan.stages if isinstance(s, _FusedStage)]
        assert {s.datapath for s in stages} == {"gemm32"}
        assert FLOAT32_REQUANTIZE_EXACT <= max(s.sum_bound for s in stages) < 2**24

    def test_mixed_gemm32_and_gemm_stages_stay_int64(self, rng):
        """13-bit features split the stages between the float32 and float64
        GEMMs: the buffers stay int64 and the run stays bit-exact."""
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng, feature_bits=13)
        plan = self.check_int64_plan(pipeline, arch, rng)
        assert fused_datapaths(plan) == ["gemm32", "gemm"]

    def test_32_bit_codes_stay_int64_even_at_density_zero(self, rng):
        """All-zero weights and biases make every sum bound 0, so every
        stage runs the float32 GEMM — but 32-bit codes do not fit float32."""
        arch = ARCHITECTURES["conv_relu_pool"]
        network = arch.build(seed=7)
        for layer in network.accelerated_layers():
            layer.bias[...] = 0.0
        pipeline = QuantizedPipeline(network, feature_bits=32)
        pipeline.prune({layer.name: 0.0 for layer in network.accelerated_layers()})
        pipeline.calibrate(rng.standard_normal((3, 12, 12)))
        pipeline.quantize()
        plan = self.check_int64_plan(pipeline, arch, rng)
        stages = [s for s in plan.stages if isinstance(s, _FusedStage)]
        assert [(s.datapath, s.sum_bound) for s in stages] == [("gemm32", 0)] * 2


# ---- epilogue algebra ------------------------------------------------------


def sign_restoring_requantize(raw, factor, clip_lo, clip_hi, scratch, out):
    """:func:`requantize` without its ReLU shortcut: always round ``|x|``
    and restore the sign of ``raw``."""
    np.multiply(raw, factor, out=scratch, dtype=scratch.dtype)
    np.abs(scratch, out=scratch)
    scratch += 0.5
    np.floor(scratch, out=scratch)
    np.copysign(scratch, raw, out=scratch)
    np.clip(scratch, clip_lo, clip_hi, out=out, casting="unsafe")


def as_int64_bytes(codes):
    return codes.astype(np.int64).tobytes()


class TestEpilogueAlgebra:
    """The fused epilogue's two rewrites, each against its plain form."""

    #: (arena code dtype, raw sum dtypes, largest |raw| drawn): an int64
    #: arena takes int64 or float64 sums, a float32 arena float32 sums
    #: below the float32 requantize bound.
    ARENAS = [
        (np.int64, (np.int64, np.float64), 2**40),
        (np.float32, (np.float32,), FLOAT32_REQUANTIZE_EXACT - 1),
    ]

    @pytest.mark.parametrize("dtype,raw_dtypes,peak", ARENAS, ids=["int64", "float32"])
    @given(data=st.data(), kernel=st.integers(1, 3), stride=st.integers(1, 3),
           e=st.integers(-30, 4), relu=st.booleans(), bits=st.sampled_from([8, 16]))
    @settings(max_examples=200, deadline=None)
    def test_pooling_commutes_with_requantize(
        self, dtype, raw_dtypes, peak, data, kernel, stride, e, relu, bits
    ):
        """Pool-then-requantize (the fused stage) == requantize-then-pool
        (the reference), byte for byte after the int64 cast.  Odd and even
        extents exercise ceil-mode partial windows."""
        raw = data.draw(
            hnp.arrays(
                dtype=np.int64,
                shape=st.tuples(
                    st.integers(1, 2), st.integers(3, 8), st.integers(3, 8),
                    st.integers(1, 3),
                ),
                elements=st.integers(-peak, peak),
            )
        ).astype(data.draw(st.sampled_from(raw_dtypes)))
        clip_lo, clip_hi = (0 if relu else -(1 << (bits - 1))), (1 << (bits - 1)) - 1
        pool = MaxPool2D("p", kernel, stride)
        arena = _Arena(raw.size, raw.size, dtype)
        pooled = _integer_maxpool(arena, pool, raw, src=raw)
        scratch = arena.scratch[: pooled.size].reshape(pooled.shape)
        requantize(pooled, 2.0**e, clip_lo, clip_hi, scratch, pooled)
        fused = as_int64_bytes(pooled)
        codes = np.empty(raw.shape, dtype)
        scratch = arena.scratch.reshape(raw.shape)
        requantize(raw, 2.0**e, clip_lo, clip_hi, scratch, codes)
        assert fused == as_int64_bytes(_integer_maxpool(arena, pool, codes))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_relu_requantize_needs_no_sign(self, dtype):
        """With ``clip_lo >= 0`` the three-pass requantize equals the
        sign-restoring one for every factor the dtype's plans can hold."""
        for e in range(-140, 131):
            if dtype == np.float32 and not _normal_float32(2.0**e):
                continue
            raw = requantize_probes(e).astype(
                np.int64 if dtype == np.float64 else np.float32
            )
            for clip_lo, clip_hi in CLIPS:
                if clip_lo < 0:
                    continue
                got = np.empty(raw.shape, dtype)
                expected = np.empty(raw.shape, dtype)
                with np.errstate(over="ignore"):
                    requantize(raw, 2.0**e, clip_lo, clip_hi, np.empty_like(got), got)
                    sign_restoring_requantize(
                        raw, 2.0**e, clip_lo, clip_hi, np.empty_like(got), expected
                    )
                assert as_int64_bytes(got) == as_int64_bytes(expected), (e, clip_hi)


# ---- plan cache -----------------------------------------------------------


class TestModelPlanCache:
    def test_hit_on_same_geometry_miss_on_new(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        p1 = compile_model_plan(pipeline, (2, 3, 12, 12))
        p2 = compile_model_plan(pipeline, (2, 3, 12, 12))
        assert p1 is p2
        p3 = compile_model_plan(pipeline, (4, 3, 12, 12))
        assert p3 is not p1
        stats = _model_plans.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 2, 2)
        assert stats.name == "core.model_plan"

    def test_requantize_invalidates(self, rng):
        """The quantization token keys the cache: recalibrating or
        re-quantizing must never reuse stale fused stages."""
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        p1 = compile_model_plan(pipeline, (1, 3, 12, 12))
        token = pipeline.quantization_token
        pipeline.quantize()
        assert pipeline.quantization_token != token
        p2 = compile_model_plan(pipeline, (1, 3, 12, 12))
        assert p2 is not p1
        assert _model_plans.stats().hits == 0

    def test_lru_eviction(self, rng):
        arch = ARCHITECTURES["conv_pool_no_relu"]
        pipeline = build_pipeline(arch, rng)
        for b in range(1, _model_plans.capacity + 2):
            compile_model_plan(pipeline, (b, 2, 9, 9))
        stats = _model_plans.stats()
        assert stats.size == _model_plans.capacity
        assert stats.evictions == 1

    def test_registered_in_telemetry_namespace(self, rng):
        from repro.telemetry.caches import cache_snapshot

        arch = ARCHITECTURES["conv_pool_no_relu"]
        pipeline = build_pipeline(arch, rng)
        compile_model_plan(pipeline, (1, 2, 9, 9))
        snapshot = cache_snapshot()
        assert "core.model_plan" in snapshot
        assert snapshot["core.model_plan"]["misses"] == 1

    def test_cache_size_helper(self, rng):
        assert len(_model_plans) == 0
        arch = ARCHITECTURES["conv_pool_no_relu"]
        pipeline = build_pipeline(arch, rng)
        compile_model_plan(pipeline, (1, 2, 9, 9))
        assert len(_model_plans) == 1


# ---- errors and introspection --------------------------------------------


class TestPlanErrors:
    def test_uncalibrated_pipeline_rejected(self):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = QuantizedPipeline(arch.build(seed=7))
        with pytest.raises(RuntimeError, match=r"not calibrated.*calibrate\(\)"):
            ModelPlan(pipeline, (1, 3, 12, 12))

    def test_unquantized_pipeline_rejected(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = QuantizedPipeline(arch.build(seed=7))
        pipeline.calibrate(rng.standard_normal((3, 12, 12)))
        with pytest.raises(RuntimeError, match=r"not quantized.*quantize\(\)"):
            ModelPlan(pipeline, (1, 3, 12, 12))

    def test_non_bchw_shape_rejected(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        with pytest.raises(ValueError, match="BCHW"):
            ModelPlan(pipeline, (3, 12, 12))

    def test_run_rejects_mismatched_batch(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        plan = compile_model_plan(pipeline, (2, 3, 12, 12))
        codes = pipeline.input_fmt.quantize(rng.standard_normal((1, 3, 12, 12)))
        with pytest.raises(ValueError, match="compiled for batch"):
            plan.run(codes)

    def test_describe_mentions_fusion(self, rng):
        arch = ARCHITECTURES["host_split"]
        pipeline = build_pipeline(arch, rng)
        plan = compile_model_plan(pipeline, (2, 3, 13, 13))
        text = plan.describe()
        assert "fused" in text and "host" in text and "batch=(2, 3, 13, 13)" in text
        assert "codes=float32" in text


# ---- telemetry ------------------------------------------------------------


class TestTelemetrySpans:
    def test_fuse_span_on_compile_miss_and_kernel_spans_on_run(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal((2, 3, 12, 12))
        telemetry = Telemetry()
        with activate(telemetry):
            pipeline.run_batch(images)
            pipeline.run_batch(images)  # cache hit: no second fuse span
        totals = telemetry.tracer.totals()
        assert totals["fuse"]["count"] == 1
        fuse = next(r for r in telemetry.tracer.roots if r.name == "fuse")
        assert fuse.attrs["codes"] == "float32"
        # One kernel span per fused stage (conv + fc) per run.
        assert totals["kernel"]["count"] == 4
        roots = [root.to_dict() for root in telemetry.tracer.roots]
        kernel_spans = [r for r in roots if r["name"] == "kernel"]
        fused_attrs = {span["attrs"]["fused"] for span in kernel_spans}
        assert "c1,r1,p1" in fused_attrs
        assert {span["attrs"]["datapath"] for span in kernel_spans} == {"gemm32"}

    def test_silent_without_active_telemetry(self, rng):
        arch = ARCHITECTURES["conv_relu_pool"]
        pipeline = build_pipeline(arch, rng)
        images = rng.standard_normal((1, 3, 12, 12))
        telemetry = Telemetry()
        pipeline.run_batch(images)  # no active context: must not record
        assert telemetry.tracer.totals() == {}
