"""Micro-benchmarks of the functional convolution kernels.

Not a paper artifact — these time the library's own hot paths (ABM
execution and weight encoding of one quantized layer) so performance
regressions in the numpy implementations are visible.

The real-layer comparison (``test_bench_compiled_real_layers``) times the
literal per-kernel reference and the compiled GEMM plan on actual
AlexNet/VGG16 conv shapes, then writes a ``BENCH_kernels.json`` trajectory
artifact (timings, images/s, speedups, plan-compile cost, datapath, host
fingerprint) to the repo root so future changes can track the kernel's
performance.  Times are perfbench reference seconds on the inference
clock (``refclock.INFER_CLOCK``); run with ``OPENBLAS_NUM_THREADS=1``, as
perfbench does, so the CPU seconds it rescales are one core's.

Quick mode for CI: set ``REPRO_BENCH_QUICK=1`` to time only the smallest
real layer with few repeats; the compiled-beats-reference assertion
still runs.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from refclock import INFER_CLOCK, INFER_CLOCK_UNIT, best_of, fingerprint, telemetry_section

from repro.core.abm import ConvGeometry, abm_conv2d_batch, abm_conv2d_reference
from repro.core.encoding import encode_layer
from repro.core.model_plan import compile_model_plan
from repro.core.plan import compile_layer_plan
from repro.core.model_plan import _model_plans
from repro.core.plan import code_peak
from repro.core.specs import conv_spec
from repro.nn.models.alexnet import alexnet_architecture
from repro.nn.models.vgg16 import vgg16_architecture
from repro.pipeline import QuantizedPipeline
from repro.telemetry.caches import clear_caches
from repro.telemetry.context import Telemetry, activate
from repro.workloads.synthetic import synthesize_quantized_layer


QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "")
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

# Real conv shapes from the paper's two models (Table 2 workloads):
# (out_ch, in_ch, kernel, in_hw, stride, padding, groups).
REAL_LAYERS = {
    "alex_conv2": (256, 48, 5, 27, 1, 2, 2),
    "alex_conv3": (384, 256, 3, 13, 1, 1, 1),
    "alex_conv5": (256, 192, 3, 13, 1, 1, 2),
    "vgg_conv3_2": (256, 256, 3, 56, 1, 1, 1),
    "vgg_conv5_3": (512, 512, 3, 14, 1, 1, 1),
}
QUICK_LAYERS = ("alex_conv5",)
#: The cache family the instrumented layer pass fills.
CACHE_FAMILIES = ("core.plan",)


def _header():
    return {
        "generated_by": "benchmarks/bench_kernels.py",
        "quick": QUICK,
        "clock": INFER_CLOCK_UNIT,
        "fingerprint": fingerprint(),
    }


@pytest.fixture(scope="module")
def layer():
    spec = conv_spec("bench", 64, 32, kernel=3, in_rows=28, in_cols=28, padding=1)
    rng = np.random.default_rng(42)
    weights = synthesize_quantized_layer(spec, density=0.3, codebook=20, rng=rng)
    features = rng.integers(-128, 128, size=(1, 64, 28, 28), dtype=np.int64)
    return weights, features, ConvGeometry(kernel=3, padding=1)


def test_bench_abm_conv(benchmark, layer):
    weights, features, geometry = layer
    encoded = encode_layer("bench", weights)
    result = benchmark(abm_conv2d_batch, features, encoded, geometry)
    assert result.multiply_ops < result.accumulate_ops


def test_bench_encoding(benchmark, layer):
    weights, _, _ = layer
    encoded = benchmark(encode_layer, "bench", weights)
    assert encoded.nonzero_count == np.count_nonzero(weights)


def _build_real_layer(name):
    out_ch, in_ch, kernel, in_hw, stride, padding, groups = REAL_LAYERS[name]
    spec = conv_spec(
        name,
        in_ch,
        out_ch,
        kernel=kernel,
        in_rows=in_hw,
        in_cols=in_hw,
        stride=stride,
        padding=padding,
        groups=groups,
    )
    rng = np.random.default_rng(7)
    weights = synthesize_quantized_layer(spec, density=0.3, codebook=20, rng=rng)
    # One image of 8-bit feature codes, as a batch of one.
    features = rng.integers(-128, 128, size=(1, in_ch, in_hw, in_hw), dtype=np.int64)
    geometry = ConvGeometry(
        kernel=kernel, stride=stride, padding=padding, groups=groups
    )
    return weights, features, geometry


def test_bench_compiled_real_layers():
    """Reference vs compiled on real AlexNet/VGG16 shapes.

    Writes the BENCH_kernels.json trajectory artifact and asserts the
    headline acceptance: the compiled GEMM plan beats the literal
    reference loop by >= 20x on every timed real layer, bit-exact with
    identical op counts.
    """
    names = QUICK_LAYERS if QUICK else tuple(REAL_LAYERS)
    repeats = 3 if QUICK else 5
    report = {**_header(), "density": 0.3, "codebook": 20, "layers": {}}
    print()
    for name in names:
        weights, features, geometry = _build_real_layer(name)
        encoded = encode_layer(name, weights)

        clear_caches()
        with INFER_CLOCK.interval() as took:
            plan = compile_layer_plan(encoded, geometry)
        compile_s = took[0]

        compiled = abm_conv2d_batch(features, encoded, geometry)
        with INFER_CLOCK.interval() as took:
            reference = abm_conv2d_reference(features[0], encoded, geometry)
        reference_s = took[0]
        assert np.array_equal(compiled.output[0], reference.output)
        assert compiled.accumulate_ops == reference.accumulate_ops
        assert compiled.multiply_ops == reference.multiply_ops

        compiled_s = best_of(
            lambda: abm_conv2d_batch(features, encoded, geometry), repeats, INFER_CLOCK
        )

        entry = {
            "shape": dict(
                zip(
                    ("out_ch", "in_ch", "kernel", "in_hw", "stride", "padding", "groups"),
                    REAL_LAYERS[name],
                )
            ),
            "datapath": plan.datapath(code_peak(features)),
            "plan_compile_s": round(compile_s, 6),
            "compiled_s": round(compiled_s, 6),
            "reference_s": round(reference_s, 6),
            "images_per_s": round(1.0 / compiled_s, 2),
            "speedup_vs_reference": round(reference_s / compiled_s, 2),
        }
        report["layers"][name] = entry
        print(
            f"  {name:<12} compiled {compiled_s * 1e3:8.2f} ms "
            f"({entry['images_per_s']:7.1f} img/s)  "
            f"reference {reference_s * 1e3:9.2f} ms  "
            f"speedup {entry['speedup_vs_reference']:7.2f}x  "
            f"compile {compile_s * 1e3:6.2f} ms"
        )

    # One instrumented pass (outside the timed loops, so timings above stay
    # untelemetered) captures kernel span totals and the bench's cache story.
    telemetry = Telemetry()
    with activate(telemetry):
        abm_conv2d_batch(features, encoded, geometry)
    report["telemetry"] = telemetry_section(telemetry, CACHE_FAMILIES)

    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  wrote {ARTIFACT}")

    worst = min(
        entry["speedup_vs_reference"] for entry in report["layers"].values()
    )
    assert worst >= 20.0, f"worst speedup over the reference {worst}x"


# Channel/spatial-scaled AlexNet and VGG16 for end-to-end timing: same
# layer mix and depth as the paper's models at a size the numpy functional
# simulation can sweep in seconds: (scale, spatial_scale, batch).
MODEL_CONFIGS = {
    "alexnet": (0.25, 0.25, 4),
    "vgg16": (0.25, 0.125, 4),
}


def _build_model(name):
    arch = alexnet_architecture() if name == "alexnet" else vgg16_architecture()
    scale, spatial_scale, batch = MODEL_CONFIGS[name]
    network = arch.build(scale=scale, spatial_scale=spatial_scale, seed=11)
    pipeline = QuantizedPipeline(network)
    rng = np.random.default_rng(11)
    pipeline.calibrate(rng.standard_normal(network.input_shape.as_tuple()))
    pipeline.quantize()
    images = rng.standard_normal((batch,) + network.input_shape.as_tuple())
    return pipeline, images


def test_bench_model_end_to_end():
    """Per-layer vs fused on whole AlexNet/VGG16 networks.

    Times `run_batch_reference` (the per-layer walk) and `run_batch` (the
    fused model plan) — asserting fused outputs stay bit-exact against
    the reference — then merges a ``models`` section into
    BENCH_kernels.json.  Both run the same GEMM per layer, so the fused
    margin is the epilogue fusion and buffer reuse alone; the acceptance
    is that fusion never loses to the per-layer walk on VGG16.
    """
    repeats = 2 if QUICK else 5
    rows = {}
    print()
    for name in MODEL_CONFIGS:
        pipeline, images = _build_model(name)

        _model_plans.clear()
        with INFER_CLOCK.interval() as took:
            compile_model_plan(pipeline, images.shape)
        fuse_s = took[0]

        fused = pipeline.run_batch(images)
        reference = pipeline.run_batch_reference(images)
        for f, r in zip(fused, reference):
            assert np.array_equal(f.output, r.output)
            assert f.layer_stats == r.layer_stats

        fused_s = best_of(lambda: pipeline.run_batch(images), repeats, INFER_CLOCK)
        per_layer_s = best_of(
            lambda: pipeline.run_batch_reference(images), max(1, repeats - 2), INFER_CLOCK
        )

        batch = images.shape[0]
        scale, spatial_scale, _ = MODEL_CONFIGS[name]
        rows[name] = {
            "scale": scale,
            "spatial_scale": spatial_scale,
            "batch": batch,
            "fuse_compile_s": round(fuse_s, 6),
            "per_layer_s": round(per_layer_s, 6),
            "fused_s": round(fused_s, 6),
            "images_per_s_fused": round(batch / fused_s, 2),
            "speedup_fused": round(per_layer_s / fused_s, 2),
        }
        print(
            f"  {name:<8} per-layer {per_layer_s * 1e3:8.2f} ms  "
            f"fused {fused_s * 1e3:8.2f} ms "
            f"({rows[name]['speedup_fused']:5.2f}x)  "
            f"fuse-compile {fuse_s * 1e3:6.2f} ms"
        )

    report = {**_header(), "layers": {}}
    if ARTIFACT.exists():  # keep the real-layer rows and their fingerprint
        report.update(json.loads(ARTIFACT.read_text()))
    report["models"] = rows
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  wrote {ARTIFACT}")

    assert rows["vgg16"]["speedup_fused"] >= 1.0, (
        f"vgg16 fused speedup {rows['vgg16']['speedup_fused']}x"
    )
