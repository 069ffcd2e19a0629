"""Benchmark: fleet-scale serving through the event-driven engine.

The simulated instances carry the timing profile of a real deployment:
the ``cifarnet`` zoo model, pruned to 40 % density, quantized and
deployed on the Stratix-V GXA7 (``ServiceProfile.from_runtime``, as in
``bench_serving.py`` and the perfbench ``serve`` workload). Host time is
in perfbench reference seconds (``refclock.py``), stamped with the host
fingerprint; the wall-time bars below are checked on wall seconds.

Two measurements, one artifact (``BENCH_serving_scale.json``):

- **scale**: >= 1,000,000 simulated requests pushed through the
  event-driven engine (continuous batching, 16 instances) in well under
  the 30 s acceptance bar — the wall-clock claim behind replacing the
  wall-clock thread loop with a virtual clock.
- **load curve**: p50/p99/p999 latency versus offered load for two SLO
  classes, at sub-saturation, near-saturation and overload points. The
  percentiles come straight from the telemetry registry's histograms
  (identical nearest-rank arithmetic to ``ServeStats``), which is the
  p99-vs-offered-load story the telemetry instruments were built for;
  the overload point also exercises admission control, so rejection
  counts land in the artifact too.

Quick mode for CI (``REPRO_BENCH_QUICK=1``): >= 100k total simulated
requests with a 60 s bar.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from refclock import CLOCK, CLOCK_UNIT, fingerprint

from repro.hw import STRATIX_V_GXA7
from repro.nn.models import get_architecture
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from repro.runtime import SystemRuntime
from repro.serve import (
    BatchPolicy,
    EventDrivenSimulator,
    ServiceProfile,
    SLOClass,
    poisson_trace,
)
from repro.telemetry import Telemetry
from repro.workloads.images import natural_image

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "")
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_serving_scale.json"

#: The deployed model and its pruning density; a 16-instance fleet.
MODEL = "cifarnet"
DENSITY = 0.4
INSTANCES = 16
POLICY = BatchPolicy(max_batch=16)
SLO_MIX = {"latency-sensitive": 0.6, "best-effort": 0.4}

SCALE_REQUESTS = 120_000 if QUICK else 1_000_000
CURVE_REQUESTS = 20_000 if QUICK else 150_000
WALL_BAR_S = 60.0 if QUICK else 30.0

#: Offered load as a fraction of saturated fleet throughput. 1.25x is a
#: genuine overload: best-effort admission control has to shed it.
LOAD_POINTS = (0.5, 0.8, 0.95, 1.25)


@pytest.fixture(scope="module")
def profile(seed) -> ServiceProfile:
    """Timing profile of the deployed model (Section 6.1 pipeline)."""
    architecture = get_architecture(MODEL)
    network = architecture.build(seed=seed)
    rng = np.random.default_rng(seed)
    pipeline = QuantizedPipeline(network)
    names = [layer.name for layer in network.accelerated_layers()]
    pipeline.prune(uniform_schedule(names, DENSITY).densities)
    pipeline.calibrate(natural_image(network.input_shape.as_tuple(), rng))
    pipeline.quantize()
    runtime = SystemRuntime.from_pipeline(
        pipeline, architecture.accelerated_specs(), STRATIX_V_GXA7
    )
    return ServiceProfile.from_runtime(runtime)


def _run_timed(engine, trace):
    """(report, reference seconds, wall seconds) of one ``run_trace``."""
    start = time.perf_counter()
    with CLOCK.interval() as took:
        report = engine.run_trace(trace)
    return report, took[0], time.perf_counter() - start


def _classes(overloaded: bool):
    queue_limit = 256 if overloaded else None
    return (
        SLOClass("latency-sensitive", priority=0, target_latency_s=50e-3),
        SLOClass("best-effort", priority=1, queue_limit=queue_limit),
    )


def _percentiles(telemetry: Telemetry, slo: str):
    histogram = telemetry.registry.histogram("serve/latency_s", slo=slo)
    return {
        "p50_ms": round(histogram.percentile(50) * 1e3, 6),
        "p99_ms": round(histogram.percentile(99) * 1e3, 6),
        "p999_ms": round(histogram.percentile(99.9) * 1e3, 6),
        "count": histogram.count,
    }


def test_bench_serving_scale_artifact(profile, seed):
    """Fleet-scale wall-time bar + latency-vs-load curve; writes artifact."""
    capacity = INSTANCES * profile.capacity_rps
    report = {
        "generated_by": "benchmarks/bench_serving_scale.py",
        "quick": QUICK,
        "seed": seed,
        "clock": CLOCK_UNIT,
        "fingerprint": fingerprint(),
        "profile": {
            "model": profile.name,
            "density": DENSITY,
            "fpga_ms": profile.fpga_s * 1e3,
            "host_ms": profile.host_s * 1e3,
            "instances": INSTANCES,
            "max_batch": POLICY.max_batch,
            "fleet_capacity_rps": round(capacity, 1),
        },
    }
    print()

    # ---- scale: the million-request wall-time bar ----------------------
    trace = poisson_trace(
        SCALE_REQUESTS, 0.8 * capacity, seed=0, slo_mix=SLO_MIX
    )
    engine = EventDrivenSimulator(
        profile,
        POLICY,
        classes=_classes(overloaded=False),
        instances=INSTANCES,
        telemetry=Telemetry(),
        record_spans=False,
        collect_records=False,
    )
    scale_report, ref_s, wall_s = _run_timed(engine, trace)
    assert scale_report.served == SCALE_REQUESTS
    assert wall_s < WALL_BAR_S, (
        f"{SCALE_REQUESTS} requests took {wall_s:.1f}s, bar is {WALL_BAR_S}s"
    )
    report["scale"] = {
        "engine": "events",
        "batching": "continuous",
        "requests": SCALE_REQUESTS,
        "ref_s": round(ref_s, 3),
        "us_per_request": round(ref_s / SCALE_REQUESTS * 1e6, 3),
        "wall_s": round(wall_s, 3),
        "requests_per_wall_second": round(SCALE_REQUESTS / wall_s),
        "virtual_makespan_s": round(scale_report.makespan_s, 3),
        "bar_s": WALL_BAR_S,
    }
    print(
        f"  scale: {SCALE_REQUESTS} requests in {wall_s:.2f}s wall, "
        f"{ref_s / SCALE_REQUESTS * 1e6:.2f} us/request "
        f"(bar {WALL_BAR_S:g}s)"
    )

    # ---- latency vs offered load, per SLO class ------------------------
    curve = []
    for ratio in LOAD_POINTS:
        overloaded = ratio > 1.0
        telemetry = Telemetry()
        trace = poisson_trace(
            CURVE_REQUESTS, ratio * capacity, seed=7, slo_mix=SLO_MIX
        )
        engine = EventDrivenSimulator(
            profile,
            POLICY,
            classes=_classes(overloaded),
            instances=INSTANCES,
            telemetry=telemetry,
            record_spans=False,
            collect_records=False,
        )
        point_report, point_ref_s, point_wall_s = _run_timed(engine, trace)
        point = {
            "offered_ratio": ratio,
            "offered_rps": round(ratio * capacity, 1),
            "requests": CURVE_REQUESTS,
            "served": point_report.served,
            "rejected": point_report.rejected,
            "ref_s": round(point_ref_s, 3),
            "us_per_request": round(point_ref_s / CURVE_REQUESTS * 1e6, 3),
            "wall_s": round(point_wall_s, 3),
            "classes": {
                slo: _percentiles(telemetry, slo)
                for slo in point_report.class_names
            },
        }
        curve.append(point)
        sensitive = point["classes"]["latency-sensitive"]
        print(
            f"  load {ratio:4.2f}x: p50 {sensitive['p50_ms']:7.3f} ms  "
            f"p99 {sensitive['p99_ms']:7.3f} ms  "
            f"p999 {sensitive['p999_ms']:7.3f} ms  "
            f"rejected {point['rejected']}  "
            f"{point['us_per_request']:.2f} us/request"
        )
    report["load_curve"] = curve

    # The artifact must carry the acceptance shape: >= 3 load points and
    # >= 2 SLO classes with all three percentiles at every point.
    assert len(curve) >= 3
    for point in curve:
        assert len(point["classes"]) >= 2
        for percentiles in point["classes"].values():
            assert {"p50_ms", "p99_ms", "p999_ms"} <= set(percentiles)
    # Latency is monotone-ish in load: the near-saturation point is
    # strictly slower than the half-load point at the tail.
    assert (
        curve[2]["classes"]["latency-sensitive"]["p99_ms"]
        >= curve[0]["classes"]["latency-sensitive"]["p99_ms"]
    )
    # Overload sheds best-effort load, never latency-sensitive load.
    overload_point = curve[-1]
    assert overload_point["rejected"] > 0
    assert (
        overload_point["classes"]["latency-sensitive"]["count"]
        + overload_point["classes"]["best-effort"]["count"]
        + overload_point["rejected"]
        == CURVE_REQUESTS
    )

    total = SCALE_REQUESTS + len(curve) * CURVE_REQUESTS
    report["total_simulated_requests"] = total
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  wrote {ARTIFACT} ({total} simulated requests total)")
