"""Benchmark: pipelined multi-device deployment vs whole-model replication.

Runs the exhaustive partition search (:func:`repro.dse.partition.search_partitions`)
over a heterogeneous two-board catalog — a Stratix-V GXA7 next to the
smaller GXA3 — and compares the best layer-pipelined deployment against
the replication baseline (every board serving whole-model replicas with
its own best configuration).  The headline pair is channel/spatial-scaled
VGG16, where the GXA3 is whole-model-feasible but slow: handing it the
light front of the pyramid while the GXA7 runs the heavy tail beats two
independent replicas, because per-shard buffer sizing frees M20K blocks
for compute units on both boards.

Every plan's analytic timing (bottleneck rate, fill latency) is
cross-checked against the finite-FIFO tandem-line event simulation
(:func:`repro.shard.pipeline_sim.simulate_shard_plan`), so the artifact's numbers are
backed by the same model the serving layer uses.

The search is timed in reference seconds on ``refclock.py``'s clock, and
the artifact carries the host fingerprint.

Writes ``BENCH_partition.json`` to the repo root.  Quick mode for CI:
``REPRO_BENCH_QUICK=1`` keeps only the headline VGG16 row (the search is
deterministic arithmetic, so quick and full agree on it exactly).
"""

import json
import os
from pathlib import Path

import pytest
from refclock import CLOCK_UNIT, fingerprint, timed

from repro.dse.partition import search_partitions
from repro.hw.device import STRATIX_V_GXA3, STRATIX_V_GXA7
from repro.shard.pipeline_sim import simulate_shard_plan
from repro.telemetry.caches import clear_caches
from repro.workloads import synthetic_model_workload

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "")
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_partition.json"

# (channel scale, spatial scale).  VGG16 at quarter scale is the
# acceptance pair: both boards are whole-model feasible, so the pipeline
# has to beat an honest two-replica baseline, not an idle board.
MODEL_CONFIGS = {
    "vgg16": (0.25, 0.25),
    "alexnet": (0.5, 0.5),
}
CATALOG = (STRATIX_V_GXA7, STRATIX_V_GXA3)
SIM_IMAGES = 64


def _plan_row(plan):
    return {
        "throughput_ips": round(plan.throughput_ips, 1),
        "fill_latency_s": round(plan.fill_latency_s, 9),
        "bottleneck_s": round(plan.bottleneck_s, 9),
        "shards": [
            {
                "device": shard.device.name,
                "layers": list(shard.layers),
                "n_cu": shard.config.n_cu,
                "s_ec": shard.config.s_ec,
                "seconds_per_image": round(shard.seconds_per_image, 9),
            }
            for shard in plan.shards
        ],
        "links": [
            {
                "elements": transfer.elements,
                "seconds": round(transfer.seconds, 9),
            }
            for transfer in plan.transfers
        ],
    }


def test_bench_partition():
    """Partition search vs replication over the GXA7+GXA3 catalog."""
    clear_caches()
    models = ["vgg16"] if QUICK else list(MODEL_CONFIGS)
    rows = {}
    print()
    for name in models:
        scale, spatial_scale = MODEL_CONFIGS[name]
        workload = synthetic_model_workload(
            name, seed=1, scale=scale, spatial_scale=spatial_scale
        )
        searched = []
        search_s = timed(lambda: searched.append(search_partitions(workload, CATALOG, seed=1)))
        (result,) = searched

        # The analytic plan numbers must match the finite-FIFO tandem-line
        # simulation exactly — same law, independent mechanism.
        report = simulate_shard_plan(result.best, images=SIM_IMAGES)
        assert report.steady_interval_s == pytest.approx(
            result.best.bottleneck_s, rel=1e-9
        )
        assert report.fill_latency_s == pytest.approx(
            result.best.fill_latency_s, rel=1e-9
        )

        rows[name] = {
            "scale": scale,
            "spatial_scale": spatial_scale,
            "devices": [d.name for d in CATALOG],
            "space_size": result.space_size,
            "evaluated": result.evaluated,
            "search_s": round(search_s, 3),
            "pipelined": _plan_row(result.best),
            "replication": {
                "per_device_ips": {
                    device: round(ips, 1)
                    for device, ips in result.replication.per_device_ips.items()
                },
                "total_ips": round(result.replication.total_ips, 1),
            },
            "speedup_vs_replication": round(result.speedup_vs_replication, 3),
            "simulated": {
                "images": SIM_IMAGES,
                "steady_interval_s": round(report.steady_interval_s, 9),
                "fill_latency_s": round(report.fill_latency_s, 9),
                "total_push_stalls": report.total_push_stalls,
            },
        }
        print(
            f"  {name:<8} pipelined {rows[name]['pipelined']['throughput_ips']:8.1f} img/s  "
            f"replicated {rows[name]['replication']['total_ips']:8.1f} img/s  "
            f"({rows[name]['speedup_vs_replication']:5.2f}x, "
            f"{result.best.n_shards} shards, "
            f"{result.evaluated} points in {search_s:.2f}s)"
        )

    report = {
        "generated_by": "benchmarks/bench_partition.py",
        "quick": QUICK,
        "clock": CLOCK_UNIT,
        "fingerprint": fingerprint(),
        "models": rows,
    }
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  wrote {ARTIFACT}")

    # Headline acceptance: on the VGG16 pair the best pipelined deployment
    # beats whole-model replication across the same two boards.  The search
    # is deterministic cost-model arithmetic (no wall-clock noise), so the
    # floor holds in quick mode too; measured value is ~1.16x.
    vgg = rows["vgg16"]
    assert vgg["speedup_vs_replication"] > 1.05, vgg
    assert vgg["pipelined"]["throughput_ips"] > vgg["replication"]["total_ips"]
    assert len(vgg["pipelined"]["shards"]) == 2
