"""Benchmark: compiled whole-grid DSE sweeps vs the per-point oracle.

Times the two sweeps of the exploration flow — the Figure 6 N_knl sweep
and the Figure 7 S_ec x N_cu grid — on the paper's two workloads, once
through the compiled whole-grid evaluator (:mod:`repro.dse.compiled`) and
once by scoring the same configurations one at a time through the
per-point oracle (``estimate_model`` plus ``ResourceModel.estimate`` and
its device fit). The two must agree exactly, point for point, before any
timing counts.

``test_bench_dse_artifact`` writes a ``BENCH_dse.json`` trajectory
artifact (timings in perfbench reference seconds, speedups, grid sizes,
Pareto timings, host fingerprint) to the repo root
so future changes can track DSE performance over time;
``test_bench_dse_exhaustive`` adds one ``exhaustive`` row per model:
search time (reference seconds under the historical ``wall_s`` key), space
size and optimum of the exhaustive joint-space search.
Quick mode for CI: ``REPRO_BENCH_QUICK=1`` uses fewer repeats and a
relaxed speedup floor for shared runners; the full run asserts a >= 20x
bar on the VGG16 sweeps.
"""

import json
import os
from pathlib import Path

from refclock import CLOCK_UNIT, best_of, fingerprint, telemetry_section, timed

from repro.dse.explorer import explore, size_buffers, sweep_nknl, sweep_sec_ncu
from repro.dse.joint_space import default_joint_space, exhaustive_search
from repro.dse.pareto import pareto_frontier, pareto_frontier_reference
from repro.dse.performance import (
    MODE_QUANTIZED,
    estimate_model,
    share_factor_from_workloads,
)
from repro.dse.resources import DEFAULT_RESOURCE_MODEL
from repro.hw.config import AcceleratorConfig
from repro.hw.device import STRATIX_V_GXA7
from repro.telemetry.caches import clear_caches
from repro.telemetry.context import Telemetry, activate
from repro.workloads import synthetic_model_workload

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "")
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_dse.json"


def _sweeps(workload, n_share, n_knl):
    """Both exploration sweeps through the compiled evaluator."""
    return (
        sweep_nknl(workload, DEFAULT_RESOURCE_MODEL, n_share, device=STRATIX_V_GXA7),
        sweep_sec_ncu(
            workload,
            STRATIX_V_GXA7,
            DEFAULT_RESOURCE_MODEL,
            n_knl=n_knl,
            n_share=n_share,
        ),
    )


def _per_point(workload, n_share, n_knl):
    """The same sweep points, in sweep order (the N_knl sweep at S_ec=20,
    N_cu=3, then the grid N_cu-outer), each scored on its own: throughput
    and device fit."""

    def score(n_knl, s_ec, n_cu):
        buffers = size_buffers(workload, s_ec)
        config = AcceleratorConfig(
            n_cu=n_cu,
            n_knl=n_knl,
            n_share=n_share,
            s_ec=s_ec,
            d_f=buffers.d_f,
            d_w=buffers.d_w,
            d_q=buffers.d_q,
        )
        estimate = DEFAULT_RESOURCE_MODEL.estimate(config)
        return (
            estimate_model(workload, config, mode=MODE_QUANTIZED).throughput_gops,
            estimate.utilization(STRATIX_V_GXA7).fits(0.75),
        )

    return [score(k, 20, 3) for k in range(2, 25)] + [
        score(n_knl, s_ec, n_cu) for n_cu in range(1, 7) for s_ec in range(4, 33, 2)
    ]


def test_bench_dse_artifact():
    """Compiled sweeps vs the per-point oracle; writes the artifact.

    The compiled sweeps must equal the per-point oracle point for point
    and clear the speedup floor on VGG16.
    """
    repeats = 3 if QUICK else 5
    floor = 5.0 if QUICK else 20.0
    report = {
        "generated_by": "benchmarks/bench_dse.py",
        "quick": QUICK,
        "seed": 1,
        "clock": CLOCK_UNIT,
        "fingerprint": fingerprint(),
        "models": {},
    }
    print()
    for model in ("alexnet", "vgg16"):
        workload = synthetic_model_workload(model, seed=1)

        compiled_result = explore(workload, STRATIX_V_GXA7)
        n_share = share_factor_from_workloads(workload.layers)
        n_knl = compiled_result.chosen_n_knl
        # Point-for-point, float-for-float agreement is a precondition.
        compiled_sweeps = _sweeps(workload, n_share, n_knl)
        nknl_points, grid_points = compiled_sweeps
        assert [
            (p.throughput_gops, p.feasible) for p in nknl_points + grid_points
        ] == _per_point(workload, n_share, n_knl)
        assert compiled_sweeps == (
            list(compiled_result.nknl_sweep),
            list(compiled_result.grid),
        )

        compiled_s = best_of(lambda: _sweeps(workload, n_share, n_knl), repeats)
        reference_s = best_of(
            lambda: _per_point(workload, n_share, n_knl), max(1, repeats - 2)
        )
        # Cold compile: what the very first query pays (caches emptied).
        clear_caches()
        cold_s = timed(lambda: explore(workload, STRATIX_V_GXA7))

        # Pareto dominance over the full S_ec x N_cu grid, both paths.
        grid = sweep_sec_ncu(
            workload,
            STRATIX_V_GXA7,
            DEFAULT_RESOURCE_MODEL,
            n_knl=compiled_result.chosen_n_knl,
            n_share=compiled_result.n_share,
        )
        assert pareto_frontier(grid) == pareto_frontier_reference(grid)
        pareto_s = best_of(lambda: pareto_frontier(grid), repeats)
        pareto_ref_s = best_of(
            lambda: pareto_frontier_reference(grid), max(1, repeats - 2)
        )

        entry = {
            "layers": len(workload.layers),
            "grid_points": len(compiled_result.grid),
            "nknl_points": len(compiled_result.nknl_sweep),
            "chosen": repr(compiled_result.chosen),
            "throughput_gops": round(compiled_result.performance.throughput_gops, 1),
            "reference_s": round(reference_s, 6),
            "compiled_s": round(compiled_s, 6),
            "cold_compile_s": round(cold_s, 6),
            "pareto_reference_s": round(pareto_ref_s, 6),
            "pareto_compiled_s": round(pareto_s, 6),
            "speedup_compiled_vs_reference": round(reference_s / compiled_s, 2),
            "speedup_pareto": round(pareto_ref_s / pareto_s, 2),
        }
        report["models"][model] = entry
        print(
            f"  {model:<8} reference {reference_s * 1e3:8.2f} ms  "
            f"compiled {compiled_s * 1e3:7.2f} ms  "
            f"cold {cold_s * 1e3:6.2f} ms  "
            f"speedup {entry['speedup_compiled_vs_reference']:6.2f}x"
        )

    # One instrumented warm explore per model (outside the timed loops)
    # captures the DSE memo hit story and a bench-level span total.
    telemetry = Telemetry()
    with activate(telemetry):
        for model in ("alexnet", "vgg16"):
            workload = synthetic_model_workload(model, seed=1)
            with telemetry.span("explore", model=model):
                explore(workload, STRATIX_V_GXA7)
    report["telemetry"] = telemetry_section(telemetry)

    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  wrote {ARTIFACT}")

    vgg16 = report["models"]["vgg16"]["speedup_compiled_vs_reference"]
    assert vgg16 >= floor, f"vgg16 compiled-DSE speedup {vgg16}x below {floor}x"


def test_bench_dse_exhaustive():
    """Exhaustive joint-space search per model; merges ``exhaustive`` rows."""
    rows = {"seed": 1, "clock": CLOCK_UNIT, "models": {}}
    print()
    for model in ("alexnet", "vgg16"):
        workload = synthetic_model_workload(model, seed=1)
        space = default_joint_space([workload])
        found = []
        wall_s = timed(
            lambda: found.append(
                exhaustive_search([workload], STRATIX_V_GXA7, space=space)
            )
        )
        (best,) = found
        assert best.evaluated_points == space.size
        rows["models"][model] = {
            "space_points": space.size,
            "exhaustive_gops": round(best.values["throughput_gops"], 1),
            "params": best.params,
            "wall_s": round(wall_s, 3),
        }
        print(
            f"  {model:<8} exhaustive {best.values['throughput_gops']:7.1f} GOP/s "
            f"over {space.size} points in {wall_s:5.2f} reference s"
        )
    # Merge into the trajectory artifact without clobbering the sweep rows.
    report = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {
        "generated_by": "benchmarks/bench_dse.py",
        "quick": QUICK,
        "seed": 1,
    }
    report["exhaustive"] = rows
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  wrote exhaustive rows into {ARTIFACT}")
