"""Benchmark: full-model accelerator simulation throughput.

Times the event-driven simulator on the paper's two workloads (the core of
Table 2's regeneration) and sweeps the sharing factor N as an ablation of
the paper's N=4 choice.

``test_bench_fastsim_artifact`` compares the vectorized scheduler fast
path against a per-layer loop of the per-task reference event loop
(``simulate_layer_reference``) on both models, verifies
they agree exactly, and writes a ``BENCH_simulator.json`` trajectory
artifact (timings in perfbench reference seconds, speedups, cached-replay
time, host fingerprint) to the repo root so later changes can track
simulator performance over time. ``fast_s`` simulates workloads whose
dispatch tables are already built; ``fast_cold_s`` simulates a freshly
synthesized workload per repeat, so it also pays for building them.
``fast_s`` and ``cached_s`` calls last ~0.1-1 ms, far shorter than the
reference clock's calibration pass, so they are medians over intervals
of many calls (``refclock.median_per_call``); a best-of of single calls
swings with where the calibration and garbage collection land.
``fast_cold_s`` is a best-of over fresh workloads, one call each.
Quick mode for CI: ``REPRO_BENCH_QUICK=1`` uses fewer repeats and a
relaxed speedup floor for shared runners; the full run asserts a >= 5x
bar on VGG16.
"""

import json
import os
from pathlib import Path

import pytest
from refclock import CLOCK_UNIT, best_of, fingerprint, median_per_call, telemetry_section

from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.config import PAPER_CONFIG_ALEXNET, PAPER_CONFIG_VGG16, AcceleratorConfig
from repro.hw.device import STRATIX_V_GXA7
from repro.hw.memory import ExternalMemory
from repro.hw.scheduler import simulate_layer_reference
from repro.telemetry.caches import clear_caches
from repro.telemetry.context import Telemetry, activate
from repro.workloads import synthetic_model_workload

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "")
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_simulator.json"
#: Cache families the artifact reports: the ones a simulation fills, listed
#: so the artifact does not depend on which other modules were imported.
CACHE_FAMILIES = ("hw.sim", "hw.windows")


@pytest.mark.parametrize(
    "model,config",
    [("alexnet", PAPER_CONFIG_ALEXNET), ("vgg16", PAPER_CONFIG_VGG16)],
    ids=["alexnet", "vgg16"],
)
def test_bench_simulate(benchmark, seed, model, config):
    workload = synthetic_model_workload(model, seed=seed)
    simulator = AcceleratorSimulator(config, STRATIX_V_GXA7)
    result = benchmark(simulator.simulate, workload)
    print(f"\n  {model}: {result.throughput_gops:.1f} GOP/s, "
          f"CU {result.cu_utilization:.1%}, engine {result.engine_utilization:.1%}")
    assert result.throughput_gops > 500


def test_bench_share_factor_ablation(benchmark, seed):
    """Ablation: the sharing factor N trades DSPs for multiplier stalls.

    N=4 (the paper's choice) keeps throughput within a few per cent of
    N=1 while using a quarter of the multipliers; N=16 over-shares and
    visibly slows the multiply-bound shallow layers.
    """
    workload = synthetic_model_workload("vgg16", seed=seed)

    def sweep():
        results = {}
        for n_share in (1, 2, 4, 8, 16):
            config = AcceleratorConfig(
                n_cu=3, n_knl=14, n_share=n_share, s_ec=20, d_f=1568, freq_mhz=204.0
            )
            sim = AcceleratorSimulator(config, STRATIX_V_GXA7).simulate(workload)
            results[n_share] = (sim.throughput_gops, config.total_multipliers)
        return results

    results = benchmark(sweep)
    print()
    for n_share, (gops, mults) in results.items():
        print(f"  N={n_share:<3} multipliers={mults:<4} throughput={gops:7.1f} GOP/s")
    assert results[4][0] > 0.9 * results[1][0]  # N=4 nearly free
    assert results[16][0] < results[1][0]  # over-sharing costs throughput
    assert results[4][1] == results[1][1] / 4  # and saves 4x the DSPs


def test_bench_fastsim_artifact():
    """Reference vs fast-path full-model simulation; writes the artifact.

    The fast path must return byte-identical ModelSimResults and clear the
    speedup floor on the VGG16 full-model simulation (the acceptance bar).
    """
    repeats = 3 if QUICK else 5
    floor = 2.0 if QUICK else 5.0
    report = {
        "generated_by": "benchmarks/bench_simulator.py",
        "quick": QUICK,
        "seed": 1,
        "clock": CLOCK_UNIT,
        "fingerprint": fingerprint(),
        "models": {},
    }
    print()
    for model, config in (
        ("alexnet", PAPER_CONFIG_ALEXNET),
        ("vgg16", PAPER_CONFIG_VGG16),
    ):
        workload = synthetic_model_workload(model, seed=1)
        fast_sim = AcceleratorSimulator(config, STRATIX_V_GXA7, use_cache=False)

        def simulate_reference():
            return tuple(
                simulate_layer_reference(
                    layer,
                    config,
                    ExternalMemory(
                        bandwidth_gbs=STRATIX_V_GXA7.bandwidth_gbs,
                        freq_mhz=config.freq_mhz,
                    ),
                )
                for layer in workload.layers
            )

        fast = fast_sim.simulate(workload)
        assert fast.layers == simulate_reference()  # cycle-exact, field-exact

        fast_s = median_per_call(lambda: fast_sim.simulate(workload), repeats)
        fresh = iter([synthetic_model_workload(model, seed=1) for _ in range(repeats)])
        fast_cold_s = best_of(lambda: fast_sim.simulate(next(fresh)), repeats)
        reference_s = best_of(simulate_reference, max(1, repeats - 2))
        # Cached replay: what repeated deployments / DSE sweeps pay.
        clear_caches()
        cached_sim = AcceleratorSimulator(config, STRATIX_V_GXA7)
        cached_sim.simulate(workload)
        cached_s = median_per_call(lambda: cached_sim.simulate(workload), repeats)
        clear_caches()

        entry = {
            "layers": len(fast.layers),
            "tasks": sum(layer.tasks for layer in fast.layers),
            "throughput_gops": round(fast.throughput_gops, 1),
            "reference_s": round(reference_s, 6),
            "fast_s": round(fast_s, 6),
            "fast_cold_s": round(fast_cold_s, 6),
            "cached_s": round(cached_s, 6),
            "speedup_fast_vs_reference": round(reference_s / fast_s, 2),
            "speedup_cached_vs_reference": round(reference_s / cached_s, 2),
        }
        report["models"][model] = entry
        print(
            f"  {model:<8} reference {reference_s * 1e3:8.2f} ms  "
            f"fast {fast_s * 1e3:7.2f} ms  "
            f"cold {fast_cold_s * 1e3:7.2f} ms  "
            f"cached {cached_s * 1e3:6.2f} ms  "
            f"speedup {entry['speedup_fast_vs_reference']:5.2f}x"
        )

    # One instrumented cached replay (outside the timed loops) captures the
    # sim-cache hit story and a bench-level span total per model.
    telemetry = Telemetry()
    with activate(telemetry):
        for model, config in (
            ("alexnet", PAPER_CONFIG_ALEXNET),
            ("vgg16", PAPER_CONFIG_VGG16),
        ):
            workload = synthetic_model_workload(model, seed=1)
            simulator = AcceleratorSimulator(config, STRATIX_V_GXA7)
            with telemetry.span("simulate", model=model):
                simulator.simulate(workload)
    report["telemetry"] = telemetry_section(telemetry, CACHE_FAMILIES)

    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"  wrote {ARTIFACT}")

    vgg16 = report["models"]["vgg16"]["speedup_fast_vs_reference"]
    assert vgg16 >= floor, f"vgg16 fast-path speedup {vgg16}x below {floor}x"
