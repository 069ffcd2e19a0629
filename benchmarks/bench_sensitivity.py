"""Benchmark (extension): robustness of the DSE decision to calibration.

The C0..C7 platform constants carry measurement noise from the fast-compile
fit; this tornado analysis perturbs each by ±20% and re-runs the Figure 7
exploration. The claim under test: the *decision* (which design to build)
is far more stable than the throughput estimate.
"""

from repro.dse.sensitivity import resource_sensitivity
from repro.hw import STRATIX_V_GXA7
from repro.workloads import synthetic_model_workload


def test_bench_sensitivity(benchmark, seed):
    workload = synthetic_model_workload("vgg16", seed=seed)
    result = benchmark.pedantic(
        resource_sensitivity, args=(workload, STRATIX_V_GXA7), rounds=1, iterations=1
    )
    print()
    print(result.render())
    # The baseline stays a sane design point.
    assert result.baseline_gops > 662
    # Most constants leave the decision unchanged; throughput swings stay
    # bounded (the flow's calibrated decisions are robust to fit noise).
    stable = sum(entry.decision_stable for entry in result.entries)
    assert stable >= len(result.entries) // 2
    for entry in result.entries:
        assert entry.swing_gops < 0.35 * result.baseline_gops
