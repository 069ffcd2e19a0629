"""Benchmark (extension): model and device portability.

Runs the whole stack beyond the paper's two benchmarks: VGG19 (deeper, 39
GOP) on the paper's configuration, and the model zoo across devices via
the exploration flow — showing the library generalizes rather than being
fitted to two data points.
"""

from repro.dse import explore
from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.config import PAPER_CONFIG_VGG16
from repro.hw.device import ARRIA_10_GX1150, STRATIX_V_GXA7
from repro.workloads import synthetic_model_workload


def test_bench_vgg19(benchmark, seed):
    workload = synthetic_model_workload("vgg19", seed=seed)
    simulator = AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7)
    result = benchmark(simulator.simulate, workload)
    print(
        f"\n  vgg19: {result.throughput_gops:.1f} GOP/s, "
        f"{result.seconds_per_image * 1e3:.1f} ms/image, "
        f"CU {result.cu_utilization:.1%}"
    )
    # Same accumulate-bound band as VGG16; proportionally longer latency.
    assert 662 < result.throughput_gops < 1052
    vgg16 = AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7).simulate(
        synthetic_model_workload("vgg16", seed=seed)
    )
    assert result.seconds_per_image > vgg16.seconds_per_image


def test_bench_device_portability(benchmark, seed):
    workload = synthetic_model_workload("vgg16", seed=seed)

    def port():
        rows = {}
        for device, freq in ((STRATIX_V_GXA7, 200.0), (ARRIA_10_GX1150, 300.0)):
            outcome = explore(workload, device, freq_mhz=freq)
            rows[device.name] = outcome
        return rows

    rows = benchmark.pedantic(port, rounds=1, iterations=1)
    print()
    for name, outcome in rows.items():
        chosen = outcome.chosen
        print(
            f"  {name:<18} -> {chosen.describe()}  "
            f"{outcome.performance.throughput_gops:7.1f} GOP/s  "
            f"({'compute' if outcome.bandwidth.compute_bound else 'memory'}-bound)"
        )
    small = rows[STRATIX_V_GXA7.name].performance.throughput_gops
    large = rows[ARRIA_10_GX1150.name].performance.throughput_gops
    # The bigger, faster device must clearly move the frontier.
    assert large > 1.3 * small
