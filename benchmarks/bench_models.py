"""Benchmark (extension): device portability.

Runs the exploration flow for VGG16 on the paper's device and on a larger,
faster one, showing the library generalizes rather than being fitted to
one device.
"""

from repro.dse import explore
from repro.hw.device import ARRIA_10_GX1150, STRATIX_V_GXA7
from repro.workloads import synthetic_model_workload


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
