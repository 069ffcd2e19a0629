"""Simulate the ABM-SpConv FPGA accelerator on full-size AlexNet and VGG16.

Uses the paper's final configurations (Table 3) on the Stratix-V GXA7 and
the calibrated synthetic pruned/quantized workloads — full-size models are
simulated from per-kernel statistics, so no multi-hundred-megabyte weight
tensors are materialized. Prints the per-layer timing report, the headline
throughput vs the published FDConv baseline [3], and where the design lands
in the Figure 1 roofline.

Run:  python examples/accelerator_simulation.py
"""

from repro.baselines.published import get_baseline
from repro.core.schemes import ConvScheme
from repro.dse.roofline import DesignPoint, RooflineModel
from repro.hw import (
    PAPER_CONFIG_ALEXNET,
    PAPER_CONFIG_VGG16,
    STRATIX_V_GXA7,
    AcceleratorSimulator,
)
from repro.workloads import synthetic_model_workload

SEED = 1


def simulate(model: str, config) -> None:
    workload = synthetic_model_workload(model, seed=SEED)
    simulator = AcceleratorSimulator(config, STRATIX_V_GXA7)
    result = simulator.simulate(workload)
    baseline = get_baseline(f"zeng-{model}")

    print(f"=== {model} on {STRATIX_V_GXA7.name} — {config.describe()}")
    print(simulator.utilization_summary(result))
    print()
    print(f"  inference time:   {result.seconds_per_image * 1e3:7.2f} ms/image")
    print(f"  throughput:       {result.throughput_gops:7.1f} GOP/s (dense-op basis)")
    print(f"  FDConv [3]:       {baseline.throughput_gops:7.1f} GOP/s on the same device")
    print(f"  speedup:          {result.throughput_gops / baseline.throughput_gops:7.2f}x")
    print(f"  avg DDR traffic:  {result.bandwidth_gbs:7.2f} GB/s "
          f"of {STRATIX_V_GXA7.bandwidth_gbs:g} available")
    print()


def main() -> None:
    simulate("alexnet", PAPER_CONFIG_ALEXNET)
    simulate("vgg16", PAPER_CONFIG_VGG16)

    # Place the simulated VGG16 design in the Figure 1 roofline.
    workload = synthetic_model_workload("vgg16", seed=SEED)
    result = AcceleratorSimulator(PAPER_CONFIG_VGG16, STRATIX_V_GXA7).simulate(workload)
    roofline = RooflineModel(STRATIX_V_GXA7, freq_mhz=200.0)
    points = (
        DesignPoint("Zeng FDConv [3]", ConvScheme.FDCONV,
                    get_baseline("zeng-vgg16").throughput_gops),
        DesignPoint("ABM-SpConv (this run)", ConvScheme.ABM_SPCONV,
                    result.throughput_gops),
    )
    print(roofline.render(points))


if __name__ == "__main__":
    main()
