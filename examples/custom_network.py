"""Deploy a *custom* CNN through the whole ABM-SpConv stack.

Shows the library as a downstream user would adopt it: define your own
architecture with the DSL, prune/quantize/encode it, check it fits the
on-chip buffers, execute it bit-accurately with ABM-SpConv, and size an
accelerator for it — none of this is AlexNet/VGG16-specific.

Run:  python examples/custom_network.py
"""

import numpy as np

from repro.dse import explore
from repro.hw.accelerator import AcceleratorSimulator
from repro.hw.buffers import buffer_report
from repro.hw.device import STRATIX_V_GXA7
from repro.hw.workload import workload_from_encoded
from repro.hw.workload import ModelWorkload
from repro.nn.models import (
    Architecture,
    ConvDef,
    FCDef,
    FlattenDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule

SEED = 11


def tinynet() -> Architecture:
    """A VGG-flavoured 6-layer CNN for 32x32 inputs (CIFAR-sized)."""
    return Architecture(
        name="tinynet",
        input_channels=3,
        input_rows=32,
        input_cols=32,
        defs=[
            ConvDef("conv1", 32, kernel=3, padding=1),
            ReLUDef("relu1"),
            ConvDef("conv2", 32, kernel=3, padding=1),
            ReLUDef("relu2"),
            PoolDef("pool1", kernel=2, stride=2),
            ConvDef("conv3", 64, kernel=3, padding=1),
            ReLUDef("relu3"),
            PoolDef("pool2", kernel=2, stride=2),
            ConvDef("conv4", 64, kernel=3, padding=1),
            ReLUDef("relu4"),
            PoolDef("pool3", kernel=2, stride=2),
            FlattenDef("flatten"),
            FCDef("fc5", 256),
            ReLUDef("relu5"),
            FCDef("fc6", 10, scale_output=False),
            SoftmaxDef("prob"),
        ],
    )


def main() -> None:
    architecture = tinynet()
    network = architecture.build(seed=SEED)
    rng = np.random.default_rng(SEED)
    image = rng.normal(0.0, 1.0, size=network.input_shape.as_tuple())

    # Prune to a uniform 30% density and quantize to 8 bits.
    layer_names = [layer.name for layer in network.accelerated_layers()]
    pipeline = QuantizedPipeline(network)
    pipeline.prune(uniform_schedule(layer_names, density=0.30).densities)
    pipeline.calibrate(image).quantize()

    result = pipeline.run(image)
    reference = pipeline.run_float(image)
    print(f"tinynet top-1: quantized={int(np.argmax(result.output))} "
          f"float={int(np.argmax(reference))}")
    accumulates = sum(stats.accumulate_ops for stats in result.layer_stats)
    multiplies = sum(stats.multiply_ops for stats in result.layer_stats)
    print(f"ABM ops: {accumulates:,} accumulates, {multiplies:,} multiplies "
          f"(ratio {accumulates / multiplies:.1f})")

    # Build the accelerator workload from the *actual* encoded weights.
    specs = {spec.name: spec for spec in architecture.accelerated_specs()}
    layers = tuple(
        workload_from_encoded(specs[encoded.name], encoded)
        for encoded in pipeline.encoded_layers()
    )
    workload = ModelWorkload(name="tinynet", layers=layers)

    # Size an accelerator for it with the DSE flow...
    exploration = explore(workload, STRATIX_V_GXA7)
    print(f"\nDSE-chosen accelerator: {exploration.chosen.describe()}")

    # ...confirm the encoding fits the chosen buffers...
    for requirement in buffer_report(exploration.chosen, pipeline.encoded_layers()):
        status = "ok" if requirement.fits else "TOO SMALL"
        print(f"  {requirement.name:<10} depth {requirement.provisioned_depth:>6} "
              f"(needs {requirement.required_depth:>6})  {status}")

    # ...and simulate it.
    simulation = AcceleratorSimulator(exploration.chosen, STRATIX_V_GXA7).simulate(
        workload
    )
    print(f"\nsimulated: {simulation.seconds_per_image * 1e6:.0f} us/image, "
          f"{simulation.throughput_gops:.1f} GOP/s, "
          f"CU utilization {simulation.cu_utilization:.0%}")


if __name__ == "__main__":
    main()
