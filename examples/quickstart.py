"""Quickstart: ABM-SpConv on a small CNN in ~60 lines.

Builds a scaled-down AlexNet, prunes it with the Deep Compression schedule,
quantizes to 8-bit dynamic fixed point, and runs inference where every
conv/FC layer executes with accumulate-before-multiply sparse convolution —
then shows the two things the paper is about:

1. the quantized ABM output matches the float reference (classification
   agrees; Equation 2 is exact in fixed point), and
2. the operation counts collapse: multiplies shrink far below accumulates,
   which is what lets an FPGA trade scarce DSPs for cheap ALM accumulators.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.nn.models import alexnet_architecture
from repro.pipeline import QuantizedPipeline
from repro.prune import deep_compression_schedule

SEED = 7


def main() -> None:
    # A laptop-sized AlexNet: 12% of the channels, 42% of the resolution.
    architecture = alexnet_architecture()
    network = architecture.build(scale=0.12, spatial_scale=0.42, seed=SEED)
    rng = np.random.default_rng(SEED)
    image = rng.normal(0.0, 1.0, size=network.input_shape.as_tuple())

    pipeline = QuantizedPipeline(network)
    pipeline.prune(deep_compression_schedule("alexnet").densities)
    pipeline.calibrate(image)
    pipeline.quantize()

    quantized = pipeline.run(image)
    reference = pipeline.run_float(image)

    top_quant = int(np.argmax(quantized.output))
    top_float = int(np.argmax(reference))
    print(f"input: {network.input_shape}, output classes: {reference.size}")
    print(f"top-1 (float reference): {top_float}")
    print(f"top-1 (8-bit ABM-SpConv): {top_quant}")
    print(f"agreement: {'yes' if top_quant == top_float else 'no'}")
    print()

    dense_macs = sum(
        spec.macs
        for spec in architecture.accelerated_specs(scale=0.12, spatial_scale=0.42)
    )
    print("operation counts (all conv/FC layers):")
    print(f"  dense MACs:        {dense_macs:>12,}  (multiply+accumulate each)")
    print(f"  ABM accumulates:   {quantized.accumulate_ops:>12,}")
    print(f"  ABM multiplies:    {quantized.multiply_ops:>12,}")
    ratio = quantized.accumulate_ops / quantized.multiply_ops
    executed = quantized.accumulate_ops + quantized.multiply_ops
    saved = 1 - executed / (2 * dense_macs)
    print(f"  acc/mult ratio:    {ratio:>12.1f}  (sizes the DSP sharing factor N)")
    print(f"  ops saved vs dense:{saved:>12.1%}")
    print()
    print(f"encoded weights: {pipeline.encoded_bytes() / 1024:.0f} KiB "
          f"(WT-Buffer + Q-Table format of paper Fig. 4)")


if __name__ == "__main__":
    main()
