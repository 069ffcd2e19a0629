"""Weight sharing: the mechanism behind ABM-SpConv's multiply savings.

The paper's models are pruned *and quantized* with Deep Compression, whose
k-means weight sharing leaves each layer with a small codebook of shared
values — that is why a 1,244-nonzero VGG16 conv4_2 kernel holds only ~20
distinct values (Table 1), and why ABM-SpConv can replace its ~1,244
multiplies with ~20.

This example runs the same pruned network through the ABM pipeline with
and without k-means sharing and shows the multiply count collapse while
the classification stays put.

Run:  python examples/weight_sharing.py
"""

import numpy as np

from repro.nn.models import cifarnet_architecture
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from repro.quant.clustering import cluster_weights, clustering_error

SEED = 21


def run_pipeline(clusters):
    network = cifarnet_architecture().build(seed=SEED)
    rng = np.random.default_rng(SEED)
    image = rng.normal(size=network.input_shape.as_tuple())
    names = [layer.name for layer in network.accelerated_layers()]
    pipeline = QuantizedPipeline(network, weight_clusters=clusters)
    pipeline.prune(uniform_schedule(names, 0.35).densities)
    pipeline.calibrate(image)
    pipeline.quantize()
    return pipeline, pipeline.run(image), image


def main() -> None:
    print(f"{'codebook':>9} {'accumulates':>12} {'multiplies':>11} "
          f"{'acc/mult':>9} {'top-1':>6}")
    reference = None
    for clusters in (None, 64, 16, 4):
        pipeline, result, image = run_pipeline(clusters)
        if reference is None:
            reference = int(np.argmax(pipeline.run_float(image)))
        label = "8-bit only" if clusters is None else f"k={clusters}"
        ratio = result.accumulate_ops / max(result.multiply_ops, 1)
        top1 = int(np.argmax(result.output))
        print(f"{label:>9} {result.accumulate_ops:>12,} "
              f"{result.multiply_ops:>11,} {ratio:>9.1f} "
              f"{'ok' if top1 == reference else 'MISS':>6}")

    # The clustering itself: error vs codebook size on one weight tensor.
    print("\nk-means reconstruction error (conv2 weights):")
    network = cifarnet_architecture().build(seed=SEED)
    weights = network.layer("conv2").weights
    for k in (4, 16, 64, 256):
        clustered = cluster_weights(weights, k)
        print(f"  k={k:<4} distinct={clustered.distinct_values:<4} "
              f"rms={clustering_error(weights, clustered):.5f}")


if __name__ == "__main__":
    main()
