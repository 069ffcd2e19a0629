"""Compare the four convolution schemes by operation count on one layer.

The paper compares SDConv (dense), SpConv (zero-skipping), FDConv
(frequency domain) and ABM-SpConv by the operations each spends on the
same layer (Table 1). This example runs one pruned, quantized layer
through ABM-SpConv, checks the measured counts against the encoded
workload, and sets them beside the op counts of the three baselines
(``repro.core.opcount``, the path Table 1 runs through) — the
single-layer view of paper Table 1.

Run:  python examples/scheme_comparison.py
"""

import numpy as np

from repro.core.abm import ConvGeometry, abm_conv2d_batch
from repro.core.encoding import encode_layer
from repro.core.opcount import measured_layer_counts
from repro.core.specs import conv_spec
from repro.hw.workload import workload_from_encoded
from repro.workloads.codebooks import codebook_size
from repro.workloads.synthetic import synthesize_quantized_layer

SEED = 3


def main() -> None:
    # A conv4-like layer at reduced size: 64 -> 32 channels, 14x14 output.
    spec = conv_spec("demo", 64, 32, kernel=3, in_rows=14, in_cols=14, padding=1)
    rng = np.random.default_rng(SEED)
    weights = synthesize_quantized_layer(
        spec, density=0.27, codebook=codebook_size("vgg16", "conv4_2"), rng=rng
    )
    # One image of 8-bit feature codes, as a batch of one.
    features = rng.integers(-128, 128, size=(1, 64, 14, 14), dtype=np.int64)
    encoded = encode_layer("demo", weights)
    workload = workload_from_encoded(spec, encoded)

    abm = abm_conv2d_batch(features, encoded, ConvGeometry(kernel=3, padding=1))
    assert abm.accumulate_ops == workload.accumulate_ops, "one add per nonzero"
    assert abm.multiply_ops == workload.multiply_ops, "one multiply per value"
    print("measured ABM counts match the encoded workload\n")

    counts = measured_layer_counts(spec, encoded)
    # A MAC-based scheme spends one multiply and one accumulate per MAC.
    rows = [
        ("SDConv (dense)", counts.sdconv_ops / 2, counts.sdconv_ops / 2),
        ("FDConv (3.3x fewer)", counts.fdconv_ops / 2, counts.fdconv_ops / 2),
        ("SpConv (zero-skip)", counts.spconv_ops / 2, counts.spconv_ops / 2),
        ("ABM-SpConv (measured)", abm.multiply_ops, abm.accumulate_ops),
    ]
    dense = counts.sdconv_ops
    print(f"{'scheme':<22} {'multiplies':>12} {'accumulates':>12} {'total':>12} {'vs dense':>9}")
    for name, multiplies, accumulates in rows:
        total = multiplies + accumulates
        print(f"{name:<22} {multiplies:>12,.0f} {accumulates:>12,.0f} "
              f"{total:>12,.0f} {total / dense:>8.1%}")
    print(f"\nABM acc/mult ratio: {abm.accumulate_ops / abm.multiply_ops:.1f} "
          f"(paper Table 1 reports 62.7 for the full-size conv4_2)")


if __name__ == "__main__":
    main()
