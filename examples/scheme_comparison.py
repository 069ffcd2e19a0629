"""Compare the four convolution schemes by operation count on one layer.

The paper compares SDConv (dense), SpConv (zero-skipping), FDConv
(frequency domain) and ABM-SpConv by the operations each spends on the
same layer (Table 1). This example runs one pruned, quantized layer
through ABM-SpConv, checks the measured counts against the encoded
workload, and sets them beside the op-count models of the three
baselines — the single-layer view of paper Table 1.

Run:  python examples/scheme_comparison.py
"""

import numpy as np

from repro.baselines import FDConvModel, SDConvModel, SpConvModel
from repro.core import ConvGeometry, SchemeOps, abm_conv2d, conv_spec, encode_layer
from repro.hw import workload_from_encoded
from repro.workloads import codebook_size, synthesize_quantized_layer, synthetic_feature_codes

SEED = 3


def main() -> None:
    # A conv4-like layer at reduced size: 64 -> 32 channels, 14x14 output.
    spec = conv_spec("demo", 64, 32, kernel=3, in_rows=14, in_cols=14, padding=1)
    rng = np.random.default_rng(SEED)
    weights = synthesize_quantized_layer(
        spec, density=0.27, codebook=codebook_size("vgg16", "conv4_2"), rng=rng
    )
    features = synthetic_feature_codes((64, 14, 14), rng)
    encoded = encode_layer("demo", weights)
    workload = workload_from_encoded(spec, encoded)

    abm = abm_conv2d(features, encoded, ConvGeometry(kernel=3, padding=1))
    assert abm.accumulate_ops == workload.accumulate_ops, "one add per nonzero"
    assert abm.multiply_ops == workload.multiply_ops, "one multiply per value"
    print("measured ABM counts match the encoded workload\n")

    rows = [
        ("SDConv (dense)", SDConvModel().layer_ops(workload)),
        ("FDConv (OaA model)", FDConvModel().layer_ops(workload)),
        ("SpConv (zero-skip)", SpConvModel().layer_ops(workload)),
        ("ABM-SpConv (measured)", SchemeOps(abm.multiply_ops, abm.accumulate_ops)),
    ]
    dense = rows[0][1].total_ops
    print(f"{'scheme':<22} {'multiplies':>12} {'accumulates':>12} {'total':>12} {'vs dense':>9}")
    for name, ops in rows:
        print(f"{name:<22} {ops.multiplies:>12,.0f} {ops.accumulates:>12,.0f} "
              f"{ops.total_ops:>12,.0f} {ops.total_ops / dense:>8.1%}")
    print(f"\nABM acc/mult ratio: {abm.acc_to_mult_ratio:.1f} "
          f"(paper Table 1 reports 62.7 for the full-size conv4_2)")


if __name__ == "__main__":
    main()
