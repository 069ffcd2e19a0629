"""Benchmark (extension): irregular vs structured sparsity on the CUs.

Related work [2] needs *structured* pruning because lockstep hardware
cannot ride irregular sparsity; the paper's semi-synchronous CUs claim to
absorb the irregular kind. This ablation encodes the same layer pruned
both ways at equal density and measures what reaches the accelerator:
structured (kernel-granular) sparsity concentrates the surviving work in
few heavy engines, and only the balanced grouping policy recovers the
utilization that irregular sparsity gets almost for free.
"""

import numpy as np

from repro.core.encoding import encode_layer
from repro.core.specs import conv_spec
from repro.hw.config import AcceleratorConfig
from repro.hw.memory import ExternalMemory
from repro.hw.scheduler import POLICY_BALANCED, POLICY_NATURAL, simulate_layer
from repro.hw.workload import workload_from_encoded
from repro.prune.magnitude import prune_tensor
from repro.prune.structured import prune_kernels


def _simulate(weights, spec, policy):
    codes = np.round(weights * 24).astype(np.int64)
    workload = workload_from_encoded(spec, encode_layer(spec.name, codes))
    config = AcceleratorConfig(n_cu=3, n_knl=8, n_share=4, s_ec=16, d_f=1568)
    result = simulate_layer(
        workload, config, ExternalMemory(12.8, config.freq_mhz), policy=policy
    )
    return result


def test_bench_sparsity_structure(benchmark, seed):
    spec = conv_spec("ablate", 96, 64, kernel=3, in_rows=14, in_cols=14, padding=1)
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=spec.weight_shape())

    def run():
        rows = {}
        for label, weights in (
            ("irregular", prune_tensor(dense, 0.4)),
            ("structured", prune_kernels(dense, 0.4)),
        ):
            for policy in (POLICY_NATURAL, POLICY_BALANCED):
                result = _simulate(weights, spec, policy)
                rows[(label, policy)] = result
        return rows

    rows = benchmark(run)
    print()
    print(f"  {'sparsity':<11} {'grouping':<9} {'cycles':>9} {'CU occ':>7} {'engine occ':>11}")
    for (label, policy), result in rows.items():
        print(
            f"  {label:<11} {policy:<9} {result.cycles:>9,} "
            f"{result.cu_utilization:>6.1%} {result.engine_utilization:>10.1%}"
        )
    # Irregular sparsity keeps engines busy even in encode order...
    assert rows[("irregular", POLICY_NATURAL)].engine_utilization > 0.85
    # ...while structured sparsity collapses engine occupancy there...
    assert (
        rows[("structured", POLICY_NATURAL)].engine_utilization
        < rows[("irregular", POLICY_NATURAL)].engine_utilization - 0.1
    )
    # ...and balanced grouping recovers most of the loss.
    assert (
        rows[("structured", POLICY_BALANCED)].cycles
        < rows[("structured", POLICY_NATURAL)].cycles
    )
