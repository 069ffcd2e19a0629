"""Inspect the accelerator's behaviour under faults and at event level.

Two diagnostics a hardware bring-up engineer would actually run:

1. **Execution trace** — simulate a layer with the trace recorder attached,
   verify the scheduler invariants (no CU overlap, at most two prefetch
   windows in flight — the ping-pong buffer), and print the Gantt chart.
2. **Fault injection** — corrupt the encoded weight stream in transit
   (single bit flips in WT-Buffer indices and Q-Table values, stream
   truncation) and measure the blast radius on the output feature map.

Run:  python examples/fault_injection.py
"""

import numpy as np

from repro.core.abm import ConvGeometry, abm_conv2d
from repro.core.encoding import encode_layer
from repro.core.specs import conv_spec
from repro.hw.config import AcceleratorConfig
from repro.hw.faults import (
    CorruptionDetected,
    flip_index_bit,
    flip_value_bit,
    truncate_stream,
)
from repro.hw.memory import ExternalMemory
from repro.hw.scheduler import simulate_layer
from repro.hw.trace import TraceRecorder
from repro.hw.workload import workload_from_encoded
from repro.workloads.synthetic import (
    synthesize_quantized_layer,
    synthetic_feature_codes,
)

SEED = 9


def trace_demo() -> None:
    print("=== execution trace (one conv layer, 3 CUs)")
    rng = np.random.default_rng(SEED)
    spec = conv_spec("demo", 64, 24, kernel=3, in_rows=14, in_cols=14, padding=1)
    weights = synthesize_quantized_layer(spec, density=0.3, codebook=20, rng=rng)
    workload = workload_from_encoded(spec, encode_layer(spec.name, weights))
    config = AcceleratorConfig(n_cu=3, n_knl=4, n_share=4, s_ec=8, d_f=1024)
    trace = TraceRecorder()
    result = simulate_layer(
        workload, config, ExternalMemory(12.8, config.freq_mhz), trace=trace
    )
    trace.verify_no_overlap()
    print(f"tasks: {result.tasks}, windows: {result.windows}, "
          f"cycles: {result.cycles:,}, CU util: {result.cu_utilization:.0%}")
    print(f"prefetch windows concurrently in flight: "
          f"{trace.windows_in_flight()} (ping-pong bound: 2)")
    print(trace.gantt())
    print()


def fault_demo() -> None:
    print("=== fault injection on the encoded weight stream")
    rng = np.random.default_rng(SEED)
    spec = conv_spec("demo", 32, 8, kernel=3, in_rows=10, in_cols=10, padding=1)
    weights = synthesize_quantized_layer(spec, density=0.4, codebook=16, rng=rng)
    encoded = encode_layer(spec.name, weights)
    features = synthetic_feature_codes((32, 10, 10), rng)
    geometry = ConvGeometry(kernel=3, padding=1)
    clean = abm_conv2d(features, encoded, geometry).output

    # 1. Q-Table VAL flip: corrupts exactly one output channel.
    corrupted = flip_value_bit(encoded, kernel_index=2, entry_index=0, bit=5)
    dirty = abm_conv2d(features, corrupted, geometry).output
    changed = [m for m in range(8) if not np.array_equal(clean[m], dirty[m])]
    print(f"VAL bit flip in kernel 2 -> corrupted channels: {changed}")

    # 2. Index flip: one accumulate reads the wrong pixel.
    corrupted = flip_index_bit(encoded, kernel_index=0, entry_index=3, bit=1)
    dirty = abm_conv2d(features, corrupted, geometry).output
    errors = np.abs(dirty - clean)
    print(f"index bit flip in kernel 0 -> max output error {errors.max()}, "
          f"{np.count_nonzero(errors)} of {errors.size} pixels touched")

    # 3. Structural corruption must be DETECTED, not silently decoded.
    try:
        truncate_stream(encoded, kernel_index=0, drop_entries=2)
    except CorruptionDetected as exc:
        print(f"truncated stream -> detected: {exc}")


def main() -> None:
    trace_demo()
    fault_demo()


if __name__ == "__main__":
    main()
