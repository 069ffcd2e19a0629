"""End-to-end deployment: from a float CNN to a timed accelerator run.

The complete user story in one script:

1. build a CNN and prune/quantize it (Deep Compression style),
2. `deploy()` it — encode the weights, pick an accelerator configuration
   with the DSE flow, verify buffer fits, produce the binary blob,
3. run inference through the `SystemRuntime`, which couples the bit-exact
   ABM numerics with the simulator's cycle-level timing and the host model
   (the paper's CPU/FPGA split),
4. inspect the per-layer latency breakdown.

Run:  python examples/end_to_end_deployment.py
"""

import numpy as np

from repro.nn.models import cifarnet_architecture
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from repro.runtime import SystemRuntime
from repro.system.pipeline import SystemResult

SEED = 13


def main() -> None:
    architecture = cifarnet_architecture()
    network = architecture.build(seed=SEED)
    rng = np.random.default_rng(SEED)
    image = rng.normal(size=network.input_shape.as_tuple())

    # 1. prune + quantize (with k-means weight sharing for good measure).
    names = [layer.name for layer in network.accelerated_layers()]
    pipeline = QuantizedPipeline(network, weight_clusters=32)
    pipeline.prune(uniform_schedule(names, 0.35).densities)
    pipeline.calibrate(image)
    pipeline.quantize()

    # 2. deploy: DSE picks the configuration, the blob is ready to ship.
    runtime = SystemRuntime.from_pipeline(
        pipeline, architecture.accelerated_specs()
    )
    deployed = runtime.deployed
    print(f"deployed {deployed.name}: config {deployed.config.describe()}")
    print(f"  weight blob: {deployed.blob_bytes / 1024:.1f} KiB "
          f"(buffers fit: {deployed.fits})")

    # 3. run one inference with coupled numerics + timing.
    outcome = runtime.infer(image)
    reference = int(np.argmax(pipeline.run_float(image)))
    print(f"\ninference: top-1 = {outcome.top1} "
          f"(float reference {reference}, "
          f"{'match' if outcome.top1 == reference else 'MISMATCH'})")
    print(f"  FPGA time:   {outcome.fpga_ms * 1e3:8.1f} us")
    print(f"  host time:   {outcome.host_ms * 1e3:8.1f} us")
    # The CPU/FPGA pipeline runs at the pace of its slower stage.
    system = SystemResult(
        deployed.name, outcome.fpga_seconds, outcome.host_seconds,
        outcome.dense_ops,
    )
    print(f"  throughput:  {system.system_gops:8.1f} GOP/s (dense basis)")
    print(f"  effective:   {outcome.effective_gops:8.1f} GOP/s (executed ops)")

    # 4. per-layer latency breakdown.
    print("\nper-layer FPGA latency:")
    for name, ms in runtime.latency_breakdown():
        print(f"  {name:<8} {ms * 1e3:8.1f} us")


if __name__ == "__main__":
    main()
