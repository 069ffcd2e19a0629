"""End-to-end deployment: from a float CNN to a timed accelerator run.

The complete user story in one script:

1. build a CNN and prune/quantize it (Deep Compression style),
2. `deploy()` it — encode the weights, pick an accelerator configuration
   with the DSE flow, verify buffer fits; `dumps` gives the binary blob,
3. run bit-exact ABM inference with `pipeline.run_batch` and take its
   timing from the deployment's `ServiceProfile` — the simulator's
   cycle-level FPGA time plus the host model (the paper's CPU/FPGA split),
4. inspect the per-layer latency breakdown of the simulation.

Run:  python examples/end_to_end_deployment.py
"""

import numpy as np

from repro.core.serialize import dumps
from repro.nn.models import cifarnet_architecture
from repro.pipeline import QuantizedPipeline
from repro.prune.schedules import uniform_schedule
from repro.runtime import SystemRuntime
from repro.system.pipeline import ServiceProfile

SEED = 13


def main() -> None:
    architecture = cifarnet_architecture()
    network = architecture.build(seed=SEED)
    rng = np.random.default_rng(SEED)
    image = rng.normal(size=network.input_shape.as_tuple())

    # 1. prune + quantize.
    names = [layer.name for layer in network.accelerated_layers()]
    pipeline = QuantizedPipeline(network)
    pipeline.prune(uniform_schedule(names, 0.35).densities)
    pipeline.calibrate(image)
    pipeline.quantize()

    # 2. deploy: DSE picks the configuration; the blob is what ships to DDR.
    runtime = SystemRuntime.from_pipeline(
        pipeline, architecture.accelerated_specs()
    )
    deployed = runtime.deployed
    print(f"deployed {deployed.name}: config {deployed.config.describe()}")
    blob = dumps(pipeline.encoded_layers())
    print(f"  weight blob: {len(blob) / 1024:.1f} KiB "
          f"(buffers fit: {deployed.fits})")

    # 3. run one inference; its timing is the deployment's profile.
    (result,) = pipeline.run_batch(image[None])
    top1 = int(np.argmax(result.output))
    reference = int(np.argmax(pipeline.run_float(image)))
    print(f"\ninference: top-1 = {top1} "
          f"(float reference {reference}, "
          f"{'match' if top1 == reference else 'MISMATCH'})")
    profile = ServiceProfile.from_runtime(runtime)
    print(f"  FPGA time:   {profile.fpga_s * 1e6:8.1f} us")
    print(f"  host time:   {profile.host_s * 1e6:8.1f} us")
    # The CPU/FPGA pipeline runs at the pace of its slower stage.
    print(f"  throughput:  {profile.system_gops:8.1f} GOP/s (dense basis)")
    effective = (result.accumulate_ops + result.multiply_ops) / profile.fpga_s / 1e9
    print(f"  effective:   {effective:8.1f} GOP/s (executed ops)")

    # 4. per-layer latency breakdown.
    print("\nper-layer FPGA latency:")
    freq_hz = deployed.config.freq_mhz * 1e6
    for layer in runtime.simulation.layers:
        ms = layer.cycles_per_image / freq_hz * 1e3
        print(f"  {layer.layer:<8} {ms * 1e3:8.1f} us")


if __name__ == "__main__":
    main()
