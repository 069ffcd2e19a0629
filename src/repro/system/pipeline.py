"""Pipelined CPU/FPGA system model (paper Section 6.1).

The DE5-Net system splits each inference between the FPGA (conv + FC) and
the host CPU (pooling, LRN, softmax). With pipelined processing — image
*i* runs its CPU layers while image *i+1* occupies the FPGA — steady-state
throughput is limited by the slower stage, and the paper states "the
execution time of CPU were hidden by FPGA".

:class:`ServiceProfile` is the one record of that system: the two stage
times, the dense op count and the model name. :func:`run_system` builds
it from the accelerator simulator's per-image FPGA time and
:class:`~repro.system.host.HostModel`'s CPU estimate, and
:meth:`ServiceProfile.from_runtime` from a deployed
:class:`repro.runtime.SystemRuntime`; the serving engine
(:mod:`repro.serve.events`) times every simulated instance with it. It
reports both the FPGA-only and overall-system figures — the distinction
Table 2's footnotes draw for the [3] baseline (663.5 vs 780.6 GOP/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.accelerator import AcceleratorSimulator
from ..hw.config import AcceleratorConfig
from ..hw.device import FPGADevice
from ..nn.models.arch import Architecture
from ..hw.workload import ModelWorkload
from .host import DEFAULT_HOST_OPS_PER_SECOND, host_ops_from_architecture


@dataclass(frozen=True)
class ServiceProfile:
    """Timing model of one deployed CPU/FPGA system.

    ``fpga_s`` and ``host_s`` are the per-image stage times of the
    paper's two-stage CPU/FPGA pipeline (Section 6.1). An image admitted
    into a drained pipeline takes :attr:`fill_s` through both stages —
    the sequential, unpipelined time; one admitted behind in-flight
    images leaves :attr:`step_s`, the slower stage's time, after the one
    before it — the pipelined time.
    """

    fpga_s: float
    host_s: float
    dense_ops_per_image: int = 0
    name: str = "profile"

    def __post_init__(self) -> None:
        if self.fpga_s <= 0 or self.host_s < 0:
            raise ValueError("stage times must be positive (host may be 0)")
        if self.dense_ops_per_image < 0:
            raise ValueError("dense ops cannot be negative")

    @property
    def step_s(self) -> float:
        """Steady-state per-image time: the slower pipeline stage."""
        return max(self.fpga_s, self.host_s)

    @property
    def fill_s(self) -> float:
        """Latency of one image through both stages (pipeline fill)."""
        return self.fpga_s + self.host_s

    @property
    def capacity_rps(self) -> float:
        """Saturated per-instance throughput, images per second."""
        return 1.0 / self.step_s

    @property
    def bottleneck(self) -> str:
        return "fpga" if self.fpga_s >= self.host_s else "host"

    @property
    def cpu_hidden(self) -> bool:
        """The paper's claim: CPU work fits inside the FPGA stage."""
        return self.host_s <= self.fpga_s

    @property
    def fpga_gops(self) -> float:
        """FPGA-only throughput (what Table 2 reports as the main figure)."""
        return self.dense_ops_per_image / self.fpga_s / 1e9

    @property
    def system_gops(self) -> float:
        """Overall system throughput, pipelined."""
        return self.dense_ops_per_image / self.step_s / 1e9

    @property
    def pipeline_speedup(self) -> float:
        """Gain of pipelining over sequential host+FPGA execution."""
        return self.fill_s / self.step_s

    @classmethod
    def from_runtime(cls, runtime) -> "ServiceProfile":
        """Extract the timing profile of a deployed ``SystemRuntime``.

        Copies the runtime's exact floats: ``simulation.seconds_per_image``
        and the host model's per-image time.
        """
        simulation = runtime.simulation
        return cls(
            fpga_s=simulation.seconds_per_image,
            host_s=runtime.host_model.seconds_per_image(
                runtime.pipeline.network
            ),
            dense_ops_per_image=simulation.dense_ops,
            name=runtime.pipeline.network.name,
        )


def run_system(
    architecture: Architecture,
    workload: ModelWorkload,
    config: AcceleratorConfig,
    device: FPGADevice,
    host_ops_per_second: float = DEFAULT_HOST_OPS_PER_SECOND,
) -> ServiceProfile:
    """Evaluate the pipelined system for one model."""
    if host_ops_per_second <= 0:
        raise ValueError("host rate must be positive")
    simulation = AcceleratorSimulator(config, device).simulate(workload)
    host_seconds = host_ops_from_architecture(architecture) / host_ops_per_second
    return ServiceProfile(
        fpga_s=simulation.seconds_per_image,
        host_s=host_seconds,
        dense_ops_per_image=workload.dense_ops,
        name=workload.name,
    )
