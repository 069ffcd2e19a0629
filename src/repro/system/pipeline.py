"""Pipelined CPU/FPGA system model (paper Section 6.1).

The DE5-Net system splits each inference between the FPGA (conv + FC) and
the host CPU (pooling, LRN, softmax). With pipelined processing — image
*i* runs its CPU layers while image *i+1* occupies the FPGA — steady-state
throughput is limited by the slower stage, and the paper states "the
execution time of CPU were hidden by FPGA".

The model combines the accelerator simulator's per-image FPGA time with
:class:`~repro.system.host.HostModel`'s CPU estimate and reports both the
FPGA-only and overall-system figures — the distinction Table 2's footnotes
draw for the [3] baseline (663.5 vs 780.6 GOP/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.accelerator import AcceleratorSimulator, ModelSimResult
from ..hw.config import AcceleratorConfig
from ..hw.device import FPGADevice
from ..nn.models.arch import Architecture
from ..hw.workload import ModelWorkload
from .host import DEFAULT_HOST_OPS_PER_SECOND, host_ops_from_architecture


@dataclass(frozen=True)
class SystemResult:
    """Pipelined system outcome for one model."""

    model: str
    fpga_seconds: float
    host_seconds: float
    dense_ops: int

    @property
    def bottleneck(self) -> str:
        return "fpga" if self.fpga_seconds >= self.host_seconds else "host"

    @property
    def cpu_hidden(self) -> bool:
        """The paper's claim: CPU work fits inside the FPGA stage."""
        return self.host_seconds <= self.fpga_seconds

    @property
    def pipelined_seconds_per_image(self) -> float:
        """Steady-state per-image time of the two-stage pipeline."""
        return max(self.fpga_seconds, self.host_seconds)

    @property
    def sequential_seconds_per_image(self) -> float:
        """Per-image time without pipelining (the naive system)."""
        return self.fpga_seconds + self.host_seconds

    @property
    def fpga_gops(self) -> float:
        """FPGA-only throughput (what Table 2 reports as the main figure)."""
        return self.dense_ops / self.fpga_seconds / 1e9

    @property
    def system_gops(self) -> float:
        """Overall system throughput, pipelined."""
        return self.dense_ops / self.pipelined_seconds_per_image / 1e9

    @property
    def pipeline_speedup(self) -> float:
        """Gain of pipelining over sequential host+FPGA execution."""
        return self.sequential_seconds_per_image / self.pipelined_seconds_per_image


def run_system(
    architecture: Architecture,
    workload: ModelWorkload,
    config: AcceleratorConfig,
    device: FPGADevice,
    host_ops_per_second: float = DEFAULT_HOST_OPS_PER_SECOND,
    simulation: ModelSimResult = None,
) -> SystemResult:
    """Evaluate the pipelined system for one model.

    ``simulation`` may be supplied to reuse an existing accelerator run.
    """
    if simulation is None:
        simulation = AcceleratorSimulator(config, device).simulate(workload)
    if host_ops_per_second <= 0:
        raise ValueError("host rate must be positive")
    host_seconds = host_ops_from_architecture(architecture) / host_ops_per_second
    return SystemResult(
        model=workload.name,
        fpga_seconds=simulation.seconds_per_image,
        host_seconds=host_seconds,
        dense_ops=workload.dense_ops,
    )
