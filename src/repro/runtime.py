"""System runtime: one deployed model and its simulated timing.

Plays the role of the paper's OpenCL host program: it owns a deployed
model (encoded weights + accelerator configuration) and attributes
*time* from the accelerator simulator's per-layer cycle estimates plus
the host model for the CPU layers — the two-stage pipelined system of
Section 6.1. Inference itself is :meth:`QuantizedPipeline.run_batch`;
the timing record is :class:`repro.system.pipeline.ServiceProfile`:

    runtime = SystemRuntime.from_pipeline(pipeline, specs, device)
    results = runtime.pipeline.run_batch(images)
    profile = ServiceProfile.from_runtime(runtime)
    profile.fpga_s, profile.host_s, runtime.simulation.layers
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core.specs import LayerSpec
from .deploy import DeployedModel, deploy
from .hw.accelerator import ModelSimResult
from .hw.device import STRATIX_V_GXA7, FPGADevice
from .pipeline import QuantizedPipeline
from .system.host import HostModel


class SystemRuntime:
    """A deployed model with its simulated FPGA and host timing."""

    def __init__(
        self,
        pipeline: QuantizedPipeline,
        deployed: DeployedModel,
        device: FPGADevice,
    ) -> None:
        self.pipeline = pipeline
        self.deployed = deployed
        self.device = device
        self.host_model = HostModel()
        self._simulation: Optional[ModelSimResult] = None

    @classmethod
    def from_pipeline(
        cls,
        pipeline: QuantizedPipeline,
        specs: Sequence[LayerSpec],
        device: FPGADevice = STRATIX_V_GXA7,
    ) -> "SystemRuntime":
        """Deploy a quantized pipeline on the configuration the DSE flow
        picks for ``device``, and wrap it in a runtime."""
        deployed = deploy(pipeline, specs, device=device)
        return cls(pipeline, deployed, device)

    @property
    def simulation(self) -> ModelSimResult:
        """Lazily-run (and cached) timing simulation of the deployment.

        Backed by the process-wide layer result cache, so sibling runtimes
        serving the same deployment share one simulation instead of
        re-running it per instance.
        """
        if self._simulation is None:
            self._simulation = self.deployed.simulate(self.device)
        return self._simulation
