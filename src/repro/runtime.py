"""System runtime: co-simulation of numerics and timing.

Plays the role of the paper's OpenCL host program: it owns a deployed
model (encoded weights + accelerator configuration), executes inference
*functionally* through the quantized ABM pipeline, and attributes *time*
from the accelerator simulator's per-layer cycle estimates plus the host
model for the CPU layers — the two-stage pipelined system of Section 6.1.

    runtime = SystemRuntime.from_pipeline(pipeline, specs, device)
    outcome = runtime.infer(image)
    outcome.top1, outcome.fpga_ms, outcome.host_ms, outcome.effective_gops
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core.specs import LayerSpec
from .deploy import DeployedModel, deploy
from .hw.accelerator import ModelSimResult
from .hw.config import AcceleratorConfig
from .hw.device import STRATIX_V_GXA7, FPGADevice
from .pipeline import InferenceResult, QuantizedPipeline
from .system.host import DEFAULT_HOST_OPS_PER_SECOND, HostModel
from .telemetry.context import Telemetry, activate


@dataclass(frozen=True)
class RuntimeOutcome:
    """One inference: outputs plus the attributed time budget."""

    output: np.ndarray
    layer_cycles: Dict[str, float]
    fpga_seconds: float
    host_seconds: float
    executed_ops: int
    dense_ops: int

    @property
    def top1(self) -> int:
        return int(np.argmax(self.output))

    @property
    def fpga_ms(self) -> float:
        return self.fpga_seconds * 1e3

    @property
    def host_ms(self) -> float:
        return self.host_seconds * 1e3

    @property
    def effective_gops(self) -> float:
        """Executed (acc+mult) operation rate on the FPGA."""
        return self.executed_ops / self.fpga_seconds / 1e9


class SystemRuntime:
    """Executes a deployed model functionally with simulated timing."""

    def __init__(
        self,
        pipeline: QuantizedPipeline,
        deployed: DeployedModel,
        device: FPGADevice = STRATIX_V_GXA7,
        host_ops_per_second: float = DEFAULT_HOST_OPS_PER_SECOND,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        """``telemetry``, when given, makes every :meth:`infer` /
        :meth:`infer_batch` call open an ``infer`` span (with nested
        ``layer`` and ``kernel`` spans from the pipeline and compiled
        plans) and record per-inference metrics into its registry."""
        self.pipeline = pipeline
        self.deployed = deployed
        self.device = device
        self.host_model = HostModel(ops_per_second=host_ops_per_second)
        self.telemetry = telemetry
        self._simulation: Optional[ModelSimResult] = None

    @classmethod
    def from_pipeline(
        cls,
        pipeline: QuantizedPipeline,
        specs: Sequence[LayerSpec],
        device: FPGADevice = STRATIX_V_GXA7,
        config: Optional[AcceleratorConfig] = None,
        host_ops_per_second: float = DEFAULT_HOST_OPS_PER_SECOND,
    ) -> "SystemRuntime":
        """Deploy a quantized pipeline and wrap it in a runtime."""
        deployed = deploy(pipeline, specs, config=config, device=device)
        return cls(
            pipeline,
            deployed,
            device=device,
            host_ops_per_second=host_ops_per_second,
        )

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

    def infer(self, image: np.ndarray) -> RuntimeOutcome:
        """Run one image: ABM numerics + simulated per-layer timing."""
        if self.telemetry is not None:
            with activate(self.telemetry):
                with self.telemetry.span(
                    "infer", model=self.pipeline.network.name
                ):
                    functional: InferenceResult = self.pipeline.run(image)
            self.telemetry.registry.counter("runtime/images").inc()
        else:
            functional = self.pipeline.run(image)
        simulation = self.simulation
        layer_cycles = {
            layer.layer: layer.cycles_per_image for layer in simulation.layers
        }
        host_seconds = self.host_model.seconds_per_image(self.pipeline.network)
        return RuntimeOutcome(
            output=functional.output,
            layer_cycles=layer_cycles,
            fpga_seconds=simulation.seconds_per_image,
            host_seconds=host_seconds,
            executed_ops=functional.total_ops,
            dense_ops=simulation.dense_ops,
        )

    def infer_batch(self, images: Sequence[np.ndarray]) -> List[RuntimeOutcome]:
        """Run a batch through the pipeline's fused streaming path in one pass.

        Numerically identical, image-for-image, to calling :meth:`infer` on
        each image — the batch flows through the fused
        :class:`repro.core.model_plan.ModelPlan` (conv/FC + epilogue stages
        over ping-pong activation buffers) instead of looping layers
        Python-side. Timing attribution per image is the same as
        :meth:`infer` (the simulator's per-image estimate).
        """
        if len(images) == 0:
            raise ValueError("batch must contain at least one image")
        batch = np.stack([np.asarray(image) for image in images])
        if self.telemetry is not None:
            with activate(self.telemetry):
                with self.telemetry.span(
                    "infer",
                    model=self.pipeline.network.name,
                    batch=len(images),
                ):
                    functional = self.pipeline.run_batch(batch)
            self.telemetry.registry.counter("runtime/images").inc(len(images))
        else:
            functional = self.pipeline.run_batch(batch)
        simulation = self.simulation
        layer_cycles = {
            layer.layer: layer.cycles_per_image for layer in simulation.layers
        }
        host_seconds = self.host_model.seconds_per_image(self.pipeline.network)
        return [
            RuntimeOutcome(
                output=result.output,
                layer_cycles=layer_cycles,
                fpga_seconds=simulation.seconds_per_image,
                host_seconds=host_seconds,
                executed_ops=result.total_ops,
                dense_ops=simulation.dense_ops,
            )
            for result in functional
        ]

    def latency_breakdown(self) -> Tuple[Tuple[str, float], ...]:
        """(layer, milliseconds) for every accelerated layer, in order."""
        simulation = self.simulation
        freq_hz = self.deployed.config.freq_mhz * 1e6
        return tuple(
            (layer.layer, layer.cycles_per_image / freq_hz * 1e3)
            for layer in simulation.layers
        )
