"""Deployment: package a quantized pipeline for the accelerator.

Bridges the functional world (:class:`~repro.pipeline.QuantizedPipeline`)
and the hardware world (:mod:`repro.hw`): extracts the accelerator
workload from the actually-encoded layers, verifies the encoding fits the
configuration's on-chip buffers, and estimates the deployment's
performance on a device. The weight blob the runtime would ship to DDR is
:func:`repro.core.serialize.dumps` of ``pipeline.encoded_layers()``
(``abm-spconv encode --out`` writes it).

    deployed = deploy(pipeline, architecture.accelerated_specs())
    print(deployed.simulate(STRATIX_V_GXA7).throughput_gops)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .core.specs import LayerSpec
from .dse.explorer import explore
from .hw.accelerator import AcceleratorSimulator, ModelSimResult
from .hw.buffers import BufferRequirement, buffer_report
from .hw.config import AcceleratorConfig
from .hw.device import STRATIX_V_GXA7, FPGADevice
from .hw.trace import TraceRecorder
from .hw.workload import ModelWorkload, workload_from_encoded
from .pipeline import QuantizedPipeline
from .telemetry.context import get_active


class DeploymentError(RuntimeError):
    """The pipeline cannot be deployed as requested."""


@dataclass(frozen=True)
class DeployedModel:
    """A pipeline compiled, checked and packaged for one configuration."""

    name: str
    workload: ModelWorkload
    config: AcceleratorConfig
    buffers: Tuple[BufferRequirement, ...]

    @property
    def fits(self) -> bool:
        return all(requirement.fits for requirement in self.buffers)

    def simulate(
        self,
        device: FPGADevice = STRATIX_V_GXA7,
        trace: Optional["TraceRecorder"] = None,
    ) -> ModelSimResult:
        """Estimate the deployment's performance on a device.

        Routed through the process-wide layer-simulation result cache, so
        repeated deployments of the same workload (DSE sweeps, sibling
        runtimes) do not re-simulate. ``trace`` forwards a
        :class:`~repro.hw.trace.TraceRecorder` (traced runs are uncached,
        see :meth:`AcceleratorSimulator.simulate`).

        When a telemetry context is active the whole estimate runs under a
        ``simulate`` span.
        """
        simulator = AcceleratorSimulator(self.config, device)
        telemetry = get_active()
        if telemetry is None:
            return simulator.simulate(self.workload, trace=trace)
        with telemetry.span("simulate", model=self.workload.name, device=device.name):
            return simulator.simulate(self.workload, trace=trace)


def deploy(
    pipeline: QuantizedPipeline,
    specs: Sequence[LayerSpec],
    config: Optional[AcceleratorConfig] = None,
    device: FPGADevice = STRATIX_V_GXA7,
) -> DeployedModel:
    """Package a quantized pipeline for the accelerator.

    Parameters
    ----------
    specs:
        The accelerated-layer specs of the network (same names as the
        pipeline's compiled layers, e.g. ``architecture.accelerated_specs()``).
    config:
        Target configuration; when omitted the DSE flow picks one for the
        workload on ``device``.

    Raises :class:`DeploymentError` when the encoding does not fit the
    configuration's buffers.
    """
    if not pipeline.compiled:
        raise DeploymentError("pipeline must be calibrated and quantized first")
    spec_by_name = {spec.name: spec for spec in specs}
    missing = [name for name in pipeline.compiled if name not in spec_by_name]
    if missing:
        raise DeploymentError(f"no specs for compiled layers: {missing}")
    encoded_layers = pipeline.encoded_layers()
    layers = tuple(
        workload_from_encoded(spec_by_name[encoded.name], encoded)
        for encoded in encoded_layers
    )
    workload = ModelWorkload(name=pipeline.network.name, layers=layers)
    if config is None:
        config = explore(workload, device).chosen
    requirements = tuple(buffer_report(config, encoded_layers))
    deployed = DeployedModel(
        name=pipeline.network.name,
        workload=workload,
        config=config,
        buffers=requirements,
    )
    if not deployed.fits:
        broken = [r.name for r in requirements if not r.fits]
        raise DeploymentError(
            f"encoding exceeds on-chip buffers: {', '.join(broken)}"
        )
    return deployed
