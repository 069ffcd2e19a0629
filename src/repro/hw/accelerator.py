"""Top-level accelerator simulator facade.

Runs a whole :class:`~repro.hw.workload.ModelWorkload` through the
layer-level event simulation and aggregates the figures the paper reports:
inference time, throughput in GOP/s (normalized, as in the paper, to the
*original dense* op count of the model), performance density per DSP, CU
utilization and the external-bandwidth picture.

Layer results are memoized in a process-wide LRU keyed on (workload
fingerprint, config, device bandwidth, policy): per-layer simulations are
independent pure functions of those inputs, so DSE sweeps, repeated
``SystemRuntime``/serve deployments and the experiment suite stop
re-simulating identical layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..telemetry.caches import Memo
from ..telemetry.context import get_active
from .config import AcceleratorConfig
from .device import FPGADevice
from .memory import ExternalMemory
from .scheduler import POLICY_BALANCED, LayerSimResult, simulate_layer
from .trace import TraceRecorder
from .workload import LayerWorkload, ModelWorkload

#: DDR bandwidth assumed when no device is given (the DE5-Net's DDR3).
DEFAULT_BANDWIDTH_GBS = 12.8

#: Layer results, LRU-bounded. One entry per distinct (layer workload,
#: config, bandwidth, policy) — full-model simulations of AlexNet/VGG16-class
#: networks need a few tens of entries each.
_sims = Memo("hw.sim", capacity=4096)
_SimKey = Tuple[LayerWorkload, AcceleratorConfig, float, str]


@dataclass(frozen=True)
class ModelSimResult:
    """Aggregated simulation outcome for one model on one configuration."""

    model: str
    config: AcceleratorConfig
    layers: Tuple[LayerSimResult, ...]
    dense_ops: int

    @property
    def cycles_per_image(self) -> float:
        return float(sum(layer.cycles_per_image for layer in self.layers))

    @property
    def seconds_per_image(self) -> float:
        return self.cycles_per_image / (self.config.freq_mhz * 1e6)

    @property
    def throughput_gops(self) -> float:
        """GOP/s on the paper's basis: dense #OP / average inference time."""
        return self.dense_ops / self.seconds_per_image / 1e9

    @property
    def effective_gops(self) -> float:
        """GOP/s counted on the operations actually executed (acc + mult)."""
        executed = sum(
            (layer.accumulate_ops + layer.multiply_ops) / layer.images
            for layer in self.layers
        )
        return executed / self.seconds_per_image / 1e9

    @property
    def cu_utilization(self) -> float:
        """Compute-time-weighted mean CU busy fraction (paper's efficiency)."""
        total_compute = sum(layer.compute_cycles for layer in self.layers)
        if total_compute == 0:
            return 0.0
        weighted = sum(
            layer.cu_utilization * layer.compute_cycles for layer in self.layers
        )
        return weighted / total_compute

    @property
    def engine_utilization(self) -> float:
        """Within-task engine busy fraction across the run."""
        capacity = sum(layer.engine_capacity_cycles for layer in self.layers)
        if capacity == 0:
            return 0.0
        busy = sum(layer.engine_busy_cycles for layer in self.layers)
        return busy / capacity

    @property
    def memory_stall_fraction(self) -> float:
        cycles = sum(layer.cycles for layer in self.layers)
        if cycles == 0:
            return 0.0
        return sum(layer.memory_stall_cycles for layer in self.layers) / cycles

    @property
    def bandwidth_gbs(self) -> float:
        """Average external bandwidth over the inference."""
        bytes_per_image = sum(
            layer.memory_bytes / layer.images for layer in self.layers
        )
        return bytes_per_image / self.seconds_per_image / 1e9

    def perf_density(self, dsps_used: int) -> float:
        """GOP/s per DSP — Table 2's cross-device comparison metric."""
        if dsps_used < 1:
            raise ValueError("DSP count must be positive")
        return self.throughput_gops / dsps_used


class AcceleratorSimulator:
    """Simulates the ABM-SpConv accelerator on model workloads.

    ``use_cache`` routes layers through the process-wide result cache.
    """

    def __init__(
        self,
        config: AcceleratorConfig,
        device: Optional[FPGADevice] = None,
        policy: str = POLICY_BALANCED,
        use_cache: bool = True,
    ) -> None:
        self.config = config
        self.device = device
        self.policy = policy
        self.use_cache = use_cache

    @property
    def bandwidth_gbs(self) -> float:
        return self.device.bandwidth_gbs if self.device else DEFAULT_BANDWIDTH_GBS

    def _memory(self) -> ExternalMemory:
        return ExternalMemory(
            bandwidth_gbs=self.bandwidth_gbs, freq_mhz=self.config.freq_mhz
        )

    def _key(self, layer: LayerWorkload) -> _SimKey:
        # LayerWorkload hashes by content (a key built once from its spec,
        # count arrays and bytes), so equal workloads hit regardless of
        # where they were constructed.
        return (layer, self.config, self.bandwidth_gbs, self.policy)

    def simulate(
        self,
        workload: ModelWorkload,
        trace: Optional["TraceRecorder"] = None,
    ) -> ModelSimResult:
        """Run every layer in order and aggregate; cached layers are
        never re-simulated.

        ``trace`` captures per-task scheduler events into the given
        :class:`~repro.hw.trace.TraceRecorder`. Traced runs bypass the
        result cache in both directions — trace events cannot come from a
        cache hit. The recorder's ``dropped`` count (ring-buffer
        overflow) is published as the ``hw.trace.dropped`` gauge when a
        telemetry context is active.
        """
        cached = self.use_cache and trace is None
        config, memory, policy = self.config, self._memory, self.policy
        results = [
            _sims.get(
                self._key(layer),
                lambda: simulate_layer(layer, config, memory(), policy=policy),
            )
            if cached
            else simulate_layer(layer, config, memory(), policy=policy, trace=trace)
            for layer in workload.layers
        ]
        telemetry = get_active()
        if trace is not None and telemetry is not None:
            telemetry.registry.gauge("hw.trace.dropped").set(trace.dropped)
            telemetry.registry.gauge("hw.trace.recorded").set(trace.recorded)
        return ModelSimResult(
            model=workload.name,
            config=self.config,
            layers=tuple(results),
            dense_ops=workload.dense_ops,
        )

    def utilization_summary(self, result: ModelSimResult) -> str:
        """Human-readable per-layer utilization table."""
        lines = [
            f"{'layer':<12} {'cycles':>12} {'CU util':>8} {'engine':>8} "
            f"{'mem stall':>10}"
        ]
        for layer in result.layers:
            lines.append(
                f"{layer.layer:<12} {layer.cycles:>12,} "
                f"{layer.cu_utilization:>7.1%} {layer.engine_utilization:>7.1%} "
                f"{layer.memory_stall_cycles / max(layer.cycles, 1):>9.1%}"
            )
        lines.append(
            f"{'total':<12} {int(np.ceil(result.cycles_per_image)):>12,} "
            f"{result.cu_utilization:>7.1%} {result.engine_utilization:>7.1%} "
            f"{result.memory_stall_fraction:>9.1%}"
        )
        return "\n".join(lines)
