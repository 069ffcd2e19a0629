"""Extension experiment: batch size vs external memory bandwidth.

The paper's Bandwidth Model amortizes encoded-weight fetches over "a
minimum batch size of S_ec" and concludes the design is compute-bound on
the GXA7. This experiment sweeps the batch size to locate the *crossover*:
how small a batch (down to single-image latency-critical inference) the
12.8 GB/s DDR3 can sustain before weight re-streaming makes the design
memory-bound — the kind of deployment question a user of the accelerator
actually faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..analysis.tables import render_table
from ..dse.bandwidth import bandwidth_report
from ..dse.performance import MODE_QUANTIZED, estimate_model
from ..hw.config import PAPER_CONFIG_VGG16, AcceleratorConfig
from ..hw.device import STRATIX_V_GXA7, FPGADevice
from ..workloads.synthetic import synthetic_model_workload


@dataclass(frozen=True)
class BatchPoint:
    """Bandwidth picture at one batch size."""

    batch: int
    required_gbs: float
    headroom: float
    compute_bound: bool


@dataclass(frozen=True)
class BatchBandwidthResult:
    model: str
    device: FPGADevice
    points: Tuple[BatchPoint, ...]

    @property
    def crossover_batch(self) -> Optional[int]:
        """Smallest swept batch that is still compute-bound."""
        feasible = [p.batch for p in self.points if p.compute_bound]
        return min(feasible) if feasible else None

    def render(self) -> str:
        rows = [
            (p.batch, p.required_gbs, self.device.bandwidth_gbs, f"{p.headroom:.2f}x", p.compute_bound)
            for p in self.points
        ]
        table = render_table(
            ("batch", "required GB/s", "device GB/s", "headroom", "compute-bound"),
            rows,
            title=f"batch size vs bandwidth ({self.model} on {self.device.name})",
        )
        crossover = self.crossover_batch
        note = (
            f"\nsmallest compute-bound batch: {crossover}"
            if crossover is not None
            else "\nmemory-bound at every swept batch"
        )
        return table + note


#: The weight-fetch batch sizes the sweep visits.
BATCHES: Tuple[int, ...] = (1, 2, 4, 8, 20, 40)


def run(
    model: str = "vgg16",
    config: AcceleratorConfig = PAPER_CONFIG_VGG16,
    device: FPGADevice = STRATIX_V_GXA7,
    seed: int = 1,
) -> BatchBandwidthResult:
    """Sweep the weight-fetch batch size for one model/config/device."""
    workload = synthetic_model_workload(model, seed=seed)
    performance = estimate_model(workload, config, mode=MODE_QUANTIZED)
    points = []
    for batch in BATCHES:
        report = bandwidth_report(
            workload, config, device, performance.images_per_second, batch=batch
        )
        points.append(
            BatchPoint(
                batch=batch,
                required_gbs=report.required_bandwidth_gbs,
                headroom=report.bandwidth_headroom,
                compute_bound=report.compute_bound,
            )
        )
    return BatchBandwidthResult(model=model, device=device, points=tuple(points))
