"""Layer-pipeline partitions of a model workload.

:class:`ModelPartition` / :class:`ShardSpec` / :class:`ShardPlan` are the
plans the partition search (:mod:`repro.dse.partition`) produces:
contiguous cuts of a :class:`repro.hw.workload.ModelWorkload`, a device
and accelerator config per shard, and the inter-shard activation traffic
priced through a :class:`repro.shard.link.LinkModel`. Pipeline timing
follows the deterministic tandem-line law (see
:mod:`repro.shard.pipeline_sim`): steady-state throughput is the
bottleneck stage's rate, latency is the fill sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..hw.config import AcceleratorConfig
from ..hw.device import FPGADevice
from ..hw.workload import ModelWorkload
from .link import LinkTransfer

__all__ = ["ModelPartition", "ShardPlan", "ShardSpec"]


def _validate_cuts(cuts: Sequence[int], limit: int, what: str) -> Tuple[int, ...]:
    """Strictly increasing interior cut indices in (0, limit)."""
    out = tuple(int(c) for c in cuts)
    for c in out:
        if not 0 < c < limit:
            raise ValueError(
                f"{what} cut {c} outside the open interval (0, {limit})"
            )
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"{what} cuts must be strictly increasing, got {out}")
    return out


@dataclass(frozen=True)
class ModelPartition:
    """Contiguous cuts of a model workload's accelerated-layer list.

    ``cuts`` are layer indices: a cut at ``i`` means layers ``[.., i)``
    and ``[i, ..)`` land on different shards. The activation crossing a
    cut is the output tensor of layer ``i - 1`` (8-bit codes, one element
    per output value).
    """

    workload: ModelWorkload
    cuts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.workload.layers:
            raise ValueError("cannot partition a workload with no layers")
        object.__setattr__(
            self,
            "cuts",
            _validate_cuts(self.cuts, len(self.workload.layers), "layer"),
        )

    @property
    def n_shards(self) -> int:
        return len(self.cuts) + 1

    @property
    def boundaries(self) -> Tuple[int, ...]:
        return (0,) + self.cuts + (len(self.workload.layers),)

    def shard_workloads(self) -> Tuple[ModelWorkload, ...]:
        """One sub-workload per shard, named ``<model>/shard<i>``."""
        bounds = self.boundaries
        return tuple(
            ModelWorkload(
                name=f"{self.workload.name}/shard{i}",
                layers=self.workload.layers[bounds[i] : bounds[i + 1]],
            )
            for i in range(self.n_shards)
        )

    def cut_elements(self) -> Tuple[int, ...]:
        """Activation elements crossing each cut (per image)."""
        return tuple(
            self.workload.layers[c - 1].spec.output_size for c in self.cuts
        )

    def boundary_layers(self) -> Tuple[str, ...]:
        """The first accelerated layer of each downstream shard."""
        return tuple(self.workload.layers[c].spec.name for c in self.cuts)


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a planned pipeline: its layers, device and config."""

    index: int
    layers: Tuple[str, ...]
    device: FPGADevice
    config: AcceleratorConfig
    seconds_per_image: float
    dense_ops_per_image: int = 0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("shard index cannot be negative")
        if not self.layers:
            raise ValueError(f"shard {self.index} has no layers")
        if self.seconds_per_image <= 0:
            raise ValueError(f"shard {self.index}: stage time must be positive")


@dataclass(frozen=True)
class ShardPlan:
    """A complete pipelined deployment plan for one model.

    ``transfers`` prices the activation traffic at each cut (length
    ``len(shards) - 1``). Timing follows the deterministic tandem-line
    law: the steady-state output interval is the slowest shard *or* link,
    regardless of inter-stage queue depth, and one image's latency is the
    sum of every stage and link time (the pipeline fill).
    """

    model: str
    shards: Tuple[ShardSpec, ...]
    transfers: Tuple[LinkTransfer, ...]
    dense_ops_per_image: int = 0

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("a shard plan needs at least one shard")
        if len(self.transfers) != len(self.shards) - 1:
            raise ValueError(
                f"{len(self.shards)} shards need {len(self.shards) - 1} "
                f"transfers, got {len(self.transfers)}"
            )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def service_times(self) -> Tuple[float, ...]:
        """Shard and link service times, interleaved in stream order."""
        times: List[float] = []
        for i, shard in enumerate(self.shards):
            times.append(shard.seconds_per_image)
            if i < len(self.transfers):
                times.append(self.transfers[i].seconds)
        return tuple(times)

    @property
    def bottleneck_s(self) -> float:
        """Steady-state output interval: the slowest stage or link."""
        return max(self.service_times)

    @property
    def fill_latency_s(self) -> float:
        """One image's end-to-end latency through the empty pipeline."""
        return sum(self.service_times)

    @property
    def throughput_ips(self) -> float:
        return 1.0 / self.bottleneck_s

    @property
    def throughput_gops(self) -> float:
        return self.throughput_ips * self.dense_ops_per_image / 1e9

    def batch_seconds(self, batch_size: int) -> float:
        """Makespan of ``batch_size`` images: fill + (B-1) steady steps."""
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        return self.fill_latency_s + (batch_size - 1) * self.bottleneck_s

    def describe(self) -> str:
        parts = []
        for i, shard in enumerate(self.shards):
            parts.append(
                f"shard{shard.index}[{shard.layers[0]}..{shard.layers[-1]}]"
                f"@{shard.device.name} {shard.seconds_per_image * 1e3:.3f}ms"
            )
            if i < len(self.transfers):
                t = self.transfers[i]
                parts.append(f"--{t.wire_bytes}B/{t.seconds * 1e6:.1f}us-->")
        return (
            f"shard_plan({self.model}: {' '.join(parts)}; "
            f"{self.throughput_ips:.1f} img/s, "
            f"fill {self.fill_latency_s * 1e3:.3f} ms)"
        )
