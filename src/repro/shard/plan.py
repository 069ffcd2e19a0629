"""Layer-pipeline sharding of compiled model plans.

Two layers live here, mirroring the rest of the codebase's split between
*executable* and *modelled*:

- :class:`ShardedModelPlan` — the executable side. It cuts an existing
  :class:`repro.core.model_plan.ModelPlan` stage list into contiguous
  shards, gives each shard its own ping-pong arena, and detach-copies the
  activation stream at every cut point — exactly the transfer a real
  multi-board deployment performs. Stage ``run()`` methods depend only on
  input *values* (the arena is pure scratch), so sharded outputs are
  bit-exact against the unsharded fused plan for any cut set; the
  hypothesis differential in ``tests/test_shard_plan.py`` pins this the
  way ``tests/test_model_fused.py`` pins fused-vs-reference.
- :class:`ModelPartition` / :class:`ShardSpec` / :class:`ShardPlan` — the
  modelled side the partition search (:mod:`repro.dse.partition`)
  produces: contiguous cuts of a :class:`repro.hw.workload.ModelWorkload`,
  a device and accelerator config per shard, and the inter-shard
  activation traffic priced through a :class:`repro.shard.link.LinkModel`.
  Pipeline timing follows the deterministic tandem-line law (see
  :mod:`repro.shard.pipeline_sim`): steady-state throughput is the
  bottleneck stage's rate, latency is the fill sum.

Sharded executable plans are LRU-cached per (pipeline identity,
quantization token, batch geometry, cuts) and registered with the
telemetry cache registry as ``shard.plans``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..core.model_plan import ModelPlan, _Arena, _FusedStage, _to_bchw, compile_model_plan
from ..hw.config import AcceleratorConfig
from ..hw.device import FPGADevice
from ..hw.workload import ModelWorkload
from ..quant.fixed_point import QFormat
from ..telemetry.caches import Memo
from ..telemetry.context import get_active
from .link import DEFAULT_LINK, LinkModel, LinkTransfer

if TYPE_CHECKING:  # pragma: no cover - import cycle with repro.pipeline
    from ..pipeline import InferenceResult, QuantizedPipeline

__all__ = [
    "ModelPartition",
    "ShardPlan",
    "ShardSpec",
    "ShardedModelPlan",
    "compile_sharded_plan",
    "sharded_run_batch",
    "stage_cuts_for_layers",
]


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


# ---------------------------------------------------------------------------
# Modelled side: partitions of a ModelWorkload and the resulting ShardPlan.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Executable side: slicing a compiled ModelPlan's stage list.
# ---------------------------------------------------------------------------


def stage_cuts_for_layers(
    plan: ModelPlan, boundary_layers: Sequence[str]
) -> Tuple[int, ...]:
    """Map accelerated-layer boundaries to stage-list cut indices.

    Each name in ``boundary_layers`` is the first accelerated layer of a
    downstream shard (:meth:`ModelPartition.boundary_layers`); the
    returned indices cut ``plan.stages`` immediately before the fused
    stage executing that layer, so interstitial host/pool/reshape stages
    stay with the upstream shard — they consume the upstream activation
    before it crosses the link.
    """
    index_of = {
        stage.name: i
        for i, stage in enumerate(plan.stages)
        if isinstance(stage, _FusedStage)
    }
    cuts = []
    for name in boundary_layers:
        if name not in index_of:
            raise ValueError(
                f"layer {name!r} is not an accelerated stage of this plan; "
                f"accelerated: {sorted(index_of)}"
            )
        cuts.append(index_of[name])
    return _validate_cuts(cuts, len(plan.stages), "stage")


class ShardedModelPlan:
    """A compiled model plan executed as contiguous stage shards.

    Wraps an existing :class:`ModelPlan` without touching it: each shard
    owns a private :class:`_Arena` (sized and typed like the parent's, so
    any cut set is safe), and the activation leaving a shard is detach-copied —
    the modelled link transfer — before entering the next shard's arena
    domain. Because every stage's ``run`` is a pure function of its input
    values, the sharded stream is bit-exact against ``plan.run``.

    Per-shard ``shard`` telemetry spans wrap the usual ``kernel`` spans,
    and :attr:`transfer_elements` records the exact per-cut activation
    element counts after a run.
    """

    def __init__(self, plan: ModelPlan, cuts: Sequence[int]) -> None:
        self.plan = plan
        self.cuts = _validate_cuts(cuts, len(plan.stages), "stage")
        bounds = (0,) + self.cuts + (len(plan.stages),)
        self.shards: Tuple[Tuple[object, ...], ...] = tuple(
            tuple(plan.stages[bounds[i] : bounds[i + 1]])
            for i in range(len(bounds) - 1)
        )
        self.shard_layers: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(s.name for s in shard if isinstance(s, _FusedStage))
            for shard in self.shards
        )
        # Each shard gets the parent's arena geometry and code dtype:
        # sizing per shard would save memory but ties the arena to the cut
        # set; the parent high-water mark is correct for any contiguous
        # slice.
        self.arenas: Tuple[_Arena, ...] = tuple(
            _Arena.like(plan.arena) for _ in self.shards
        )
        #: Per-cut activation elements moved at the last ``run`` (whole
        #: batch); ``None`` before the first run.
        self.transfer_elements: Optional[Tuple[int, ...]] = None
        self._lock = threading.Lock()

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def batch_shape(self) -> Tuple[int, ...]:
        return self.plan.batch_shape

    @property
    def output_fmt(self) -> QFormat:
        return self.plan.output_fmt

    @property
    def layer_ops(self) -> List[Tuple[str, int, int]]:
        return self.plan.layer_ops

    def run(self, codes: np.ndarray) -> Tuple[np.ndarray, QFormat]:
        """Stream codes through every shard, copying at each cut.

        Returns a fresh BCHW int64 array of the final codes and their
        format, exactly like :meth:`ModelPlan.run`; the channels-last
        stream crosses each cut as is. The parent plan's lock is held
        too: fused stages share per-layer scratch with the unsharded
        plan, so the two must never run concurrently.
        """
        if codes.shape != self.plan.batch_shape:
            raise ValueError(
                f"sharded plan compiled for batch {self.plan.batch_shape}, "
                f"got {codes.shape}"
            )
        telemetry = get_active()
        transfers: List[int] = []
        with self._lock, self.plan._lock:
            current = codes.transpose(0, 2, 3, 1)
            for index, (shard, arena) in enumerate(zip(self.shards, self.arenas)):
                if telemetry is not None:
                    with telemetry.span(
                        "shard",
                        shard=index,
                        stages=len(shard),
                        layers=",".join(self.shard_layers[index]),
                    ):
                        current = self._run_shard(
                            shard, arena, current, telemetry, codes.shape[0]
                        )
                else:
                    current = self._run_shard(
                        shard, arena, current, None, codes.shape[0]
                    )
                if index < len(self.shards) - 1:
                    # The cut-point transfer: detach from this shard's
                    # arena so the downstream shard reads a foreign array
                    # (its first claim lands in its own ping buffer).
                    current = current.copy()
                    transfers.append(int(current.size))
            self.transfer_elements = tuple(transfers)
            return _to_bchw(current), self.plan.output_fmt

    @staticmethod
    def _run_shard(
        shard: Tuple[object, ...],
        arena: _Arena,
        current: np.ndarray,
        telemetry,
        images: int,
    ) -> np.ndarray:
        for stage in shard:
            if telemetry is not None and isinstance(stage, _FusedStage):
                with telemetry.span(
                    "kernel",
                    layer=stage.name,
                    images=images,
                    fused=",".join(stage.fused_names),
                    datapath=stage.datapath,
                ):
                    current = stage.run(arena, current)
            else:
                current = stage.run(arena, current)
        return current

    def describe(self) -> str:
        layers = " | ".join(
            ",".join(names) or "-" for names in self.shard_layers
        )
        return (
            f"sharded_plan({self.plan.network_name}: {self.n_shards} shards "
            f"at cuts {list(self.cuts)}; {layers})"
        )


# ---------------------------------------------------------------------------
# Sharded-plan cache (telemetry family: shard.plans).
# ---------------------------------------------------------------------------

#: Sharded wrappers, LRU-bounded. Each owns per-shard arenas, so the bound
#: stays as small as the model-plan cache's.
_sharded_plans = Memo("shard.plans", capacity=8)


def compile_sharded_plan(
    pipeline: "QuantizedPipeline",
    batch_shape: Tuple[int, ...],
    cuts: Sequence[int],
) -> ShardedModelPlan:
    """The cached sharded wrapper for (pipeline, batch, cuts).

    The underlying fused plan comes from
    :func:`repro.core.model_plan.compile_model_plan` (its own cache);
    this cache only holds the shard wrappers and their arenas. Keys
    follow the model-plan cache: pipeline identity + quantization token,
    and entries evict when the pipeline is collected.
    """
    batch_shape = tuple(int(s) for s in batch_shape)
    cuts = tuple(int(c) for c in cuts)
    return _sharded_plans.get(
        (pipeline.quantization_token, batch_shape, cuts),
        lambda: ShardedModelPlan(compile_model_plan(pipeline, batch_shape), cuts),
        owner=pipeline,
    )


def sharded_run_batch(
    pipeline: "QuantizedPipeline",
    images: np.ndarray,
    cuts: Sequence[int],
) -> "List[InferenceResult]":
    """Batched inference through a stage-sharded plan.

    The multi-device analogue of
    :meth:`repro.pipeline.QuantizedPipeline.run_batch`: identical
    quantize/dequantize envelope, identical per-image op attribution, and
    bit-exact outputs for any valid cut set (the hypothesis differential
    in ``tests/test_shard_plan.py`` pins this).
    """
    from ..pipeline import InferenceResult, LayerRunStats

    pipeline._check_ready("sharded_run_batch()")
    batch = pipeline._as_bchw(images)
    b = batch.shape[0]
    sharded = compile_sharded_plan(pipeline, batch.shape, cuts)
    codes = pipeline.input_fmt.quantize(batch)
    out_codes, out_fmt = sharded.run(codes)
    outputs = out_fmt.dequantize(out_codes)
    return [
        InferenceResult(
            output=outputs[i],
            layer_stats=[
                LayerRunStats(
                    name=name,
                    accumulate_ops=acc // b,
                    multiply_ops=mult // b,
                )
                for name, acc, mult in sharded.layer_ops
            ],
        )
        for i in range(b)
    ]
