"""Whole-model fused streaming execution plans.

:mod:`repro.core.plan` compiles each conv/FC layer into an exact GEMM
plan, but the per-layer reference walk still round-trips every layer
through fresh numpy temporaries: it detaches each plan result into a new
array, rescans the batch's peak magnitude per layer, and materializes
6-8 float temporaries per requantize.  This module compiles the *network*
the way the paper's
accelerator streams it: one :class:`ModelPlan` per (pipeline, batch
geometry) that

- **fuses each conv/FC with its epilogue** — bias add, requantize to the
  layer's 8-bit output format, ReLU (folded into the clip bound) and, when
  adjacent, the integer-exact MaxPool — into a single stage;
- **threads activations through two preallocated ping-pong CHW buffers**
  sized to the network's high-water mark, so no per-layer output is ever
  materialized (stages read the raw plan scratch and write requantized
  codes straight into the destination buffer);
- **hoists run-time decisions to compile time**: each stage's datapath
  (float32 or float64 GEMM or the int64 fallback, see
  :meth:`LayerPlan.datapath`)
  comes from the tracked quantized-format code range (no peak scan per
  layer per batch), the bias codes and requantize scale factors are
  computed once, and the host/accelerator split is resolved when the
  plan is built;
- **shares one scratch arena across the batch**: the requantize float
  scratch and the pooling windows reuse the same two arrays for every
  stage of every call.

Bit-exactness: every fused stage performs the *same* float64/integer
operations as :meth:`repro.pipeline.QuantizedPipeline.run_batch_reference`
(power-of-two scale factors make the fused single multiply exact, integer
max equals float max on integer codes), so fused outputs and op counts are
identical to the per-layer path — pinned by the hypothesis differential
suite in ``tests/test_model_fused.py``.

Host layers (AvgPool, LRN, Softmax) stay on the float path, exactly as the
paper's CPU/FPGA split prescribes: they dequantize out of the stream, run
in float64, and requantize back into the ping-pong flow.

Plans are LRU-cached per (pipeline identity, quantization token, batch
geometry) and registered with the telemetry cache registry as
``core.model_plan``.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.layers import (
    AvgPool2D,
    Dropout,
    Flatten,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
)
from ..nn.tensor import FeatureShape, pool_output_extent
from ..quant.fixed_point import QFormat
from ..telemetry.caches import CacheStats, register_cache
from ..telemetry.context import get_active
from .plan import LayerPlan, code_peak, compile_layer_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle with repro.pipeline
    from ..pipeline import QuantizedPipeline

#: Compiled model plans kept before LRU eviction.  Model plans own the
#: ping-pong buffers (two int64 + two float64 arrays at the network's
#: high-water mark), so the bound is deliberately small.
MODEL_PLAN_CACHE_CAPACITY = 8

def _max_abs_code(fmt: QFormat) -> int:
    """The largest |code| the format can emit — the static input peak."""
    return max(-fmt.min_code, fmt.max_code)


class _FusedStage:
    """conv/FC + bias + requantize [+ ReLU] [+ integer MaxPool], one stage."""

    __slots__ = (
        "name",
        "plan",
        "bias_codes",
        "factor",
        "clip_lo",
        "clip_hi",
        "pool",
        "is_fc",
        "input_peak",
        "datapath",
        "conv_shape",
        "out_shape",
        "fused_names",
    )

    def __init__(
        self,
        name: str,
        plan: LayerPlan,
        bias_codes: np.ndarray,
        in_fmt: QFormat,
        datapath_fmt: QFormat,
        out_fmt: QFormat,
        relu: bool,
        pool: Optional[MaxPool2D],
        is_fc: bool,
        conv_shape: FeatureShape,
        out_shape: FeatureShape,
        fused_names: Tuple[str, ...],
    ) -> None:
        self.name = name
        self.plan = plan
        self.bias_codes = bias_codes
        # One multiply replaces dequantize(datapath) o quantize(out): both
        # scales are powers of two, so (codes * 2**-dp) * 2**out and
        # codes * 2**(out - dp) round identically (each step is exact).
        self.factor = 2.0 ** (out_fmt.frac_bits - datapath_fmt.frac_bits)
        # ReLU folds into the requantize clip: max(clip(x, lo, hi), 0)
        # == clip(x, max(lo, 0), hi), and out_fmt.max_code >= 0 always.
        self.clip_lo = float(max(out_fmt.min_code, 0) if relu else out_fmt.min_code)
        self.clip_hi = float(out_fmt.max_code)
        self.pool = pool
        self.is_fc = is_fc
        self.input_peak = _max_abs_code(in_fmt)
        # Compile-time exactness proof: every partial sum is bounded by
        # max|x| * max_k sum(|VAL|*NUM) + |bias|, so the float32 GEMM is
        # exact below 2**24, the float64 GEMM below 2**53 and the int64
        # fallback below 2**63; past that the plan raises ExactnessError
        # here, before any batch runs.
        #: What computes the raw sums: "gemm32", "gemm" or "int64".
        self.datapath = plan.datapath(self.input_peak, code_peak(bias_codes))
        self.conv_shape = conv_shape
        self.out_shape = out_shape
        self.fused_names = fused_names

    def run(self, arena: "_Arena", current: np.ndarray) -> np.ndarray:
        batch = (
            current.reshape(current.shape[0], -1, 1, 1) if self.is_fc else current
        )
        channels = self.plan.out_channels
        raw, images, out_rows, out_cols = self.plan.execute_batch_raw(
            batch, self.bias_codes, self.datapath
        )
        if self.datapath == "gemm":
            scaled = raw  # plan-owned float64 scratch: scale it in place
        else:
            # int64 and float32 sums widen exactly into the float64 scratch.
            scaled = arena.float_a[: raw.size].reshape(raw.shape)
        np.multiply(raw, self.factor, out=scaled, dtype=np.float64)
        # Requantize in the shared float scratch: one exact power-of-two
        # multiply, round half away from zero, clip (ReLU included).
        rounded = arena.float_b[: raw.size].reshape(raw.shape)
        np.abs(scaled, out=rounded)
        rounded += 0.5
        np.floor(rounded, out=rounded)
        np.copysign(rounded, scaled, out=rounded)
        np.clip(rounded, self.clip_lo, self.clip_hi, out=rounded)
        # One strided pass writes the kernel-major sums into the BCHW
        # destination view — the detach copy and the int64 cast in one.
        dest = arena.claim(current, (images, channels, out_rows, out_cols))
        np.copyto(
            dest.transpose(1, 0, 2, 3),
            rounded.reshape(channels, images, out_rows, out_cols),
            casting="unsafe",
        )
        if self.pool is not None:
            dest = _integer_maxpool(arena, self.pool, dest)
        return dest


def _integer_maxpool(arena: "_Arena", pool: MaxPool2D, current: np.ndarray) -> np.ndarray:
    """Ceil-mode max pooling on integer codes, into the free ping buffer.

    One strided ``np.maximum`` pass per window offset.  Offset (0, 0) lies
    inside every window (ceil-mode windows never start past the edge), so
    it initializes the output; each later offset updates only the leading
    windows it still reaches, which is exactly max over the real pixels —
    the reference's ``-inf`` padding never wins.  Max of codes == code of
    max, so this is bit-identical to the float64 pool + ``astype(int64)``.
    """
    images, channels, rows, cols = current.shape
    k, s = pool.kernel, pool.stride
    out_rows = pool_output_extent(rows, k, s)
    out_cols = pool_output_extent(cols, k, s)
    dest = arena.claim(current, (images, channels, out_rows, out_cols))
    for i in range(k):
        for j in range(k):
            tap = current[:, :, i::s, j::s][:, :, :out_rows, :out_cols]
            if i == j == 0:
                np.copyto(dest, tap)
            else:
                part = dest[:, :, : tap.shape[2], : tap.shape[3]]
                np.maximum(part, tap, out=part)
    return dest


class _PoolStage:
    """Standalone integer MaxPool (not adjacent to a conv epilogue)."""

    __slots__ = ("name", "pool")

    def __init__(self, name: str, pool: MaxPool2D) -> None:
        self.name = name
        self.pool = pool

    def run(self, arena: "_Arena", current: np.ndarray) -> np.ndarray:
        return _integer_maxpool(arena, self.pool, current)


class _ReLUStage:
    """Standalone elementwise ReLU, in place on the stream buffer."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def run(self, arena: "_Arena", current: np.ndarray) -> np.ndarray:
        np.maximum(current, 0, out=current)
        return current


class _ReshapeStage:
    """Flatten / Dropout: pure view changes, no data movement."""

    __slots__ = ("name", "flatten")

    def __init__(self, name: str, flatten: bool) -> None:
        self.name = name
        self.flatten = flatten

    def run(self, arena: "_Arena", current: np.ndarray) -> np.ndarray:
        if self.flatten:
            return current.reshape(current.shape[0], -1, 1, 1)
        return current


class _HostStage:
    """AvgPool / LRN / Softmax: dequantize, run float64, requantize.

    The float round-trip is byte-for-byte the reference path's — host
    layers are where the paper's system leaves the integer stream, so the
    fused plan leaves it the same way.
    """

    __slots__ = ("name", "layer", "in_fmt", "out_fmt")

    def __init__(self, name: str, layer, in_fmt: QFormat, out_fmt: QFormat) -> None:
        self.name = name
        self.layer = layer
        self.in_fmt = in_fmt
        self.out_fmt = out_fmt

    def run(self, arena: "_Arena", current: np.ndarray) -> np.ndarray:
        real = self.layer.forward_batch(self.in_fmt.dequantize(current))
        # The fresh codes array rejoins the stream directly; downstream
        # claims fall back to ping buffer 0 when reading from it.
        return self.out_fmt.quantize(real)


class _Arena:
    """The shared buffer arena of one model plan.

    Two int64 ping-pong buffers at the activation high-water mark plus two
    float64 requantize scratches at the largest raw conv output.  ``claim``
    hands out a view of whichever ping buffer the caller is *not* reading
    from, so a stage can always write its output while streaming its input.
    """

    __slots__ = ("ping", "float_a", "float_b")

    def __init__(self, high_water: int, float_elements: int) -> None:
        self.ping = (
            np.empty(high_water, dtype=np.int64),
            np.empty(high_water, dtype=np.int64),
        )
        self.float_a = np.empty(float_elements, dtype=np.float64)
        self.float_b = np.empty(float_elements, dtype=np.float64)

    def _index_of(self, array: np.ndarray) -> Optional[int]:
        base = array
        while base.base is not None:  # walk view chains to the owning array
            base = base.base
        for i, buf in enumerate(self.ping):
            if base is buf:
                return i
        return None

    def claim(self, current: np.ndarray, shape: Sequence[int]) -> np.ndarray:
        """A destination view that does not alias ``current``."""
        src = self._index_of(current)
        dest = 1 - src if src is not None else 0
        n = int(np.prod(shape))
        return self.ping[dest][:n].reshape(shape)

    @property
    def nbytes(self) -> int:
        return (
            self.ping[0].nbytes * 2 + self.float_a.nbytes + self.float_b.nbytes
        )


class ModelPlan:
    """A quantized network compiled for fused streaming execution."""

    def __init__(
        self,
        pipeline: "QuantizedPipeline",
        batch_shape: Tuple[int, ...],
    ) -> None:
        if len(batch_shape) != 4:
            raise ValueError(f"expected a BCHW batch shape, got {batch_shape}")
        if pipeline.input_fmt is None:
            raise RuntimeError(
                "pipeline is not calibrated: call calibrate() before compiling "
                "a model plan"
            )
        if not pipeline.compiled:
            raise RuntimeError(
                "pipeline is not quantized: call quantize() before compiling "
                "a model plan"
            )
        images = int(batch_shape[0])
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.network_name = pipeline.network.name
        self.input_fmt = pipeline.input_fmt
        self.stages: List[object] = []
        #: (layer name, accumulates, multiplies) per accelerated layer, in
        #: network order — the batch-total op counts are exact constants.
        self.layer_ops: List[Tuple[str, int, int]] = []
        self._lock = threading.Lock()

        layers = list(pipeline.network)
        shape = FeatureShape(*(int(s) for s in batch_shape[1:]))
        fmt = pipeline.input_fmt
        high_water = images * shape.size
        float_elements = 1
        index = 0
        while index < len(layers):
            layer = layers[index]
            name = layer.name
            if name in pipeline.compiled:
                compiled = pipeline.compiled[name]
                datapath_fmt = QFormat(
                    32, fmt.frac_bits + compiled.weight_fmt.frac_bits
                )
                bias_codes = datapath_fmt.quantize(compiled.bias_codes)
                plan = compile_layer_plan(compiled.encoded, compiled.geometry)
                conv_shape = layer.output_shape(shape)
                fused = [name]
                relu = False
                pool: Optional[MaxPool2D] = None
                if index + 1 < len(layers) and isinstance(layers[index + 1], ReLU):
                    relu = True
                    fused.append(layers[index + 1].name)
                    index += 1
                if index + 1 < len(layers) and isinstance(
                    layers[index + 1], MaxPool2D
                ):
                    pool = layers[index + 1]
                    fused.append(pool.name)
                    index += 1
                out_shape = pool.output_shape(conv_shape) if pool else conv_shape
                stage = _FusedStage(
                    name=name,
                    plan=plan,
                    bias_codes=bias_codes,
                    in_fmt=fmt,
                    datapath_fmt=datapath_fmt,
                    out_fmt=compiled.output_fmt,
                    relu=relu,
                    pool=pool,
                    is_fc=compiled.is_fc,
                    conv_shape=conv_shape,
                    out_shape=out_shape,
                    fused_names=tuple(fused),
                )
                self.stages.append(stage)
                pixels = images * conv_shape.rows * conv_shape.cols
                self.layer_ops.append(
                    (
                        name,
                        plan.accumulates_per_pixel * pixels,
                        plan.multiplies_per_pixel * pixels,
                    )
                )
                high_water = max(high_water, images * conv_shape.size)
                float_elements = max(float_elements, images * conv_shape.size)
                fmt = compiled.output_fmt
                shape = out_shape
            elif isinstance(layer, ReLU):
                self.stages.append(_ReLUStage(name))
            elif isinstance(layer, MaxPool2D):
                self.stages.append(_PoolStage(name, layer))
                shape = layer.output_shape(shape)
            elif isinstance(layer, (Flatten, Dropout)):
                self.stages.append(
                    _ReshapeStage(name, flatten=isinstance(layer, Flatten))
                )
                shape = layer.output_shape(shape)
            elif isinstance(layer, (AvgPool2D, LocalResponseNorm, Softmax)):
                out_fmt = pipeline.output_fmts.get(name, fmt)
                self.stages.append(_HostStage(name, layer, fmt, out_fmt))
                fmt = out_fmt
                shape = layer.output_shape(shape)
            else:
                raise TypeError(f"pipeline cannot execute layer {layer!r}")
            high_water = max(high_water, images * shape.size)
            index += 1
        self.output_fmt = fmt
        self.output_shape = shape
        self.arena = _Arena(high_water, float_elements)

    # ---- execution -------------------------------------------------------

    def run(self, codes: np.ndarray) -> Tuple[np.ndarray, QFormat]:
        """Stream quantized input codes through every fused stage.

        Returns the final integer codes (a view into plan-owned scratch —
        consume before the next ``run``) and their format.  The arena is
        shared mutable state, so concurrent runs serialize on a plan lock.
        """
        if codes.shape != self.batch_shape:
            raise ValueError(
                f"model plan compiled for batch {self.batch_shape}, "
                f"got {codes.shape}"
            )
        telemetry = get_active()
        with self._lock:
            current = codes
            for stage in self.stages:
                if telemetry is not None and isinstance(stage, _FusedStage):
                    with telemetry.span(
                        "kernel",
                        layer=stage.name,
                        images=int(codes.shape[0]),
                        fused=",".join(stage.fused_names),
                        datapath=stage.datapath,
                    ):
                        current = stage.run(self.arena, current)
                else:
                    current = stage.run(self.arena, current)
            return current, self.output_fmt

    # ---- reporting -------------------------------------------------------

    def describe(self) -> str:
        """One-line summary for logs and benchmarks."""
        fused = sum(1 for s in self.stages if isinstance(s, _FusedStage))
        host = sum(1 for s in self.stages if isinstance(s, _HostStage))
        return (
            f"model_plan({self.network_name}: {len(self.stages)} stages, "
            f"{fused} fused, {host} host, batch={self.batch_shape}, "
            f"arena={self.arena.nbytes / 1e6:.1f} MB)"
        )


_model_plan_cache: "OrderedDict[Hashable, ModelPlan]" = OrderedDict()
_model_plan_refs: Dict[int, "weakref.ref"] = {}
_model_plan_lock = threading.RLock()
_model_plan_hits = 0
_model_plan_misses = 0
_model_plan_evictions = 0


def _evict_model_plans(pipeline_id: int) -> None:
    global _model_plan_evictions
    with _model_plan_lock:
        _model_plan_refs.pop(pipeline_id, None)
        for key in [k for k in _model_plan_cache if k[0] == pipeline_id]:
            del _model_plan_cache[key]
            _model_plan_evictions += 1


def compile_model_plan(
    pipeline: "QuantizedPipeline",
    batch_shape: Tuple[int, ...],
) -> ModelPlan:
    """The cached :class:`ModelPlan` for (pipeline, batch geometry).

    Keyed on the pipeline's identity, its quantization token (bumped by
    ``prune``/``calibrate``/``quantize``, so a re-quantized pipeline never
    reuses stale stages) and the batch shape; entries evict when the
    pipeline is garbage collected or the LRU bound trips.  A compile miss
    records a ``fuse`` span under the active telemetry.
    """
    global _model_plan_hits, _model_plan_misses
    key = (id(pipeline), pipeline.quantization_token, tuple(batch_shape))
    with _model_plan_lock:
        plan = _model_plan_cache.get(key)
        if plan is not None:
            ref = _model_plan_refs.get(id(pipeline))
            if ref is not None and ref() is pipeline:
                _model_plan_cache.move_to_end(key)
                _model_plan_hits += 1
                return plan
            _evict_model_plans(id(pipeline))
        _model_plan_misses += 1
    telemetry = get_active()
    if telemetry is not None:
        with telemetry.span(
            "fuse", model=pipeline.network.name, batch=list(batch_shape)
        ):
            plan = ModelPlan(pipeline, tuple(batch_shape))
    else:
        plan = ModelPlan(pipeline, tuple(batch_shape))
    with _model_plan_lock:
        global _model_plan_evictions
        _model_plan_cache[key] = plan
        if id(pipeline) not in _model_plan_refs:
            _model_plan_refs[id(pipeline)] = weakref.ref(pipeline)
            weakref.finalize(pipeline, _evict_model_plans, id(pipeline))
        while len(_model_plan_cache) > MODEL_PLAN_CACHE_CAPACITY:
            old_key, _ = _model_plan_cache.popitem(last=False)
            _model_plan_evictions += 1
            if not any(k[0] == old_key[0] for k in _model_plan_cache):
                _model_plan_refs.pop(old_key[0], None)
    return plan


def clear_model_plan_cache() -> None:
    """Drop all compiled model plans (tests and memory-sensitive callers)."""
    global _model_plan_hits, _model_plan_misses, _model_plan_evictions
    with _model_plan_lock:
        _model_plan_cache.clear()
        _model_plan_refs.clear()
        _model_plan_hits = 0
        _model_plan_misses = 0
        _model_plan_evictions = 0


def model_plan_cache_size() -> int:
    with _model_plan_lock:
        return len(_model_plan_cache)


def model_plan_cache_stats() -> CacheStats:
    """Hit/miss/eviction accounting of the model-plan cache (telemetry)."""
    with _model_plan_lock:
        return CacheStats(
            hits=_model_plan_hits,
            misses=_model_plan_misses,
            evictions=_model_plan_evictions,
            size=len(_model_plan_cache),
            capacity=MODEL_PLAN_CACHE_CAPACITY,
            name="core.model_plan",
        )


register_cache("core.model_plan", model_plan_cache_stats)
