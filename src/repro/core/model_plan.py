"""Whole-model fused streaming execution plans.

:mod:`repro.core.plan` compiles each conv/FC layer into an exact GEMM
plan; the per-layer reference walk still round-trips every layer through
fresh BCHW temporaries.  This module compiles the *network* the way the
paper's accelerator streams it, where a feature word is written once, in
the form the next layer reads.  One :class:`ModelPlan` per (pipeline,
batch geometry)

- **fuses each conv/FC with its epilogue** — bias add, requantize to the
  layer's 8-bit output format, ReLU (folded into the clip bound) and, when
  adjacent, the integer-exact MaxPool — into a single stage;
- **streams channels-last (NHWC) activations through two preallocated
  ping-pong buffers** at the network's high-water mark, and runs every
  stage's im2col + GEMM in one set of stage scratch regions sized at
  compile time for the largest stage (see :class:`_Arena`).  A conv's
  pixel-major GEMM output is already the next layer's layout, so its
  requantize writes contiguously into the destination buffer and the
  next im2col copies contiguous ``C``-word runs.  ``run`` transposes at
  the two ends only; Flatten copies to the reference's CHW order when the
  map is wider than 1x1, so FC weights keep their columns;
- **pools before it requantizes**: requantize is monotone non-decreasing,
  so it commutes with max exactly, and a pooled stage requantizes only
  the pooled sums;
- **keeps the codes in the datapath's dtype**: when every fused stage runs
  the float32 GEMM with a sum bound below ``2**23`` (the 8-bit models),
  the ping-pong buffers hold float32 codes and the requantize runs in
  float32 — narrow feature words, as in the paper's Feature Buffer —
  otherwise int64 codes and a float64 requantize (see
  :func:`_float32_codes`);
- **hoists run-time decisions to compile time**: each stage's datapath
  (see :meth:`LayerPlan.datapath`) comes from the tracked quantized-format
  code range (no peak scan per layer per batch), and the bias codes and
  requantize scale factors are computed once;
- **binds every stage to the arena at compile time**, as the accelerator
  fixes each layer's schedule, buffers and address generation before the
  feature stream starts.  The stage order is fixed, so each stage's
  source and destination ping buffer are assigned statically; each fused
  stage's layer is bound with :meth:`LayerPlan.bind` to its input view
  (halo strips, window views, band tiles, output rows, weight blocks,
  bias cast) and its epilogue to fixed views (the MaxPool taps, the
  requantize ``scratch`` and ``dest``).  The call's input enters through ping buffer 0, so the
  leading stage binds like any other, and every stage is a name, one
  fixed call list and its output view: ``run`` copies the input in,
  replays every stage's ``copyto`` / ``matmul`` / ``add`` / ufunc calls
  and copies the final view out.

Bit-exactness: every fused stage computes the *same* codes as
:meth:`repro.pipeline.QuantizedPipeline.run_batch_reference` (power-of-two
scale factors make the fused single multiply exact, max commutes with the
monotone requantize, and below the float32 predicate's bounds the float32
requantize rounds exactly as the reference's float64 one), so fused
outputs and op counts are identical to the per-layer path — pinned by the
hypothesis differential suite in ``tests/test_model_fused.py``.

Host layers (AvgPool, LRN, Softmax) stay on the float path, exactly as the
paper's CPU/FPGA split prescribes: they dequantize out of the stream, run
in float64 on BCHW, and requantize back into the ping-pong flow.

Plans are LRU-cached per (pipeline identity, quantization token, batch
geometry) and registered with the telemetry cache registry as
``core.model_plan``.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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
from ..telemetry.caches import Memo
from ..telemetry.context import get_active
from .plan import FLOAT32_EXACT, LayerPlan, Scratch, code_peak, compile_layer_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle with repro.pipeline
    from ..pipeline import QuantizedPipeline

#: Compiled model plans, LRU-bounded.  Model plans own their arena (two
#: ping-pong code buffers at the network's high-water mark, one requantize
#: scratch and the stage scratch of the largest stage), so the bound is
#: deliberately small.
_model_plans = Memo("core.model_plan", capacity=8)

#: Exclusive bound on the raw sums the float32 requantize rounds exactly.
#: One bit below ``FLOAT32_EXACT``: ``|x| + 0.5`` of a 23-bit ``x`` always
#: fits the 24-bit significand, while at 24 bits ``(2**24 - 1) * 2**-25``
#: plus 0.5 rounds up to 1.0 where float64 rounds to 0.
FLOAT32_REQUANTIZE_EXACT = 2**23


def _max_abs_code(fmt: QFormat) -> int:
    """The largest |code| the format can emit — the static input peak."""
    return max(-fmt.min_code, fmt.max_code)


def _normal_float32(value: float) -> bool:
    """Whether ``value`` is a (finite, nonzero) normal float32."""
    info = np.finfo(np.float32)
    return float(info.smallest_normal) <= abs(value) <= float(info.max)


def requantize(
    raw: np.ndarray,
    factor: float,
    clip_lo: float,
    clip_hi: float,
    scratch: np.ndarray,
    out: np.ndarray,
) -> None:
    """``clip(round_half_away(raw * factor), clip_lo, clip_hi)`` into ``out``.

    Computed in ``scratch``'s dtype, which has ``raw``'s shape: one exact
    power-of-two multiply, round half away from zero as ``floor(|x| +
    0.5)`` with the sign of ``raw`` (``factor > 0``), and one clip that
    writes, and casts, straight into ``out`` (which may be ``raw``).  In
    float64 this is the reference's rounding; in float32 it is identical
    whenever ``|raw| < FLOAT32_REQUANTIZE_EXACT`` and ``factor`` is a
    normal float32, which is what :func:`_float32_codes` proves before a
    plan stores float32 codes.

    With ``clip_lo >= 0`` (a folded ReLU) the sign is never needed: a
    negative ``x`` rounds to a value ``<= 0`` either way and clips to
    ``clip_lo``, and for ``x >= 0`` ``floor(x + 0.5)`` is the half-away
    rounding.  So ReLU stages skip the ``abs`` and ``copysign`` passes.
    """
    np.multiply(raw, factor, out=scratch, dtype=scratch.dtype)
    if clip_lo < 0:
        np.abs(scratch, out=scratch)
    scratch += 0.5
    np.floor(scratch, out=scratch)
    if clip_lo < 0:
        np.copysign(scratch, raw, out=scratch)
    np.clip(scratch, clip_lo, clip_hi, out=out, casting="unsafe")


class _BoundStage:
    """A stage bound to fixed arena views: a run replays its ``calls``,
    which read its input view and leave its output in :attr:`out`."""

    __slots__ = ("name", "calls", "out")

    def __init__(self, name: str) -> None:
        self.name = name


class _FusedStage(_BoundStage):
    """conv/FC + bias + requantize [+ ReLU] [+ integer MaxPool], one stage."""

    __slots__ = (
        "plan",
        "bias_codes",
        "factor",
        "clip_lo",
        "clip_hi",
        "pool",
        "is_fc",
        "sum_bound",
        "datapath",
        "fused_names",
        "extent",
        "tiles",
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
        fused_names: Tuple[str, ...],
        extent: Tuple[int, int, int],
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
        input_peak = _max_abs_code(in_fmt)
        # Compile-time exactness proof: every partial sum is bounded by
        # max|x| * max_k sum(|VAL|*NUM) + |bias|, so the float32 GEMM is
        # exact below 2**24, the float64 GEMM below 2**53 and the int64
        # fallback below 2**63; past that the plan raises ExactnessError
        # here, before any batch runs.
        bias_peak = code_peak(bias_codes)
        self.sum_bound = plan.sum_bound(input_peak, bias_peak)
        #: What computes the raw sums: "gemm32", "gemm" or "int64".
        self.datapath = plan.datapath(input_peak, bias_peak)
        self.fused_names = fused_names
        #: The (images, rows, cols) batch extent the layer plan runs on.
        self.extent = extent
        #: Im2col + GEMM bands per run (see :meth:`LayerPlan.bands`).
        self.tiles = plan.bands(*extent).count

    def bind(self, arena: "_Arena", src: np.ndarray, index: int) -> Tuple[np.ndarray, int]:
        """Bind the layer to ``src`` and the arena's stage scratch, and the
        epilogue to the ping buffer ``src`` does not occupy; returns the
        output view and its buffer.  An FC stage flattens ``src`` first."""
        self.calls = []
        if self.is_fc:
            flatten = _FlattenStage(self.name)
            src, index = flatten.bind(arena, src, index)
            self.calls += flatten.calls
        raw, layer_calls = self.plan.bind(
            *self.extent, src, self.bias_codes, self.datapath, arena.stage
        )
        self.calls += layer_calls
        index = 1 - index
        if self.pool is None:
            self.out = arena.view(index, raw.shape)
        else:
            # Requantize is monotone non-decreasing, so it commutes with
            # max: pool the raw sums into the destination (an exact cast of
            # integers) and requantize only the pooled ones, in place.
            self.out = arena.view(index, _pooled_shape(self.pool, raw.shape))
            self.calls += _bind_maxpool(self.pool, raw, self.out)
            raw = self.out
        scratch = arena.scratch[: self.out.size].reshape(self.out.shape)
        self.calls.append(
            partial(
                requantize, raw, self.factor, self.clip_lo, self.clip_hi, scratch, self.out
            )
        )
        return self.out, index


def _pooled_shape(pool: MaxPool2D, shape: Sequence[int]) -> Tuple[int, int, int, int]:
    """The channels-last extent ``pool`` makes of a ``shape`` stream."""
    images, rows, cols, channels = shape
    return (
        images,
        pool_output_extent(rows, pool.kernel, pool.stride),
        pool_output_extent(cols, pool.kernel, pool.stride),
        channels,
    )


def _bind_maxpool(pool: MaxPool2D, src: np.ndarray, dest: np.ndarray) -> List[partial]:
    """The calls of a ceil-mode max pooling of channels-last integers
    ``src`` into ``dest``, cast into ``dest``'s dtype on the way.

    One strided ``np.maximum`` pass per window offset.  Offset (0, 0) lies
    inside every window (ceil-mode windows never start past the edge), so
    it initializes the output; each later offset updates only the leading
    windows it still reaches, which is exactly max over the real pixels —
    the reference's ``-inf`` padding never wins.  Max of codes == code of
    max, so this is bit-identical to the float64 pool + ``astype(int64)``.
    """
    k, s = pool.kernel, pool.stride
    out_rows, out_cols = dest.shape[1:3]
    calls = []
    for i in range(k):
        for j in range(k):
            tap = src[:, i::s, j::s][:, :out_rows, :out_cols]
            if i == j == 0:
                calls.append(partial(np.copyto, dest, tap, casting="unsafe"))
            else:
                part = dest[:, : tap.shape[1], : tap.shape[2]]
                calls.append(partial(np.maximum, part, tap, out=part, casting="unsafe"))
    return calls


class _FlattenStage(_BoundStage):
    """The stream as (B, 1, 1, C*H*W) features in the reference's CHW order.

    A 1x1 map is already in that order, so it is a view; a wider one is
    copied, transposed, into the other ping buffer, so FC weights keep
    their CHW columns.  A fused FC stage flattens its input with one.
    """

    __slots__ = ()

    def bind(self, arena: "_Arena", src: np.ndarray, index: int) -> Tuple[np.ndarray, int]:
        images, rows, cols, channels = src.shape
        self.calls = []
        if rows * cols > 1:
            index = 1 - index
            chw = arena.view(index, (images, channels, rows, cols))
            self.calls.append(partial(np.copyto, chw, src.transpose(0, 3, 1, 2)))
            src = chw
        self.out = src.reshape(images, 1, 1, -1)
        return self.out, index


class _PoolStage(_BoundStage):
    """Standalone integer MaxPool (not adjacent to a conv epilogue)."""

    __slots__ = ("pool",)

    def __init__(self, name: str, pool: MaxPool2D) -> None:
        self.name = name
        self.pool = pool

    def bind(self, arena: "_Arena", src: np.ndarray, index: int) -> Tuple[np.ndarray, int]:
        index = 1 - index
        self.out = arena.view(index, _pooled_shape(self.pool, src.shape))
        self.calls = _bind_maxpool(self.pool, src, self.out)
        return self.out, index


class _ReLUStage(_BoundStage):
    """Standalone elementwise ReLU, in place on the stream buffer."""

    __slots__ = ()

    def bind(self, arena: "_Arena", src: np.ndarray, index: int) -> Tuple[np.ndarray, int]:
        self.out = src
        self.calls = [partial(np.maximum, src, 0, out=src)]
        return src, index


class _DropoutStage(_BoundStage):
    """Dropout: the identity at inference."""

    __slots__ = ()

    def bind(self, arena: "_Arena", src: np.ndarray, index: int) -> Tuple[np.ndarray, int]:
        self.out, self.calls = src, []
        return src, index


class _HostStage(_BoundStage):
    """AvgPool / LRN / Softmax: dequantize, run float64, requantize.

    The float round-trip is byte-for-byte the reference path's — host
    layers are where the paper's system leaves the integer stream, so the
    fused plan leaves it the same way.  The layer sees the reference's
    C-contiguous BCHW floats (so its reductions sum in the same order),
    and its codes rejoin the stream in the other ping buffer.  Float32
    codes are integers below ``2**24``, so they dequantize exactly.
    """

    __slots__ = ("layer", "in_fmt", "out_fmt", "src", "dest")

    def __init__(self, name: str, layer, in_fmt: QFormat, out_fmt: QFormat) -> None:
        self.name = name
        self.layer = layer
        self.in_fmt = in_fmt
        self.out_fmt = out_fmt

    def bind(self, arena: "_Arena", src: np.ndarray, index: int) -> Tuple[np.ndarray, int]:
        images, rows, cols, channels = src.shape
        shape = self.layer.output_shape(FeatureShape(channels, rows, cols))
        index = 1 - index
        self.out = arena.view(index, (images, shape.rows, shape.cols, shape.channels))
        self.src = src.transpose(0, 3, 1, 2)
        self.dest = self.out.transpose(0, 3, 1, 2)
        self.calls = [self._forward]
        return self.out, index

    def _forward(self) -> None:
        real = self.layer.forward_batch(
            self.in_fmt.dequantize(np.ascontiguousarray(self.src))
        )
        # Exact in a float32 arena: _float32_codes checks every host
        # layer's output format fits the float32 significand.
        np.copyto(self.dest, self.out_fmt.quantize(real), casting="unsafe")


class _Arena:
    """All working memory of one model plan, sized once at compile time.

    - Two ping-pong code buffers at the activation high-water mark.  The
      plan assigns each stage, at compile time, a view of the one its
      input does not occupy (see :meth:`view`), so a stage can always
      write its output while streaming its input.
    - One requantize scratch at the largest stage output: float32 with
      float32 codes, float64 with int64 codes.
    - One :class:`~repro.core.plan.Scratch` (padded input, patch tile, raw
      GEMM output), each region the largest any fused stage needs.  Stages
      run one after another, so every stage is bound to it, as the
      accelerator streams every layer through one FT-Buffer sized for its
      largest layer.
    """

    __slots__ = ("ping", "scratch", "stage")

    def __init__(
        self,
        high_water: int,
        scratch_elements: int,
        codes=np.int64,
        stage_bytes: Tuple[int, int, int] = (0, 0, 0),
    ) -> None:
        codes = np.dtype(codes)
        self.ping = (np.empty(high_water, codes), np.empty(high_water, codes))
        self.scratch = np.empty(
            scratch_elements, np.float32 if codes == np.float32 else np.float64
        )
        self.stage = Scratch.allocate(stage_bytes)

    @property
    def codes(self) -> np.dtype:
        """The dtype of the codes in the ping-pong buffers."""
        return self.ping[0].dtype

    def view(self, index: int, shape: Sequence[int]) -> np.ndarray:
        """The leading elements of ping buffer ``index`` as a ``shape`` array."""
        return self.ping[index][: int(np.prod(shape))].reshape(shape)

    def split(self) -> Dict[str, int]:
        """Bytes of the ping-pong buffers, the requantize scratch and the
        stage scratch."""
        return {
            "ping_bytes": self.ping[0].nbytes * 2,
            "requantize_bytes": self.scratch.nbytes,
            "stage_bytes": self.stage.nbytes,
        }


def _float32_codes(stages: Sequence[object], formats: Sequence[QFormat]) -> bool:
    """Whether a plan's activations and requantize can run in float32.

    Exact when every fused stage runs the float32 GEMM with its sum bound
    below ``FLOAT32_REQUANTIZE_EXACT`` and a normal float32 requantize
    factor (see :func:`requantize`), and every code format that reaches
    the ping buffers — input, stage and host-layer outputs — stays below
    ``2**24`` in magnitude, so float32 stores each code exactly.
    """
    fused = [s for s in stages if isinstance(s, _FusedStage)]
    return all(
        s.datapath == "gemm32"
        and s.sum_bound < FLOAT32_REQUANTIZE_EXACT
        and _normal_float32(s.factor)
        for s in fused
    ) and all(_max_abs_code(fmt) < FLOAT32_EXACT for fmt in formats)


class ModelPlan:
    """A quantized network compiled for fused streaming execution."""

    def __init__(
        self,
        pipeline: "QuantizedPipeline",
        batch_shape: Tuple[int, ...],
    ) -> None:
        if len(batch_shape) != 4:
            raise ValueError(f"expected a BCHW batch shape, got {batch_shape}")
        pipeline._check_ready("compiling a model plan")
        images = int(batch_shape[0])
        self.batch_shape = tuple(int(s) for s in batch_shape)
        self.input_fmt = pipeline.input_fmt
        self.stages: List[object] = []
        #: (layer name, accumulates, multiplies) per accelerated layer, in
        #: network order — the batch-total op counts are exact constants.
        self.layer_ops: List[Tuple[str, int, int]] = []
        self._lock = threading.Lock()

        layers = list(pipeline.network)
        shape = FeatureShape(*(int(s) for s in batch_shape[1:]))
        entry = (images, shape.rows, shape.cols, shape.channels)
        fmt = pipeline.input_fmt
        formats = [fmt]
        high_water = images * shape.size
        scratch_elements = 1
        stage_bytes = (0, 0, 0)
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
                extent = (1, 1) if compiled.is_fc else (shape.rows, shape.cols)
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
                    fused_names=tuple(fused),
                    extent=(images, *extent),
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
                scratch_elements = max(scratch_elements, images * out_shape.size)
                stage_bytes = tuple(
                    map(
                        max,
                        stage_bytes,
                        plan.scratch_bytes(images, *extent, stage.datapath),
                    )
                )
                fmt = compiled.output_fmt
                formats.append(fmt)
                shape = out_shape
            elif isinstance(layer, ReLU):
                self.stages.append(_ReLUStage(name))
            elif isinstance(layer, MaxPool2D):
                self.stages.append(_PoolStage(name, layer))
                shape = layer.output_shape(shape)
            elif isinstance(layer, (Flatten, Dropout)):
                stage = _FlattenStage if isinstance(layer, Flatten) else _DropoutStage
                self.stages.append(stage(name))
                shape = layer.output_shape(shape)
            elif isinstance(layer, (AvgPool2D, LocalResponseNorm, Softmax)):
                out_fmt = pipeline.output_fmts.get(name, fmt)
                self.stages.append(_HostStage(name, layer, fmt, out_fmt))
                fmt = out_fmt
                formats.append(fmt)
                shape = layer.output_shape(shape)
            else:
                raise TypeError(f"pipeline cannot execute layer {layer!r}")
            high_water = max(high_water, images * shape.size)
            index += 1
        self.output_fmt = fmt
        self.output_shape = shape
        codes = np.float32 if _float32_codes(self.stages, formats) else np.int64
        self.arena = arena = _Arena(high_water, scratch_elements, codes, stage_bytes)
        # Bind every stage once.  The stage order is fixed, so is each
        # stage's source and destination: the call's input enters ping
        # buffer 0, and a stage writes the ping buffer its input does not
        # occupy.
        self._entry = src = arena.view(0, entry)
        index = 0
        for stage in self.stages:
            src, index = stage.bind(arena, src, index)
        #: The final stream as a BCHW view, copied out by ``run``.
        self._exit = src.transpose(0, 3, 1, 2)

    # ---- execution -------------------------------------------------------

    def run(self, codes: np.ndarray) -> Tuple[np.ndarray, QFormat]:
        """Stream quantized BCHW input codes through every fused stage.

        Returns the final codes, as a fresh C-contiguous BCHW int64 array,
        and their format.  The stream itself is channels-last: the input
        enters ping buffer 0 through one strided copy, every stage replays
        its bound calls, and the codes leave through another strided copy.
        The arena is shared mutable state, so concurrent runs serialize on
        a plan lock.
        """
        if codes.shape != self.batch_shape:
            raise ValueError(
                f"model plan compiled for batch {self.batch_shape}, "
                f"got {codes.shape}"
            )
        telemetry = get_active()
        with self._lock:
            np.copyto(self._entry, codes.transpose(0, 2, 3, 1), casting="same_kind")
            for stage in self.stages:
                span = nullcontext()
                if telemetry is not None and isinstance(stage, _FusedStage):
                    span = telemetry.span(
                        "kernel",
                        layer=stage.name,
                        images=int(codes.shape[0]),
                        fused=",".join(stage.fused_names),
                        datapath=stage.datapath,
                        tiles=stage.tiles,
                    )
                with span:
                    for call in stage.calls:
                        call()
            # A fresh int64 array; the cast also turns the -0.0 a float32
            # requantize can emit into 0.
            out = np.empty(self._exit.shape, np.int64)
            np.copyto(out, self._exit, casting="unsafe")
            return out, self.output_fmt


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
    batch_shape = tuple(batch_shape)

    def build() -> ModelPlan:
        telemetry = get_active()
        if telemetry is None:
            return ModelPlan(pipeline, batch_shape)
        with telemetry.span(
            "fuse", model=pipeline.network.name, batch=list(batch_shape)
        ) as span:
            plan = ModelPlan(pipeline, batch_shape)
            span.attrs["codes"] = str(plan.arena.codes)
            span.attrs.update(plan.arena.split())
        return plan

    return _model_plans.get(
        (pipeline.quantization_token, batch_shape), build, owner=pipeline
    )
