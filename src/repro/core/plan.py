"""Compile-once execution plans for ABM-SpConv layers.

The paper's accumulate-before-multiply flow (Equation 2) is a hardware
dataflow: accumulate the feature words sharing a weight value, multiply
each partial sum once.  On the host the same integer sums come out of one
GEMM per channel group — the factorization only regroups an exact integer
sum, so any exact evaluation of ``W @ patches`` is bit-identical to the
two-stage loop of :func:`repro.core.abm.abm_conv2d_reference`.

A :class:`LayerPlan` compiles an encoded layer once into

- the analytic operation counts — ``nnz`` accumulates and one multiply per
  Q-Table segment (NUM-field splits counted separately), per output pixel
  — exactly what the reference loop counts one iteration at a time;
- the exact per-kernel bound ``max_weighted_sum = max_k sum(|VAL| * NUM)``
  on ``|output| / max|x|`` (:meth:`LayerPlan.sum_bound` at a peak of 1);
- on first bind, per datapath dtype, the GEMM weights, built straight from
  the WT-Buffer and Q-Table streams: a conv's dense ``(K*K*C, M)`` matrix
  in GEMM order, scattered once; an FC layer's ``scipy.sparse`` matrix,
  whose CSR row pointers are the stream offsets, whose column indices are
  the WT-Buffer indices and whose data is each VAL repeated NUM times,
  stored as CSC.  An FC plan never builds a dense matrix.

Execution is channels-last (NHWC).  A pixel-major im2col lays the batch
out as one patch row per output pixel, the batch stacked into the pixel
axis: ``K*K`` contiguous runs of ``C`` feature words, in ``(k, k', n)``
order.  A conv multiplies it by the ``(K*K*C, M)`` weights, so its
``(pixels, M)`` output is already the next layer's channels-last input.
An FC layer multiplies its patch rows by the sparse matrix instead, into
the same layout: the pruned models' FC layers keep 4–23% of their
weights, and a dense GEMV would stream every zero from memory (see
docs/performance.md).  CSC read faster than CSR in the fused plan.  A
wide conv runs as row bands of about :data:`BAND_PIXELS` output pixels —
whole output rows of one image, or whole images — the way the
accelerator streams prefetch windows through its FT-Buffer: each band is
im2col'd into one reused tile, multiplied straight into its rows of the
output and biased while still in cache (see :class:`Bands`).  The
reduction axis stays whole, so every sum is the same exact integer.

The datapath follows from the input alone, via the bound
``input_peak * max_weighted_sum + bias_peak`` on every product, every
partial sum (in any summation order) and the biased total:

- ``gemm32`` — float32 BLAS, when the bound is below ``2**24``: every
  product and every partial sum, in any summation order and with or
  without FMA, is an integer of magnitude at most the bound, which the
  24-bit significand represents exactly.  The 8-bit models land here.
- ``gemm`` — float64 BLAS, when the bound is below ``2**53``, by the same
  argument on the 53-bit significand.
- ``int64`` — exact integer ``np.matmul`` when the bound is below
  ``2**63`` but not ``2**53``.
- otherwise :class:`ExactnessError`: no host integer datapath can hold
  the worst-case sum, and silently wrapping int64 would be wrong.

An FC layer's sparse product runs in the same dtype (SciPy keeps float32,
float64 and int64 data in their own dtype), and since the bound holds in
any summation order, it holds in the sparse one too.

Plans are cached per (encoded layer, geometry), so repeated inference —
the per-layer reference walk (``QuantizedPipeline.run``) and the fused
model plan built on top of these plans (``run_batch``) — pays
compilation once.  A plan keeps no working memory: :meth:`LayerPlan.bind`
binds it to the channels-last array it reads on every run, a datapath and
the caller's :class:`Scratch` (its padded input, patch tile and GEMM
output), sized by :meth:`LayerPlan.scratch_bytes`.  Binding does all the
view arithmetic — bands, halo strips, window views, tiles, output rows,
weight blocks, the bias cast — and returns the output view and one fixed
list of ``fill`` / ``copyto`` / GEMM / ``add`` calls, padded or not,
each tagged with its kind (:class:`Call`), as the accelerator fixes each
layer's schedule and address generation before the feature stream
starts.  The fused model plan sizes one region set for its largest stage
at compile time, binds every stage to it and to its input view once and
streams every stage through it, as the accelerator streams every layer
through one FT-Buffer; a per-layer call binds a fresh :class:`Scratch` to
its batch, replays the calls once and drops both.
"""

from __future__ import annotations

import weakref
from contextlib import nullcontext
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..telemetry.caches import Memo
from ..telemetry.context import get_active
from .encoding import EncodedLayer

if TYPE_CHECKING:  # pragma: no cover - import cycle with repro.core.abm
    from .abm import ConvGeometry

#: Exclusive bound on every intermediate the float32 GEMM keeps exact.
FLOAT32_EXACT = 2**24

#: Exclusive bound on every intermediate the float64 GEMM keeps exact.
FLOAT64_EXACT = 2**53

#: Exclusive bound on every intermediate the int64 fallback keeps exact.
INT64_EXACT = 2**63

#: Compiled plans, LRU-bounded.
_plans = Memo("core.plan", capacity=64)

#: The dtype each datapath computes its sums in.
DATAPATH_DTYPES = {"gemm32": np.float32, "gemm": np.float64, "int64": np.int64}

#: Output pixels per conv im2col + GEMM band, at most.  Sized by pixels,
#: not bytes: each band streams the whole weight matrix again, so a band
#: must be wide enough to amortize it, whatever its patch width.  Float32
#: on one core: the full-size VGG16 conv3_2 (56x56, 256 channels, one
#: image) ran 1.29x its untiled time in 1-row bands (56 px) and 0.98x in
#: 8-row bands (448 px); a 56x56, 32-channel conv at batch 4 took 3.8 ms
#: in 8-row bands against 5.3 ms untiled.
BAND_PIXELS = 512


class ExactnessError(ValueError):
    """No exact host datapath holds a layer's worst-case sums.

    Raised when ``input_peak * max_weighted_sum + bias_peak >= 2**63``:
    int64 arithmetic could wrap, so the layer refuses to run rather than
    return wrong sums.
    """


def code_peak(codes) -> int:
    """``max|code|`` of an integer array as an exact Python int (0 if empty).

    Two reductions instead of ``abs().max()``: no temporary array, and no
    wraparound on ``INT64_MIN``.
    """
    codes = np.asarray(codes)
    if codes.size == 0:
        return 0
    return max(int(codes.max()), -int(codes.min()))


def conv_output_hw(rows: int, cols: int, geometry: "ConvGeometry") -> Tuple[int, int]:
    out_rows = (rows + 2 * geometry.padding - geometry.kernel) // geometry.stride + 1
    out_cols = (cols + 2 * geometry.padding - geometry.kernel) // geometry.stride + 1
    if out_rows < 1 or out_cols < 1:
        raise ValueError("convolution geometry does not fit the input")
    return out_rows, out_cols


class Bands(NamedTuple):
    """How a layer's output splits into im2col + GEMM bands.

    A band is ``images`` whole images, or ``rows`` whole output rows of one
    image, so its output pixels are one contiguous run of the pixel axis.
    An FC layer, and a conv with fewer than two bands' worth of output
    pixels, is one band: the whole batch.
    """

    images: int
    rows: int
    count: int


class Scratch(NamedTuple):
    """The working memory of a bound layer (see :meth:`LayerPlan.bind`).

    Three flat byte regions: the padded input, viewed in the source's code
    dtype, and one im2col tile and the raw GEMM output, viewed in the bound
    datapath's dtype.  The caller owns them and may bind several layers to
    them: a run writes every byte it reads, the padding halo included.
    """

    padded: np.ndarray
    patches: np.ndarray
    output: np.ndarray

    @classmethod
    def allocate(cls, nbytes: Tuple[int, int, int]) -> "Scratch":
        """Uninitialized regions of ``nbytes`` bytes each, in field order."""
        return cls(*(np.empty(n, np.uint8) for n in nbytes))

    @property
    def nbytes(self) -> int:
        return sum(region.nbytes for region in self)


def _region(region: np.ndarray, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """The leading bytes of a :class:`Scratch` region as a ``shape`` array."""
    n = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return region[:n].view(dtype).reshape(shape)


def _even_split(total: int, most: int) -> int:
    """The smallest chunk that covers ``total`` in as few chunks of at most
    ``most`` as possible, so the chunks come out as even as they can."""
    return -(-total // -(-total // most))


def _max_weighted_sum(encoded: EncodedLayer) -> int:
    """``max_k sum(|VAL| * NUM)`` over the kernels, exactly: in int64 when
    ``max|VAL| * max nnz`` fits it, otherwise on Python ints. The narrow
    VALs are cast before ``abs`` and the product, so neither can wrap."""
    values = encoded.qtable_values
    if values.size == 0:
        return 0
    fits = code_peak(values) * encoded.max_wt_entries_per_kernel < INT64_EXACT
    weighted = np.abs(values.astype(np.int64 if fits else object)) * encoded.qtable_counts
    starts = encoded.qtable_offsets[:-1][encoded.nonzeros > 0]
    return int(np.add.reduceat(weighted, starts).max())


class Call(partial):
    """A bound call tagged with the kind of work it does, so a traced run
    can time each kind apart (see :meth:`LayerPlan.bind`)."""

    def __new__(cls, kind: str, func: Callable[..., object], /, *args, **kwargs) -> "Call":
        call = super().__new__(cls, func, *args, **kwargs)
        call.kind = kind
        return call


def _sparse_matmul(matrix, patches: np.ndarray, out: np.ndarray) -> None:
    """``patches @ matrix.T`` for a sparse ``matrix``, into ``out``."""
    np.copyto(out, (matrix @ patches.T).T)


class LayerPlan:
    """A layer compiled for exact GEMM execution (see module docs)."""

    def __init__(self, encoded: EncodedLayer, geometry: "ConvGeometry") -> None:
        kernels = encoded.out_channels
        if kernels % geometry.groups:
            raise ValueError("output channels must divide into groups")
        if encoded.kernel_shape[1] != geometry.kernel:
            raise ValueError(
                f"encoded kernel size {encoded.kernel_shape[1]} != geometry kernel "
                f"{geometry.kernel}"
            )
        self.geometry = geometry
        self.out_channels = kernels
        self.name = encoded.name
        self.group_in = encoded.kernel_shape[0]
        self.patch_width = encoded.kernel_width
        self.group_out = kernels // geometry.groups
        #: Exact accumulate operations per output pixel (layer nonzeros).
        self.accumulates_per_pixel = encoded.nonzero_count
        #: Exact multiply operations per output pixel (Q-Table segments,
        #: counting NUM-field split entries separately, as the loop does).
        self.multiplies_per_pixel = encoded.qtable_entries
        self._max_weighted_sum = _max_weighted_sum(encoded)
        # The weights are built from the encoding on first bind.  Weakly:
        # the plan cache drops a plan when its encoded layer dies.
        self._encoded = weakref.ref(encoded)
        #: A conv's dense GEMM weights and an FC's sparse ones, per dtype.
        self._dense: Dict[str, np.ndarray] = {}
        self._sparse: Dict[str, object] = {}

    def _weights(self, dtype) -> np.ndarray:
        """The conv GEMM's dense (K*K*C, M) weights of ``dtype``, rows in
        ``(k, k', n)`` order (group ``g`` owns columns ``g * group_out``
        onward); scattered from the streams once per dtype."""
        key = np.dtype(dtype).str
        weights = self._dense.get(key)
        if weights is None:
            k = self.geometry.kernel
            shape = (self.out_channels, self.group_in, k, k)
            codes = self._encoded().dense_codes(dtype).reshape(shape).transpose(2, 3, 1, 0)
            weights = self._dense[key] = codes.reshape(self.patch_width, self.out_channels)
        return weights

    def _sparse_weights(self, dtype):
        """The FC weights as one ``scipy.sparse`` (M, C) CSC matrix of
        ``dtype`` (group ``g`` owns rows ``g * group_out`` onward), built
        once per dtype straight from the streams, read as CSR: the stream
        offsets are its row pointers, the WT-Buffer indices its column
        indices and each VAL repeated NUM times its data.  SciPy is
        imported here, so only a process that binds an FC layer loads it."""
        key = np.dtype(dtype).str
        matrix = self._sparse.get(key)
        if matrix is None:
            from scipy import sparse

            encoded = self._encoded()
            data = np.repeat(encoded.qtable_values, encoded.qtable_counts).astype(dtype)
            matrix = self._sparse[key] = sparse.csr_array(
                (data, encoded.indices, encoded.stream_offsets),
                shape=(self.out_channels, self.patch_width),
            ).tocsc()
        return matrix

    # ---- exactness ---------------------------------------------------------

    def sum_bound(self, input_peak: int, bias_peak: int = 0) -> int:
        """``input_peak * max_weighted_sum + bias_peak``: a bound on every
        product, partial sum and biased total for inputs with
        ``|x| <= input_peak``."""
        return int(input_peak) * self._max_weighted_sum + int(bias_peak)

    def datapath(self, input_peak: int, bias_peak: int = 0) -> str:
        """The exact datapath for inputs with ``|x| <= input_peak``.

        ``"gemm32"`` (float32 BLAS) below ``2**24``, ``"gemm"`` (float64
        BLAS) below ``2**53``, ``"int64"`` below ``2**63``; past that no
        host datapath is exact and :class:`ExactnessError` is raised.
        """
        bound = self.sum_bound(input_peak, bias_peak)
        if bound < FLOAT32_EXACT:
            return "gemm32"
        if bound < FLOAT64_EXACT:
            return "gemm"
        if bound < INT64_EXACT:
            return "int64"
        raise ExactnessError(
            f"layer {self.name!r}: worst-case sum {bound} (input peak "
            f"{input_peak} x max weighted sum {self._max_weighted_sum} + bias "
            f"peak {bias_peak}) does not fit int64"
        )

    # ---- execution -------------------------------------------------------

    def bands(self, images: int, rows: int, cols: int) -> Bands:
        """The :class:`Bands` of an ``images x rows x cols`` input batch.

        Bands are even: the fewest that hold at most :data:`BAND_PIXELS`
        output pixels each, every one but the last the same size.
        """
        out_rows, out_cols = conv_output_hw(rows, cols, self.geometry)
        per_image = out_rows * out_cols
        if self._is_fc(rows, cols) or images * per_image < 2 * BAND_PIXELS:
            return Bands(images, out_rows, 1)
        if per_image > BAND_PIXELS:  # whole rows of one image
            band_rows = _even_split(out_rows, max(BAND_PIXELS // out_cols, 1))
            return Bands(1, band_rows, images * -(-out_rows // band_rows))
        band_images = _even_split(images, BAND_PIXELS // per_image)
        return Bands(band_images, out_rows, -(-images // band_images))

    def _is_fc(self, rows: int, cols: int) -> bool:
        """Whether an input of this extent runs as an FC layer (1x1 over 1x1)."""
        geometry = self.geometry
        return rows == cols == geometry.kernel == 1 and geometry.padding == 0

    def _scratch_shapes(
        self, images: int, rows: int, cols: int
    ) -> Tuple[Optional[Tuple[int, ...]], Tuple[int, int], Tuple[int, int]]:
        """Element shapes of the padded input (``None`` when unpadded), the
        patch tile and the GEMM output of an ``images x rows x cols`` batch."""
        out_rows, out_cols = conv_output_hw(rows, cols, self.geometry)
        pixels = images * out_rows * out_cols
        pad = self.geometry.padding
        padded = None
        if pad:
            channels = self.group_in * self.geometry.groups
            padded = (images, rows + 2 * pad, cols + 2 * pad, channels)
        band = self.bands(images, rows, cols)
        tile = (band.images * band.rows * out_cols, self.patch_width)
        return padded, tile, (pixels, self.out_channels)

    def scratch_bytes(
        self, images: int, rows: int, cols: int, datapath: str, codes
    ) -> Tuple[int, int, int]:
        """Bytes of each :class:`Scratch` region a layer bound to this batch
        extent needs (see :meth:`bind`): the padded input in the source's
        code dtype ``codes``, the patch tile and GEMM output in the
        datapath's."""
        work = np.dtype(DATAPATH_DTYPES[datapath]).itemsize
        items = (np.dtype(codes).itemsize, work, work)
        return tuple(
            0 if shape is None else int(np.prod(shape)) * item
            for shape, item in zip(self._scratch_shapes(images, rows, cols), items)
        )

    def execute_batch(
        self,
        batch: np.ndarray,
        bias_codes: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int, int]:
        """Run a (B, C, H, W) integer batch stacked into the pixel axis.

        Returns (output (B, M, R', C') int64, accumulate_ops, multiply_ops)
        with op counts totalled over the whole batch.  The datapath comes
        from one peak scan of the batch and the bias; raises
        :class:`ExactnessError` when no exact datapath exists.
        """
        datapath = self.datapath(
            code_peak(batch), 0 if bias_codes is None else code_peak(bias_codes)
        )
        images, _, rows, cols = batch.shape
        telemetry = get_active()
        scratch = Scratch.allocate(
            self.scratch_bytes(images, rows, cols, datapath, batch.dtype)
        )
        with nullcontext() if telemetry is None else telemetry.span(
            "kernel",
            layer=self.name,
            images=int(images),
            datapath=datapath,
            tiles=self.bands(images, rows, cols).count,
        ):
            raw, calls = self.bind(
                images, rows, cols, batch.transpose(0, 2, 3, 1), bias_codes, datapath, scratch
            )
            for call in calls:
                call()
        images, out_rows, out_cols, kernels = raw.shape
        # Copy the sums out of the call's scratch into a fresh BCHW int64
        # array (exact: the sums are integers on every datapath).
        output = np.empty((images, kernels, out_rows, out_cols), np.int64)
        np.copyto(output.transpose(0, 2, 3, 1), raw, casting="unsafe")
        pixels = images * out_rows * out_cols
        return (
            output,
            self.accumulates_per_pixel * pixels,
            self.multiplies_per_pixel * pixels,
        )

    def bind(
        self,
        images: int,
        rows: int,
        cols: int,
        source: np.ndarray,
        bias_codes: Optional[np.ndarray],
        datapath: str,
        scratch: Scratch,
    ) -> Tuple[np.ndarray, List[Call]]:
        """Bind the plan to the channels-last ``images x rows x cols`` array
        ``source``, a datapath and a :class:`Scratch`, doing all view
        arithmetic once.

        Returns the biased sums as a (B, R', C', M) view of the scratch
        output region (float32 on ``gemm32``, float64 on ``gemm``, int64 on
        ``int64``; valid until the region's next user writes it) and the
        fixed list of calls that fill it from what ``source`` holds when
        they run, each a :class:`Call` tagged ``"im2col"``, ``"gemm"`` or
        ``"bias"``.  In order: for a padded layer, zero the 4 halo strips
        (the region is shared) and copy ``source`` into the interior; then
        per band (see :meth:`bands`) and channel group an im2col copy from
        the windows of the padded region (held in ``source``'s dtype, so
        the halo and interior copies move code words), or of ``source``
        itself, into the band's patch tile, widening the codes to the
        datapath's dtype, and its GEMM: a dense BLAS GEMM for a conv, the
        sparse product for an FC layer; then the band's bias add.
        ``scratch`` must hold at least :meth:`scratch_bytes` of this batch.
        The output is exact only when ``datapath`` is what :meth:`datapath`
        returns for what ``source`` holds.
        """
        geometry = self.geometry
        k, width = geometry.kernel, self.group_in
        bound = (images, rows, cols, width * geometry.groups)
        if source.shape != bound:
            raise ValueError(
                f"layer {self.name!r} is bound to a {bound} (B, H, W, C) "
                f"batch, got {source.shape}"
            )
        dtype = DATAPATH_DTYPES[datapath]
        out_rows, out_cols = conv_output_hw(rows, cols, geometry)
        fc = self._is_fc(rows, cols)
        weights = self._sparse_weights(dtype) if fc else self._weights(dtype)
        padded, tile, shape = self._scratch_shapes(images, rows, cols)
        output = _region(scratch.output, shape, dtype)
        tile = _region(scratch.patches, tile, dtype)
        bias = None if bias_codes is None else np.asarray(bias_codes, dtype=dtype)
        calls: List[Call] = []
        if padded is not None:
            padded = _region(scratch.padded, padded, source.dtype)
            pad = geometry.padding
            for strip in (
                padded[:, :pad],
                padded[:, -pad:],
                padded[:, pad:-pad, :pad],
                padded[:, pad:-pad, -pad:],
            ):
                calls.append(Call("im2col", strip.fill, 0))
            interior = padded[:, pad:-pad, pad:-pad]
            calls.append(Call("im2col", np.copyto, interior, source))
            source = padded
        windows = self._windows(source, out_rows, out_cols)
        band = self.bands(images, rows, cols)
        start = 0
        for i in range(0, images, band.images):
            for r in range(0, out_rows, band.rows):
                extent = (
                    min(band.images, images - i), min(band.rows, out_rows - r), out_cols
                )
                stop = start + extent[0] * extent[1] * out_cols
                patches = tile[: stop - start]
                sums = output[start:stop]
                for g in range(geometry.groups):
                    block = slice(g * self.group_out, (g + 1) * self.group_out)
                    key = (
                        slice(i, i + band.images),
                        slice(r, r + band.rows),
                        slice(None),
                        slice(g * width, (g + 1) * width),
                    )
                    # (b, r, C', n, k, k') -> (b, r, C', k, k', n) in one
                    # pass that also widens the codes to the work dtype.
                    calls.append(
                        Call(
                            "im2col",
                            np.copyto,
                            patches.reshape(extent + (k, k, width)),
                            windows[key].transpose(0, 1, 2, 4, 5, 3),
                            casting="same_kind",
                        )
                    )
                    if fc:
                        matrix = weights if geometry.groups == 1 else weights[block]
                        calls.append(
                            Call("gemm", _sparse_matmul, matrix, patches, sums[:, block])
                        )
                    else:
                        calls.append(
                            Call("gemm", np.matmul, patches, weights[:, block], out=sums[:, block])
                        )
                if bias is not None:
                    calls.append(Call("bias", np.add, sums, bias, out=sums))
                start = stop
        return output.reshape(images, out_rows, out_cols, -1), calls

    def _windows(self, source: np.ndarray, out_rows: int, out_cols: int) -> np.ndarray:
        """The (B, R', C', C, K, K) windows of a channels-last ``source``."""
        k, stride = self.geometry.kernel, self.geometry.stride
        if k == 1:  # a 1x1 window is its pixel: no generic window view needed
            windows = source[..., None, None]
        else:
            windows = np.lib.stride_tricks.sliding_window_view(
                source, (k, k), axis=(1, 2)
            )
        return windows[:, ::stride, ::stride][:, :out_rows, :out_cols]


def compile_layer_plan(encoded: EncodedLayer, geometry: "ConvGeometry") -> LayerPlan:
    """The cached :class:`LayerPlan` for (encoded, geometry).

    Keyed by the encoded layer's identity (encodings are immutable) and the
    geometry; entries are evicted when the encoded layer is garbage
    collected, and an LRU bound caps the cache for long-lived processes.
    Serve workers and parallel simulation may compile plans concurrently;
    racing compiles share the first plan inserted.
    """
    return _plans.get(geometry, lambda: LayerPlan(encoded, geometry), owner=encoded)
