"""End-to-end quantized inference pipeline.

Reproduces the paper's deployment flow on a CNN: prune (Deep Compression
schedule) -> quantize to 8-bit dynamic fixed point (Ristretto) -> encode the
sparse weights (Figure 4) -> execute convolution/FC layers with ABM-SpConv
exactly as the accelerator's datapath would (16-bit exact arithmetic, one
rounding at write-back), while pooling / LRN / softmax run on the "host"
in floating point, mirroring the paper's CPU/FPGA split (Section 6.1).

The pipeline also doubles as the measurement harness: every accelerated
layer reports its exact accumulate/multiply counts, which is how the
Table 1 'measured' columns are produced for small models.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .core.abm import ConvGeometry, abm_conv2d_batch
from .telemetry.context import get_active
from .core.encoding import EncodedLayer, encode_nonzeros
from .nn.layers import (
    AvgPool2D,
    Conv2D,
    Dropout,
    Flatten,
    FullyConnected,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
    Softmax,
)
from .nn.network import Network
from .prune.magnitude import prune_network
from .quant.fixed_point import QFormat, fit_qformat


@dataclass(frozen=True)
class CompiledLayer:
    """One accelerated layer ready for ABM execution."""

    name: str
    encoded: EncodedLayer
    geometry: ConvGeometry
    weight_fmt: QFormat
    output_fmt: QFormat
    bias_codes: np.ndarray  # quantized to the datapath format
    is_fc: bool


@dataclass
class LayerRunStats:
    """Exact op counts observed while executing one layer."""

    name: str
    accumulate_ops: int
    multiply_ops: int


@dataclass
class InferenceResult:
    """Output of a quantized inference pass."""

    output: np.ndarray
    layer_stats: List[LayerRunStats] = field(default_factory=list)

    @property
    def accumulate_ops(self) -> int:
        return sum(stats.accumulate_ops for stats in self.layer_stats)

    @property
    def multiply_ops(self) -> int:
        return sum(stats.multiply_ops for stats in self.layer_stats)


class QuantizedPipeline:
    """Prune -> quantize -> encode -> execute a network with ABM-SpConv."""

    def __init__(
        self,
        network: Network,
        weight_bits: int = 8,
        feature_bits: int = 8,
    ) -> None:
        self.network = network
        self.weight_bits = weight_bits
        self.feature_bits = feature_bits
        #: None until :meth:`calibrate` runs: the one readiness state of
        #: calibration (``compiled`` is the one of quantization).
        self.input_fmt: Optional[QFormat] = None
        self.output_fmts: Dict[str, QFormat] = {}
        self.compiled: Dict[str, CompiledLayer] = {}
        self._quantization_token = 0

    @property
    def quantization_token(self) -> int:
        """Monotonic counter bumped by every prune/calibrate/quantize.

        The fused model-plan cache keys on (pipeline identity, this token,
        batch geometry), so re-quantizing a pipeline invalidates its fused
        plans without any explicit cache management.
        """
        return self._quantization_token

    def _check_ready(self, action: str) -> None:
        """Raise a step-specific error when the flow is incomplete."""
        if self.input_fmt is None:
            raise RuntimeError(
                f"pipeline is not calibrated: call calibrate() before {action}"
            )
        if not self.compiled:
            raise RuntimeError(
                f"pipeline is not quantized: call quantize() before {action}"
            )

    # ---- flow stages ---------------------------------------------------

    def prune(self, densities: Mapping[str, float]) -> "QuantizedPipeline":
        """Magnitude-prune the float network in place."""
        prune_network(self.network, densities)
        self.compiled.clear()  # stale encodings, if any
        self._quantization_token += 1
        return self

    def calibrate(self, sample_input: np.ndarray) -> "QuantizedPipeline":
        """Fit per-layer dynamic fixed-point formats (max-abs range, as
        Ristretto does) from a sample run."""
        self.input_fmt = fit_qformat(np.asarray(sample_input), self.feature_bits)
        activations = self.network.activations(np.asarray(sample_input))
        for layer in self.network:
            # Conv/FC outputs feed the Sum/Round stage; every layer output
            # that is stored as a feature map gets a calibrated format.
            self.output_fmts[layer.name] = fit_qformat(
                activations[layer.name], self.feature_bits
            )
        self._quantization_token += 1
        return self

    def quantize(self) -> "QuantizedPipeline":
        """Quantize weights and encode every accelerated layer.

        Only the nonzero weights are touched: the format is fitted to them
        (their peak is the layer's peak), they are rounded, and the ones
        that round to code 0 are dropped before encoding. Raises
        ``ValueError`` naming the layer if a weight is NaN or infinite.
        """
        if self.input_fmt is None:
            raise RuntimeError("calibrate() must run before quantize()")
        for layer in self.network:
            if isinstance(layer, Conv2D):
                geometry = ConvGeometry(
                    kernel=layer.kernel,
                    stride=layer.stride,
                    padding=layer.padding,
                    groups=layer.groups,
                )
                self._compile(
                    layer.name, layer.weights, layer.weights.shape, geometry, layer.bias, False
                )
            elif isinstance(layer, FullyConnected):
                shape = (layer.out_features, layer.in_features, 1, 1)
                self._compile(
                    layer.name, layer.weights, shape, ConvGeometry(kernel=1), layer.bias, True
                )
        self._quantization_token += 1
        return self

    def _compile(
        self,
        name: str,
        weights: np.ndarray,
        shape: Tuple[int, int, int, int],
        geometry: ConvGeometry,
        bias: np.ndarray,
        is_fc: bool,
    ) -> None:
        flat = np.asarray(weights).reshape(-1)
        positions = np.flatnonzero(flat != 0)  # a bool scan beats one over floats
        values = flat[positions]
        if not np.isfinite(values).all():
            raise ValueError(f"layer {name!r}: weights contain non-finite values (NaN or inf)")
        weight_fmt = fit_qformat(values, self.weight_bits)
        codes = weight_fmt.quantize(values)
        kept = codes != 0
        self.compiled[name] = CompiledLayer(
            name=name,
            encoded=encode_nonzeros(name, shape, positions[kept], codes[kept]),
            geometry=geometry,
            weight_fmt=weight_fmt,
            output_fmt=self.output_fmts[name],
            # Bias enters at the datapath scale of the *incoming* feature
            # format times the weight format; resolved at run time because
            # the input format of each layer depends on its predecessor.
            bias_codes=np.asarray(bias, dtype=np.float64),
            is_fc=is_fc,
        )

    # ---- execution -----------------------------------------------------

    def run(self, image: np.ndarray) -> InferenceResult:
        """Quantized inference of one image with ABM-SpConv on all conv/FC
        layers: the per-layer reference walk on a batch of one."""
        self._check_ready("run()")
        return self.run_batch_reference(np.asarray(image)[None])[0]

    def _as_bchw(self, images: np.ndarray) -> np.ndarray:
        batch = np.asarray(images)
        if batch.ndim == 3:
            batch = batch[None]
        if batch.ndim != 4:
            raise ValueError(f"expected a BCHW batch, got shape {batch.shape}")
        if batch.shape[0] == 0:
            raise ValueError("batch must contain at least one image")
        # A NaN pixel quantizes to INT64_MIN, outside input_fmt: that would
        # break the model plan's compile-time input-peak exactness proof.
        if not np.isfinite(batch).all():
            raise ValueError("images contain non-finite (NaN or inf) pixels")
        return batch

    def run_batch(self, images: np.ndarray) -> List[InferenceResult]:
        """Batched quantized inference through the fused model plan.

        ``images`` is a (B, C, H, W) array or a sequence of CHW images.
        The network is compiled (once per batch geometry, LRU-cached) into
        a streaming :class:`repro.core.model_plan.ModelPlan` that fuses
        each conv/FC with its epilogue and threads activations through two
        preallocated ping-pong buffers — bit-exact against
        :meth:`run_batch_reference`, the retained per-layer path (outputs
        *and* op counts; the differential suite in
        ``tests/test_model_fused.py`` pins this).  The result is one
        :class:`InferenceResult` per image, each carrying its exact
        per-image share of the layer op counts (counts are per-pixel
        constants, so the share is exact).
        """
        from .core.model_plan import compile_model_plan

        self._check_ready("run_batch()")
        batch = self._as_bchw(images)
        b = batch.shape[0]
        plan = compile_model_plan(self, batch.shape)
        codes = self.input_fmt.quantize(batch)
        out_codes, out_fmt = plan.run(codes)
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
                    for name, acc, mult in plan.layer_ops
                ],
            )
            for i in range(b)
        ]

    def run_batch_reference(self, images: np.ndarray) -> List[InferenceResult]:
        """Batched inference through the retained per-layer path.

        The pre-fusion implementation: the whole batch flows layer by
        layer, each accelerated layer stacking the batch into its ABM
        plan's pixel axis.  Kept as the differential oracle for the fused
        :meth:`run_batch` and for callers that want per-layer telemetry
        spans.  :meth:`run` is this walk on a batch of one.
        """
        self._check_ready("run_batch_reference()")
        batch = self._as_bchw(images)
        b = batch.shape[0]
        codes = self.input_fmt.quantize(batch)
        fmt = self.input_fmt
        stats: List[LayerRunStats] = []
        telemetry = get_active()
        for layer in self.network:
            scope = (
                telemetry.span("layer", layer=layer.name, batch=b)
                if telemetry is not None
                else nullcontext()
            )
            with scope:
                codes, fmt, layer_stats = self._run_layer_batch(layer, codes, fmt)
            if layer_stats is not None:
                stats.append(layer_stats)
        outputs = fmt.dequantize(codes)
        return [
            InferenceResult(
                output=outputs[i],
                layer_stats=[
                    LayerRunStats(
                        name=s.name,
                        accumulate_ops=s.accumulate_ops // b,
                        multiply_ops=s.multiply_ops // b,
                    )
                    for s in stats
                ],
            )
            for i in range(b)
        ]

    def _run_layer_batch(
        self, layer, codes: np.ndarray, fmt: QFormat
    ) -> Tuple[np.ndarray, QFormat, Optional[LayerRunStats]]:
        """Run one layer of the reference walk; op counts are batch totals."""
        name = layer.name
        if name in self.compiled:
            compiled = self.compiled[name]
            # Datapath format: product of input and weight scales, exact.
            datapath_fmt = QFormat(32, fmt.frac_bits + compiled.weight_fmt.frac_bits)
            bias_codes = datapath_fmt.quantize(compiled.bias_codes)
            if compiled.is_fc:
                codes = codes.reshape(codes.shape[0], -1, 1, 1)
            result = abm_conv2d_batch(
                codes, compiled.encoded, compiled.geometry, bias_codes=bias_codes
            )
            # Sum/Round: single rounding into the 8-bit feature format.
            out_fmt = compiled.output_fmt
            out_codes = out_fmt.quantize(datapath_fmt.dequantize(result.output))
            return (
                out_codes,
                out_fmt,
                LayerRunStats(
                    name=name,
                    accumulate_ops=result.accumulate_ops,
                    multiply_ops=result.multiply_ops,
                ),
            )
        if isinstance(layer, (ReLU,)):
            return np.maximum(codes, 0), fmt, None
        if isinstance(layer, MaxPool2D):
            # Max of codes == code of max: exact in integer domain.
            return layer.forward_batch(codes).astype(np.int64), fmt, None
        if isinstance(layer, (Flatten, Dropout)):
            return layer.forward_batch(codes).astype(np.int64), fmt, None
        if isinstance(layer, (AvgPool2D, LocalResponseNorm, Softmax)):
            # Host layers: dequantize, run float, requantize.
            real = layer.forward_batch(fmt.dequantize(codes))
            out_fmt = self.output_fmts.get(layer.name, fmt)
            return out_fmt.quantize(real), out_fmt, None
        raise TypeError(f"pipeline cannot execute layer {layer!r}")

    def run_float(self, image: np.ndarray) -> np.ndarray:
        """Reference float inference of the (pruned) network."""
        return self.network.forward(np.asarray(image))

    # ---- reporting -----------------------------------------------------

    def encoded_layers(self) -> List[EncodedLayer]:
        """Encoded form of every accelerated layer, in network order."""
        return [
            self.compiled[layer.name].encoded
            for layer in self.network
            if layer.name in self.compiled
        ]

    def encoded_bytes(self) -> int:
        """Total encoded weight footprint (paper Table 3's 'Encoded')."""
        return sum(encoded.encoded_bytes for encoded in self.encoded_layers())
