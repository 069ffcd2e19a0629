"""Dynamic fixed-point quantization substrate (Ristretto-style).

Public surface:

- :class:`~repro.quant.fixed_point.QFormat` — signed fixed-point format with
  quantize/dequantize/saturate.
- :func:`~repro.quant.fixed_point.fit_qformat` — dynamic-range calibration.
- :class:`~repro.quant.quantizer.QuantizedTensor` and
  :class:`~repro.quant.quantizer.ModelQuantizer` — per-layer model quantization.
- :mod:`~repro.quant.stats` — per-kernel distinct-value statistics feeding
  the ABM-SpConv op-count analysis (paper Table 1).
"""
