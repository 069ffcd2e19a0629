"""Dynamic fixed-point quantization substrate (Ristretto-style).

Public surface:

- :class:`~repro.quant.fixed_point.QFormat` — signed fixed-point format with
  quantize/dequantize/saturate.
- :func:`~repro.quant.fixed_point.fit_qformat` — dynamic-range calibration.

:class:`repro.pipeline.QuantizedPipeline` does the per-layer model
quantization.
"""
