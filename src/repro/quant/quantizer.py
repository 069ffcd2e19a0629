"""Integer-code tensors in dynamic fixed point.

The paper quantizes pruned AlexNet/VGG16 weights to 8 bits using the
Ristretto methodology: every layer gets its own fixed-point format whose
integer width is fitted to the layer's dynamic range
(:meth:`repro.pipeline.QuantizedPipeline.quantize` does the fitting). A
:class:`QuantizedTensor` pairs a layer's integer codes with that format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixed_point import QFormat


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer-code tensor together with its fixed-point format.

    ``codes`` always stores plain integers (``int64``); the real value of the
    tensor is ``codes * fmt.scale``.
    """

    codes: np.ndarray
    fmt: QFormat

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        if not np.issubdtype(codes.dtype, np.integer):
            raise TypeError("QuantizedTensor codes must be integers")
        if codes.size and (
            codes.max() > self.fmt.max_code or codes.min() < self.fmt.min_code
        ):
            raise ValueError("codes exceed the representable range of fmt")

    @property
    def shape(self) -> tuple:
        return tuple(self.codes.shape)

    def dequantize(self) -> np.ndarray:
        """Real-valued view of the tensor."""
        return self.fmt.dequantize(self.codes)

    def density(self) -> float:
        """Fraction of nonzero codes (1.0 for a dense tensor)."""
        if self.codes.size == 0:
            return 0.0
        return float(np.count_nonzero(self.codes)) / self.codes.size

    def distinct_nonzero_values(self) -> np.ndarray:
        """Sorted distinct nonzero codes — the Wp of Equation (2)."""
        nz = self.codes[self.codes != 0]
        return np.unique(nz)
