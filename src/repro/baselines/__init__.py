"""Baseline convolution schemes and published accelerators.

SDConv, SpConv and FDConv keep small functional references for the
differential checks; Winograd and spectral are op-count and cycle models
only. Importing this package registers every built-in
:class:`SchemeModel` (``sdconv``, ``fdconv``, ``spconv``, ``winograd2``,
``winograd4``, ``spectral``) with the registry in
:mod:`repro.core.schemes`; the ``abm`` model registers with core itself.
"""

from .fdconv import DEFAULT_OVERHEAD, DEFAULT_TILE, FDConvModel, OaAModel, fdconv2d
from .published import PublishedAccelerator, get_baseline, published_accelerators
from .sdconv import SDConvModel, SDConvResult, sdconv2d, sdconv_ops
from .spconv import SpConvModel, SpConvResult, spconv2d, spconv_ops
from .spectral import SpectralModel, spectral_ops
from .winograd import WinogradModel, winograd_ops, winograd_reduction

__all__ = [
    "OaAModel",
    "FDConvModel",
    "fdconv2d",
    "DEFAULT_TILE",
    "DEFAULT_OVERHEAD",
    "PublishedAccelerator",
    "published_accelerators",
    "get_baseline",
    "SDConvModel",
    "SDConvResult",
    "sdconv2d",
    "sdconv_ops",
    "SpConvModel",
    "SpConvResult",
    "spconv2d",
    "spconv_ops",
    "SpectralModel",
    "spectral_ops",
    "WinogradModel",
    "winograd_ops",
    "winograd_reduction",
]
