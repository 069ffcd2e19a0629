"""Baseline convolution schemes and published accelerators.

Every scheme here is an op-count and cycle model only: the paper compares
SDConv, SpConv and FDConv with ABM by operation counts (Table 1) and
published numbers (Table 2), never by running them. Importing this package
registers every built-in :class:`SchemeModel` (``sdconv``, ``fdconv``, ``spconv``, ``winograd2``,
``winograd4``, ``spectral``) with the registry in
:mod:`repro.core.schemes`; the ``abm`` model registers with core itself.
"""

from .fdconv import DEFAULT_OVERHEAD, DEFAULT_TILE, FDConvModel, OaAModel
from .published import PublishedAccelerator, get_baseline, published_accelerators
from .sdconv import SDConvModel, sdconv_ops
from .spconv import SpConvModel, spconv_ops
from .spectral import SpectralModel, spectral_ops
from .winograd import WinogradModel, winograd_ops, winograd_reduction

__all__ = [
    "OaAModel",
    "FDConvModel",
    "DEFAULT_TILE",
    "DEFAULT_OVERHEAD",
    "PublishedAccelerator",
    "published_accelerators",
    "get_baseline",
    "SDConvModel",
    "sdconv_ops",
    "SpConvModel",
    "spconv_ops",
    "SpectralModel",
    "spectral_ops",
    "WinogradModel",
    "winograd_ops",
    "winograd_reduction",
]
