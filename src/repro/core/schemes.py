"""Convolution-scheme taxonomy, computational roofs, and scheme models.

The paper classifies FPGA CNN accelerators by how they implement
convolution, and assigns each class a computational roof (Figure 1):

- SDConv (spatial, MAC arrays):      ``2 * N_mac * Freq``
- FDConv / SpConv (reduced MACs):    ``2 * R_mac * N_mac * Freq``
- ABM-SpConv (this paper):           ``2 * N_acc * Freq``

where ``N_mac`` is the MAC count the DSP blocks provide, ``R_mac`` the MAC
reduction rate, and ``N_acc`` the (much larger) number of logic-built
accumulators. On a Stratix-V GXA7 at 200 MHz those roofs are 204.8, 675 and
1046 GOP/s respectively — the three horizontal lines of Figure 1.

Beyond the roofs, this module defines the :class:`SchemeModel` protocol
that turns each taxonomy class into a *scheme* the per-layer planner
(:mod:`repro.dse.schemes`) can compare. Schemes are models, not host
datapaths: the host executes every conv/FC layer with ABM (one exact GEMM
per channel group, :mod:`repro.core.plan`). A scheme model answers, per
layer:

- ``layer_ops``       — analytic multiply/accumulate counts (Table 1 axis);
- ``layer_cycles``    — predicted accelerator cycles under a configuration
  (ABM uses the quantized Performance Model; MAC-array schemes retire one
  MAC per shared multiplier per cycle, scaled by their reduction rate) —
  the quantity the planner ranks on;
- ``resource_overhead`` — extra fabric the scheme's unit needs next to
  the base ABM design (transform adder trees, FFT butterflies), the shared
  constraint the planner charges before enabling a scheme.

Implementations live in ``repro.baselines.sdconv`` / ``fdconv`` /
``spconv`` / ``winograd`` / ``spectral``; the ABM model is defined here.
Models self-register into a process-wide registry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only, no import cycles
    from ..hw.config import AcceleratorConfig
    from ..hw.workload import LayerWorkload
    from .specs import LayerSpec


class ConvScheme(enum.Enum):
    """The four convolution implementation classes of the paper."""

    SDCONV = "sdconv"
    FDCONV = "fdconv"
    SPCONV = "spconv"
    ABM_SPCONV = "abm-spconv"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ComputationalRoof:
    """A throughput roof in GOP/s with the formula that produced it."""

    scheme: ConvScheme
    gops: float
    formula: str


def sdconv_roof(n_mac: int, freq_mhz: float) -> ComputationalRoof:
    """MAC-array roof: every DSP performs one MAC (2 ops) per cycle."""
    gops = 2.0 * n_mac * freq_mhz / 1e3
    return ComputationalRoof(ConvScheme.SDCONV, gops, "2 * N_mac * Freq")


def reduced_mac_roof(
    n_mac: int, freq_mhz: float, r_mac: float, scheme: ConvScheme = ConvScheme.FDCONV
) -> ComputationalRoof:
    """FDConv/SpConv roof: MAC reduction raises the effective throughput."""
    if r_mac < 1.0:
        raise ValueError(f"MAC reduction rate must be >= 1, got {r_mac}")
    gops = 2.0 * r_mac * n_mac * freq_mhz / 1e3
    return ComputationalRoof(scheme, gops, "2 * R_mac * N_mac * Freq")


def abm_roof(n_acc: int, freq_mhz: float) -> ComputationalRoof:
    """ABM-SpConv roof: bound by accumulators, not multipliers."""
    gops = 2.0 * n_acc * freq_mhz / 1e3
    return ComputationalRoof(ConvScheme.ABM_SPCONV, gops, "2 * N_acc * Freq")


# ---------------------------------------------------------------------------
# Scheme models: symmetric op/cycle/resource models per scheme.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeOps:
    """Analytic per-image operation counts of one layer under one scheme."""

    multiplies: float
    accumulates: float

    @property
    def total_ops(self) -> float:
        return self.multiplies + self.accumulates


@dataclass(frozen=True)
class SchemeResources:
    """Fabric a scheme's datapath needs *in addition to* the base design.

    The base ABM design already pays for the accumulator array and the
    shared multipliers; alternative schemes bolt their unit onto the same
    CUs (Winograd transform adder trees, FFT butterfly pipelines), and the
    DSE charges this overhead against the device before it may assign the
    scheme to any layer — the shared resource constraint of the joint
    search.
    """

    alms: int = 0
    dsps: int = 0
    m20ks: int = 0


class SchemeModel(Protocol):
    """What every convolution scheme must predict about a layer.

    ``name`` is the registry key (``abm``, ``sdconv``, ``spconv``,
    ``fdconv``, ``winograd2``, ``winograd4``, ``spectral``); ``taxonomy``
    maps it back to the Figure 1 class.
    """

    name: str
    taxonomy: ConvScheme

    def supports(self, spec: "LayerSpec") -> bool:
        """Whether the scheme applies to this layer geometry at all."""
        ...

    def layer_ops(self, workload: "LayerWorkload") -> SchemeOps:
        """Analytic per-image multiply/accumulate counts."""
        ...

    def layer_cycles(self, workload: "LayerWorkload", config: "AcceleratorConfig") -> float:
        """Predicted accelerator cycles per image under ``config``."""
        ...

    def resource_overhead(self, config: "AcceleratorConfig") -> SchemeResources:
        """Extra fabric the scheme's unit needs next to the base design."""
        ...


_SCHEME_MODELS: Dict[str, SchemeModel] = {}


def register_scheme_model(model: SchemeModel) -> SchemeModel:
    """Register a scheme model under its ``name`` (last writer wins)."""
    _SCHEME_MODELS[model.name] = model
    return model


def _ensure_builtin_models() -> None:
    # The baseline modules register their models at import time; core must
    # not depend on baselines at *module* import (baselines builds on core),
    # so the registry pulls them in lazily on first use.
    from ..baselines import fdconv, sdconv, spconv, spectral, winograd  # noqa: F401


def get_scheme_model(name: str) -> SchemeModel:
    """Look up a registered scheme model by name."""
    _ensure_builtin_models()
    try:
        return _SCHEME_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; registered: {sorted(_SCHEME_MODELS)}"
        ) from None


#: Built-in schemes in their listing order, which must not depend on which
#: baseline module some caller happened to import first.
_BUILTIN_ORDER = (
    "abm", "fdconv", "sdconv", "spconv", "spectral", "winograd2", "winograd4",
)


def scheme_model_names() -> List[str]:
    """Registered scheme names: the built-ins in a fixed order, then any
    others in registration order."""
    _ensure_builtin_models()
    extra = [name for name in _SCHEME_MODELS if name not in _BUILTIN_ORDER]
    return [name for name in _BUILTIN_ORDER if name in _SCHEME_MODELS] + extra


def scheme_models() -> List[SchemeModel]:
    """All registered scheme models, in :func:`scheme_model_names` order."""
    return [_SCHEME_MODELS[name] for name in scheme_model_names()]


class ABMSchemeModel:
    """The paper's own scheme, as a :class:`SchemeModel`.

    Op counts come straight from the encoded kernel statistics (Table 1's
    measured columns) and cycles from the quantized Performance Model.
    ABM is the base design, so its resource overhead is zero by definition.
    """

    name = "abm"
    taxonomy = ConvScheme.ABM_SPCONV

    def supports(self, spec: "LayerSpec") -> bool:
        return True

    def layer_ops(self, workload: "LayerWorkload") -> SchemeOps:
        return SchemeOps(
            multiplies=float(workload.multiply_ops),
            accumulates=float(workload.accumulate_ops),
        )

    def layer_cycles(self, workload: "LayerWorkload", config: "AcceleratorConfig") -> float:
        from ..dse.performance import MODE_QUANTIZED, estimate_layer

        return estimate_layer(workload, config, mode=MODE_QUANTIZED).cycles_per_image

    def resource_overhead(self, config: "AcceleratorConfig") -> SchemeResources:
        return SchemeResources()


register_scheme_model(ABMSchemeModel())
