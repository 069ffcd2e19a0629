"""Per-layer heterogeneous scheme planning on accelerator cycles.

HPIPE-style layer heterogeneity for the ABM accelerator: every layer gets
the convolution scheme that is best *for its shape*, chosen among all
registered :class:`~repro.core.schemes.SchemeModel` implementations on
their predicted accelerator cycles (:meth:`SchemeModel.layer_cycles`)
under a shared device-resource constraint. On paper-scale configurations
ABM wins every layer — the whole point of Figure 1: 840 logic
accumulators outrun 210 shared multipliers even after a 2.25-4x multiply
reduction — so the plan for AlexNet and VGG16 on the Stratix-V GXA7 is
homogeneous ABM, itself a faithful reproduction of the paper's claim.
The plan is a prediction; the host executes every layer with ABM.

Resource coupling: a non-ABM scheme may only be *enabled* (made available
to any layer) if the base configuration's fabric estimate plus the scheme
unit's modeled overhead still fits the device. Enablement is greedy by
total predicted benefit, so the highest-value units claim the remaining
fabric first — this is the shared constraint that makes scheme-per-layer
a joint dimension of the design rather than a free post-processing step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.schemes import (
    SchemeModel,
    SchemeResources,
    get_scheme_model,
    scheme_model_names,
    scheme_models,
)
from ..hw.config import AcceleratorConfig
from ..hw.device import FPGADevice
from ..hw.workload import ModelWorkload
from .resources import DEFAULT_RESOURCE_MODEL, ResourceEstimate, ResourceModel

__all__ = [
    "ModelSchemePlan",
    "SchemeDecision",
    "plan_model_schemes",
]

#: A challenger must beat ABM by this relative margin to displace it: the
#: cycle models are predictions, and flapping a layer onto another unit
#: for a 2% predicted win is not worth the fabric.
DEFAULT_MARGIN = 0.1


@dataclass(frozen=True)
class SchemeDecision:
    """One layer's scheme choice with the evidence behind it."""

    layer: str
    scheme: str
    #: Predicted accelerator cycles per image of every candidate that
    #: supports the layer (always includes ``abm``); lower is better.
    cycles: Mapping[str, float]
    reason: str

    @property
    def abm_cycles(self) -> float:
        return self.cycles["abm"]

    @property
    def chosen_cycles(self) -> float:
        return self.cycles[self.scheme]

    @property
    def speedup(self) -> float:
        """Predicted layer speedup of the choice over ABM (1.0 = kept ABM)."""
        if self.chosen_cycles <= 0:
            return 1.0
        return self.abm_cycles / self.chosen_cycles


@dataclass(frozen=True)
class ModelSchemePlan:
    """A per-layer scheme assignment for one model on one configuration."""

    model: str
    margin: float
    decisions: Tuple[SchemeDecision, ...]
    #: Non-ABM schemes whose units fit the fabric next to the base design
    #: (and were worth enabling).
    enabled: Tuple[str, ...]
    #: Total modeled fabric overhead of the enabled units.
    overhead: SchemeResources
    #: Schemes that earned a slot on merit but were rejected because their
    #: unit did not fit the remaining fabric.
    rejected: Tuple[str, ...] = ()

    @property
    def heterogeneous(self) -> bool:
        return any(d.scheme != "abm" for d in self.decisions)

    @property
    def predicted_speedup(self) -> float:
        """Whole-model predicted cycle speedup over ABM-only."""
        abm = sum(d.abm_cycles for d in self.decisions)
        chosen = sum(d.chosen_cycles for d in self.decisions)
        if chosen <= 0:
            return 1.0
        return abm / chosen

    def summary(self) -> str:
        mix: Dict[str, int] = {}
        for decision in self.decisions:
            mix[decision.scheme] = mix.get(decision.scheme, 0) + 1
        joined = ", ".join(f"{k}: {v}" for k, v in sorted(mix.items()))
        return (
            f"{self.model}: {joined} (predicted "
            f"{self.predicted_speedup:.2f}x cycles vs ABM-only)"
        )


def plan_model_schemes(
    workload: ModelWorkload,
    config: AcceleratorConfig,
    *,
    device: Optional[FPGADevice] = None,
    resources: ResourceModel = DEFAULT_RESOURCE_MODEL,
    logic_limit: float = 0.75,
    margin: float = DEFAULT_MARGIN,
    schemes: Optional[Sequence[str]] = None,
) -> ModelSchemePlan:
    """Choose the scheme with the fewest predicted cycles per layer.

    Parameters
    ----------
    workload:
        The model's layer workloads (real encoded statistics or synthetic).
    config:
        The accelerator configuration the plan targets (cycle predictions
        and the base-fabric estimate both come from it).
    device:
        When given, non-ABM schemes are gated by fabric: the base estimate
        plus each enabled unit's overhead must keep fitting
        ``(logic <= logic_limit, dsp <= 1, memory <= 1)``. Without a
        device, every profitable scheme is enabled.
    margin:
        Relative margin (finite, >= 0) a challenger must beat ABM's
        cycles by per layer.
    schemes:
        Optional candidate-name allowlist of registered schemes (``abm``
        is implicit).

    Raises
    ------
    ValueError
        On a negative or non-finite ``margin``, or an allowlist naming an
        unregistered scheme.
    """
    margin = float(margin)
    if not math.isfinite(margin) or margin < 0:
        raise ValueError(f"margin must be a finite number >= 0, got {margin}")
    if schemes is not None:
        unknown = sorted(set(schemes) - set(scheme_model_names()))
        if unknown:
            raise ValueError(
                f"unknown scheme(s) {', '.join(map(repr, unknown))}; "
                f"registered: {', '.join(scheme_model_names())}"
            )
    abm = get_scheme_model("abm")
    candidates: List[SchemeModel] = [
        model
        for model in scheme_models()
        if model.name != "abm" and (schemes is None or model.name in schemes)
    ]

    # Pass 1: per-layer cycles of every supporting candidate.
    layer_cycles: List[Dict[str, float]] = []
    for layer in workload.layers:
        cycles = {"abm": float(abm.layer_cycles(layer, config))}
        for model in candidates:
            if not model.supports(layer.spec):
                continue
            predicted = float(model.layer_cycles(layer, config))
            if math.isfinite(predicted):
                cycles[model.name] = predicted
        layer_cycles.append(cycles)

    # Pass 2: greedy enablement by total benefit under the fabric budget.
    # Each round, every not-yet-decided scheme is credited with the cycles
    # it would save over the *current* best (ABM plus already-enabled schemes)
    # on layers where it also clears the margin against ABM; the biggest
    # saver is enabled if its unit fits the remaining fabric, otherwise
    # rejected — and the next round lets runner-up schemes claim the layers
    # a rejected unit would have taken.
    enabled: List[str] = []
    rejected: List[str] = []
    total = SchemeResources()
    base: Optional[ResourceEstimate] = (
        resources.estimate(config) if device is not None else None
    )
    by_name = {model.name: model for model in candidates}
    undecided = set(by_name)
    while undecided:
        benefit: Dict[str, float] = {}
        for cycles in layer_cycles:
            abm_cycles = cycles["abm"]
            current = min(
                [abm_cycles] + [cycles[n] for n in enabled if n in cycles]
            )
            pool = {n: cycles[n] for n in undecided if n in cycles}
            if not pool:
                continue
            best = min(pool, key=pool.get)
            if pool[best] * (1.0 + margin) < abm_cycles and pool[best] < current:
                benefit[best] = benefit.get(best, 0.0) + (
                    current - pool[best]
                )
        if not benefit:
            break
        name = max(benefit, key=benefit.get)
        undecided.discard(name)
        overhead = by_name[name].resource_overhead(config)
        if base is not None:
            trial = ResourceEstimate(
                alms=base.alms + total.alms + overhead.alms,
                dsps=base.dsps + total.dsps + overhead.dsps,
                m20ks=base.m20ks + total.m20ks + overhead.m20ks,
            )
            if not trial.utilization(device).fits(logic_limit):
                rejected.append(name)
                continue
        enabled.append(name)
        total = SchemeResources(
            alms=total.alms + overhead.alms,
            dsps=total.dsps + overhead.dsps,
            m20ks=total.m20ks + overhead.m20ks,
        )

    # Pass 3: final per-layer choice among ABM + enabled schemes.
    decisions: List[SchemeDecision] = []
    for layer, cycles in zip(workload.layers, layer_cycles):
        abm_cycles = cycles["abm"]
        available = {
            name: value for name, value in cycles.items() if name in enabled
        }
        chosen = "abm"
        if available:
            best = min(available, key=available.get)
            if available[best] * (1.0 + margin) < abm_cycles:
                chosen = best
        if chosen == "abm":
            blocked = [
                name
                for name in rejected
                if name in cycles and cycles[name] * (1.0 + margin) < abm_cycles
            ]
            if blocked:
                reason = (
                    f"kept abm: {'/'.join(sorted(blocked))} would win but "
                    "its unit does not fit the fabric"
                )
            else:
                reason = (
                    f"kept abm: no enabled scheme beats it by the "
                    f"{margin:.0%} margin"
                )
        else:
            reason = (
                f"{chosen}: {abm_cycles / cycles[chosen]:.2f}x fewer predicted "
                "cycles than abm"
            )
        decisions.append(
            SchemeDecision(
                layer=layer.spec.name,
                scheme=chosen,
                cycles=dict(cycles),
                reason=reason,
            )
        )

    return ModelSchemePlan(
        model=workload.name,
        margin=margin,
        decisions=tuple(decisions),
        enabled=tuple(enabled),
        overhead=total,
        rejected=tuple(rejected),
    )
