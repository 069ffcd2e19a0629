"""Per-layer pruning schedules.

The densities below are the published Deep Compression (Han et al., 2015)
per-layer surviving-weight fractions for AlexNet and VGG16. The paper uses
models "pruned by the scheme proposed by Han et al. [7]" and its Table 1
pruning ratios match these figures exactly (e.g. CONV1_1 42% pruned = 58%
density, CONV4_2 73% pruned = 27% density, FC6 96% pruned = 4% density).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

#: Deep Compression surviving-weight fractions for AlexNet.
DEEP_COMPRESSION_ALEXNET: Mapping[str, float] = {
    "conv1": 0.84,
    "conv2": 0.38,
    "conv3": 0.35,
    "conv4": 0.37,
    "conv5": 0.37,
    "fc6": 0.09,
    "fc7": 0.09,
    "fc8": 0.25,
}

#: Deep Compression surviving-weight fractions for VGG16.
DEEP_COMPRESSION_VGG16: Mapping[str, float] = {
    "conv1_1": 0.58,
    "conv1_2": 0.22,
    "conv2_1": 0.34,
    "conv2_2": 0.36,
    "conv3_1": 0.53,
    "conv3_2": 0.24,
    "conv3_3": 0.42,
    "conv4_1": 0.32,
    "conv4_2": 0.27,
    "conv4_3": 0.34,
    "conv5_1": 0.35,
    "conv5_2": 0.29,
    "conv5_3": 0.36,
    "fc6": 0.04,
    "fc7": 0.04,
    "fc8": 0.23,
}

def _vgg19_densities() -> Mapping[str, float]:
    """VGG19 schedule extrapolated from the published VGG16 one.

    Deep Compression reports no VGG19 table; each extra conv (the fourth
    of blocks 3-5) inherits its block's deepest published density, which
    keeps the whole-model MAC reduction in VGG16's regime.
    """
    densities = dict(DEEP_COMPRESSION_VGG16)
    densities["conv3_4"] = densities["conv3_3"]
    densities["conv4_4"] = densities["conv4_3"]
    densities["conv5_4"] = densities["conv5_3"]
    return densities


#: Extrapolated VGG19 schedule (see :func:`_vgg19_densities`).
DEEP_COMPRESSION_VGG19: Mapping[str, float] = _vgg19_densities()

_SCHEDULES: Dict[str, Mapping[str, float]] = {
    "alexnet": DEEP_COMPRESSION_ALEXNET,
    "vgg16": DEEP_COMPRESSION_VGG16,
    "vgg19": DEEP_COMPRESSION_VGG19,
}


@dataclass(frozen=True)
class PruningSchedule:
    """A named mapping from layer name to surviving-weight density."""

    name: str
    densities: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for layer, density in self.densities.items():
            if not 0.0 <= density <= 1.0:
                raise ValueError(
                    f"density for {layer!r} must be in [0, 1], got {density}"
                )

    def density(self, layer_name: str) -> float:
        """Density for a layer (raises KeyError when unscheduled)."""
        if layer_name not in self.densities:
            raise KeyError(f"schedule {self.name!r} has no entry for {layer_name!r}")
        return self.densities[layer_name]

    def __contains__(self, layer_name: str) -> bool:
        return layer_name in self.densities


def deep_compression_schedule(model: str) -> PruningSchedule:
    """The Deep Compression schedule for ``'alexnet'`` or ``'vgg16'``."""
    key = model.lower()
    if key not in _SCHEDULES:
        raise KeyError(
            f"no Deep Compression schedule for {model!r}; "
            f"available: {', '.join(sorted(_SCHEDULES))}"
        )
    return PruningSchedule(name=f"deep-compression-{key}", densities=_SCHEDULES[key])


def uniform_schedule(layer_names: Iterable[str], density: float) -> PruningSchedule:
    """A flat schedule giving every named layer the same density."""
    return PruningSchedule(
        name=f"uniform-{density:g}",
        densities={name: density for name in layer_names},
    )
