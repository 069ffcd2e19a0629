"""Model registry mapping names to architecture factories."""

from __future__ import annotations

from typing import Callable, Dict

from .alexnet import alexnet_architecture
from .arch import Architecture
from .cifarnet import cifarnet_architecture
from .lenet import lenet_architecture
from .vgg16 import vgg16_architecture

_REGISTRY: Dict[str, Callable[[], Architecture]] = {
    "alexnet": alexnet_architecture,
    "vgg16": vgg16_architecture,
    "cifarnet": cifarnet_architecture,
    "lenet": lenet_architecture,
}


def get_architecture(name: str) -> Architecture:
    """Look up an architecture by name (case-insensitive)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]()
