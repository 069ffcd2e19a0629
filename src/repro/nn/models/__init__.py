"""Model zoo: AlexNet and VGG16 plus the architecture DSL to add more."""

from .alexnet import alexnet_architecture
from .arch import (
    Architecture,
    ConvDef,
    DropoutDef,
    FCDef,
    FlattenDef,
    LRNDef,
    PoolDef,
    ReLUDef,
    SoftmaxDef,
)
from .cifarnet import cifarnet_architecture
from .lenet import lenet_architecture
from .registry import get_architecture
from .vgg16 import vgg16_architecture

__all__ = [
    "Architecture",
    "ConvDef",
    "PoolDef",
    "FCDef",
    "ReLUDef",
    "LRNDef",
    "DropoutDef",
    "FlattenDef",
    "SoftmaxDef",
    "alexnet_architecture",
    "vgg16_architecture",
    "cifarnet_architecture",
    "lenet_architecture",
    "get_architecture",
]
