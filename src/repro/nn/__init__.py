"""NumPy neural-network substrate for the HeteroSwitch reproduction.

The original system is implemented in PyTorch; this package provides the
minimal replacement used here: an autograd :class:`Tensor`, functional ops,
layer modules, optimizers, model serialization helpers and the model zoo.
"""

from . import functional
from .flat import FlatParams
from .layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Flatten,
    GlobalAvgPool2d,
    HardSwish,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    ReLU6,
    Sequential,
)
from .optim import SGD, Optimizer, ProximalSGD
from .serialization import StateLayout
from .tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "FlatParams",
    "StateLayout",
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "DepthwiseConv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "HardSwish",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Identity",
    "Optimizer",
    "SGD",
    "ProximalSGD",
]
