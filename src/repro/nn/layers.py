"""Layer modules (``Module`` hierarchy) for the NumPy neural-network substrate.

The module system mirrors the small subset of ``torch.nn`` that the paper's
model zoo needs: parameter registration, train/eval mode, ``state_dict`` /
``load_state_dict`` round-tripping (the format of checkpoints; the FL round
protocol moves the same state packed into one vector), and a handful of
standard layers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .engine import current_dtype
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Linear",
    "Conv2d",
    "DepthwiseConv2d",
    "BatchNorm2d",
    "BatchNorm1d",
    "ReLU",
    "ReLU6",
    "HardSwish",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Identity",
]


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for ``parameters()`` and
    ``state_dict()``.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True

    # -- attribute interception ------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- mode ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- parameter access --------------------------------------------------------
    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array that is part of the module state."""
        self._buffers[name] = np.asarray(value, dtype=current_dtype())
        object.__setattr__(self, name, self._buffers[name])

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.size for p in self.parameters()))

    # -- state dict ----------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat ``name -> array copy`` mapping of parameters and buffers."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters/buffers in-place from a state dict."""
        params = dict(self.named_parameters())
        for name, param in params.items():
            if name not in state:
                raise KeyError(f"missing parameter '{name}' in state dict")
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': {value.shape} vs {param.data.shape}"
                )
            param.data[...] = value
        # Buffers are replaced by walking modules to update their registered arrays.
        self._load_buffers(state, prefix="")

    def _load_buffers(self, state: Dict[str, np.ndarray], prefix: str) -> None:
        for name in list(self._buffers.keys()):
            full = f"{prefix}{name}"
            if full in state:
                value = np.asarray(state[full], dtype=self._buffers[name].dtype)
                self._buffers[name][...] = value.reshape(self._buffers[name].shape)
        for mod_name, module in self._modules.items():
            module._load_buffers(state, prefix=f"{prefix}{mod_name}.")

    # -- call ----------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for idx, module in enumerate(modules):
            setattr(self, f"layer{idx}", module)
            self._layers.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """Standard 2-D convolution on NCHW tensors."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class DepthwiseConv2d(Module):
    """Depthwise 2-D convolution (one filter per channel)."""

    def __init__(
        self,
        channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (channels, 1, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        self.bias = Parameter(np.zeros(channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.depthwise_conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class _BatchNorm(Module):
    """Shared implementation for 1-D and 2-D batch normalization."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _reduce_axes(self, x: Tensor) -> Tuple[int, ...]:
        raise NotImplementedError

    def _shape_for(self, x: Tensor) -> Tuple[int, ...]:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        axes = self._reduce_axes(x)
        param_shape = self._shape_for(x)
        if self.training:
            # Single-pass training forward: the batch statistics are computed
            # once (through the normalization path) and their values feed the
            # running-stat update.  (The seed path computed them twice —
            # np.mean/np.var on .data for the buffers, then again through the
            # graph for the normalization.)  The buffer update now sees the
            # ``sum * (1/count)`` formulation instead of NumPy's
            # ``sum / count`` — a deliberate ~1-ulp reassociation of the same
            # reduction, pinned by tests/nn/test_layers.py; the normalized
            # output is bitwise unchanged.
            out, batch_mean, batch_var = F.batch_norm_train(
                x, self.weight, self.bias, axes, param_shape, self.eps
            )
            self._buffers["running_mean"][...] = (
                (1 - self.momentum) * self._buffers["running_mean"]
                + self.momentum * batch_mean.reshape(self.num_features)
            )
            self._buffers["running_var"][...] = (
                (1 - self.momentum) * self._buffers["running_var"]
                + self.momentum * batch_var.reshape(self.num_features)
            )
            return out
        return F.batch_norm_eval(
            x, self.weight, self.bias,
            self._buffers["running_mean"].reshape(param_shape),
            self._buffers["running_var"].reshape(param_shape),
            param_shape, self.eps,
        )


class BatchNorm2d(_BatchNorm):
    """Batch normalization over NCHW tensors."""

    def _reduce_axes(self, x: Tensor) -> Tuple[int, ...]:
        return (0, 2, 3)

    def _shape_for(self, x: Tensor) -> Tuple[int, ...]:
        return (1, self.num_features, 1, 1)


class BatchNorm1d(_BatchNorm):
    """Batch normalization over (N, C) tensors."""

    def _reduce_axes(self, x: Tensor) -> Tuple[int, ...]:
        return (0,)

    def _shape_for(self, x: Tensor) -> Tuple[int, ...]:
        return (1, self.num_features)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class ReLU6(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu6(x)


class HardSwish(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.hardswish(x)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.flatten(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x
