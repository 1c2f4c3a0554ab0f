"""Compact MLP/CNN classifiers built on the tensor core.

Layers hold their parameters as plain tensors; pruning state lives outside
the model (see :mod:`featherprune.feather`). ``Model.forward`` accepts an
optional mapping from layer to a substitute weight tensor, which is how the
sparse training loop injects thresholded weights without touching the dense
parameters. In training each substitute is the output of ``feather_forward``'s
recorded op, so the tape carries the gradient through it to the dense weights.
Each layer, with its bias and the ReLU after it, runs as one ``matmul`` or
``conv2d`` op, so a training step records one op per layer.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .tensor import Tensor, conv2d, conv_output_size, flatten, matmul

__all__ = ["DenseLayer", "ConvLayer", "Model", "build_mlp", "build_cnn"]


class DenseLayer:
    kind = "fc"

    def __init__(self, name: str, in_features: int, out_features: int,
                 rng: np.random.Generator, prunable: bool = True):
        std = math.sqrt(2.0 / in_features)
        self.name = name
        self.weight = Tensor(rng.normal(0.0, std, (in_features, out_features)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=np.float32), requires_grad=True)
        self.prunable = prunable

    def forward(self, x: Tensor, weight: Tensor, relu: bool = False) -> Tensor:
        return matmul(x, weight, bias=self.bias, relu=relu)


class ConvLayer:
    kind = "conv"

    def __init__(self, name: str, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 prunable: bool = True):
        fan_in = in_channels * kernel_size * kernel_size
        std = math.sqrt(2.0 / fan_in)
        self.name = name
        self.weight = Tensor(
            rng.normal(0.0, std, (out_channels, in_channels, kernel_size, kernel_size)),
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=np.float32), requires_grad=True)
        self.stride = stride
        self.padding = padding
        self.prunable = prunable

    def forward(self, x: Tensor, weight: Tensor, relu: bool = False) -> Tensor:
        return conv2d(x, weight, self.stride, self.padding, bias=self.bias, relu=relu)


class Model:
    """A feed-forward stack of conv/dense layers with ReLU between them.

    Input is flattened automatically when a dense layer follows spatial data.
    """

    def __init__(self, layers: list, input_shape: tuple[int, ...]):
        if not layers:
            raise ValueError("model needs at least one layer")
        self.layers = layers
        self.input_shape = tuple(input_shape)

    def forward(self, x: Tensor, weight_overrides: Optional[dict] = None) -> Tensor:
        overrides = weight_overrides or {}
        t = x
        last = self.layers[-1]
        for layer in self.layers:
            if layer.kind == "fc" and t.data.ndim == 4:
                t = flatten(t)
            weight = overrides.get(id(layer), layer.weight)
            t = layer.forward(t, weight, relu=layer is not last)
        return t

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for layer in self.layers:
            params.append(layer.weight)
            params.append(layer.bias)
        return params

    def layer_output_shapes(self) -> list[tuple[int, ...]]:
        """Per-layer output shape (without the batch axis), for accounting."""
        shape = self.input_shape
        shapes = []
        for layer in self.layers:
            if layer.kind == "conv":
                f, _, kh, kw = layer.weight.shape
                shape = (f, conv_output_size(shape[1], kh, layer.stride, layer.padding),
                         conv_output_size(shape[2], kw, layer.stride, layer.padding))
            else:
                shape = (layer.weight.shape[1],)
            shapes.append(shape)
        return shapes


def build_mlp(input_dim: int, hidden: list[int], num_classes: int,
              rng: np.random.Generator) -> Model:
    sizes = [input_dim] + list(hidden) + [num_classes]
    layers = [
        DenseLayer(f"fc{i}", sizes[i], sizes[i + 1], rng)
        for i in range(len(sizes) - 1)
    ]
    return Model(layers, (input_dim,))


def build_cnn(input_shape: tuple[int, int, int], num_classes: int,
              rng: np.random.Generator,
              channels: tuple[int, int] = (8, 16)) -> Model:
    """Two stride-2 3x3 conv layers followed by a classifier head."""
    c1, c2 = channels
    conv1 = ConvLayer("conv1", input_shape[0], c1, 3, rng, stride=2, padding=1)
    conv2 = ConvLayer("conv2", c1, c2, 3, rng, stride=2, padding=1)
    features = Model([conv1, conv2], input_shape).layer_output_shapes()[-1]
    head = DenseLayer("fc0", math.prod(features), num_classes, rng)
    return Model([conv1, conv2, head], input_shape)
