"""Model shape accounting against the shapes a forward pass produces."""

import numpy as np
import pytest

from featherprune.models import ConvLayer, Model, build_cnn
from featherprune.seeding import init_rng
from featherprune.tensor import Tensor


def forward_shapes(model):
    """Per-layer output shapes (without the batch axis) of one real forward
    pass over a batch of two."""
    shapes = []
    for layer in model.layers:
        def record(x, weight, forward=layer.forward):
            out = forward(x, weight)
            shapes.append(out.shape[1:])
            return out
        layer.forward = record
    x = np.random.default_rng(0).standard_normal((2, *model.input_shape))
    model.forward(Tensor(x))
    return shapes


@pytest.mark.parametrize("side", [28, 27, 9, 8])
def test_build_cnn_shapes_match_forward(side):
    model = build_cnn((1, side, side), 10, init_rng(0), channels=(2, 3))
    want = model.layer_output_shapes()
    assert forward_shapes(model) == want
    assert want[-1] == (10,)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("side", [7, 8])
def test_conv_layer_shape_matches_forward(stride, padding, side):
    layer = ConvLayer("conv1", 2, 3, 3, init_rng(0), stride=stride, padding=padding)
    model = Model([layer], (2, side, side))
    assert forward_shapes(model) == model.layer_output_shapes()
