"""Model shape accounting against the shapes a forward pass produces, and
what one training step records and holds."""

import numpy as np
import pytest

from featherprune.datasets import decode_features
from featherprune.models import ConvLayer, Model, build_cnn, build_mlp
from featherprune.seeding import init_rng
from featherprune.tensor import Tape, Tensor, softmax_cross_entropy
from memtrace import peak_bytes


def forward_shapes(model):
    """Per-layer output shapes (without the batch axis) of one real forward
    pass over a batch of two."""
    shapes = []
    for layer in model.layers:
        def record(x, weight, relu, forward=layer.forward):
            out = forward(x, weight, relu=relu)
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


def test_overrides_keyed_by_anything_but_a_layer_name_are_refused():
    # an id(layer)-keyed dict would otherwise run the dense weights unnoticed
    model = build_mlp(6, [4], 3, init_rng(0))
    x = Tensor(np.ones((2, 6), dtype=np.float32))
    by_name = {layer.name: Tensor(np.zeros_like(layer.weight.data)) for layer in model.layers}
    assert not model.forward(x, by_name).data.any()
    by_id = {id(layer): weight for layer, weight in zip(model.layers, by_name.values())}
    with pytest.raises(ValueError, match="no layer"):
        model.forward(x, by_id)


def plain_step(model, x, labels):
    """One training step without feather overrides; returns its record count."""
    with Tape() as tape:
        loss = softmax_cross_entropy(model.forward(x), labels)
        tape.backward(loss)
    return len(tape._records)


@pytest.mark.parametrize("build,input_shape,records", [
    (lambda: build_cnn((1, 28, 28), 10, init_rng(0)), (1, 28, 28), 5),
    (lambda: build_mlp(784, [300, 100], 10, init_rng(0)), (784,), 4),
], ids=["cnn", "mlp"])
def test_step_records_one_op_per_layer(build, input_shape, records):
    """Each layer, bias and ReLU included, is one record; the CNN adds its
    flatten, and both add the loss."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((8, *input_shape)))
    assert plain_step(build(), x, rng.integers(0, 10, 8)) == records


def test_cnn_step_peak_at_batch_128():
    """A step holds each layer's columns and one output, not separate bias
    and ReLU copies of every activation (10.4 MiB when it did)."""
    model = build_cnn((1, 28, 28), 10, init_rng(0))
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((128, 1, 28, 28)))
    labels = rng.integers(0, 10, 128)
    plain_step(model, x, labels)  # builds the cached im2col indices
    for param in model.parameters():
        param.grad = None
    _, peak = peak_bytes(plain_step, model, x, labels)
    assert peak <= 7.5 * 2**20


def decoding_step(model, pixels, labels):
    """One training step shaped as ``trainer.train`` runs it: the uint8
    batch is decoded inside the step, so only the step's graph can keep the
    decoded features alive."""
    with Tape() as tape:
        loss = softmax_cross_entropy(model.forward(Tensor(decode_features(pixels))), labels)
        tape.backward(loss)


def test_cnn_step_peak_with_the_batch_decoded_inside():
    """The first conv's input needs no gradient, so its record keeps only the
    gathered columns, not the decoded batch (0.4 MiB at batch 128), and no
    record keeps a ReLU mask beside its output. 7.42 MiB when both were
    kept."""
    model = build_cnn((1, 28, 28), 10, init_rng(0))
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (128, 1, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, 128)
    decoding_step(model, pixels, labels)  # builds the cached im2col indices
    for param in model.parameters():
        param.grad = None
    _, peak = peak_bytes(decoding_step, model, pixels, labels)
    assert peak <= 7.0 * 2**20
