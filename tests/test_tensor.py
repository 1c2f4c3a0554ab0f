"""Tensor core: autodiff correctness against finite differences, tape mechanics."""

import os
import struct
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import featherprune
import oracles
from featherprune import tensor
from featherprune.errors import NonFiniteError
from featherprune.tensor import (
    _ONE_THREAD_MADDS,
    Tape,
    Tensor,
    _emit,
    _im2col_index,
    _one_thread_matmul,
    _openblas,
    add_bias,
    conv2d,
    flatten,
    matmul,
    relu,
    reshape,
    softmax_cross_entropy,
)
from memtrace import peak_bytes
from oracles import sum_all

relu_op = relu  # ``relu`` is also the name of the fused ops' keyword argument


class TestTensorBasics:
    def test_casts_to_float32(self):
        t = Tensor([1.0, 2.0])
        assert t.data.dtype == np.float32

    def test_rejects_zero_sized_dims(self):
        with pytest.raises(ValueError, match="zero-sized"):
            Tensor(np.zeros((3, 0)))

    def test_item_on_scalar(self):
        assert Tensor(np.float32(2.5)).item() == 2.5

    def test_item_on_non_scalar_fails(self):
        with pytest.raises(ValueError, match="non-scalar"):
            Tensor([1.0, 2.0]).item()

    def test_accumulate_grad_shape_mismatch(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="gradient shape"):
            t.accumulate_grad(np.zeros((3,), dtype=np.float32))

    def test_accumulate_grad_adds(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        t.accumulate_grad(np.array([1.0, 1.0], dtype=np.float32))
        t.accumulate_grad(np.array([0.5, 0.5], dtype=np.float32))
        np.testing.assert_array_equal(t.grad, [1.5, 1.5])


class TestTapeMechanics:
    def test_no_tape_no_recording(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = matmul(a, a)
        assert not out.requires_grad

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            out = matmul(a, a)
            with pytest.raises(ValueError, match="scalar"):
                tape.backward(out)

    def test_loss_must_come_from_this_tape(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(matmul(a, a))
        with Tape() as other:
            with pytest.raises(ValueError, match="not produced under this tape"):
                other.backward(loss)

    def test_second_backward_on_a_tape_raises(self):
        """A recorded backward may drop what it has read, so a tape replays
        once; the refused call leaves every gradient as it was."""
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        w = Tensor(np.ones((2, 1)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(matmul(a, w))
            tape.backward(loss)
            first_a, first_w = a.grad.copy(), w.grad.copy()
            with pytest.raises(ValueError, match="already run its backward"):
                tape.backward(loss)
        assert a.grad.tobytes() == first_a.tobytes()
        assert w.grad.tobytes() == first_w.tobytes()

    def test_replay_lets_go_of_each_record_before_the_earlier_ones_run(self):
        """An array that only a later record holds (here the matmul's weight,
        kept for its input's gradient) is gone by the time an earlier record's
        backward runs, and a replayed tape holds no record."""
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        v = Tensor(np.full((3, 1), 2.0))
        held = weakref.ref(v.data)
        seen = []

        def probe_backward(g):
            seen.append(held() is None)
            return [(w, g)]

        with Tape() as tape:
            h = _emit(w.data.copy(), (w,), probe_backward, "probe")
            loss = sum_all(matmul(h, v))
            del v
            assert held() is not None
            tape.backward(loss)
        assert seen == [True]
        assert tape._records == []
        np.testing.assert_array_equal(w.grad, np.full((2, 3), 2.0))

    def test_backwards_of_two_tapes_accumulate(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        w = Tensor(np.ones((2, 1)), requires_grad=True)
        grads = []
        for _ in range(2):
            with Tape() as tape:
                tape.backward(sum_all(matmul(a, w)))
            grads.append(w.grad.copy())
        np.testing.assert_array_equal(grads[1], 2 * grads[0])

    def test_intermediate_requires_grad_tensor_keeps_no_grad(self):
        """An op output passes its gradient on to its inputs but keeps none;
        only the leaves end up with ``grad``."""
        a = Tensor(np.ones((1, 2)))
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        v = Tensor(np.ones((2, 1)), requires_grad=True)
        with Tape() as tape:
            hidden = matmul(a, w)
            loss = sum_all(matmul(hidden, v))
            tape.backward(loss)
        assert hidden.requires_grad and hidden.grad is None
        assert loss.grad is None
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(v.grad, np.full((2, 1), 2.0))

    def test_same_tensor_used_twice_sums_contributions(self):
        """d/dX sum(X @ X) should match the finite-difference oracle."""
        rng = np.random.default_rng(42)
        x0 = rng.standard_normal((4, 4)).astype(np.float32)
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            loss = sum_all(matmul(x, x))
            tape.backward(loss)
        want = oracles.central_difference(
            lambda a: float((a @ a).sum()), x0.astype(np.float64), 1e-4
        )
        np.testing.assert_allclose(x.grad, want, rtol=1e-4, atol=1e-4)


class TestShapeValidation:
    def test_matmul_needs_2d(self):
        with pytest.raises(ValueError, match="2-d"):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_matmul_inner_dims(self):
        with pytest.raises(ValueError, match="mismatch"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_bias_must_be_1d(self):
        with pytest.raises(ValueError, match="1-d"):
            add_bias(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 1))))

    def test_bias_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            add_bias(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))

    def test_reshape_size_mismatch(self):
        with pytest.raises(ValueError, match="cannot reshape"):
            reshape(Tensor(np.ones((2, 3))), (7,))

    def test_conv_validation(self):
        x = Tensor(np.ones((1, 2, 4, 4)))
        k = Tensor(np.ones((3, 2, 3, 3)))
        with pytest.raises(ValueError, match="stride"):
            conv2d(x, k, stride=0)
        with pytest.raises(ValueError, match="padding"):
            conv2d(x, k, padding=-1)
        with pytest.raises(ValueError, match="channels"):
            conv2d(x, Tensor(np.ones((3, 5, 3, 3))))
        with pytest.raises(ValueError, match="larger than padded"):
            conv2d(x, Tensor(np.ones((3, 2, 9, 9))))


class TestGradientsAgainstFiniteDifferences:
    """Every backward rule checked against a float64 symmetric-difference oracle."""

    def _mlp_setup(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((8, 5)).astype(np.float32)
        w1 = rng.standard_normal((5, 6)).astype(np.float32) * 0.5
        b1 = rng.standard_normal(6).astype(np.float32) * 0.1
        w2 = rng.standard_normal((6, 3)).astype(np.float32) * 0.5
        b2 = rng.standard_normal(3).astype(np.float32) * 0.1
        labels = rng.integers(0, 3, size=8)
        return x, w1, b1, w2, b2, labels

    def test_mlp_gradients(self):
        x, w1, b1, w2, b2, labels = self._mlp_setup()
        tensors = [Tensor(a, requires_grad=True) for a in (w1, b1, w2, b2)]
        tw1, tb1, tw2, tb2 = tensors
        with Tape() as tape:
            h = relu(add_bias(matmul(Tensor(x), tw1), tb1))
            logits = add_bias(matmul(h, tw2), tb2)
            loss = softmax_cross_entropy(logits, labels)
            tape.backward(loss)

        def f(which, arr_name):
            params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}

            def loss_of(value):
                p = dict(params)
                p[arr_name] = value
                return oracles.mlp_loss([p["w1"], p["w2"]], [p["b1"], p["b2"]], x, labels)

            return oracles.central_difference(loss_of, params[arr_name].astype(np.float64), 1e-4)

        for tensor, name in zip(tensors, ("w1", "b1", "w2", "b2")):
            want = f(tensor, name)
            np.testing.assert_allclose(tensor.grad, want, rtol=2e-3, atol=1e-5,
                                       err_msg=f"gradient mismatch for {name}")

    def test_mlp_gradients_with_label_smoothing(self):
        x, w1, b1, w2, b2, labels = self._mlp_setup()
        tw2 = Tensor(w2, requires_grad=True)
        with Tape() as tape:
            h = relu(add_bias(matmul(Tensor(x), Tensor(w1)), Tensor(b1)))
            logits = add_bias(matmul(h, tw2), Tensor(b2))
            loss = softmax_cross_entropy(logits, labels, smoothing=0.1)
            tape.backward(loss)
        want = oracles.central_difference(
            lambda v: oracles.mlp_loss([w1, v], [b1, b2], x, labels, smoothing=0.1),
            w2.astype(np.float64), 1e-4)
        np.testing.assert_allclose(tw2.grad, want, rtol=2e-3, atol=1e-5)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 1), (3, 2)])
    def test_conv2d_forward_matches_naive(self, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, 7, 6)).astype(np.float32)
        k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        got = conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding)
        want = oracles.conv2d_naive(x, k, stride, padding)
        assert got.shape == want.shape
        np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_conv2d_gradients(self, stride, padding):
        rng = np.random.default_rng(42)
        x0 = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
        k0 = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(3).astype(np.float32)
        x, k, b = (Tensor(a, requires_grad=True) for a in (x0, k0, b0))
        with Tape() as tape:
            loss = sum_all(relu(add_bias(conv2d(x, k, stride, padding), b)))
            tape.backward(loss)

        def composite(xa, ka, ba):
            out = oracles.conv2d_naive(xa, ka, stride, padding)
            out = out + np.asarray(ba, dtype=np.float64).reshape(1, -1, 1, 1)
            return float(np.maximum(out, 0.0).sum())

        for tensor, arr, wiggle in (
            (x, x0, lambda v: composite(v, k0, b0)),
            (k, k0, lambda v: composite(x0, v, b0)),
            (b, b0, lambda v: composite(x0, k0, v)),
        ):
            want = oracles.central_difference(wiggle, arr.astype(np.float64), 1e-3)
            np.testing.assert_allclose(tensor.grad, want, rtol=2e-3, atol=2e-3)

    def test_flatten_roundtrips_gradient_shape(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((3, 2, 2, 2)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(flatten(x))
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 2, 2, 2), dtype=np.float32))


class TestSoftmaxCrossEntropy:
    def test_two_equal_logits_gives_log2(self):
        loss = softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
        np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=1e-6)

    def test_uniform_logits_loss_is_logk_for_any_smoothing(self):
        logits = Tensor(np.zeros((5, 4)))
        labels = np.array([0, 1, 2, 3, 0])
        for s in (0.0, 0.1, 0.5):
            loss = softmax_cross_entropy(logits, labels, smoothing=s)
            np.testing.assert_allclose(loss.item(), np.log(4.0), rtol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError, match="out of range"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(IndexError, match="out of range"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))

    def test_smoothing_range(self):
        with pytest.raises(ValueError, match="smoothing"):
            softmax_cross_entropy(Tensor(np.zeros((1, 2))), np.array([0]), smoothing=1.0)

    def test_large_logits_stay_finite(self):
        loss = softmax_cross_entropy(Tensor([[500.0, -500.0]]), np.array([0]))
        assert np.isfinite(loss.item())


class TestInputWithoutGradient:
    """An input that needs no gradient gets none, and skipping it changes no
    other gradient by a single bit."""

    def run(self, op, x_data, w_data, b_data, x_grad):
        x = Tensor(x_data.copy(), requires_grad=x_grad)
        w = Tensor(w_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        with Tape() as tape:
            logits = flatten(add_bias(op(x, w), b))
            labels = np.arange(x_data.shape[0]) % logits.shape[1]
            loss = softmax_cross_entropy(logits, labels)
            tape.backward(loss)
        return x, w, b

    def check(self, op, x_data, w_data, b_data):
        x, w, b = self.run(op, x_data, w_data, b_data, x_grad=False)
        x_ref, w_ref, b_ref = self.run(op, x_data, w_data, b_data, x_grad=True)
        assert x.grad is None
        assert x_ref.grad is not None
        assert w.grad.tobytes() == w_ref.grad.tobytes()
        assert b.grad.tobytes() == b_ref.grad.tobytes()
        # the op's backward hands out the weight gradient only; it is called
        # on a tape that has not replayed, since a replay may drop its arrays
        with Tape() as fresh:
            op(Tensor(x_data.copy()), w)
        first_output, first_backward = fresh._records[0]
        assert [t for t, _ in first_backward(np.ones_like(first_output.data))] == [w]

    def test_matmul(self):
        rng = np.random.default_rng(5)
        self.check(matmul, rng.standard_normal((9, 13)).astype(np.float32),
                   rng.standard_normal((13, 7)).astype(np.float32),
                   rng.standard_normal(7).astype(np.float32))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 2)])
    def test_conv2d(self, stride, padding):
        rng = np.random.default_rng(6)
        op = lambda x, k: conv2d(x, k, stride, padding)  # noqa: E731
        self.check(op, rng.standard_normal((3, 2, 7, 6)).astype(np.float32),
                   rng.standard_normal((4, 2, 3, 3)).astype(np.float32),
                   rng.standard_normal(4).astype(np.float32))

    def test_weight_without_gradient_skipped_too(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 2)))
        with Tape() as tape:
            loss = sum_all(matmul(x, w))
            tape.backward(loss)
        assert w.grad is None
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


# (in_channels, height and width, out_channels) of build_cnn's two 3x3,
# stride-2, padding-1 layers on a 28x28 single-channel input
CNN_CONV_SHAPES = [(1, 28, 8), (8, 14, 16)]


@st.composite
def conv_shapes(draw):
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 3))
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    kh = draw(st.integers(1, min(h + 2 * padding, 5)))
    kw = draw(st.integers(1, min(w + 2 * padding, 5)))
    return (draw(st.integers(1, 5)), draw(st.integers(1, 3)), h, w,
            draw(st.integers(1, 4)), kh, kw, stride, padding)


def reference_conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0, *,
                     bias=None, relu=False) -> Tensor:
    """``oracles.conv2d_im2col_reference`` recorded on the tape like conv2d,
    followed by the separate ``add_bias`` and ``relu`` ops when asked for."""
    out, ref_backward, _ = oracles.conv2d_im2col_reference(x.data, kernel.data, stride, padding)

    def backward_fn(g):
        dx, dk = ref_backward(g)
        return [(t, grad) for t, grad in ((x, dx), (kernel, dk)) if t.requires_grad]

    out = _emit(out, (x, kernel), backward_fn, "conv2d")
    if bias is not None:
        out = add_bias(out, bias)
    return relu_op(out) if relu else out


class TestConv2dMatchesIm2colReference:
    """conv2d reproduces the padded im2col/col2im operator it replaced byte
    for byte in its output, input gradient and kernel gradient, and returns
    C-contiguous arrays. The exception is a shape where the old column
    reshape returned a strided view of the input, so the old forward and
    kernel-gradient products got a strided BLAS operand; there they agree to
    float32 rounding."""

    def compare(self, seed, n, c, h, w, f, kh, kw, stride, padding):
        rng = np.random.default_rng(seed)
        x_data = rng.standard_normal((n, c, h, w)).astype(np.float32)
        k_data = rng.standard_normal((f, c, kh, kw)).astype(np.float32)
        ref_out, ref_backward, cols_is_view = oracles.conv2d_im2col_reference(
            x_data, k_data, stride, padding)
        g = rng.standard_normal(ref_out.shape).astype(np.float32)
        x = Tensor(x_data, requires_grad=True)
        kernel = Tensor(k_data, requires_grad=True)
        with Tape() as tape:
            out = conv2d(x, kernel, stride, padding)
        (_, dx), (_, dk) = tape._records[-1][1](g)
        assert out.data.flags.c_contiguous and dx.flags.c_contiguous
        for got, want in zip((out.data, dx, dk), (ref_out, *ref_backward(g))):
            assert got.shape == want.shape and got.dtype == want.dtype
            if cols_is_view:
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
            else:
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        cache = _im2col_index.cache_info()
        assert cache.maxsize is not None and cache.currsize <= cache.maxsize
        return cols_is_view

    @given(n=st.integers(1, 128), layer=st.sampled_from(CNN_CONV_SHAPES),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cnn_layer_shapes(self, n, layer, seed):
        c, size, f = layer
        assert not self.compare(seed, n, c, size, size, f, 3, 3, 2, 1)

    @given(shape=conv_shapes(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_general_shapes(self, shape, seed):
        self.compare(seed, *shape)

    def test_strided_view_case(self):
        # n=1, 1x3 kernel, stride 3, width 5: the old columns were a view
        assert self.compare(0, 1, 1, 1, 5, 2, 1, 3, 3, 0)

    @pytest.mark.parametrize("n", [1, 17, 64, 128])
    def test_cnn_gradients(self, n, monkeypatch):
        """Through bias, relu and flatten, the output layout changes no bit
        of the loss or of any parameter gradient of build_cnn."""
        from featherprune import models
        from featherprune.seeding import init_rng

        def run(conv):
            monkeypatch.setattr(models, "conv2d", conv)
            model = models.build_cnn((1, 28, 28), 10, init_rng(n))
            rng = np.random.default_rng(n)
            x = Tensor(rng.random((n, 1, 28, 28)))
            with Tape() as tape:
                loss = softmax_cross_entropy(model.forward(x), rng.integers(0, 10, n), 0.1)
                tape.backward(loss)
            return [loss.data.tobytes()] + [p.grad.tobytes() for p in model.parameters()]

        assert run(conv2d) == run(reference_conv2d)


class TestIm2colIndex:
    """conv2d gathers its columns through one cached index per geometry, and
    holds no padded or zero-filled copy of its input."""

    def test_index_is_cached_per_geometry(self):
        geometry = (8, 14, 14, 3, 3, 2, 1)
        index = _im2col_index(*geometry)
        assert _im2col_index(*geometry) is index
        source, padded = index
        assert source.size == 7 * 7 * 8 * 3 * 3 and padded.size > 0
        assert _im2col_index(1, 5, 5, 3, 3, 1, 0)[1].size == 0

    def test_gather_reads_the_cached_index_in_place(self):
        """np.take copies a read-only or non-intp index on every call; the
        cached one is handed over as it is."""
        source, _ = _im2col_index(8, 14, 14, 3, 3, 2, 1)
        x = np.zeros((4, 8 * 14 * 14), dtype=np.float32)
        cols, peak = peak_bytes(np.take, x, source, axis=1)
        assert peak - cols.nbytes < source.nbytes

    @pytest.mark.parametrize("layer", CNN_CONV_SHAPES)
    def test_forward_peak_at_cnn_shapes(self, layer):
        """Columns, the (n*h_out*w_out, f) product and its NCHW copy, and the
        index built on this call: a padded copy of the input would not fit
        in the 64 KiB left over."""
        c, size, f = layer
        n, h_out = 128, size // 2
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((n, c, size, size)))
        kernel = Tensor(rng.standard_normal((f, c, 3, 3)), requires_grad=True)
        _im2col_index.cache_clear()
        with Tape():
            out, peak = peak_bytes(conv2d, x, kernel, 2, 1)
        index = sum(a.nbytes for a in _im2col_index(c, size, size, 3, 3, 2, 1))
        columns = n * h_out * h_out * c * 9 * 4
        assert peak <= columns + 2 * out.data.nbytes + index + 64 * 1024

    def test_backward_never_holds_the_columns_and_their_gradient(self):
        """At conv2's shapes the recorded backward lets the columns go once
        the kernel gradient is formed, so the column gradient, of the same
        size, takes their place: above what the record held, the backward's
        heap grows by less than one column buffer (by 1.5 times it when both
        were held)."""
        c, size, f = CNN_CONV_SHAPES[1]
        n, h_out = 128, size // 2
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((n, c, size, size)), requires_grad=True)
        kernel = Tensor(rng.standard_normal((f, c, 3, 3)), requires_grad=True)
        bias = Tensor(rng.standard_normal(f), requires_grad=True)
        # traced from before the forward, so that freeing the columns counts
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = conv2d(x, kernel, 2, 1, bias=bias, relu=True)
            (_, backward_fn), = tape._records
            g = np.ones_like(out.data)
            grads, peak = peak_bytes(backward_fn, g)
        finally:
            tracemalloc.stop()
        assert [t for t, _ in grads] == [x, kernel, bias]
        columns = n * h_out * h_out * c * 9 * 4
        assert peak < columns, f"peak {peak / columns:.2f}x the columns"


def _openblas_mapped() -> bool:
    """Whether a file with ``openblas`` in its name is mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            return any("openblas" in os.path.basename(line.split(None, 5)[-1]) for line in maps)
    except OSError:
        return False


@pytest.fixture
def openblas():
    """The package's ``(get, set)`` OpenBLAS thread calls; the count the test
    found is set again afterwards."""
    if not _openblas_mapped():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert _openblas() is not None
    get, set_ = _openblas()
    caller = get()
    yield get, set_
    set_(caller)


class TestConv2dBlasThreads:
    """conv2d runs its GEMMs at one OpenBLAS thread and then sets the caller's
    count again, so its bits do not depend on that count."""

    def test_lookup_finds_the_mapped_openblas(self, openblas):
        get, _ = openblas  # the fixture fails when the lookup finds nothing
        assert get() >= 1

    @pytest.mark.parametrize("n", [18, 33, 48, 100, 128])
    @pytest.mark.parametrize("layer", CNN_CONV_SHAPES)
    def test_bits_do_not_depend_on_the_callers_count(self, openblas, layer, n):
        _, set_ = openblas
        c, size, f = layer
        rng = np.random.default_rng(n)
        x_data = rng.standard_normal((n, c, size, size)).astype(np.float32)
        k_data = rng.standard_normal((f, c, 3, 3)).astype(np.float32)
        b_data = rng.standard_normal(f).astype(np.float32)
        g = rng.standard_normal((n, f, size // 2, size // 2)).astype(np.float32)

        def run(threads):
            set_(threads)
            x = Tensor(x_data, requires_grad=True)
            kernel = Tensor(k_data, requires_grad=True)
            bias = Tensor(b_data, requires_grad=True)
            with Tape() as tape:
                out = conv2d(x, kernel, 2, 1, bias=bias)
            (_, dx), (_, dk), (_, db) = tape._records[-1][1](g)
            return [a.tobytes() for a in (out.data, dx, dk, db)]

        assert run(1) == run(2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_callers_count_is_set_again(self, openblas, threads):
        get, set_ = openblas
        set_(threads)
        rng = np.random.default_rng(threads)
        x = Tensor(rng.standard_normal((18, 8, 14, 14)), requires_grad=True)
        kernel = Tensor(rng.standard_normal((16, 8, 3, 3)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(conv2d(x, kernel, 2, 1, relu=True))
            assert get() == threads
            tape.backward(loss)
        assert get() == threads and x.grad is not None and kernel.grad is not None

    def test_count_is_set_again_when_the_product_raises(self, openblas):
        get, set_ = openblas
        set_(2)
        with pytest.raises(ValueError):
            _one_thread_matmul(np.ones((2, 3), np.float32), np.ones((2, 3), np.float32))
        assert get() == 2

    @pytest.mark.parametrize("raises", [False, True])
    def test_product_runs_between_one_thread_and_the_callers_count(self, monkeypatch,
                                                                    raises):
        calls = []

        class Operand(np.ndarray):
            def __matmul__(self, other):
                calls.append("product")
                if raises:
                    raise FloatingPointError
                return np.asarray(self) @ other

        def get():
            calls.append("get")
            return 3

        monkeypatch.setattr(tensor, "_openblas", lambda: (get, lambda n: calls.append(n)))
        a = np.ones((2, 3), np.float32).view(Operand)
        if raises:
            with pytest.raises(FloatingPointError):
                _one_thread_matmul(a, np.ones((3, 2), np.float32))
        else:
            _one_thread_matmul(a, np.ones((3, 2), np.float32))
        assert calls == ["get", 1, "product", 3]


# (batch, in_features, out_features) of the CNN's dense head over conv2's
# 16x7x7 features, and of the 784-300-100-10 MLP's layers
CNN_FC0_SHAPE = (128, 784, 10)
MLP_LAYER_SHAPES = [(128, 784, 300), (128, 300, 100), (128, 100, 10)]


class TestMatmulBlasThreads:
    """A matmul op below ``_ONE_THREAD_MADDS`` multiply-adds runs its three
    GEMMs at one OpenBLAS thread, as conv2d does, so its bits do not depend
    on the caller's count; larger ones run at the caller's count."""

    @pytest.mark.parametrize("shape,pinned", [
        (CNN_FC0_SHAPE, 3), (MLP_LAYER_SHAPES[0], 0), (MLP_LAYER_SHAPES[1], 0),
        (MLP_LAYER_SHAPES[2], 3)], ids=["cnn-fc0", "mlp-fc0", "mlp-fc1", "mlp-fc2"])
    def test_only_small_ops_run_at_one_thread(self, monkeypatch, shape, pinned):
        calls = []

        def counted(a, b):
            calls.append((a.shape, b.shape))
            return a @ b

        monkeypatch.setattr(tensor, "_one_thread_matmul", counted)
        n, k, m = shape
        x = Tensor(np.ones((n, k)), requires_grad=True)
        w = Tensor(np.ones((k, m)), requires_grad=True)
        with Tape() as tape:
            tape.backward(sum_all(matmul(x, w)))
        assert len(calls) == pinned

    @pytest.mark.parametrize("n", [48, 64, 128])
    def test_bits_do_not_depend_on_the_callers_count(self, openblas, n):
        get, set_ = openblas
        _, k, m = CNN_FC0_SHAPE
        assert n * k * m < _ONE_THREAD_MADDS
        rng = np.random.default_rng(n)
        x_data = rng.standard_normal((n, k)).astype(np.float32)
        w_data = rng.standard_normal((k, m)).astype(np.float32)
        b_data = rng.standard_normal(m).astype(np.float32)
        g = rng.standard_normal((n, m)).astype(np.float32)

        def run(threads):
            set_(threads)
            x, w, b = (Tensor(a, requires_grad=True) for a in (x_data, w_data, b_data))
            with Tape() as tape:
                out = matmul(x, w, bias=b, relu=True)
                assert get() == threads
            (_, dx), (_, dw), (_, db) = tape._records[-1][1](g)
            assert get() == threads
            return [a.tobytes() for a in (out.data, dx, dw, db)]

        assert run(1) == run(2)

    def test_without_openblas_the_products_are_plain(self, monkeypatch):
        # numpy on another BLAS: no thread handle is found, so the one-thread
        # GEMMs are plain ``a @ b`` and set no thread count
        monkeypatch.setattr(tensor, "_openblas", lambda: None)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((48, 784)).astype(np.float32)
        b = rng.standard_normal((784, 10)).astype(np.float32)
        assert _one_thread_matmul(a, b).tobytes() == (a @ b).tobytes()
        x, w = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape() as tape:
            out = matmul(x, w)
            tape.backward(sum_all(out))
        ones = np.ones((48, 10), np.float32)
        assert out.data.tobytes() == (a @ b).tobytes()
        assert x.grad.tobytes() == (ones @ b.T).tobytes()
        assert w.grad.tobytes() == (a.T @ ones).tobytes()


def test_cnn_train_bits_do_not_depend_on_the_thread_count(openblas, tmp_path):
    # batch 128 over 28x28 images: conv2 gives fc0 784 features, the shape at
    # which a two-thread fc0 forward GEMM gives other bytes than one thread
    rng = np.random.default_rng(24)
    count = 512
    images = rng.integers(0, 256, (count, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, count, dtype=np.uint8)
    (tmp_path / "images.idx").write_bytes(struct.pack(">IIII", 0x803, count, 28, 28)
                                          + images.tobytes())
    (tmp_path / "labels.idx").write_bytes(struct.pack(">II", 0x801, count) + labels.tobytes())
    config = tmp_path / "config.txt"
    config.write_text("\n".join([
        "model.arch=cnn", "dataset.kind=idx", f"dataset.images={tmp_path / 'images.idx'}",
        f"dataset.labels={tmp_path / 'labels.idx'}", "train.epochs=2",
        "train.batch_size=128", "train.lr=0.05", "prune.final_sparsity=0.9",
        "prune.backbone=uniform"]) + "\n", encoding="utf-8")
    src = str(Path(featherprune.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        result = subprocess.run(
            [sys.executable, "-m", "featherprune.cli", "train", "--config", str(config),
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**env, "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        artifacts.append([(out / name).read_bytes()
                          for name in ("metrics.csv", "masks.bin", "final.fthr")])
    assert artifacts[0] == artifacts[1]


def pull(out: Tensor, g: np.ndarray) -> Tensor:
    """A scalar whose recorded backward hands a copy of ``g`` to ``out``: a
    record may write into the gradient it is handed, and callers reuse ``g``."""
    return _emit(np.float32(0.0), (out,), lambda _: [(out, g.copy())], "pull")


class TestFusedLayerOp:
    """``matmul`` and ``conv2d`` with ``bias`` and ``relu`` are the separate
    ``add_bias`` and ``relu`` ops composed after them, byte for byte in the
    output and in every gradient, recorded as one op."""

    def compare(self, op, seed, x_shape, w_shape, bias, relu_on, *args):
        rng = np.random.default_rng(seed)
        x_data = rng.standard_normal(x_shape).astype(np.float32)
        w_data = rng.standard_normal(w_shape).astype(np.float32)
        b_data = rng.standard_normal(w_shape[0] if op is conv2d else w_shape[1])
        g, results = None, []
        for fused in (True, False):
            x, w, b = (Tensor(a, requires_grad=True) for a in (x_data, w_data, b_data))
            with Tape() as tape:
                if fused:
                    out = op(x, w, *args, bias=b if bias else None, relu=relu_on)
                else:
                    out = op(x, w, *args)
                    out = add_bias(out, b) if bias else out
                    out = relu(out) if relu_on else out
                records = len(tape._records)
                if g is None:
                    g = rng.standard_normal(out.shape).astype(np.float32)
                tape.backward(pull(out, g))
            grads = [t.grad.tobytes() for t in (x, w, b) if t.grad is not None]
            results.append((records, [out.data.tobytes()] + grads))
        (fused_records, fused), (composed_records, composed) = results
        assert fused_records == 1 and composed_records == 1 + bias + relu_on
        assert len(fused) == 3 + bias
        assert fused == composed

    @given(shape=conv_shapes(), bias=st.booleans(), relu_on=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_conv2d_general_shapes(self, shape, bias, relu_on, seed):
        n, c, h, w, f, kh, kw, stride, padding = shape
        self.compare(conv2d, seed, (n, c, h, w), (f, c, kh, kw), bias, relu_on, stride, padding)

    @pytest.mark.parametrize("relu_on", [True, False])
    @pytest.mark.parametrize("layer", CNN_CONV_SHAPES)
    def test_conv2d_cnn_shapes(self, layer, relu_on):
        c, size, f = layer
        self.compare(conv2d, 0, (128, c, size, size), (f, c, 3, 3), True, relu_on, 2, 1)

    @given(n=st.integers(1, 9), k=st.integers(1, 9), m=st.integers(1, 9),
           bias=st.booleans(), relu_on=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matmul_general_shapes(self, n, k, m, bias, relu_on, seed):
        self.compare(matmul, seed, (n, k), (k, m), bias, relu_on)

    @pytest.mark.parametrize("relu_on", [True, False])
    @pytest.mark.parametrize("layer", MLP_LAYER_SHAPES)
    def test_matmul_mlp_shapes(self, layer, relu_on):
        n, k, m = layer
        self.compare(matmul, 0, (n, k), (k, m), True, relu_on)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    @pytest.mark.parametrize("recorded", [True, False])
    def test_non_finite_bias_raises_before_the_relu(self, value, recorded):
        """A -inf pre-activation would be a finite 0 after the ReLU."""
        bias = Tensor(np.array([0.0, value]), requires_grad=recorded)
        with Tape():
            with pytest.raises(NonFiniteError, match="matmul"):
                matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), bias=bias, relu=True)
            with pytest.raises(NonFiniteError, match="conv2d"):
                conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((2, 1, 3, 3))),
                       bias=bias, relu=True)


TINY = np.nextafter(np.float32(0), np.float32(1))  # the smallest positive subnormal
RELU_EDGES = np.array([0.0, -0.0, TINY, -TINY], dtype=np.float32)


class TestReluEdgeValues:
    """The fused backward takes the ReLU mask from the op's clamped output.
    At the values where the clamp and the ``> 0`` test could part, zeros of
    both signs and the smallest subnormals of both signs, the output and
    every gradient are still bitwise those of ``relu(add_bias(...))``."""

    @staticmethod
    def inputs(op, rng):
        """Inputs whose first output channel is exactly the input (one-term
        products with weight 1, bias -0.0), the edge values among random
        ones; the other channels are random products."""
        n = 3 * len(RELU_EDGES)
        x = rng.standard_normal(n).astype(np.float32)
        x[::3] = RELU_EDGES
        if op is matmul:
            x, w = x.reshape(n, 1), rng.standard_normal((1, 5)).astype(np.float32)
            w[0, 0] = 1.0
        else:
            x, w = x.reshape(2, 1, 2, n // 4), rng.standard_normal((5, 1, 1, 1)).astype(np.float32)
            w[0] = 1.0
        return x, w, np.full(5, -0.0, dtype=np.float32)

    @pytest.mark.parametrize("op", [matmul, conv2d], ids=["matmul", "conv2d"])
    @pytest.mark.parametrize("seed", range(5))
    def test_fused_matches_composed(self, op, seed):
        rng = np.random.default_rng(seed)
        x_data, w_data, b_data = self.inputs(op, rng)
        g, results = None, []
        for fused in (True, False):
            x, w, b = (Tensor(a, requires_grad=True) for a in (x_data, w_data, b_data))
            with Tape() as tape:
                if fused:
                    out = op(x, w, bias=b, relu=True)
                else:
                    pre = add_bias(op(x, w), b)
                    pre_bits = pre.data.view(np.uint32)
                    out = relu_op(pre)
                if g is None:
                    g = rng.standard_normal(out.shape).astype(np.float32)
                tape.backward(pull(out, g))
            results.append([t.tobytes() for t in (out.data, x.grad, w.grad, b.grad)])
        # a GEMM that sums its products from +0.0 turns a -0.0 input into
        # +0.0, so these three are the edge values sure to reach the clamp
        for edge in (0.0, TINY, -TINY):
            assert np.float32(edge).view(np.uint32) in pre_bits
        assert results[0] == results[1]

    def test_clamped_output_masks_like_the_pre_activation(self):
        """-0.0 cannot reach the clamp through a GEMM, so ``_emit`` is fed it
        directly: the op's backward is handed the incoming gradient array
        itself, masked in place with ``pre > 0``, and the output is the
        composed ``relu``'s, bit for bit."""
        pre = np.concatenate([RELU_EDGES, np.float32([1.5, -2.5])])
        x = Tensor(np.zeros_like(pre), requires_grad=True)
        incoming = np.ones_like(pre)
        seen = []

        def backward_fn(g):
            seen.append(g)
            return []

        with Tape() as tape:
            out = _emit(pre.copy(), (x,), backward_fn, "edge", relu=True)
            tape._records[-1][1](incoming)
        assert out.data.tobytes() == relu_op(Tensor(pre)).data.tobytes()
        assert len(seen) == 1 and seen[0] is incoming
        np.testing.assert_array_equal(incoming, pre > 0)


class TestRecordsKeepWhatTheirBackwardReads:
    """A recorded op holds an operand's array only when a gradient that reads
    it is wanted: an input that takes no gradient and that no other gradient
    reads dies with its caller's last reference, while the tape lives on."""

    @pytest.mark.parametrize("dropped", ["conv2d input", "conv2d bias", "matmul bias"])
    def test_unread_input_is_not_held(self, dropped):
        rng = np.random.default_rng(0)
        op = conv2d if dropped.startswith("conv2d") else matmul
        if op is conv2d:
            x_data = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
            w_data = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        else:
            x_data = rng.standard_normal((5, 6)).astype(np.float32)
            w_data = rng.standard_normal((6, 4)).astype(np.float32)
        b_data = rng.standard_normal(4).astype(np.float32)
        x_grad = dropped != "conv2d input"  # the dropped one alone takes no gradient
        grads = []
        for keep in (True, False):
            x = Tensor(x_data.copy(), requires_grad=x_grad)
            w = Tensor(w_data, requires_grad=True)
            b = Tensor(b_data.copy(), requires_grad=not x_grad)
            unread = b if x_grad else x
            held = weakref.ref(unread.data)
            with Tape() as tape:
                loss = sum_all(op(x, w, bias=b, relu=True))
                if not keep:
                    del x, b, unread
                    assert held() is None
                tape.backward(loss)
            grads.append(w.grad.tobytes())
        assert grads[0] == grads[1]

    def test_relu_output_is_dead_while_its_own_backward_runs(self, monkeypatch):
        """A fused ReLU's record lets go of its output before the op's own
        backward runs, and the tape pins neither it nor the flatten record's
        target (the same array) while that backward runs: conv2d's backward
        GEMMs run with the output gone."""
        rng = np.random.default_rng(0)
        x, k, b, w = (Tensor(rng.standard_normal(shape), requires_grad=True)
                      for shape in ((2, 3, 6, 6), (4, 3, 3, 3), 4, (4 * 6 * 6, 5)))
        seen = []

        def probe(a, m):
            seen.append(held() is None)
            return _one_thread_matmul(a, m)

        with Tape() as tape:
            h = conv2d(x, k, padding=1, bias=b, relu=True)
            held = weakref.ref(h.data)
            loss = sum_all(matmul(flatten(h), w))
            del h
            # the matmul record looked up its GEMM in the forward, so only
            # conv2d's backward GEMMs reach the probe
            monkeypatch.setattr(tensor, "_one_thread_matmul", probe)
            tape.backward(loss)
        assert seen == [True, True]

    def test_add_bias_input_is_not_held(self):
        x = Tensor(np.random.default_rng(0).standard_normal((5, 4)))
        b = Tensor(np.zeros(4), requires_grad=True)
        held = weakref.ref(x.data)
        with Tape() as tape:
            loss = sum_all(add_bias(x, b))
            del x
            assert held() is None
            tape.backward(loss)
        np.testing.assert_array_equal(b.grad, np.full(4, 5.0))


class TestGradientsOwnTheirMemory:
    """Only leaves keep a gradient after a backward sweep: every op output's
    ``grad`` stays None. Leaf gradients are installed without a copy where
    possible, yet no two of them may share memory, even through ops that pass
    the incoming gradient on (add_bias) or a view of it (reshape, flatten)."""

    def sweep(self, model, x):
        overrides = {layer.name: Tensor(layer.weight.data, requires_grad=True)
                     for layer in model.layers}
        with Tape() as tape:
            logits = model.forward(Tensor(x), overrides)
            loss = softmax_cross_entropy(logits, np.arange(len(x)) % logits.shape[1])
            outputs = [out for out, _ in tape._records]
            tape.backward(loss)
        leaves = list(overrides.values()) + [layer.bias for layer in model.layers]
        return outputs, leaves

    def assert_leaves_only(self, outputs, leaves):
        assert outputs and all(t.grad is None for t in outputs)
        grads = [t.grad for t in leaves]
        assert all(g is not None for g in grads)
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_mlp(self):
        from featherprune.models import build_mlp
        from featherprune.seeding import init_rng
        model = build_mlp(12, [8, 6], 4, init_rng(0))
        x = np.random.default_rng(0).standard_normal((5, 12)).astype(np.float32)
        self.assert_leaves_only(*self.sweep(model, x))

    def test_cnn(self):
        from featherprune.models import build_cnn
        from featherprune.seeding import init_rng
        model = build_cnn((1, 8, 8), 3, init_rng(0), channels=(2, 3))
        x = np.random.default_rng(0).standard_normal((4, 1, 8, 8)).astype(np.float32)
        self.assert_leaves_only(*self.sweep(model, x))

    def test_pass_through_chain(self):
        x = Tensor(np.ones((2, 2, 2, 1)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        c = Tensor(np.zeros(4), requires_grad=True)
        with Tape() as tape:
            h = add_bias(x, b)
            r = reshape(h, (2, 4))
            loss = sum_all(add_bias(flatten(r), c))
            outputs = [out for out, _ in tape._records]
            tape.backward(loss)
        self.assert_leaves_only(outputs, [x, b, c])
        np.testing.assert_array_equal(x.grad, np.ones((2, 2, 2, 1)))

    def test_leaves_handed_the_same_array_get_disjoint_grads(self):
        """A recorded op that passes one array (and a view of it) to two
        leaves: the first is installed as is, the second is copied."""
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            out = Tensor(np.ones((2, 3)), requires_grad=True)
            tape.record(out, lambda g: [(x, g), (y, g.T)])
            loss = sum_all(out)
            tape.backward(loss)
        assert out.grad is None
        assert not np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(y.grad, np.ones((3, 2)))

    def test_accumulate_grad_copies_by_default(self):
        g = np.ones(3, dtype=np.float32)
        t = Tensor(np.zeros(3), requires_grad=True)
        t.accumulate_grad(g)
        assert t.grad is not g and not np.shares_memory(t.grad, g)
        u = Tensor(np.zeros(3), requires_grad=True)
        u.accumulate_grad(g, copy=False)
        assert u.grad is g


class TestNumericalHygiene:
    def test_overflow_raises_non_finite(self):
        big = Tensor(np.full((2, 2), 1e30, dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            matmul(big, big)

    def test_forward_and_backward_are_bitwise_repeatable(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((16, 10)).astype(np.float32)
        w = rng.standard_normal((10, 4)).astype(np.float32)
        labels = rng.integers(0, 4, size=16)

        def once():
            wt = Tensor(w, requires_grad=True)
            with Tape() as tape:
                loss = softmax_cross_entropy(matmul(Tensor(x), wt), labels)
                tape.backward(loss)
            return loss.data.copy(), wt.grad.copy()

        l1, g1 = once()
        l2, g2 = once()
        assert l1.tobytes() == l2.tobytes()
        assert g1.tobytes() == g2.tobytes()
