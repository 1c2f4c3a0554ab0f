"""STE block: thresholded forward, scaled straight-through backward, theta rule.

Power-law expected values frozen from a 30-digit mpmath evaluation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from featherprune.feather import (
    AUTO_STEP,
    FIXED,
    SPAN,
    GradScalePolicy,
    PruneLayerState,
    _scale_pruned_in_place,
    feather_backward,
    feather_forward,
    select_theta,
)
from featherprune.models import build_cnn, build_mlp
from featherprune.seeding import init_rng
from featherprune.tensor import Tape, Tensor, softmax_cross_entropy
from featherprune.thresholding import ThresholdOperator, select_threshold
from oracles import sum_all, two_phase_ste_step


def make_state(weights, op=None, theta=1.0, threshold=None):
    return PruneLayerState(
        name="fc0",
        kind="fc",
        weights=Tensor(np.asarray(weights, dtype=np.float32), requires_grad=True),
        op=op or ThresholdOperator.power(3.0),
        theta=theta,
        threshold=threshold,
    )


class TestSelectTheta:
    def test_auto_step_below_cutoff(self):
        assert select_theta(GradScalePolicy(), 0.90) == 1.0

    def test_auto_step_above_cutoff(self):
        assert select_theta(GradScalePolicy(), 0.98) == 0.5

    def test_auto_step_exactly_at_cutoff_uses_low(self):
        assert select_theta(GradScalePolicy(), 0.95) == 0.5

    def test_fixed_ignores_sparsity(self):
        policy = GradScalePolicy(mode=FIXED, theta=0.25)
        for s in (0.0, 0.5, 0.99):
            assert select_theta(policy, s) == 0.25

    def test_sparsity_range_checked(self):
        with pytest.raises(ValueError, match="final sparsity"):
            select_theta(GradScalePolicy(), 1.5)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="unknown grad-scale mode"):
            GradScalePolicy(mode="annealed")


class TestPruneLayerState:
    def test_theta_range(self):
        with pytest.raises(ValueError, match="theta"):
            make_state([1.0], theta=1.5)

    def test_kind_checked(self):
        with pytest.raises(ValueError, match="layer kind"):
            PruneLayerState("x", "pool", Tensor([1.0]), ThresholdOperator.soft())


class TestFeatherForward:
    def test_requires_assigned_threshold(self):
        state = make_state([0.5])
        with pytest.raises(ValueError, match="no threshold"):
            feather_forward(state)

    def test_zero_threshold_is_identity_bitwise(self):
        w = np.float32([0.5, -0.25, 1e-20])
        state = make_state(w, threshold=0.0)
        out = feather_forward(state)
        assert out.data.tobytes() == w.tobytes()
        assert state.mask.all()

    def test_threshold_above_max_kills_everything(self):
        state = make_state([0.5, -0.3], threshold=0.6)
        out = feather_forward(state)
        assert (out.data == 0.0).all()
        assert not state.mask.any()

    def test_power3_elementwise_example(self):
        state = make_state([0.5, -0.15, 0.3], threshold=0.2)
        out = feather_forward(state)
        np.testing.assert_allclose(
            out.data, [0.489097324650875, 0.0, 0.266840164872194], rtol=1e-6
        )
        np.testing.assert_array_equal(state.mask, [True, False, True])

    def test_dense_weights_untouched(self):
        w = np.float32([0.5, -0.15, 0.3])
        state = make_state(w.copy(), threshold=0.2)
        feather_forward(state)
        assert state.weights.data.tobytes() == w.tobytes()

    def test_mask_recomputed_each_forward(self):
        state = make_state([0.5, 0.1], threshold=0.2)
        feather_forward(state)
        np.testing.assert_array_equal(state.mask, [True, False])
        state.weights.data[1] = 0.9
        feather_forward(state)
        np.testing.assert_array_equal(state.mask, [True, True])


class TestFeatherBackward:
    def test_requires_mask(self):
        state = make_state([0.5], threshold=0.2)
        with pytest.raises(ValueError, match="no mask"):
            feather_backward(state, np.float32([1.0]))

    def test_theta_one_is_exact_identity(self):
        state = make_state([0.5, 0.1, -0.4], theta=1.0, threshold=0.2)
        feather_forward(state)
        g = np.float32([0.3, -0.7, 0.9])
        out = feather_backward(state, g)
        assert out.tobytes() == g.tobytes()

    def test_theta_zero_zeroes_pruned_positions(self):
        state = make_state([0.5, 0.1, -0.4], theta=0.0, threshold=0.2)
        feather_forward(state)
        out = feather_backward(state, np.float32([0.3, -0.7, 0.9]))
        np.testing.assert_array_equal(out, np.float32([0.3, 0.0, 0.9]))

    def test_half_theta_example(self):
        state = make_state([0.5, 0.1], theta=0.5, threshold=0.2)
        feather_forward(state)
        out = feather_backward(state, np.float32([0.2, 0.4]))
        np.testing.assert_array_equal(out, np.float32([0.2, 0.2]))

    def test_installs_gradient_on_dense_weights(self):
        state = make_state([0.5, 0.1], theta=0.5, threshold=0.2)
        feather_forward(state)
        out = feather_backward(state, np.float32([0.2, 0.4]))
        assert state.weights.grad is out

    def test_shape_mismatch(self):
        state = make_state([0.5, 0.1], threshold=0.2)
        feather_forward(state)
        with pytest.raises(ValueError, match="does not match mask"):
            feather_backward(state, np.float32([0.2, 0.4, 0.6]))

    @pytest.mark.parametrize("theta", [0.0, 1e-8, 0.3, 0.5, 0.75, 1.0])
    def test_bytes_match_where_scale(self, theta):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((37, 29)).astype(np.float32)
        grad = rng.standard_normal(w.shape).astype(np.float32)
        grad.ravel()[:6] = [0.0, -0.0, 1e-45, -1e-45, 3e38, -3e38]
        state = make_state(w, theta=theta, threshold=0.6)
        feather_forward(state)
        want = grad * np.where(state.mask, np.float32(1.0), np.float32(theta))
        out = feather_backward(state, grad)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

    @given(
        grad=hnp.arrays(np.float32, st.integers(1, 32),
                        elements=st.floats(-10, 10, allow_nan=False, width=32)),
        theta=st.floats(0, 1),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaling_touches_only_pruned_coordinates(self, grad, theta, data):
        mask = data.draw(hnp.arrays(np.bool_, grad.shape))
        state = make_state(np.where(mask, 1.0, 0.0), theta=theta, threshold=0.5)
        feather_forward(state)
        np.testing.assert_array_equal(state.mask, mask)
        out = feather_backward(state, grad)
        assert out[mask].tobytes() == grad[mask].tobytes()
        np.testing.assert_array_equal(
            out[~mask], grad[~mask] * np.float32(theta)
        )


class TestScalePruned:
    """``feather_backward`` installs the bytes of ``grad * max(mask, theta)``
    and leaves ``grad`` as it was: below theta 1 the product is written into a
    copy of its own."""

    @given(
        grad=hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
                        elements=st.floats(allow_nan=False, allow_infinity=False, width=32)),
        theta=st.floats(0, 1),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_bytes_and_grad_untouched(self, grad, theta, data):
        mask = data.draw(hnp.arrays(np.bool_, grad.shape))
        state = make_state(np.where(mask, 1.0, 0.0), theta=theta, threshold=0.5)
        feather_forward(state)
        before = grad.copy()
        out = feather_backward(state, grad)
        want = grad * np.maximum(mask.astype(np.float32), np.float32(theta))
        assert out.dtype == np.float32 and out.tobytes() == want.tobytes()
        assert grad.tobytes() == before.tobytes()
        if theta != 1.0:
            assert not np.shares_memory(out, grad)

    def test_kept_gradient_is_unscaled(self):
        # sum_all hands every sparse weight the gradient 1; the kept copy must
        # not pick up the theta the dense weights get off the mask
        state = make_state([0.5, 0.1, -0.4], theta=0.25, threshold=0.2)
        with Tape() as tape:
            sparse = feather_forward(state)
            tape.backward(sum_all(sparse))
        assert sparse.grad.tobytes() == np.float32([1.0, 1.0, 1.0]).tobytes()
        assert state.weights.grad.tobytes() == np.float32([1.0, 0.25, 1.0]).tobytes()


class TestScalePrunedInPlace:
    """``_scale_pruned_in_place`` writes the bytes of ``grad * max(mask, theta)``
    into the gradient's own memory, a span at a time: at span edges, past them,
    and over several spans and a remainder. A gradient that is not C-contiguous
    gets the same bytes in a copy."""

    @given(
        shape=st.one_of(
            st.sampled_from([(1,), (SPAN - 1,), (SPAN,), (SPAN + 1,), (3 * SPAN + 5,),
                             (784, 300), (16, 8, 3, 3)]),
            st.integers(1, 4 * SPAN).map(lambda n: (n,))),
        transposed=st.booleans(),
        theta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)),
        density=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_whole_array_scale(self, shape, transposed, theta, density, seed):
        rng = np.random.default_rng(seed)
        grad = rng.standard_normal(shape).astype(np.float32)
        mask = rng.random(shape) < density
        if transposed:  # an F-ordered gradient, as g.T of a GEMM result would be
            grad, mask = grad.T, mask.T
        want = grad * np.maximum(mask.astype(np.float32), np.float32(theta))
        out = _scale_pruned_in_place(grad, mask, theta)
        assert out.shape == grad.shape and out.tobytes() == want.tobytes()
        assert (out is grad) == (grad.flags.c_contiguous or theta == 1.0)


class TestRecordedOp:
    """``feather_forward`` under a tape against the manual two-phase step."""

    @staticmethod
    def build(arch):
        if arch == "mlp":
            return build_mlp(20, [16, 12], 4, init_rng(3))
        return build_cnn((2, 9, 9), 4, init_rng(3), (3, 5))

    @pytest.mark.parametrize("arch", ["mlp", "cnn"])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_bytes_match_two_phase_step(self, arch, theta):
        manual, recorded = self.build(arch), self.build(arch)
        x = init_rng(4).standard_normal((8,) + manual.input_shape).astype(np.float32)
        labels = np.arange(8) % 4
        op = ThresholdOperator.power(3.0)
        thresholds = {
            layer.name: select_threshold(np.abs(layer.weight.data).ravel(), 0.6)
            for layer in manual.layers
        }
        if arch == "cnn":
            thresholds["conv1"] = 0.0  # the first conv exempt, as the uniform backbone does
        want = two_phase_ste_step(manual, thresholds, op, theta, x, labels)

        states = [PruneLayerState(layer.name, layer.kind, layer.weight, op, theta=theta,
                                  threshold=thresholds[layer.name])
                  for layer in recorded.layers]
        with Tape() as tape:
            overrides = {state.name: feather_forward(state) for state in states}
            loss = softmax_cross_entropy(recorded.forward(Tensor(x), overrides), labels)
            tape.backward(loss)

        assert all(not s.mask.all() for s in states if s.threshold > 0)
        assert loss.data.tobytes() == want.data.tobytes()
        for p_want, p_got in zip(manual.parameters(), recorded.parameters()):
            assert p_got.grad.dtype == p_want.grad.dtype == np.float32
            assert p_got.grad.tobytes() == p_want.grad.tobytes()
        # the thresholded weights keep their own gradient, equal to the dense
        # weights' where the mask is set, in memory of their own
        for layer, state in zip(recorded.layers, states):
            kept, dense = overrides[layer.name].grad, layer.weight.grad
            assert kept is not None and not np.shares_memory(kept, dense)
            assert kept[state.mask].tobytes() == dense[state.mask].tobytes()

    @pytest.mark.parametrize("arch", ["mlp", "cnn"])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_unkept_gradient_gives_the_kept_bytes(self, arch, theta):
        # without keep_grad the incoming gradient is scaled where it lies
        def step(keep_grad):
            model = self.build(arch)
            x = init_rng(4).standard_normal((8,) + model.input_shape).astype(np.float32)
            states = [PruneLayerState(layer.name, layer.kind, layer.weight,
                                      ThresholdOperator.power(3.0), theta=theta,
                                      threshold=select_threshold(
                                          np.abs(layer.weight.data).ravel(), 0.6))
                      for layer in model.layers]
            with Tape() as tape:
                overrides = {s.name: feather_forward(s, keep_grad=keep_grad) for s in states}
                tape.backward(softmax_cross_entropy(model.forward(Tensor(x), overrides),
                                                    np.arange(8) % 4))
            assert all((t.grad is not None) == keep_grad for t in overrides.values())
            return [p.grad.tobytes() for p in model.parameters()]

        assert step(keep_grad=False) == step(keep_grad=True)

    def test_without_tape_returns_constant(self):
        state = make_state([0.5, 0.1], threshold=0.2)
        out = feather_forward(state)
        assert Tape.current() is None and out.requires_grad is False

    def test_weights_without_grad_record_nothing(self):
        state = make_state([0.5, 0.1], threshold=0.2)
        state.weights.requires_grad = False
        with Tape() as tape:
            out = feather_forward(state)
        assert out.requires_grad is False and tape._records == []

    def test_backward_uses_its_forward_mask(self):
        state = make_state([0.5, 0.1, -0.4], theta=0.5, threshold=0.2)
        with Tape() as tape:
            loss = sum_all(feather_forward(state))
            state.mask = np.ones(3, dtype=bool)
            tape.backward(loss)
        assert state.weights.grad.tobytes() == np.float32([1.0, 0.5, 1.0]).tobytes()
