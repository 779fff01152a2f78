from dataclasses import replace

import numpy as np
import pytest

from conftest import tape_nodes
from serann.classifier import ClassifierConfig, EmotionClassifier
from serann.coremath import (
    Adam,
    AdamState,
    BiLstm,
    EmptySequenceError,
    LstmParams,
    NonFiniteGradientError,
    Rng,
    ShapeError,
    Tensor,
    adam_step,
    bilstm,
    finite_diff_grad_check,
    mul,
    softmax_cross_entropy,
    tensor_sum,
)


def zero_params(d, units, dtype=np.float64):
    return LstmParams(
        wx=Tensor(np.zeros((d, 4 * units), dtype=dtype)),
        wh=Tensor(np.zeros((units, 4 * units), dtype=dtype)),
        b=Tensor(np.zeros(4 * units, dtype=dtype)),
    )


def random_params(d, units, rng, requires_grad=True):
    def t(shape):
        return Tensor(rng.normal(0, 0.4, shape, np.float64), requires_grad=requires_grad)

    return LstmParams(wx=t((d, 4 * units)), wh=t((units, 4 * units)), b=t((4 * units,)))


def reference_bilstm(x, fwd, bwd):
    """Per-timestep bidirectional LSTM in plain numpy over (N, T, D)."""

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    def run(p, steps):
        h = np.zeros((x.shape[0], p.units))
        c = np.zeros_like(h)
        out = np.zeros(x.shape[:2] + (p.units,))
        for s in steps:
            z = x[:, s] @ p.wx.data + h @ p.wh.data + p.b.data
            i, f, g, o = np.split(z, 4, axis=1)
            c = sigmoid(f) * c + sigmoid(i) * np.tanh(g)
            h = sigmoid(o) * np.tanh(c)
            out[:, s] = h
        return out

    t = x.shape[1]
    return np.concatenate([run(fwd, range(t)), run(bwd, reversed(range(t)))], axis=2)


class TestBiLstm:
    def test_zero_weights_zero_output(self, rng):
        x = Tensor(rng.normal(0, 1, (1, 5, 3), np.float64))
        out = bilstm(x, zero_params(3, 4), zero_params(3, 4))
        assert out.shape == (1, 5, 8)
        np.testing.assert_array_equal(out.data, np.zeros((1, 5, 8)))

    def test_single_step_directions_agree(self, rng):
        # With one timestep the backward pass sees the same input as the
        # forward pass, so identical parameters give identical halves.
        params = random_params(3, 4, rng, requires_grad=False)
        x = Tensor(rng.normal(0, 1, (1, 1, 3), np.float64))
        out = bilstm(x, params, params)
        np.testing.assert_allclose(out.data[0, 0, :4], out.data[0, 0, 4:], atol=1e-12)

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequenceError):
            bilstm(Tensor(np.zeros((1, 0, 3))), zero_params(3, 2), zero_params(3, 2))

    def test_unbatched_input_rejected(self):
        with pytest.raises(ShapeError, match="2-d"):
            bilstm(Tensor(np.zeros((4, 3))), zero_params(3, 2), zero_params(3, 2))

    def test_batched_matches_unbatched(self, rng):
        fwd = random_params(2, 3, rng, requires_grad=False)
        bwd = random_params(2, 3, rng, requires_grad=False)
        seqs = rng.normal(0, 1, (2, 4, 2), np.float64)
        batched = bilstm(Tensor(seqs), fwd, bwd)
        for i in range(2):
            single = bilstm(Tensor(seqs[i : i + 1]), fwd, bwd)
            np.testing.assert_allclose(batched.data[i], single.data[0], atol=1e-12)

    def test_matches_per_timestep_reference(self, rng):
        fwd = random_params(5, 4, rng, requires_grad=False)
        bwd = random_params(5, 3, rng, requires_grad=False)
        x = rng.normal(0, 1, (3, 7, 5), np.float64)
        out = bilstm(Tensor(x), fwd, bwd)
        assert out.shape == (3, 7, 7)
        np.testing.assert_allclose(out.data, reference_bilstm(x, fwd, bwd), rtol=0, atol=1e-12)

    def test_gradcheck_t3_d2_u2(self, rng):
        fwd = random_params(2, 2, rng)
        bwd = random_params(2, 2, rng)
        x = Tensor(rng.normal(0, 1, (1, 3, 2), np.float64), requires_grad=True)
        wrt = [x, fwd.wx, fwd.wh, fwd.b, bwd.wx, bwd.wh, bwd.b]

        def fn():
            out = bilstm(x, fwd, bwd)
            return tensor_sum(mul(out, out))

        assert finite_diff_grad_check(fn, wrt) < 1e-4

    def test_gradcheck_batched_n2_t6(self, rng):
        fwd = random_params(3, 2, rng)
        bwd = random_params(3, 2, rng)
        x = Tensor(rng.normal(0, 1, (2, 6, 3), np.float64), requires_grad=True)
        weights = Tensor(np.linspace(0.5, 1.5, 2 * 6 * 4).reshape(2, 6, 4))

        def fn():
            return tensor_sum(mul(bilstm(x, fwd, bwd), weights))

        assert finite_diff_grad_check(fn, [x, fwd.wx, fwd.wh, fwd.b, bwd.wx, bwd.wh, bwd.b]) < 1e-4

    def test_gradcheck_shared_parameters(self, rng):
        # Both directions reading one LstmParams must sum their gradients.
        params = random_params(2, 3, rng)
        x = Tensor(rng.normal(0, 1, (2, 4, 2), np.float64), requires_grad=True)

        def fn():
            out = bilstm(x, params, params)
            return tensor_sum(mul(out, out))

        assert finite_diff_grad_check(fn, [x, params.wx, params.wh, params.b]) < 1e-4

    def test_tape_size_independent_of_sequence_length(self):
        sizes = []
        for frames in (64, 256):
            config = replace(ClassifierConfig.desk(), input_frames=frames)
            model = EmotionClassifier(config, Rng(3))
            mels = Rng(4).normal(0, 1, (2, 1, config.input_bands, frames))
            sizes.append(tape_nodes(softmax_cross_entropy(model.forward(Tensor(mels)), np.array([0, 1]))))
        assert sizes[0] == sizes[1]

    def test_layer_initialization_deterministic(self):
        a = BiLstm(4, 3, Rng(5))
        b = BiLstm(4, 3, Rng(5))
        np.testing.assert_array_equal(a.forward.wx.data, b.forward.wx.data)
        assert not np.array_equal(a.forward.wx.data, a.backward.wx.data)


class TestAdam:
    def test_zero_gradient_leaves_params_and_increments_t(self):
        state = AdamState(learning_rate=0.1)
        params = {"w": np.array([1.0, -2.0], dtype=np.float32)}
        grads = {"w": np.zeros(2, dtype=np.float32)}
        updated = adam_step(params, grads, state)
        np.testing.assert_array_equal(updated["w"], params["w"])
        assert state.t == 1

    def test_first_step_magnitude_is_learning_rate(self):
        # Bias correction makes m-hat = g and v-hat = g^2 at t=1, so the
        # update is lr * g / (|g| + eps) ~= lr.
        state = AdamState(learning_rate=0.1)
        updated = adam_step({"w": np.array([1.0])}, {"w": np.array([1.0])}, state)
        np.testing.assert_allclose(updated["w"], [0.9], atol=1e-7)

    def test_quadratic_descent(self):
        # 100 steps on f(w) = w^2 from w=1 with lr=0.1 ends near the optimum.
        state = AdamState(learning_rate=0.1)
        w = np.array([1.0])
        for _ in range(100):
            w = adam_step({"w": w}, {"w": 2.0 * w}, state)["w"]
        assert abs(float(w[0])) < 0.1
        assert state.t == 100

    def test_non_finite_gradient_aborts_with_name(self):
        state = AdamState(learning_rate=0.1)
        with pytest.raises(NonFiniteGradientError, match="'w'"):
            adam_step({"w": np.array([1.0])}, {"w": np.array([np.nan])}, state)

    def test_bound_optimizer_rebinds_data(self):
        t = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = Adam({"w": t}, learning_rate=0.1)
        t.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(t.data, [0.9], atol=1e-6)
        opt.zero_grad()
        assert t.grad is None

    def test_moment_shapes_mirror_params(self):
        state = AdamState(learning_rate=0.01)
        params = {"a": np.zeros((2, 3)), "b": np.zeros(5)}
        grads = {"a": np.ones((2, 3)), "b": np.ones(5)}
        adam_step(params, grads, state)
        assert state.m["a"].shape == (2, 3)
        assert state.v["b"].shape == (5,)
