import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import reference_adam_step, tape_nodes
from serann import classifier
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
from serann.vqvae import VqVae, VqVaeConfig


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_non_finite_entry_is_caught_and_counted(self, dtype, bad):
        rng = np.random.default_rng(1)
        for shape in [(1,), (7,), (257,), (3, 5, 7)]:
            g = rng.standard_normal(shape).astype(dtype)
            g.flat[0] = g.flat[-1] = bad
            count = 1 if g.size == 1 else 2
            with pytest.raises(NonFiniteGradientError, match=f"'w' has {count} non-finite entries at step 1"):
                adam_step({"w": np.zeros(shape, dtype)}, {"w": g}, AdamState(learning_rate=0.1))
        finite = np.array([np.finfo(dtype).max, np.finfo(dtype).min, 0.0], dtype)
        with np.errstate(over="ignore"):  # the kernel squares the largest finite values
            for g in (finite, np.zeros(0, dtype)):
                adam_step({"w": np.zeros(g.shape, dtype)}, {"w": g}, AdamState(learning_rate=0.1))

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


def oracle_params(dtype):
    """Start values for the Adam oracle runs, with -0.0 entries; ``frozen``
    never gets a gradient."""
    rng = np.random.default_rng(0)
    params = {
        "w": rng.standard_normal((6, 5)),
        "codes": rng.standard_normal((16, 3)),
        "k": rng.standard_normal((4, 2, 3)),
        "b": rng.standard_normal(5),
        "frozen": rng.standard_normal((3, 4)),
    }
    params["w"][1, 0] = params["w"][2] = params["b"][0] = params["frozen"][0, 0] = -0.0
    params["codes"][5] = -0.0
    return {name: p.astype(dtype) for name, p in params.items()}


def oracle_grads(step, dtype):
    """Gradients for ``step`` (from 1). Rows 1 and 2 of ``w`` never move (2
    gets -0.0), row 3 first moves at step 3 and row 4 at step 5, which takes
    ``w`` off the row path; ``codes`` moves two rows a step like a codebook."""
    rng = np.random.default_rng(100 + step)
    w = rng.standard_normal((6, 5))
    w[1] = 0.0
    w[2] = -0.0
    if step < 3:
        w[3] = 0.0
    if step < 5:
        w[4] = -0.0
    codes = np.zeros((16, 3))
    codes[rng.choice(16, 2, replace=False)] = rng.standard_normal((2, 3))
    codes[5] = -0.0
    k = rng.standard_normal((4, 2, 3))
    k[0] = 0.0
    b = rng.standard_normal(5)
    b[1] = -0.0
    grads = {"w": w, "codes": codes, "k": k, "b": b}
    return {name: g.astype(dtype) for name, g in grads.items()}


def learning_rate(step, base):
    return base if step <= 3 else base * 0.3


def assert_same_bits(actual, expected):
    assert actual.keys() == expected.keys()
    for name in expected:
        assert actual[name].dtype == expected[name].dtype, name
        assert actual[name].tobytes() == expected[name].tobytes(), name


class TestAdamOracle:
    """``Adam.step`` and ``adam_step`` give the bits of the whole-array
    update that ``reference_adam_step`` keeps."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("base, epsilon", [(1e-2, 1e-8), (-1e-2, 1e-8), (1e-2, 0.0)],
                             ids=["default", "negative-lr", "zero-epsilon"])
    def test_bound_and_functional_match_reference(self, dtype, base, epsilon):
        # The last two cases move a never-touched row (p = -0.0 turns +0.0,
        # or 0/0 gives NaN), so skipping rows must not apply there.
        start = oracle_params(dtype)
        tensors = {name: Tensor(p.copy(), requires_grad=True) for name, p in start.items()}
        adam = Adam(tensors, base, epsilon=epsilon)
        functional, reference = dict(start), dict(start)
        f_state, r_state = AdamState(base, epsilon=epsilon), AdamState(base, epsilon=epsilon)
        for step in range(1, 8):
            grads = oracle_grads(step, dtype)
            for state in (adam.state, f_state, r_state):
                state.learning_rate = learning_rate(step, base)
            for name, t in tensors.items():
                t.grad = grads.get(name)
            adam.step()
            functional = adam_step(functional, grads, f_state)
            reference = reference_adam_step(reference, grads, r_state)
            assert_same_bits({name: t.data for name, t in tensors.items()}, reference)
            assert_same_bits(functional, reference)
            for state in (adam.state, f_state):
                assert state.t == r_state.t
                assert_same_bits(state.m, r_state.m)
                assert_same_bits(state.v, r_state.v)

    def test_untouched_rows_are_skipped(self):
        tensors = {name: Tensor(p, requires_grad=True) for name, p in oracle_params(np.float32).items()}
        adam = Adam(tensors, 1e-2)
        for step in range(1, 6):
            for name, t in tensors.items():
                t.grad = oracle_grads(step, np.float32).get(name)
            adam.step()
            if step == 4:
                # Rows 0, 3 and 5 moved: below the break-even of the row path.
                assert np.flatnonzero(adam._live["w"]).tolist() == [0, 3, 5]
        # Row 4 moves at step 5: the dense kernel is cheaper from then on.
        assert "w" not in adam._live and "k" not in adam._live
        assert "codes" in adam._live and "frozen" in adam._live

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fresh_optimizer_after_restore_matches_reference(self, dtype):
        # The plateau schedule restores the best snapshot and builds a new
        # Adam at the decayed rate, whose moments start from zero again.
        tensors = {name: Tensor(p, requires_grad=True) for name, p in oracle_params(dtype).items()}
        model = SimpleNamespace(params=lambda: tensors)
        reference, r_state = oracle_params(dtype), AdamState(1e-2)
        adam = Adam(model.params(), 1e-2)
        snapshot = r_snapshot = None
        for step in range(1, 8):
            if step == 3:
                snapshot, r_snapshot = classifier._snapshot(model), dict(reference)
            if step == 5:
                classifier._restore(model, snapshot)
                reference = {name: p.copy() for name, p in r_snapshot.items()}
                adam, r_state = Adam(model.params(), 5e-3), AdamState(5e-3)
            grads = oracle_grads(step, dtype)
            for name, t in tensors.items():
                t.grad = grads.get(name)
            adam.step()
            reference = reference_adam_step(reference, grads, r_state)
            assert_same_bits({name: t.data for name, t in tensors.items()}, reference)

    def test_functional_step_leaves_its_inputs(self):
        params = oracle_params(np.float64)
        state = AdamState(1e-2)
        adam_step(params, oracle_grads(1, np.float64), state)
        grads = oracle_grads(2, np.float64)
        before = [{n: a.copy() for n, a in d.items()} for d in (params, grads, state.m, state.v)]
        old_m, old_v = dict(state.m), dict(state.v)
        updated = adam_step(params, grads, state)
        for now, then in zip((params, grads, old_m, old_v), before):
            assert_same_bits(now, then)
        for name, p in updated.items():
            assert not np.shares_memory(p, params[name])
            assert state.m[name] is not old_m[name] and state.v[name] is not old_v[name]

    def test_same_tensor_twice_rejected(self):
        t = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError, match="'a' and 'b'"):
            Adam({"a": t, "b": t, "c": Tensor(np.zeros(2), requires_grad=True)}, 0.1)

    def test_read_only_data_rejected(self):
        data = np.zeros(2)
        data.flags.writeable = False
        with pytest.raises(ValueError, match="'w'"):
            Adam({"w": Tensor(data), "ok": Tensor(np.zeros(2))}, 0.1)

    def test_second_paper_size_step_allocates_less_than_one_codebook(self):
        params = VqVae(VqVaeConfig(), Rng(0)).params()
        rng = np.random.default_rng(0)
        for name, t in params.items():
            t.grad = rng.standard_normal(t.shape, dtype=np.float32)
        codebook = params["codebook"]
        picked = rng.choice(len(codebook.data), 128, replace=False)
        codebook.grad = np.zeros_like(codebook.data)
        codebook.grad[picked] = rng.standard_normal((128, codebook.shape[1]), dtype=np.float32)
        adam = Adam(params, 1e-3)
        adam.step()
        tracemalloc.start()
        try:
            adam.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < codebook.data.nbytes, f"peak {peak} bytes"

    def test_second_dense_paper_size_step_peaks_below_one_megabyte(self):
        # Every row has a gradient, so the step runs the dense kernel on
        # buffers the first step made; checking the gradients is allocation
        # free as well.
        params = VqVae(VqVaeConfig(), Rng(0)).params()
        rng = np.random.default_rng(0)
        for t in params.values():
            t.grad = rng.standard_normal(t.shape, dtype=np.float32)
        adam = Adam(params, 1e-3)
        adam.step()
        tracemalloc.start()
        try:
            adam.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak} bytes"
