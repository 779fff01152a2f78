import threading

import numpy as np
import pytest

from serann.coremath import (
    LstmParams,
    Rng,
    ShapeError,
    Tensor,
    add,
    bilstm,
    conv2d,
    conv2d_transpose,
    dense,
    finite_diff_grad_check,
    gather_rows,
    matmul,
    mse,
    mul,
    neg,
    no_grad,
    relu,
    reshape,
    softmax,
    softmax_cross_entropy,
    stop_gradient,
    straight_through,
    tensor_mean,
    tensor_sum,
    transpose,
)


def leaf(shape, rng, scale=1.0):
    return Tensor(rng.normal(0, scale, shape, np.float64), requires_grad=True)


def scalarize(t):
    w = Tensor(np.linspace(0.5, 1.5, t.size).reshape(t.shape))
    return tensor_sum(mul(t, w))


class TestPrimitiveGradients:
    @pytest.mark.parametrize(
        "op",
        [relu, lambda t: softmax(t, axis=-1)],
        ids=["relu", "softmax"],
    )
    def test_unary_ops(self, op, rng):
        x = leaf((3, 4), rng)
        x.data += 0.05 * np.sign(x.data)  # keep relu probes away from the kink
        err = finite_diff_grad_check(lambda: scalarize(op(x)), [x])
        assert err < 1e-6

    def test_broadcast_add_mul(self, rng):
        a = leaf((2, 3, 4), rng)
        b = leaf((3, 1), rng)
        err = finite_diff_grad_check(lambda: scalarize((a + b) * b), [a, b])
        assert err < 1e-6

    def test_matmul(self, rng):
        a = leaf((3, 4), rng)
        b = leaf((4, 2), rng)
        err = finite_diff_grad_check(lambda: scalarize(matmul(a, b)), [a, b])
        assert err < 1e-6

    def test_reductions(self, rng):
        x = leaf((3, 4), rng)
        err = finite_diff_grad_check(
            lambda: tensor_sum(mul(tensor_mean(x, axis=1), tensor_mean(x, axis=1))), [x]
        )
        assert err < 1e-6

    def test_structure_ops(self, rng):
        x = leaf((2, 3, 4), rng)

        def fn():
            y = transpose(x, (1, 0, 2))
            y = reshape(y, (3, 8))
            return scalarize(y)

        err = finite_diff_grad_check(fn, [x])
        assert err < 1e-6


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(0, 3, (10, 7), np.float64))
        out = softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_shift_invariance(self, rng):
        x = rng.normal(0, 1, (4, 5), np.float64)
        a = softmax(Tensor(x), axis=1).data
        b = softmax(Tensor(x + 1000.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestGradientRouting:
    def test_stop_gradient_blocks(self, rng):
        x = leaf((3,), rng)
        out = tensor_sum(mul(stop_gradient(x), x))
        out.backward()
        # d/dx of const * x is just const, no second term
        np.testing.assert_allclose(x.grad, x.data)

    def test_straight_through_values_and_gradient(self, rng):
        carrier = leaf((2, 3), rng)
        values = rng.normal(0, 1, (2, 3), np.float64)
        st = straight_through(carrier, values)
        np.testing.assert_array_equal(st.data, values)
        out = tensor_sum(mul(st, Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))))
        out.backward()
        assert st.grad is not None
        assert carrier.grad.tobytes() == st.grad.tobytes()

    def test_straight_through_shape_mismatch(self, rng):
        carrier = leaf((2, 3), rng)
        with pytest.raises(ShapeError):
            straight_through(carrier, np.zeros((3, 2)))

    def test_gather_rows_scatter(self):
        table = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3), requires_grad=True)
        idx = np.array([1, 1, 3])
        out = gather_rows(table, idx)
        np.testing.assert_array_equal(out.data, table.data[idx])
        tensor_sum(out).backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_gather_rows_gradcheck(self, rng):
        table = leaf((5, 3), rng)
        idx = np.array([0, 2, 2, 4])
        err = finite_diff_grad_check(lambda: scalarize(gather_rows(table, idx)), [table])
        assert err < 1e-6


class TestTensorBasics:
    def test_backward_requires_scalar(self, rng):
        x = leaf((2, 2), rng)
        with pytest.raises(ShapeError):
            (x + x).backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        out = tensor_sum(x * x + x)
        out.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_int_input_coerced_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_matmul_shape_errors_name_axes(self):
        with pytest.raises(ShapeError, match="inner dimensions"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def every_op(rng):
    """A thunk applying every tape-recording op to leaves that require grad."""
    a, b, bias = leaf((3, 4), rng), leaf((4, 2), rng), leaf((2,), rng)
    img, kern, tkern = leaf((2, 1, 6, 5), rng), leaf((3, 1, 3, 3), rng), leaf((3, 2, 3, 3), rng)
    seq = leaf((2, 3, 4), rng)
    lstm = LstmParams(leaf((4, 8), rng), leaf((2, 8), rng), leaf((8,), rng))
    return lambda: [
        add(a, a), mul(a, a), neg(a), relu(a), tensor_sum(a), tensor_mean(a, axis=0),
        reshape(a, (4, 3)), transpose(a, (1, 0)), matmul(a, b), softmax(a),
        straight_through(a, a.data * 2), gather_rows(a, np.array([2, 0, 2])),
        conv2d(img, kern, padding=1), conv2d_transpose(conv2d(img, kern), tkern, stride=2),
        dense(a, b, bias, "relu"), softmax_cross_entropy(a, np.array([0, 1, 3])), mse(a, neg(a)),
        bilstm(seq, lstm, lstm),
    ]


class TestNoGrad:
    def test_scope_records_no_tape_and_keeps_values(self, rng, taped_tensors):
        ops = every_op(rng)
        with no_grad():
            inside = ops()
        assert taped_tensors == []
        outside = ops()
        assert all(out._parents for out in outside)
        for quiet, taped in zip(inside, outside):
            assert quiet._parents == () and quiet._backprop is None and not quiet.requires_grad
            assert quiet.data.dtype == taped.data.dtype
            assert quiet.data.tobytes() == taped.data.tobytes()

    def test_gradients_flow_after_the_scope_and_after_an_exception(self, rng):
        x = leaf((3,), rng)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside the scope")
        with no_grad():
            with no_grad():
                pass
            assert mul(x, x)._parents == ()
        tensor_sum(mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_scope_is_per_thread(self, rng):
        x = leaf((3,), rng)
        parents = []
        with no_grad():
            worker = threading.Thread(target=lambda: parents.append(mul(x, x)._parents))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(parents) == 1 and len(parents[0]) == 2


class TestRngDeterminism:
    def test_same_seed_same_draws(self):
        a = Rng(42).normal(0, 1, (16,))
        b = Rng(42).normal(0, 1, (16,))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(1).normal(0, 1, (16,))
        b = Rng(2).normal(0, 1, (16,))
        assert not np.array_equal(a, b)

    def test_spawn_is_stable_and_independent(self):
        a = Rng(7).spawn("model").normal(0, 1, (8,))
        b = Rng(7).spawn("model").normal(0, 1, (8,))
        c = Rng(7).spawn("shuffle").normal(0, 1, (8,))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_choice_without_replacement_bounds(self):
        with pytest.raises(ValueError):
            Rng(0).choice_without_replacement(3, 5)
