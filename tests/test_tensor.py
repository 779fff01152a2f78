import threading

import numpy as np
import pytest

from conftest import reference_add, reference_mul, reference_neg
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
    mse,
    no_grad,
    reshape,
    softmax_cross_entropy,
    tensor_sum,
    transpose,
)
from serann.classifier import attention_pool
from serann.vqvae import codebook_losses, quantize


def leaf(shape, rng, scale=1.0):
    return Tensor(rng.normal(0, scale, shape, np.float64), requires_grad=True)


def scalarize(t):
    w = Tensor(np.linspace(0.5, 1.5, t.size).reshape(t.shape))
    return tensor_sum(reference_mul(t, w))


class TestPrimitiveGradients:
    def test_broadcast_add_mul(self, rng):
        a = leaf((2, 3, 4), rng)
        b = leaf((3, 1), rng)
        err = finite_diff_grad_check(lambda: scalarize(reference_mul(reference_add(a, b), b)), [a, b])
        assert err < 1e-6

    def test_reductions(self, rng):
        x = leaf((3, 4), rng)
        err = finite_diff_grad_check(lambda: tensor_sum(reference_mul(x, x)), [x])
        assert err < 1e-6

    def test_structure_ops(self, rng):
        x = leaf((2, 3, 4), rng)

        def fn():
            y = transpose(x, (1, 0, 2))
            y = reshape(y, (3, 8))
            return scalarize(y)

        err = finite_diff_grad_check(fn, [x])
        assert err < 1e-6


class TestTensorBasics:
    def test_backward_requires_scalar(self, rng):
        x = leaf((2, 2), rng)
        with pytest.raises(ShapeError):
            (x + x).backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        out = tensor_sum(reference_add(reference_mul(x, x), x))
        out.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    @pytest.mark.parametrize("other", [(3, 1), (1, 2, 2), 1.0], ids=["broadcast", "rank", "number"])
    def test_add_takes_two_tensors_of_one_shape(self, rng, other):
        x = leaf((2, 2), rng)
        other = leaf(other, rng) if isinstance(other, tuple) else other
        with pytest.raises(ShapeError, match="one shape"):
            add(x, other)
        with pytest.raises(ShapeError, match="one shape"):
            x + other

    def test_int_input_coerced_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32


def every_op(rng):
    """A thunk applying every tape-recording op to leaves that require grad."""
    a, b, bias, w = leaf((3, 4), rng), leaf((4, 2), rng), leaf((2,), rng), leaf((4,), rng)
    img, kern, tkern = leaf((2, 1, 6, 5), rng), leaf((3, 1, 3, 3), rng), leaf((3, 2, 3, 3), rng)
    seq = leaf((2, 3, 4), rng)
    lstm = LstmParams(leaf((4, 8), rng), leaf((2, 8), rng), leaf((8,), rng))
    conv_bias = leaf((3,), rng)
    grid = leaf((2, 4, 1, 3), rng)
    return lambda: [
        add(a, a), reference_mul(a, a), reference_neg(a), tensor_sum(a), reshape(a, (4, 3)),
        transpose(a, (1, 0)),
        attention_pool(seq, w),
        quantize(grid, a)[0], *codebook_losses(grid, a, np.array([2, 0, 2, 1, 0, 2]), 0.25),
        conv2d(img, kern, padding=1), conv2d_transpose(conv2d(img, kern), tkern, stride=2),
        conv2d(img, kern, 1, 1, conv_bias, "relu"),
        conv2d_transpose(conv2d(img, kern), tkern, 2, 0, 1, bias, "relu"),
        dense(a, b, bias, "relu"), softmax_cross_entropy(a, np.array([0, 1, 3])), mse(a, reference_neg(a)),
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
            assert reference_mul(x, x)._parents == ()
        tensor_sum(reference_mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_scope_is_per_thread(self, rng):
        x = leaf((3,), rng)
        parents = []
        with no_grad():
            worker = threading.Thread(target=lambda: parents.append(reference_mul(x, x)._parents))
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
