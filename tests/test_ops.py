import functools
import tracemalloc

import numpy as np
import pytest

from conftest import (
    reference_conv2d,
    reference_conv2d_transpose,
    reference_dense,
    reference_mse,
    reference_mul,
)
from serann.coremath import (
    Conv2d,
    ConvTranspose2d,
    Rng,
    ShapeError,
    Tensor,
    conv2d,
    conv2d_transpose,
    dense,
    finite_diff_grad_check,
    mse,
    no_grad,
    ops,
    softmax_cross_entropy,
    tensor_sum,
)


def leaf(shape, rng, scale=1.0):
    return Tensor(rng.normal(0, scale, shape, np.float64), requires_grad=True)


def scalarize(t):
    w = Tensor(np.linspace(0.5, 1.5, t.size).reshape(t.shape))
    return tensor_sum(reference_mul(t, w))


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3))
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, k, stride=(1, 1), padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_ones_4x4_stride2(self):
        # Each 2x2 window of ones sums to 4.
        x = Tensor(np.ones((1, 1, 4, 4)))
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = conv2d(x, k, stride=(2, 2), padding=0)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_80x256_kernel3_stride2_pad1(self):
        x = Tensor(np.zeros((1, 1, 80, 256)))
        k = Tensor(np.zeros((8, 1, 3, 3)))
        out = conv2d(x, k, stride=(2, 2), padding=1)
        assert out.shape == (1, 8, 40, 128)

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(ShapeError, match="channel"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))))

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError, match="exceeds"):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_stride_must_be_positive(self):
        with pytest.raises(ShapeError, match="stride"):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))), stride=(0, 1))

    def test_negative_padding_rejected(self):
        with pytest.raises(ShapeError, match="padding"):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))), padding=((1, -1), (0, 0)))

    def test_asymmetric_padding(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = conv2d(x, k, stride=(1, 1), padding=((1, 0), (0, 1)))
        assert out.shape == (1, 1, 3, 3)

    def test_gradcheck(self, rng):
        x = leaf((2, 2, 5, 6), rng)
        k = leaf((3, 2, 3, 3), rng)
        err = finite_diff_grad_check(
            lambda: scalarize(conv2d(x, k, stride=(2, 2), padding=1)), [x, k]
        )
        assert err < 1e-6

    def test_gradcheck_fused_bias_relu(self):
        rng = Rng(61)
        x, k, b = leaf((2, 2, 5, 6), rng), leaf((3, 2, 3, 3), rng), leaf((3,), rng)
        err = finite_diff_grad_check(
            lambda: scalarize(conv2d(x, k, (2, 1), ((1, 0), (2, 1)), bias=b, activation="relu")),
            [x, k, b],
        )
        assert err < 1e-4

    def test_bias_shape_and_activation_checked(self):
        x, k = Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 2, 2)))
        with pytest.raises(ShapeError, match="bias"):
            conv2d(x, k, bias=Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match="activation"):
            conv2d(x, k, activation="tanh")


class TestConvTranspose:
    def test_shape_inverts_paired_conv(self, rng):
        # 80x256 -> conv(k3, s2, p1) -> 40x128 -> transpose -> 80x256
        x = Tensor(rng.normal(0, 1, (1, 4, 40, 128), np.float64))
        k = Tensor(rng.normal(0, 1, (4, 1, 3, 3), np.float64))
        out = conv2d_transpose(x, k, stride=(2, 2), padding=1, output_padding=(1, 1))
        assert out.shape == (1, 1, 80, 256)

    def test_stride1_identity_kernel(self):
        x = Tensor(np.arange(12, dtype=np.float64).reshape(1, 1, 3, 4))
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d_transpose(x, k, stride=(1, 1), padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_adjoint_of_conv(self, rng):
        # <conv(x), y> == <x, conv_transpose(y)> for matched configs.
        x = rng.normal(0, 1, (1, 2, 6, 8), np.float64)
        k = rng.normal(0, 1, (3, 2, 3, 3), np.float64)
        y = rng.normal(0, 1, (1, 3, 3, 4), np.float64)
        fwd = conv2d(Tensor(x), Tensor(k), stride=(2, 2), padding=1).data
        bwd = conv2d_transpose(Tensor(y), Tensor(k), stride=(2, 2), padding=1, output_padding=(1, 1)).data
        np.testing.assert_allclose((fwd * y).sum(), (bwd * x).sum(), rtol=1e-10)

    def test_output_padding_must_be_under_stride(self):
        with pytest.raises(ShapeError, match="output_padding"):
            conv2d_transpose(
                Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))),
                stride=(2, 2), padding=0, output_padding=(2, 0),
            )

    def test_negative_padding_rejected(self):
        x, k = Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError, match="padding"):
            conv2d_transpose(x, k, padding=-1)
        with pytest.raises(ShapeError, match="output_padding"):
            conv2d_transpose(x, k, stride=2, output_padding=(-1, 0))

    def test_gradcheck(self, rng):
        x = leaf((1, 3, 4, 5), rng)
        k = leaf((3, 2, 3, 3), rng)
        err = finite_diff_grad_check(
            lambda: scalarize(conv2d_transpose(x, k, stride=(2, 1), padding=1, output_padding=(1, 0))),
            [x, k],
        )
        assert err < 1e-4

    def test_gradcheck_fused_bias_relu(self):
        rng = Rng(62)
        x, k, b = leaf((2, 3, 3, 4), rng), leaf((3, 2, 3, 2), rng), leaf((2,), rng)
        err = finite_diff_grad_check(
            lambda: scalarize(
                conv2d_transpose(x, k, (2, 3), ((1, 0), (0, 2)), (1, 2), bias=b, activation="relu")
            ),
            [x, k, b],
        )
        assert err < 1e-4

    @pytest.mark.parametrize("n, d, c", [(2, 4, 2), (3, 8, 4)])
    def test_bits_independent_of_input_layout(self, n, d, c):
        # The quantized grid reaches the decoder as a transposed view of the
        # selected codebook rows; small kernel-gradient GEMMs would sum in
        # an order that depends on that layout.
        gen = np.random.default_rng(37)
        view = gen.normal(size=(n, 1, 64, d)).astype(np.float32).transpose(0, 3, 1, 2)
        kernel = gen.normal(0, 0.5, (d, c, 3, 3)).astype(np.float32)
        weights = gen.normal(size=(n, c, 5, 64)).astype(np.float32)

        def run(values):
            x, k = Tensor(values, requires_grad=True), Tensor(kernel, requires_grad=True)
            out = conv2d_transpose(x, k, (5, 1), (0, 1), (2, 0))
            tensor_sum(reference_mul(out, Tensor(weights))).backward()
            return [out.data, x.grad, k.grad]

        assert_same_bits(run(view), run(np.ascontiguousarray(view)))


# Every convolution layer of the desk classifier and the desk VQ-VAE, plus
# one asymmetric configuration per op: (C, H, W) input, kernel, stride,
# per-edge padding and, for the transpose, output_padding.
CONV_LAYERS = {
    "classifier.conv1": ((1, 80, 256), (4, 1, 7, 7), (2, 2), ((3, 3), (3, 3))),
    "classifier.conv2": ((4, 40, 128), (8, 4, 3, 3), (2, 2), ((1, 1), (1, 1))),
    "vqvae.enc0": ((1, 80, 256), (4, 1, 3, 3), (2, 2), ((1, 1), (1, 1))),
    "vqvae.enc1": ((4, 40, 128), (8, 4, 3, 3), (2, 2), ((1, 1), (1, 1))),
    "vqvae.enc2": ((8, 20, 64), (16, 8, 3, 3), (2, 1), ((1, 1), (1, 1))),
    "vqvae.enc3": ((16, 10, 64), (32, 16, 3, 3), (2, 1), ((1, 1), (1, 1))),
    "vqvae.enc4": ((32, 5, 64), (64, 32, 3, 3), (5, 1), ((0, 0), (1, 1))),
    "asymmetric": ((3, 9, 11), (5, 3, 3, 2), (2, 3), ((2, 0), (1, 3))),
}
TRANSPOSE_LAYERS = {
    "vqvae.dec0": ((64, 1, 64), (64, 32, 3, 3), (5, 1), ((0, 0), (1, 1)), (2, 0)),
    "vqvae.dec1": ((32, 5, 64), (32, 16, 3, 3), (2, 1), ((1, 1), (1, 1)), (1, 0)),
    "vqvae.dec2": ((16, 10, 64), (16, 8, 3, 3), (2, 1), ((1, 1), (1, 1)), (1, 0)),
    "vqvae.dec3": ((8, 20, 64), (8, 4, 3, 3), (2, 2), ((1, 1), (1, 1)), (1, 1)),
    "vqvae.dec4": ((4, 40, 128), (4, 1, 3, 3), (2, 2), ((1, 1), (1, 1)), (1, 1)),
    "asymmetric": ((5, 4, 5), (5, 3, 2, 3), (3, 2), ((2, 0), (0, 1)), (2, 1)),
}


def conv_case(name, transpose):
    """(input shape without batch, kernel shape, bias width, column elements
    per sample of the scattered products, op, reference) for one layer; op
    and reference take (x, kernels, bias, activation)."""
    if transpose:
        shape, kernel, stride, padding, output_padding = TRANSPOSE_LAYERS[name]
        positions = shape[1] * shape[2]
        op, ref, args = conv2d_transpose, reference_conv2d_transpose, (stride, padding, output_padding)
    else:
        shape, kernel, stride, padding = CONV_LAYERS[name]
        oh = (shape[1] + sum(padding[0]) - kernel[2]) // stride[0] + 1
        ow = (shape[2] + sum(padding[1]) - kernel[3]) // stride[1] + 1
        positions = oh * ow
        op, ref, args = conv2d, reference_conv2d, (stride, padding)
    return (
        shape, kernel, kernel[1] if transpose else kernel[0],
        kernel[1] * kernel[2] * kernel[3] * positions,
        lambda x, k, b, act, **kw: op(x, k, *args, bias=b, activation=act, **kw),
        lambda x, k, b, act: ref(x, k, *args, bias=b, activation=act),
    )


def forward_backward(fn, x_shape, kernel, channels, dtype, activation, x_grad):
    """Output and the x, kernels and bias gradients of a weighted sum of
    ``fn``'s output, from fixed draws; no bias when ``channels`` is None."""
    gen = np.random.default_rng(17)
    x = Tensor(gen.normal(size=x_shape).astype(dtype), requires_grad=x_grad)
    k = Tensor(gen.normal(0, 0.5, kernel).astype(dtype), requires_grad=True)
    b = None if channels is None else Tensor(gen.normal(0, 0.5, channels).astype(dtype), requires_grad=True)
    out = fn(x, k, b, activation)
    tensor_sum(reference_mul(out, Tensor(gen.normal(size=out.shape).astype(dtype)))).backward()
    return [out.data, x.grad, k.grad, None if b is None else b.grad]


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), f"max difference {np.abs(a - b).max()}"


class TestConvMatchesReference:
    """The fused ops against the unchunked im2col lowering with a
    ``tensordot`` kernel gradient and separate bias and ReLU nodes: every
    output and gradient bit equal, at batch sizes 1, one chunk and one chunk
    plus one."""

    @pytest.mark.parametrize(
        "transpose, name",
        [(False, name) for name in CONV_LAYERS] + [(True, name) for name in TRANSPOSE_LAYERS],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal(self, monkeypatch, transpose, name, dtype):
        shape, kernel, channels, per_sample, op, reference = conv_case(name, transpose)
        # Chunks of three samples keep the batches small; chunking is by
        # whole samples, so the chunk size does not change any bit.
        monkeypatch.setattr(ops, "_CHUNK_ELEMENTS", 3 * per_sample)
        for batch in (1, 3, 4):
            for activation in (None, "relu"):
                for x_grad in (False, True):
                    case = ((batch,) + shape, kernel, channels, dtype, activation, x_grad)
                    assert_same_bits(forward_backward(op, *case), forward_backward(reference, *case))

    @pytest.mark.parametrize("transpose, name", [(False, "classifier.conv1"), (True, "vqvae.dec4")])
    def test_bitwise_equal_at_the_module_chunk_size(self, transpose, name):
        shape, kernel, channels, per_sample, op, reference = conv_case(name, transpose)
        chunk = ops._CHUNK_ELEMENTS // per_sample
        for batch in (chunk, chunk + 1):
            case = ((batch,) + shape, kernel, channels, np.float32, "relu", True)
            assert_same_bits(forward_backward(op, *case), forward_backward(reference, *case))

    @pytest.mark.parametrize("transpose, name", [(False, "classifier.conv2"), (True, "vqvae.dec3")])
    def test_scattered_products_come_a_chunk_of_samples_at_a_time(self, monkeypatch, transpose, name):
        shape, kernel, _, per_sample, op, _ = conv_case(name, transpose)
        monkeypatch.setattr(ops, "_CHUNK_ELEMENTS", 3 * per_sample)
        ckk = kernel[1] * kernel[2] * kernel[3]
        chunks = []
        matmul = np.matmul

        def recording_matmul(a, b, **kwargs):
            out = matmul(a, b, **kwargs)
            if out.shape[1] == ckk:  # a (samples, C*kh*kw, positions) product
                chunks.append(out.shape[0])
            return out

        monkeypatch.setattr(np, "matmul", recording_matmul)
        x = Tensor(np.ones((7,) + shape), requires_grad=True)
        tensor_sum(op(x, Tensor(np.ones(kernel), requires_grad=True), None, None)).backward()
        assert chunks == [3, 3, 1]

    @pytest.mark.parametrize("transpose", [False, True])
    def test_bitwise_equal_without_bias(self, transpose):
        shape, kernel, _, _, op, reference = conv_case("asymmetric", transpose)
        case = ((3,) + shape, kernel, None, np.float64, "relu", True)
        assert_same_bits(forward_backward(op, *case), forward_backward(reference, *case))


class TestStreamedForward:
    """Without a tape, ``conv2d`` pads, gathers, multiplies and applies its
    epilogue a chunk of whole samples at a time, through buffers of one
    chunk's size; each sample's GEMM is the same call, so no bit moves."""

    @pytest.mark.parametrize("name", ["classifier.conv1", "classifier.conv2", "vqvae.enc4"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk_samples", [3, None])
    def test_bitwise_equal_to_taped_and_reference(self, monkeypatch, name, dtype, chunk_samples):
        shape, kernel, channels, per_sample, op, reference = conv_case(name, False)
        if chunk_samples is not None:
            monkeypatch.setattr(ops, "_CHUNK_ELEMENTS", chunk_samples * per_sample)
        gen = np.random.default_rng(29)
        k = Tensor(gen.normal(0, 0.5, kernel).astype(dtype), requires_grad=True)
        b = Tensor(gen.normal(0, 0.5, channels).astype(dtype), requires_grad=True)
        for batch in (1, 7, 64):
            x = Tensor(gen.normal(size=(batch,) + shape).astype(dtype))
            for bias, activation in ((None, None), (b, "relu")):
                taped = op(x, k, bias, activation)
                with no_grad():
                    streamed = op(x, k, bias, activation)
                assert taped.requires_grad and not streamed.requires_grad
                want = reference(x, k, bias, activation).data
                assert streamed.data.dtype == want.dtype and streamed.data.shape == want.shape
                assert streamed.data.tobytes() == taped.data.tobytes() == want.tobytes()

    def test_untaped_products_come_a_chunk_of_samples_at_a_time(self, monkeypatch):
        shape, kernel, _, per_sample, op, _ = conv_case("classifier.conv2", False)
        monkeypatch.setattr(ops, "_CHUNK_ELEMENTS", 3 * per_sample)
        chunks = []
        matmul = np.matmul

        def recording_matmul(a, b, **kwargs):
            out = matmul(a, b, **kwargs)
            chunks.append(out.shape[0])
            return out

        monkeypatch.setattr(np, "matmul", recording_matmul)
        x, k = Tensor(np.ones((7,) + shape)), Tensor(np.ones(kernel), requires_grad=True)
        with no_grad():
            op(x, k, None, "relu")
        assert chunks == [3, 3, 1]
        chunks.clear()
        op(x, k, None, "relu")  # the kernel gradient needs the whole batch's columns
        assert chunks == [7]
        chunks.clear()
        op(x, k, None, "relu", keep_columns=False)  # its adjoint gathers them again
        assert chunks == [3, 3, 1]

    def test_untaped_paper_conv2_peaks_at_its_output_plus_a_few_chunks(self):
        # Paper-size classifier conv2 at the predict batch: the whole-batch
        # column matrix alone would be 64 * 288 * 1280 float32 (94 MB).
        gen = np.random.default_rng(31)
        x = Tensor(gen.normal(size=(64, 32, 40, 128)).astype(np.float32))
        k = Tensor(gen.normal(0, 0.1, (64, 32, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(64, np.float32))
        chunk_bytes = max(ops._CHUNK_ELEMENTS, 288 * 1280) * 4
        tracemalloc.start()
        try:
            out = conv2d(x, k, 2, 1, b, "relu")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (64, 64, 20, 64)
        assert peak < out.data.nbytes + 4 * chunk_bytes


class TestRegatheredColumns:
    """With ``keep_columns=False`` a taped ``conv2d`` streams its forward and
    its adjoint gathers the columns again: every output and gradient bit
    equal to the call that keeps them."""

    @pytest.mark.parametrize("name", [n for n in CONV_LAYERS if not n.startswith("classifier")])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk_samples", [3, None])
    def test_bitwise_equal_to_kept_columns(self, monkeypatch, name, dtype, chunk_samples):
        shape, kernel, channels, per_sample, op, _ = conv_case(name, False)
        if chunk_samples is not None:
            monkeypatch.setattr(ops, "_CHUNK_ELEMENTS", chunk_samples * per_sample)
        regathered = functools.partial(op, keep_columns=False)
        for batch in (1, 7, 64):
            for bias, activation, x_grad in ((None, None, False), (channels, "relu", True)):
                case = ((batch,) + shape, kernel, bias, dtype, activation, x_grad)
                assert_same_bits(forward_backward(regathered, *case), forward_backward(op, *case))

    def test_adjoint_gathers_a_chunk_of_samples_at_a_time(self, monkeypatch):
        shape, kernel, _, per_sample, op, _ = conv_case("vqvae.enc1", False)
        monkeypatch.setattr(ops, "_CHUNK_ELEMENTS", 3 * per_sample)
        gathered = []
        windows = ops._windows
        monkeypatch.setattr(ops, "_windows", lambda xp, *a: gathered.append(len(xp)) or windows(xp, *a))
        gen = np.random.default_rng(3)
        x = Tensor(gen.normal(size=(7,) + shape), requires_grad=True)
        out = op(x, Tensor(gen.normal(size=kernel), requires_grad=True), None, None,
                 keep_columns=False)
        assert gathered == [3, 3, 1]
        gathered.clear()
        tensor_sum(out).backward()
        assert gathered == [3, 3, 1]

    @pytest.mark.parametrize("keep_columns", [True, False])
    def test_frozen_kernels_gather_no_columns_for_the_adjoint(self, monkeypatch, keep_columns):
        shape, kernel, channels, per_sample, op, _ = conv_case("classifier.conv2", False)
        monkeypatch.setattr(ops, "_CHUNK_ELEMENTS", 3 * per_sample)
        gathered = []
        windows = ops._windows
        monkeypatch.setattr(ops, "_windows", lambda xp, *a: gathered.append(len(xp)) or windows(xp, *a))
        gen = np.random.default_rng(8)
        x_data, k_data = gen.normal(size=(7,) + shape), gen.normal(size=kernel)
        b = Tensor(gen.normal(size=channels), requires_grad=True)
        weights = Tensor(gen.normal(size=(7, kernel[0], 20, 64)))

        def x_grad(trainable):
            x = Tensor(x_data, requires_grad=True)
            k = Tensor(k_data, requires_grad=trainable)
            out = op(x, k, b, "relu", keep_columns=keep_columns)
            forward = gathered.copy()
            gathered.clear()
            tensor_sum(reference_mul(out, weights)).backward()
            return forward, x.grad

        forward, frozen = x_grad(False)
        # The forward streams as an untaped call does, and the adjoint
        # gathers nothing: no columns are held for a kernel gradient.
        assert forward == [3, 3, 1] and gathered == []
        assert frozen.tobytes() == x_grad(True)[1].tobytes()


class TestConvLayers:
    @pytest.mark.parametrize("activation", [None, "relu"])
    def test_layers_apply_their_bias_and_activation(self, activation):
        rng = Rng(64)
        x = Tensor(rng.normal(0, 1, (2, 3, 8, 6), np.float32))
        conv = Conv2d(3, 4, 3, (2, 1), 1, rng, activation=activation)
        up = ConvTranspose2d(4, 3, 3, (2, 1), 1, (1, 0), rng, activation=activation)
        conv.bias.data = rng.normal(0, 1, 4, np.float32)
        up.bias.data = rng.normal(0, 1, 3, np.float32)
        mid = reference_conv2d(x, conv.kernels, (2, 1), ((1, 1), (1, 1)), conv.bias, activation)
        back = reference_conv2d_transpose(mid, up.kernels, (2, 1), ((1, 1), (1, 1)), (1, 0), up.bias, activation)
        assert conv(x).data.tobytes() == mid.data.tobytes()
        assert up(mid).data.tobytes() == back.data.tobytes()

    @pytest.mark.parametrize("x_grad", [False, True])
    def test_each_call_adds_one_tape_node(self, taped_tensors, x_grad):
        rng = Rng(63)
        x = Tensor(rng.normal(0, 1, (2, 3, 8, 6)), requires_grad=x_grad)
        conv = Conv2d(3, 4, 3, (2, 1), 1, rng)
        up = ConvTranspose2d(4, 3, 3, (2, 1), 1, (1, 0), rng, activation=None)
        taped_tensors.clear()
        out = conv(x)
        assert len(taped_tensors) == 1 and taped_tensors[0] is out
        taped_tensors.clear()
        back = up(out)
        assert len(taped_tensors) == 1 and taped_tensors[0] is back


class TestDense:
    def test_identity(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        out = dense(x, Tensor(np.eye(3)), Tensor(np.zeros(3)), activation=None)
        np.testing.assert_array_equal(out.data, x.data)

    def test_relu_definition(self):
        x = Tensor(np.array([[-1.0, 2.0]]))
        out = dense(x, Tensor(np.eye(2)), Tensor(np.zeros(2)), activation="relu")
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_leading_axes_rejected(self, rng):
        x = Tensor(rng.normal(0, 1, (2, 5, 3), np.float64))
        with pytest.raises(ShapeError, match="2-d"):
            dense(x, Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError, match="feature axis"):
            dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_gradcheck(self, rng):
        x = leaf((3, 4), rng)
        w = leaf((4, 2), rng)
        b = leaf((2,), rng)
        err = finite_diff_grad_check(
            lambda: scalarize(dense(x, w, b, activation="relu")), [x, w, b]
        )
        assert err < 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_is_log4(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 1, 3]))
        np.testing.assert_allclose(float(loss.data), np.log(4.0), rtol=1e-6)

    def test_large_margin_drives_loss_to_zero(self):
        logits = np.zeros((1, 4))
        losses = []
        for margin in (5.0, 20.0, 80.0):
            z = logits.copy()
            z[0, 2] = margin
            losses.append(float(softmax_cross_entropy(Tensor(z), np.array([2])).data))
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-12

    def test_gradient_is_softmax_minus_onehot(self, rng):
        z = leaf((1, 5), rng)
        label = np.array([3])
        loss = softmax_cross_entropy(z, label)
        loss.backward()
        e = np.exp(z.data - z.data.max())
        expected = e / e.sum()
        expected[0, 3] -= 1.0
        np.testing.assert_allclose(z.grad, expected, atol=1e-12)

    def test_gradcheck(self, rng):
        z = leaf((4, 5), rng)
        labels = np.array([0, 4, 2, 2])
        err = finite_diff_grad_check(lambda: softmax_cross_entropy(z, labels), [z])
        assert err < 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_requires_integer_labels(self):
        with pytest.raises(ValueError, match="integer"):
            softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array([0.5]))


class TestMse:
    def test_zero_on_equal(self, rng):
        x = rng.normal(0, 1, (3, 3), np.float64)
        assert float(mse(Tensor(x), Tensor(x.copy())).data) == 0.0

    def test_value(self):
        a = Tensor(np.array([0.0, 0.0]))
        b = Tensor(np.array([2.0, 0.0]))
        np.testing.assert_allclose(float(mse(a, b).data), 2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def grads_of(fn, leaves, dtype):
    """``fn(*leaves)`` and every leaf's gradient of a weighted sum of it,
    from fixed weights."""
    out = fn(*leaves)
    weights = np.random.default_rng(19).normal(size=out.shape).astype(dtype)
    tensor_sum(reference_mul(out, Tensor(weights))).backward()
    return [out.data] + [t.grad for t in leaves]


class TestFusedMatchesReference:
    """``dense`` and ``mse``, each one tape node, against the chains of
    general tape ops they replace: output and every gradient bit equal."""

    # (batch, in, out) of the classifier's two dense layers, desk and paper.
    DENSE_SHAPES = {
        "desk.fc": (16, 16, 16), "desk.out": (16, 16, 4),
        "paper.fc": (32, 256, 128), "paper.out": (32, 128, 4),
    }

    @pytest.mark.parametrize("name", list(DENSE_SHAPES))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense(self, name, dtype):
        n, d, k = self.DENSE_SHAPES[name]
        gen = np.random.default_rng(23)
        draws = [gen.normal(size=(n, d)), gen.normal(0, 0.3, (d, k)), gen.normal(0, 0.3, k)]
        for activation in (None, "relu"):
            for x_grad in (False, True):
                runs = []
                for fn in (dense, reference_dense):
                    x, w, b = (Tensor(a.astype(dtype), requires_grad=True) for a in draws)
                    x.requires_grad = x_grad
                    runs.append(grads_of(lambda *t: fn(*t, activation), [x, w, b], dtype))
                assert_same_bits(*runs)

    @pytest.mark.parametrize("batch", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mse(self, batch, dtype):
        gen = np.random.default_rng(29)
        draws = [gen.normal(size=(batch, 1, 80, 256)) for _ in range(2)]
        runs = []
        for fn in (mse, reference_mse):
            a, b = (Tensor(x.astype(dtype), requires_grad=True) for x in draws)
            runs.append(grads_of(fn, [a, b], dtype))
        assert_same_bits(*runs)

    def test_each_is_one_tape_node(self, taped_tensors, rng):
        x, w, b = leaf((3, 4), rng), leaf((4, 2), rng), leaf((2,), rng)
        out = dense(x, w, b, "relu")
        loss = mse(out, Tensor(np.zeros((3, 2))))
        assert taped_tensors == [out, loss]
