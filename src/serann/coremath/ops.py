"""Layer-level operations: 2-d convolution, its transpose, dense affine maps,
softmax cross-entropy and mean squared error.

Every layer is one tape node with a hand-written adjoint, its bias and ReLU
included (``_epilogue`` and ``_epilogue_grad``, shared by the convolutions
and ``dense``).

Convolutions take NCHW inputs and FCHW kernels. Strides are (sh, sw) pairs,
padding is explicit per edge as ((top, bottom), (left, right)); plain ints
and (h, w) pairs are accepted and expanded symmetrically, and no padding may
be negative. The transpose convolution is the exact adjoint of the forward
gather, so their shape maps invert each other for matched configurations.

Both convolutions lower to GEMMs over im2col columns (Chellapilla et al.,
2006) through one gather and one scatter. ``_gather`` lays windows out
channel-major, as a contiguous (C*kh*kw, N*OH*OW) matrix, i.e. a
(C, kh, kw, N, OH, OW) array, so the products that read it need no copy:

- the per-sample products ``k2 @ cols[:, n]`` (the forward convolution and
  the transpose's input gradient) are one batched matmul over a strided
  view of the matrix, and land directly in NCHW;
- the kernel gradient is one GEMM, ``(cols @ g(F, N*OH*OW).T).T``, on the
  matrix itself (below ``_SMALL_GEMM`` it takes a copy).

Every im2col pass works through the batch a chunk of whole samples at a
time, sized by the one constant ``_CHUNK_ELEMENTS`` to about 2**18 column
elements (1 MB in float32), so a chunk's columns are still in cache when
its GEMM or its scatter reads them (after Cho & Brand, "MEC", arXiv
1706.06873):

- ``conv2d`` pads each chunk into a reused zero-bordered buffer, gathers it
  into a reused column buffer, multiplies it straight into the output and
  applies the bias and ReLU there; it allocates no whole-batch padded copy
  or column matrix. The kernel gradient is one GEMM over the whole batch's
  columns. A taped call with ``keep_columns=True`` (the default) whose
  kernels take a gradient therefore takes the whole batch as one chunk and
  keeps its columns for its adjoint. With ``keep_columns=False`` it streams
  as above, and its adjoint gathers the columns again, a chunk of samples at
  a time through one reused padded buffer, into the whole-batch matrix: the
  recompute-for-memory trade of Chen et al. (arXiv 1604.06174), for a
  caller whose columns would stay alive across a long stretch of the tape,
  such as the VQ-VAE encoder's across the whole decoder. A call whose
  kernels take no gradient streams and gathers nothing in its adjoint.
  Either way the adjoint lets go of the columns as soon as the GEMM has
  run, before it allocates the padded input gradient, so the two are never
  alive together;
- ``_scatter_products`` forms the products that go back onto an image (the
  input gradient and the transpose's forward) into a reused chunk buffer
  and scatter-adds them.

Chunks hold whole samples, and each sample's GEMM is the same BLAS call
whatever the chunk: only the leading dimension of its column operand
changes. So the chunk size moves no bit. On a given BLAS the results are
bitwise equal to the unchunked im2col lowering whose kernel gradient
contracts a transposed copy of the columns, with bias and ReLU as separate
ops (``reference_conv2d`` and ``reference_conv2d_transpose`` in
tests/conftest.py): every GEMM element is summed in the same order (see
``_SMALL_GEMM``), and every scatter adds the kernel taps in the same (i, j)
order. The transpose reads its input through a C-contiguous copy, so its
kernel-gradient bits do not depend on the caller's memory layout.

``dense`` and ``mse`` are likewise bitwise equal to the chains of general
tape ops they replace (``reference_dense`` and ``reference_mse`` in
tests/conftest.py): each product and sum is taken in the chain's order.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError, Tensor, _needs_grad

# Samples per chunk of every im2col pass are sized so one chunk of columns
# holds about this many elements (1 MB in float32), within a core's L2. A
# sweep over 2**16-2**20 found 2**17-2**20 equally fast (see CHANGES.md).
_CHUNK_ELEMENTS = 2**18

# OpenBLAS gives each element of a GEMM the same bits whichever operand
# comes first or is transposed, except that on AVX-512 machines it hands
# GEMMs of at most 100**3 multiply-adds to small-matrix kernels whose
# summation order depends on the transposition flags. Kernel gradients that
# small, over more than one sample, therefore copy the columns into the
# row-major (N*OH*OW, C*kh*kw) operand the reference lowering passes there;
# the copy is at most 100**3 / F elements. tests/test_ops.py holds both
# regimes to the reference's bits.
_SMALL_GEMM = 100**3


def _stride_pair(stride) -> tuple[int, int]:
    if isinstance(stride, int):
        stride = (stride, stride)
    sh, sw = int(stride[0]), int(stride[1])
    if sh < 1 or sw < 1:
        raise ShapeError(f"stride components must be >= 1, got {(sh, sw)}")
    return sh, sw


def _pad_spec(padding) -> tuple[tuple[int, int], tuple[int, int]]:
    if isinstance(padding, int):
        spec = (padding, padding), (padding, padding)
    else:
        a, b = padding
        if isinstance(a, int) and isinstance(b, int):
            spec = (a, a), (b, b)
        else:
            (pt, pb), (pl, pr) = a, b
            spec = (int(pt), int(pb)), (int(pl), int(pr))
    if min(spec[0] + spec[1]) < 0:
        raise ShapeError(f"padding must be non-negative, got {spec}")
    return spec


def _check_epilogue(bias: Tensor | None, channels: int, activation: str | None) -> None:
    if bias is not None and bias.shape != (channels,):
        raise ShapeError(f"bias shape {bias.shape} must be ({channels},)")
    if activation not in (None, "relu"):
        raise ValueError(f"unknown activation {activation!r}")


def _epilogue(out: np.ndarray, bias: Tensor | None, activation: str | None) -> None:
    """Add the per-channel bias (axis 1) to an (N, C, ...) map and apply the
    activation, in place."""
    if bias is not None:
        out += bias.data.reshape((-1,) + (1,) * (out.ndim - 2))
    if activation == "relu":
        np.maximum(out, 0, out=out)


def _epilogue_grad(g: np.ndarray, out: np.ndarray, bias: Tensor | None, activation) -> np.ndarray:
    """Route the output gradient back through the activation (derivative 0
    at exactly 0) onto the bias; returns the gradient before the bias."""
    if activation == "relu":
        g = g * (out > 0)
    if bias is not None and bias.requires_grad:
        bias.accumulate_grad(g.sum(axis=(0, *range(2, g.ndim))))
    return g


def _chunk(ckk: int, positions: int) -> int:
    """Samples per chunk of im2col columns, ``ckk * positions`` per sample."""
    return max(1, _CHUNK_ELEMENTS // (ckk * positions))


def _windows(xp: np.ndarray, kh, kw, sh, sw, oh, ow) -> np.ndarray:
    """Windows of ``xp`` (N, C, Hp, Wp) as a (C, kh, kw, N, OH, OW) view."""
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, : sh * (oh - 1) + 1 : sh, : sw * (ow - 1) + 1 : sw]
    return windows.transpose(1, 4, 5, 0, 2, 3)


def _gather(xp: np.ndarray, kh, kw, sh, sw, oh, ow, out: np.ndarray) -> np.ndarray:
    """Windows of ``xp`` (N, C, Hp, Wp) as a contiguous (C*kh*kw, N*OH*OW)
    matrix, laid out (C, kh, kw, N, OH, OW), written to the front of the
    flat buffer ``out``."""
    n, c = xp.shape[:2]
    cols = out[: n * c * kh * kw * oh * ow].reshape(c, kh, kw, n, oh, ow)
    np.copyto(cols, _windows(xp, kh, kw, sh, sw, oh, ow))
    return cols.reshape(c * kh * kw, n * oh * ow)


def _padded_chunks(x: np.ndarray, step: int, pt, pl, hp, wp):
    """Yields (start, chunk) over ``x`` (N, C, H, W), ``step`` samples at a
    time, each chunk copied into one reused zero-bordered (step, C, Hp, Wp)
    buffer at offset (pt, pl)."""
    n, c, h, w = x.shape
    xp = np.zeros((min(step, n), c, hp, wp), x.dtype)
    for start in range(0, n, step):
        part = xp[: min(step, n - start)]
        part[:, :, pt : pt + h, pl : pl + w] = x[start : start + step]
        yield start, part


def _per_sample(
    k2: np.ndarray, cols: np.ndarray, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``k2 @`` each sample's columns of ``_gather``'s matrix: (N, F, OH*OW)."""
    return np.matmul(k2, cols.reshape(cols.shape[0], n, -1).transpose(1, 0, 2), out=out)


def _kernel_grad(g2: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sum over samples of ``g2[n] @ cols[:, n].T``: (F, C*kh*kw) for
    ``g2`` (N, F, OH*OW) and ``_gather``'s matrix."""
    n, f, p = g2.shape
    g_rows = g2.transpose(1, 0, 2).reshape(f, n * p)
    if n > 1 and f * cols.size <= _SMALL_GEMM:
        return np.dot(g_rows, np.ascontiguousarray(cols.T))
    return np.dot(cols, g_rows.T).T


def _scatter_products(
    k2: np.ndarray, g2: np.ndarray, buf: np.ndarray, kh, kw, sh, sw, oh, ow
) -> None:
    """Adjoint of ``_per_sample`` then ``_gather``: add each sample's
    columns ``k2.T @ g2[n]`` onto its (C, Hp, Wp) image in ``buf``, a chunk
    of samples at a time, kernel taps in (i, j) order."""
    n, c = buf.shape[:2]
    ckk = k2.shape[1]
    step = _chunk(ckk, oh * ow)
    cols_buf = np.empty((min(step, n), ckk, oh * ow), np.result_type(k2, g2))
    for start in range(0, n, step):
        part = buf[start : start + step]
        cols = np.matmul(k2.T, g2[start : start + step], out=cols_buf[: len(part)])
        cols = cols.reshape(len(part), c, kh, kw, oh, ow)
        for i in range(kh):
            for j in range(kw):
                part[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols[:, :, i, j]


def conv_output_size(size: int, kernel: int, stride: int, pad_total: int) -> int:
    return (size + pad_total - kernel) // stride + 1


def conv2d(
    x: Tensor, kernels: Tensor, stride=(1, 1), padding=0, bias: Tensor | None = None,
    activation: str | None = None, keep_columns: bool = True,
) -> Tensor:
    """Cross-correlation of ``x`` (N,C,H,W) with ``kernels`` (F,C,kh,kw),
    plus an optional per-channel ``bias`` (F,), then an optional ReLU.
    With ``keep_columns=False`` the adjoint gathers the columns again from
    ``x`` instead of keeping them from the forward (see the module
    docstring); the bits are the same."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-d (N,C,H,W), got {x.ndim}-d")
    if kernels.ndim != 4:
        raise ShapeError(f"conv2d kernels must be 4-d (F,C,kh,kw), got {kernels.ndim}-d")
    n, c, h, w = x.shape
    f, kc, kh, kw = kernels.shape
    if kc != c:
        raise ShapeError(
            f"kernel channel axis ({kc}) does not match input channel axis ({c})"
        )
    _check_epilogue(bias, f, activation)
    sh, sw = _stride_pair(stride)
    (pt, pb), (pl, pr) = _pad_spec(padding)
    hp, wp = h + pt + pb, w + pl + pr
    if kh > hp or kw > wp:
        raise ShapeError(
            f"kernel ({kh}x{kw}) exceeds padded input ({hp}x{wp}) on the "
            f"{'height' if kh > hp else 'width'} axis"
        )
    oh = conv_output_size(h, kh, sh, pt + pb)
    ow = conv_output_size(w, kw, sw, pl + pr)
    ckk = c * kh * kw

    parents = (x, kernels) if bias is None else (x, kernels, bias)
    taped = _needs_grad(*parents)
    # The kernel gradient is one GEMM over the whole column matrix, so a
    # call that keeps the columns for it gathers the batch as one chunk.
    keep = taped and keep_columns and kernels.requires_grad
    step = n if keep else _chunk(ckk, oh * ow)
    cols_buf = np.empty(min(step, n) * ckk * oh * ow, x.dtype)
    k2 = kernels.data.reshape(f, ckk)
    out_data = np.empty((n, f, oh, ow), np.result_type(k2, x.data))
    for start, part in _padded_chunks(x.data, step, pt, pl, hp, wp):
        cols = _gather(part, kh, kw, sh, sw, oh, ow, cols_buf)
        out_part = out_data[start : start + step]
        _per_sample(k2, cols, len(part), out_part.reshape(len(part), f, oh * ow))
        _epilogue(out_part, bias, activation)
    if not taped:
        return Tensor(out_data)
    if not keep:
        cols = None  # a view of the chunk buffer, which the adjoint does not read

    def backprop(g):
        nonlocal cols
        g2 = _epilogue_grad(g, out_data, bias, activation).reshape(n, f, oh * ow)
        if kernels.requires_grad:
            if cols is None:
                cols = np.empty((c, kh, kw, n, oh, ow), x.dtype)
                for start, part in _padded_chunks(x.data, _chunk(ckk, oh * ow), pt, pl, hp, wp):
                    np.copyto(cols[:, :, :, start : start + len(part)],
                              _windows(part, kh, kw, sh, sw, oh, ow))
                cols = cols.reshape(ckk, n * oh * ow)
            kernels.accumulate_grad(_kernel_grad(g2, cols).reshape(kernels.shape))
        cols = None
        if x.requires_grad:
            dxp = np.zeros((n, c, hp, wp), dtype=x.dtype)
            _scatter_products(k2, g2, dxp, kh, kw, sh, sw, oh, ow)
            x.accumulate_grad(dxp[:, :, pt : pt + h, pl : pl + w])

    return Tensor(out_data, True, parents, backprop)


def conv2d_transpose(
    x: Tensor, kernels: Tensor, stride=(1, 1), padding=0, output_padding=(0, 0),
    bias: Tensor | None = None, activation: str | None = None,
) -> Tensor:
    """Transposed convolution: ``x`` (N,F,H,W), ``kernels`` (F,C,kh,kw), plus
    an optional per-channel ``bias`` (C,), then an optional ReLU.

    Output size per axis is (in - 1) * stride - pad_total + kernel +
    output_padding, the inverse of ``conv2d``'s shape map; output_padding
    (one per axis, each < stride) disambiguates sizes the forward map floors
    together.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d_transpose input must be 4-d, got {x.ndim}-d")
    if kernels.ndim != 4:
        raise ShapeError(f"conv2d_transpose kernels must be 4-d, got {kernels.ndim}-d")
    n, f, h, w = x.shape
    fk, c, kh, kw = kernels.shape
    if fk != f:
        raise ShapeError(
            f"kernel input-channel axis ({fk}) does not match input channel axis ({f})"
        )
    _check_epilogue(bias, c, activation)
    sh, sw = _stride_pair(stride)
    (pt, pb), (pl, pr) = _pad_spec(padding)
    oph, opw = (output_padding, output_padding) if isinstance(output_padding, int) else output_padding
    if oph < 0 or opw < 0:
        raise ShapeError(f"output_padding must be non-negative, got {(oph, opw)}")
    if oph >= sh or opw >= sw:
        raise ShapeError(
            f"output_padding {(oph, opw)} must be smaller than stride {(sh, sw)}"
        )
    bh = (h - 1) * sh + kh + oph
    bw = (w - 1) * sw + kw + opw
    oh = bh - pt - pb
    ow = bw - pl - pr
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"padding {((pt, pb), (pl, pr))} consumes the whole {bh}x{bw} buffer"
        )

    k2 = kernels.data.reshape(f, c * kh * kw)
    x2 = np.ascontiguousarray(x.data).reshape(n, f, h * w)
    buf = np.zeros((n, c, bh, bw), dtype=x.dtype)
    _scatter_products(k2, x2, buf, kh, kw, sh, sw, h, w)
    out_data = buf[:, :, pt : bh - pb, pl : bw - pr].copy()
    _epilogue(out_data, bias, activation)

    parents = (x, kernels) if bias is None else (x, kernels, bias)
    if not _needs_grad(*parents):
        return Tensor(out_data)

    def backprop(g):
        g = _epilogue_grad(g, out_data, bias, activation)
        gbuf = np.zeros((n, c, bh, bw), dtype=g.dtype)
        gbuf[:, :, pt : bh - pb, pl : bw - pr] = g
        del g  # the gradient past the ReLU, freed before the columns are allocated
        gcols = _gather(gbuf, kh, kw, sh, sw, h, w, np.empty(n * c * kh * kw * h * w, gbuf.dtype))
        del gbuf
        if x.requires_grad:
            x.accumulate_grad(_per_sample(k2, gcols, n).reshape(n, f, h, w))
        if kernels.requires_grad:
            kernels.accumulate_grad(_kernel_grad(x2, gcols).reshape(kernels.shape))

    return Tensor(out_data, True, parents, backprop)


def dense(x: Tensor, weights: Tensor, bias: Tensor, activation: str | None = None) -> Tensor:
    """Affine map ``x @ weights + bias`` of an (N, D) batch, optionally
    followed by ReLU."""
    if x.ndim != 2:
        raise ShapeError(f"dense input must be 2-d (N,D), got {x.ndim}-d")
    if weights.ndim != 2:
        raise ShapeError(f"dense weights must be 2-d (D,K), got {weights.ndim}-d")
    d, k = weights.shape
    if x.shape[1] != d:
        raise ShapeError(
            f"dense input feature axis ({x.shape[1]}) does not match weight rows ({d})"
        )
    _check_epilogue(bias, k, activation)

    out_data = x.data @ weights.data
    _epilogue(out_data, bias, activation)
    parents = (x, weights, bias)
    if not _needs_grad(*parents):
        return Tensor(out_data)

    def backprop(g):
        g = _epilogue_grad(g, out_data, bias, activation)
        if x.requires_grad:
            x.accumulate_grad(g @ weights.data.T)
        if weights.requires_grad:
            weights.accumulate_grad(x.data.T @ g)

    return Tensor(out_data, True, parents, backprop)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true class over a batch.

    ``labels`` are integer class indices of shape (N,). The fused gradient is
    (softmax(logits) - onehot(labels)) / N.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-d (N,K), got {logits.ndim}-d")
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integer class indices")
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} must be ({n},)")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise ValueError(f"label {int(bad)} out of range for {k} classes")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sumez = ez.sum(axis=1, keepdims=True)
    lse = (zmax + np.log(sumez)).reshape(n)
    loss = (lse - z[np.arange(n), labels]).mean()
    out_data = np.asarray(loss, dtype=z.dtype)

    if not _needs_grad(logits):
        return Tensor(out_data)

    probs = ez / sumez

    def backprop(g):
        dz = probs.copy()
        dz[np.arange(n), labels] -= 1.0
        logits.accumulate_grad(g * dz / n)

    return Tensor(out_data, True, (logits,), backprop)


def _mean_square_grad(g, diff: np.ndarray) -> np.ndarray:
    """d mean(diff**2) / d diff for the output gradient ``g``, summed as a
    tape sums the two operands of diff * diff: s * diff + s * diff, with
    s = g / diff.size."""
    grad = (np.asarray(g, dtype=diff.dtype) / diff.size) * diff
    grad += grad
    return grad


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference over all elements."""
    if a.shape != b.shape:
        raise ShapeError(f"mse operands differ in shape: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    out_data = (diff * diff).mean()
    if not _needs_grad(a, b):
        return Tensor(out_data)

    def backprop(g):
        grad = _mean_square_grad(g, diff)
        a.accumulate_grad(grad)
        b.accumulate_grad(-grad)

    return Tensor(out_data, True, (a, b), backprop)
