"""Layer-level operations: 2-d convolution, its transpose, dense affine maps,
and softmax cross-entropy.

Convolutions take NCHW inputs and FCHW kernels. Strides are (sh, sw) pairs,
padding is explicit per edge as ((top, bottom), (left, right)); plain ints
and (h, w) pairs are accepted and expanded symmetrically. The transpose
convolution is the exact adjoint of the forward gather, so their shape maps
invert each other for matched configurations.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, _needs_grad, relu


def _stride_pair(stride) -> tuple[int, int]:
    if isinstance(stride, int):
        stride = (stride, stride)
    sh, sw = int(stride[0]), int(stride[1])
    if sh < 1 or sw < 1:
        raise ShapeError(f"stride components must be >= 1, got {(sh, sw)}")
    return sh, sw


def _pad_spec(padding) -> tuple[tuple[int, int], tuple[int, int]]:
    if isinstance(padding, int):
        return (padding, padding), (padding, padding)
    a, b = padding
    if isinstance(a, int) and isinstance(b, int):
        return (a, a), (b, b)
    (pt, pb), (pl, pr) = a, b
    return (int(pt), int(pb)), (int(pl), int(pr))


def _gather_windows(xp: np.ndarray, kh, kw, sh, sw, oh, ow) -> np.ndarray:
    """Strided window extraction to (n, c, kh, kw, oh, ow)."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols


def _scatter_windows(cols: np.ndarray, buf: np.ndarray, kh, kw, sh, sw, oh, ow) -> None:
    """Adjoint of ``_gather_windows``: scatter-add windows into ``buf``."""
    for i in range(kh):
        for j in range(kw):
            buf[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols[:, :, i, j]


def conv_output_size(size: int, kernel: int, stride: int, pad_total: int) -> int:
    return (size + pad_total - kernel) // stride + 1


def conv2d(x: Tensor, kernels: Tensor, stride=(1, 1), padding=0) -> Tensor:
    """Cross-correlation of ``x`` (N,C,H,W) with ``kernels`` (F,C,kh,kw)."""
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

    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    cols = _gather_windows(xp, kh, kw, sh, sw, oh, ow)
    cols2 = cols.reshape(n, c * kh * kw, oh * ow)
    k2 = kernels.data.reshape(f, c * kh * kw)
    out_data = np.matmul(k2, cols2).reshape(n, f, oh, ow)

    if not _needs_grad(x, kernels):
        return Tensor(out_data)

    def backprop(g):
        g2 = g.reshape(n, f, oh * ow)
        if kernels.requires_grad:
            dk = np.tensordot(g2, cols2, axes=([0, 2], [0, 2]))
            kernels.accumulate_grad(dk.reshape(kernels.shape))
        if x.requires_grad:
            dcols = np.matmul(k2.T, g2).reshape(n, c, kh, kw, oh, ow)
            dxp = np.zeros_like(xp)
            _scatter_windows(dcols, dxp, kh, kw, sh, sw, oh, ow)
            x.accumulate_grad(dxp[:, :, pt : pt + h, pl : pl + w])

    return Tensor(out_data, True, (x, kernels), backprop)


def conv2d_transpose(
    x: Tensor, kernels: Tensor, stride=(1, 1), padding=0, output_padding=(0, 0)
) -> Tensor:
    """Transposed convolution: ``x`` (N,F,H,W), ``kernels`` (F,C,kh,kw).

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
    sh, sw = _stride_pair(stride)
    (pt, pb), (pl, pr) = _pad_spec(padding)
    oph, opw = (output_padding, output_padding) if isinstance(output_padding, int) else output_padding
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
    x2 = x.data.reshape(n, f, h * w)
    cols = np.matmul(k2.T, x2).reshape(n, c, kh, kw, h, w)
    buf = np.zeros((n, c, bh, bw), dtype=x.dtype)
    _scatter_windows(cols, buf, kh, kw, sh, sw, h, w)
    out_data = buf[:, :, pt : bh - pb, pl : bw - pr].copy()

    if not _needs_grad(x, kernels):
        return Tensor(out_data)

    def backprop(g):
        gbuf = np.zeros((n, c, bh, bw), dtype=g.dtype)
        gbuf[:, :, pt : bh - pb, pl : bw - pr] = g
        gcols = _gather_windows(gbuf, kh, kw, sh, sw, h, w)
        gcols2 = gcols.reshape(n, c * kh * kw, h * w)
        if x.requires_grad:
            dx = np.matmul(k2, gcols2).reshape(n, f, h, w)
            x.accumulate_grad(dx)
        if kernels.requires_grad:
            dk = np.tensordot(x2, gcols2, axes=([0, 2], [0, 2]))
            kernels.accumulate_grad(dk.reshape(kernels.shape))

    return Tensor(out_data, True, (x, kernels), backprop)


def dense(x: Tensor, weights: Tensor, bias: Tensor, activation: str | None = None) -> Tensor:
    """Affine map over the last axis, optionally followed by ReLU."""
    if weights.ndim != 2:
        raise ShapeError(f"dense weights must be 2-d (D,K), got {weights.ndim}-d")
    d, k = weights.shape
    if x.shape[-1] != d:
        raise ShapeError(
            f"dense input feature axis ({x.shape[-1]}) does not match weight rows ({d})"
        )
    if bias.shape != (k,):
        raise ShapeError(f"dense bias shape {bias.shape} must be ({k},)")
    if activation not in (None, "none", "relu"):
        raise ValueError(f"unknown activation {activation!r}")

    lead = x.shape[:-1]
    flat = x.reshape((-1, d)) if x.ndim != 2 else x
    out = (flat @ weights) + bias
    if x.ndim != 2:
        out = out.reshape(lead + (k,))
    if activation == "relu":
        out = relu(out)
    return out


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


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference over all elements."""
    if a.shape != b.shape:
        raise ShapeError(f"mse operands differ in shape: {a.shape} vs {b.shape}")
    diff = a - b
    return (diff * diff).mean()
