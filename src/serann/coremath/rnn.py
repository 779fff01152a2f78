"""Bidirectional LSTM as one tape node with a hand-written adjoint.

Standard cell: sigmoid input/forget/output gates, tanh candidate, gates
packed along the last weight axis in (i, f, g, o) order. The bidirectional
form runs the same cell over the reversed sequence and concatenates both
hidden streams per timestep.

Each direction projects all timesteps with one GEMM. The two directions are
independent, so one time loop steps both (Appleyard et al., arXiv
1604.01946): step k advances the forward direction at time k and the
backward direction at time T-1-k, on stacked (2, N, ...) arrays, with one
batched GEMM for both recurrent products and the gate and cell arithmetic
written in place. Cells and hidden states are kept step-major as
(T, 2, N, U), gate activations as (T, 4, 2, N, U), and back-propagation
through time runs as one loop over the same stacks. The weight and input
gradients come from per-direction GEMMs over (N * T, ...) rows. Every
element goes through the operations of a one-direction-at-a-time recurrence
in the same order, so outputs and gradients keep their bits.

The adjoint frees what it saved as it finishes with it: the gate, cell and
tanh stacks once the time loop is done, before the weight GEMMs, and the
hidden states before the input gradient is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, _needs_grad


class EmptySequenceError(ValueError):
    pass


@dataclass
class LstmParams:
    wx: Tensor  # (D, 4U)
    wh: Tensor  # (U, 4U)
    b: Tensor  # (4U,)

    @property
    def units(self) -> int:
        return self.wh.shape[0]


def _paired_steps(a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per step k, views of the per-direction gate rows ``a`` (2, N, T, 4U)
    at the forward direction's time k and the backward direction's time
    T-1-k: as rows (2, N, 4U), and as gate blocks (4, 2, N, U). The gap
    between the two directions' rows is fixed within a step, so it serves
    as the views' direction stride."""
    _, n, t, w = a.shape
    s_dir, s_n, s_t, s_w = a.strides
    u = w // 4
    steps = []
    for k in range(t):
        s_pair = s_dir + (t - 1 - 2 * k) * s_t
        steps.append((np.ndarray((2, n, w), a.dtype, a, k * s_t, (s_pair, s_n, s_w)),
                      np.ndarray((4, 2, n, u), a.dtype, a, k * s_t, (u * s_w, s_pair, s_n, s_w))))
    return steps


class _Recurrence:
    """Both directions' recurrences over the (N * T, D) rows ``x2`` of an
    (N, T, D) input, writing the hidden states to ``out`` (N, T, 2U) and
    keeping what BPTT needs step-major: entry k of each stack holds the
    forward direction at time k and the backward at T-1-k. Gate activations
    put the gate block first, (T, 4, 2, N, U), so that each block of a step
    is one contiguous array; numpy dispatches on contiguous operands faster."""

    def __init__(self, x2: np.ndarray, params: tuple[LstmParams, LstmParams], out: np.ndarray):
        n, t, u = out.shape[0], out.shape[1], params[0].units
        dtype = out.dtype
        self.params, self.n, self.t, self.u = params, n, t, u
        self.wh = np.stack([p.wh.data for p in params], dtype=dtype)  # (2, U, 4U)
        # The biases laid out as the gate blocks and broadcast over the
        # batch, so that adding them reads one contiguous array.
        b = np.stack([p.b.data for p in params], dtype=dtype).reshape(2, 1, 4, u)
        b = np.broadcast_to(b.transpose(2, 0, 1, 3), (4, 2, n, u)).copy()
        self.gates = np.empty((t, 4, 2, n, u), dtype)  # i, f, g, o activations
        self.c = np.zeros((t + 1, 2, n, u), dtype)  # c[k] and h[k]: the state step k starts from
        self.h = np.zeros((t + 1, 2, n, u), dtype)
        self.tanh_c = np.empty((t, 2, n, u), dtype)
        # Allocated after the stacks that outlive it, so that freeing it
        # leaves no hole under them.
        xw = np.empty((2, n, t, 4 * u), np.result_type(x2, *(p.wx.data for p in params)))
        for d, p in enumerate(params):
            np.matmul(x2, p.wx.data, out=xw[d].reshape(n * t, 4 * u))
        hw = np.empty((2, n, 4 * u), dtype)
        hw_blocks = hw.reshape(2, n, 4, u).transpose(2, 0, 1, 3)
        z, ig = np.empty((4, 2, n, u), dtype), np.empty((2, n, u), dtype)
        c, h, tanh_c = self.c, self.h, self.tanh_c
        for k, (_, xw_k) in enumerate(_paired_steps(xw)):
            a = self.gates[k]
            np.matmul(h[k], self.wh, out=hw)
            np.add(xw_k, hw_blocks, out=z)
            np.add(z, b, out=z)
            np.negative(z, out=a)  # sigmoid; the g block gets tanh below
            np.exp(a, out=a)
            np.add(1.0, a, out=a)
            np.divide(1.0, a, out=a)
            np.tanh(z[2], out=a[2])
            np.multiply(a[1], c[k], out=c[k + 1])
            np.multiply(a[0], a[2], out=ig)
            np.add(c[k + 1], ig, out=c[k + 1])
            np.tanh(c[k + 1], out=tanh_c[k])
            np.multiply(a[3], tanh_c[k], out=h[k + 1])
        out[:, :, :u] = h[1:, 0].transpose(1, 0, 2)
        out[:, :, u:] = h[:0:-1, 1].transpose(1, 0, 2)  # back in forward time order

    def backprop(self, g: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """BPTT of the output gradient ``g`` (N, T, 2U) into both directions'
        parameters, the forward direction's first, given the input rows
        ``x2`` again; returns the gate pre-activation gradients (2, N * T, 4U)."""
        n, t, u = self.n, self.t, self.u
        dtype = np.result_type(self.gates, g)
        dz_all = np.empty((2, n, t, 4 * u), dtype)  # returned, so allocated before the work buffers
        g_steps = np.empty((t, 2, n, u), g.dtype)
        g_steps[:, 0] = g[:, :, :u].transpose(1, 0, 2)
        g_steps[:, 1] = g[:, ::-1, u:].transpose(1, 0, 2)
        dh, dc = np.zeros((2, n, u), g.dtype), np.zeros((2, n, u), g.dtype)
        tmp, dh_o = np.empty((2, n, u), dtype), np.empty((2, n, u), dtype)
        dz, one_minus = np.empty((4, 2, n, u), dtype), np.empty((4, 2, n, u), dtype)
        wh_t = self.wh.transpose(0, 2, 1)
        dz_steps = _paired_steps(dz_all)
        for k in range(t - 1, -1, -1):
            i, f, gg, o = a = self.gates[k]
            tc = self.tanh_c[k]
            np.add(g_steps[k], dh, out=dh)
            np.multiply(tc, tc, out=tmp)  # dc += (dh * o) * (1 - tc * tc)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(dh, o, out=dh_o)
            np.multiply(dh_o, tmp, out=dh_o)
            np.add(dc, dh_o, out=dc)
            # dz_i, dz_f and dz_o are ((dc * gg, dc * c, dh * tc) * gate) * (1 - gate)
            np.multiply(dc, gg, out=dz[0])
            np.multiply(dc, self.c[k], out=dz[1])
            np.multiply(dh, tc, out=dz[3])
            np.subtract(1.0, a, out=one_minus)
            np.multiply(dz[:2], a[:2], out=dz[:2])
            np.multiply(dz[:2], one_minus[:2], out=dz[:2])
            np.multiply(dz[3], o, out=dz[3])
            np.multiply(dz[3], one_minus[3], out=dz[3])
            np.multiply(gg, gg, out=tmp)  # dz_g = (dc * i) * (1 - gg * gg)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(dc, i, out=dz[2])
            np.multiply(dz[2], tmp, out=dz[2])
            np.multiply(dc, f, out=dc)
            dz_rows, dz_blocks = dz_steps[k]
            np.copyto(dz_blocks, dz)
            np.matmul(dz_rows, wh_t, out=dh)
        # The loop's work buffers and its views of the stacks that only it
        # reads, then those stacks, all freed before the GEMMs.
        del g_steps, dh, dc, tmp, dh_o, dz, one_minus, a, i, f, gg, o, tc
        self.gates = self.c = self.tanh_c = None
        dz2 = dz_all.reshape(2, n * t, 4 * u)
        # Each direction's state before its step at each time, in (N, T) row order.
        h_prev = (self.h[:t, 0], self.h[t - 1 :: -1, 1])
        for p, dz_d, h_d in zip(self.params, dz2, h_prev):
            h_d = np.ascontiguousarray(h_d.transpose(1, 0, 2)).reshape(n * t, u)
            p.wx.accumulate_grad(x2.T @ dz_d)
            p.wh.accumulate_grad(h_d.T @ dz_d)
            p.b.accumulate_grad(dz_d.sum(axis=0))
        return dz2


def bilstm(x: Tensor, forward: LstmParams, backward: LstmParams) -> Tensor:
    """Bidirectional pass over (N, T, D); output doubles the unit axis, with
    the backward stream re-aligned to forward time order."""
    if x.ndim != 3:
        raise ShapeError(f"bilstm input must be (N,T,D), got {x.ndim}-d")
    n, t, d = x.shape
    if t == 0:
        raise EmptySequenceError("bilstm requires at least one timestep")
    directions = (("forward", forward), ("backward", backward))
    for name, p in directions:
        if p.wh.ndim != 2 or p.wh.shape[1] != 4 * p.wh.shape[0]:
            raise ShapeError(f"{name} wh shape {p.wh.shape} must be (U, 4U)")
    u = forward.units
    if backward.units != u:
        raise ShapeError(f"backward wh shape {backward.wh.shape} must be ({u}, {4 * u}): "
                         f"both directions need the forward direction's {u} units")
    for name, p in directions:
        for field, shape in (("wx", (d, 4 * u)), ("b", (4 * u,))):
            got = getattr(p, field).shape
            if got != shape:
                raise ShapeError(f"{name} {field} shape {got} must be {shape}")
    params = (forward.wx, forward.wh, forward.b, backward.wx, backward.wh, backward.b)
    out = np.empty((n, t, 2 * u), np.result_type(x.data, *(q.data for q in params)))

    def rows() -> np.ndarray:
        # The classifier hands over a strided view. One contiguous copy serves
        # both directions' projections and another, made in the backward
        # pass, their weight gradients: the tape holds no copy in between.
        return np.ascontiguousarray(x.data).reshape(n * t, d)

    rec = _Recurrence(rows(), (forward, backward), out)
    if not _needs_grad(x, *params):
        return Tensor(out)

    def backprop(g):
        nonlocal rec
        dz_fwd, dz_bwd = rec.backprop(g, rows())
        rec = None  # the hidden states, freed before the input gradient is formed
        if x.requires_grad:
            dx = dz_fwd @ forward.wx.data.T + dz_bwd @ backward.wx.data.T
            x.accumulate_grad(dx.reshape(n, t, d))

    return Tensor(out, True, (x,) + params, backprop)
