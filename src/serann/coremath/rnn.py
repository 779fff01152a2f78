"""Bidirectional LSTM as one tape node with a hand-written adjoint.

Standard cell: sigmoid input/forget/output gates, tanh candidate, gates
packed along the last weight axis in (i, f, g, o) order. The bidirectional
form runs the same cell over the reversed sequence and concatenates both
hidden streams per timestep. Each direction projects all timesteps with one
GEMM, steps the recurrence in numpy, and back-propagates through time over
the saved gates and cell states (Appleyard et al., arXiv 1604.01946).
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


class _Direction:
    """One direction's recurrence over the (N * T, D) rows ``x2`` of an
    (N, T, D) input, writing its hidden states to ``h_out`` (N, T, U) and
    keeping what BPTT needs, laid out (N, T, ...)."""

    def __init__(self, x2: np.ndarray, p: LstmParams, reverse: bool, h_out: np.ndarray):
        n, t, u = h_out.shape
        self.x2, self.p = x2, p
        self.steps = range(t - 1, -1, -1) if reverse else range(t)
        xw = (x2 @ p.wx.data).reshape(n, t, 4 * u)
        self.gates = np.empty(xw.shape, h_out.dtype)  # i, f, g, o activations
        self.c_prev, self.h_prev, self.tanh_c = (np.empty(h_out.shape, h_out.dtype) for _ in range(3))
        h = c = np.zeros((n, u), h_out.dtype)
        for s in self.steps:
            z = xw[:, s] + (h @ p.wh.data) + p.b.data
            a = self.gates[:, s]
            a[...] = 1.0 / (1.0 + np.exp(-z))  # sigmoid; the g block gets tanh below
            a[:, 2 * u : 3 * u] = np.tanh(z[:, 2 * u : 3 * u])
            self.c_prev[:, s], self.h_prev[:, s] = c, h
            c = a[:, u : 2 * u] * c + a[:, :u] * a[:, 2 * u : 3 * u]
            self.tanh_c[:, s] = tc = np.tanh(c)
            h_out[:, s] = h = a[:, 3 * u :] * tc

    def backprop(self, g: np.ndarray) -> np.ndarray:
        """BPTT of the output gradient ``g`` (N, T, U) into this direction's
        parameters; returns the gate pre-activation gradients (N * T, 4U)."""
        n, t, u = g.shape
        dz_all = np.empty(self.gates.shape, np.result_type(self.gates, g))
        dh = dc = np.zeros((n, u), dtype=g.dtype)
        for s in reversed(self.steps):
            a = self.gates[:, s]
            i, f, gg, o = a[:, :u], a[:, u : 2 * u], a[:, 2 * u : 3 * u], a[:, 3 * u :]
            tc = self.tanh_c[:, s]
            dh = g[:, s] + dh
            dc = dc + (dh * o) * (1.0 - tc * tc)
            dz = dz_all[:, s]
            dz[:, :u] = (dc * gg) * i * (1.0 - i)
            dz[:, u : 2 * u] = (dc * self.c_prev[:, s]) * f * (1.0 - f)
            dz[:, 2 * u : 3 * u] = (dc * i) * (1.0 - gg * gg)
            dz[:, 3 * u :] = (dh * tc) * o * (1.0 - o)
            dc = dc * f
            dh = dz @ self.p.wh.data.T
        dz2 = dz_all.reshape(n * t, 4 * u)
        self.p.wx.accumulate_grad(self.x2.T @ dz2)
        self.p.wh.accumulate_grad(self.h_prev.reshape(n * t, u).T @ dz2)
        self.p.b.accumulate_grad(dz2.sum(axis=0))
        return dz2


def bilstm(x: Tensor, forward: LstmParams, backward: LstmParams) -> Tensor:
    """Bidirectional pass over (N, T, D); output doubles the unit axis, with
    the backward stream re-aligned to forward time order."""
    if x.ndim != 3:
        raise ShapeError(f"bilstm input must be (N,T,D), got {x.ndim}-d")
    n, t, d = x.shape
    if t == 0:
        raise EmptySequenceError("bilstm requires at least one timestep")
    for p in (forward, backward):
        if p.wx.shape != (d, 4 * p.units):
            raise ShapeError(f"wx shape {p.wx.shape} must be ({d}, {4 * p.units})")
    params = (forward.wx, forward.wh, forward.b, backward.wx, backward.wh, backward.b)
    u = forward.units
    out = np.empty((n, t, u + backward.units), np.result_type(x.data, *(q.data for q in params)))
    # One contiguous copy of the input serves both directions' projections
    # and their weight gradients; the classifier hands over a strided view.
    x2 = np.ascontiguousarray(x.data).reshape(n * t, d)
    fwd = _Direction(x2, forward, False, out[:, :, :u])
    bwd = _Direction(x2, backward, True, out[:, :, u:])
    if not _needs_grad(x, *params):
        return Tensor(out)

    def backprop(g):
        dz_fwd, dz_bwd = fwd.backprop(g[:, :, :u]), bwd.backprop(g[:, :, u:])
        if x.requires_grad:
            dx = dz_fwd @ forward.wx.data.T + dz_bwd @ backward.wx.data.T
            x.accumulate_grad(dx.reshape(n, t, d))

    return Tensor(out, True, (x,) + params, backprop)
