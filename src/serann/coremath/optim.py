"""Adam with bias correction, and the parts every training loop shares.

``Adam`` binds the update to a dict of parameter tensors for training loops
and updates each ``data`` in place through one kernel, ``_update``, which
writes its results with ``out=``. ``adam_step`` is the functional form over
plain arrays: it runs ``Adam.step`` on copies, so it leaves its inputs
untouched, returns new arrays and times the code path training runs.
Moments and the step counter live in ``AdamState`` so optimizer state can be
inspected or rebuilt.

Both trainers share three plain helpers: ``shuffled_batches`` splits an
epoch into batches, ``minibatch_step`` refuses a non-finite loss or runs
backward, ``Adam.step`` and ``zero_grad``, and ``History`` keeps the epoch
entries and streams each one to disk.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from ..fileio import jsonl_line
from .rng import Rng
from .tensor import Tensor

# Array passes (reads plus writes, counted per ufunc call) of ``_update``,
# and the extra passes of running it on gathered rows: p, g, m and v are
# gathered (read and written once each) and p, m and v scattered back.
_KERNEL_PASSES = 31
_GATHER_SCATTER_PASSES = 14


class NonFiniteGradientError(FloatingPointError):
    pass


class NonFiniteLossError(FloatingPointError):
    pass


@dataclass
class AdamState:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def _check_finite(grads: Mapping[str, np.ndarray], step: int) -> None:
    for name, g in grads.items():
        # min and max propagate NaN and reach any infinity, so two
        # reductions test every entry without a full-size boolean mask.
        if not (np.isfinite(np.min(g, initial=0.0)) and np.isfinite(np.max(g, initial=0.0))):
            bad = int(np.size(g) - np.isfinite(g).sum())
            raise NonFiniteGradientError(
                f"gradient for {name!r} has {bad} non-finite entries at step {step}"
            )


def _hyper(state: AdamState) -> tuple[float, ...]:
    """(lr, beta1, beta2, epsilon, bc1, bc2) for step ``state.t``."""
    b1, b2 = state.beta1, state.beta2
    return (state.learning_rate, b1, b2, state.epsilon, 1.0 - b1**state.t, 1.0 - b2**state.t)


def _update(p, g, m, v, s1, s2, lr, b1, b2, eps, bc1, bc2) -> None:
    """One Adam update of ``p``, ``m`` and ``v`` in place; ``s1`` and ``s2``
    are scratch arrays of ``p``'s shape and dtype. The operations and their
    order are those of ``p - lr * (m / bc1) / (sqrt(v / bc2) + eps)``."""
    np.multiply(m, b1, out=m)
    np.multiply(g, 1.0 - b1, out=s1)
    np.add(m, s1, out=m)  # m = b1·m + (1−b1)·g
    np.multiply(g, g, out=s1)
    np.multiply(s1, 1.0 - b2, out=s1)
    np.multiply(v, b2, out=v)
    np.add(v, s1, out=v)  # v = b2·v + (1−b2)·g²
    np.divide(m, bc1, out=s1)
    np.multiply(s1, lr, out=s1)
    np.divide(v, bc2, out=s2)
    np.sqrt(s2, out=s2)
    np.add(s2, eps, out=s2)
    np.divide(s1, s2, out=s1)
    np.subtract(p, s1, out=p)


def _zero_rows_hold(dtype, hyper: tuple[float, ...]) -> bool:
    """Whether a row with m = v = +0 and a gradient of ±0 keeps every bit of
    p, m and v under this step's hyperparameters. It does for any learning
    rate >= 0 and epsilon > 0; the probe runs the kernel itself, so the
    skip stays exact whatever the settings."""
    p = np.array([-0.0, -0.0], dtype)
    g = np.array([0.0, -0.0], dtype)
    m, v = np.zeros(2, dtype), np.zeros(2, dtype)
    _update(p, g, m, v, np.empty(2, dtype), np.empty(2, dtype), *hyper)
    zeros = bytes(m.nbytes)
    return p.tobytes() == np.array([-0.0, -0.0], dtype).tobytes() and m.tobytes() == zeros and v.tobytes() == zeros


def adam_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> dict[str, np.ndarray]:
    """One bias-corrected update; mutates ``state``, returns new parameters.

    ``params`` and the moment arrays already in ``state`` are left as they
    were: ``Adam.step`` runs on copies, and ``state`` gets the new moments."""
    tensors = {name: Tensor(np.array(p)) for name, p in params.items()}
    for name, t in tensors.items():
        t.grad = grads.get(name)
    adam = Adam(tensors, state.learning_rate)
    adam.state = copy.deepcopy(state)
    adam.step()
    state.t = adam.state.t
    state.m.update(adam.state.m)
    state.v.update(adam.state.v)
    return {name: t.data for name, t in tensors.items()}


class Adam:
    """Adam bound to named parameter tensors; updates ``data`` in place on step.

    The moments are allocated on first use and updated in place, and two
    scratch buffers per dtype, sized to the largest parameter, hold the
    kernel's temporaries, so a step allocates no parameter-sized array.

    Rows that never moved are skipped. For a parameter of two or more
    dimensions the optimizer tracks which rows (first axis) have ever had a
    nonzero gradient. Every other row has m = v = +0, and its update is
    p − (+0) = p bit for bit, so the step runs the kernel on the live rows
    alone, gathered and scattered back. That pays only while few rows are
    live (an unused codebook entry); gathering and scattering costs passes
    of its own, so the row path is taken only while it moves fewer bytes
    than the dense kernel. Live rows never die, so once the dense kernel
    wins the row mask is dropped for good.
    """

    def __init__(self, params: Mapping[str, Tensor], learning_rate: float):
        self.params = dict(params)
        first: dict[int, str] = {}
        shared = [
            f"{first[id(t)]!r} and {name!r}"
            for name, t in self.params.items()
            if first.setdefault(id(t), name) != name
        ]
        if shared:
            raise ValueError(
                f"parameters name the same Tensor ({', '.join(shared)}); an in-place step would update it twice"
            )
        frozen = [name for name, t in self.params.items() if not t.data.flags.writeable]
        if frozen:
            raise ValueError(f"parameters {frozen} have read-only data; Adam updates data in place")
        self.state = AdamState(learning_rate)
        self._scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
        self._live: dict[str, np.ndarray] = {}

    def _buffers(self, a: np.ndarray) -> tuple[np.ndarray, ...]:
        """The two scratch buffers for ``a``'s dtype, as views of its shape."""
        bufs = self._scratch.get(a.dtype)
        if bufs is None or bufs[0].size < a.size:
            size = max(t.data.size for t in self.params.values() if t.data.dtype == a.dtype)
            bufs = self._scratch[a.dtype] = (np.empty(size, a.dtype), np.empty(size, a.dtype))
        return tuple(b[: a.size].reshape(a.shape) for b in bufs)

    def _moments(self, name: str, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        state = self.state
        if name not in state.m:
            state.m[name] = np.zeros(p.shape, p.dtype)
            state.v[name] = np.zeros(p.shape, p.dtype)
            if p.ndim >= 2:
                self._live[name] = np.zeros(len(p), dtype=bool)
        return state.m[name], state.v[name]

    def _live_rows(self, name: str, g: np.ndarray, exact: bool) -> np.ndarray | None:
        """Indices of the rows to update, or None for the dense kernel."""
        live = self._live.get(name)
        if live is None:
            return None
        live |= g.any(axis=tuple(range(1, g.ndim)))
        count = int(np.count_nonzero(live))
        rows = len(live)
        # The row path also pays one pass over g to update the mask.
        if exact and (_KERNEL_PASSES + _GATHER_SCATTER_PASSES) * count + rows < _KERNEL_PASSES * rows:
            return np.flatnonzero(live)
        del self._live[name]
        return None

    def step(self) -> None:
        grads = {name: t.grad for name, t in self.params.items() if t.grad is not None}
        _check_finite(grads, self.state.t + 1)
        self.state.t += 1
        hyper = _hyper(self.state)
        exact: dict[np.dtype, bool] = {}
        for name, t in self.params.items():
            p = t.data
            g = grads.get(name)
            g = np.zeros_like(p) if g is None else np.asarray(g, dtype=p.dtype)
            m, v = self._moments(name, p)
            if name in self._live and p.dtype not in exact:
                exact[p.dtype] = _zero_rows_hold(p.dtype, hyper)
            rows = self._live_rows(name, g, exact.get(p.dtype, False))
            if rows is None:
                _update(p, g, m, v, *self._buffers(p), *hyper)
            else:
                pr, mr, vr = p[rows], m[rows], v[rows]
                _update(pr, g[rows], mr, vr, *self._buffers(pr), *hyper)
                p[rows], m[rows], v[rows] = pr, mr, vr

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()


def minibatch_step(loss: Tensor, adam: Adam, **terms: float) -> float:
    """Backpropagate the scalar ``loss``, step ``adam``, clear the gradients
    and return the loss value. A non-finite loss raises NonFiniteLossError,
    naming the step and the ``terms`` it was summed from, before any change."""
    value = float(loss.data)
    if not np.isfinite(value):
        detail = ": " + ", ".join(f"{name}={term}" for name, term in terms.items()) if terms else ""
        raise NonFiniteLossError(f"non-finite loss at optimizer step {adam.state.t + 1}{detail}")
    loss.backward()
    adam.step()
    adam.zero_grad()
    return value


def shuffled_batches(rng: Rng, n: int, batch_size: int) -> list[np.ndarray]:
    """One epoch's batches: a permutation of ``range(n)`` drawn from ``rng``,
    cut into index arrays of ``batch_size`` (the last may be shorter)."""
    order = rng.permutation(n)
    return [order[start : start + batch_size] for start in range(0, n, batch_size)]


class History:
    """Epoch entries, kept in ``entries`` and appended to the file at ``path``
    (emptied first) as sorted-keys JSON lines. The file is closed after each
    line, so a crash loses at most the epoch in progress."""

    def __init__(self, path=None):
        self.entries: list[dict] = []
        self.path = path
        if path:
            Path(path).write_bytes(b"")

    def append(self, entry: dict) -> None:
        self.entries.append(entry)
        if self.path:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(jsonl_line(entry))
