"""numpy-backed tensors with reverse-mode automatic differentiation.

Every operation returns a new Tensor that remembers its parent tensors and a
closure that scatters the output gradient back onto them. ``Tensor.backward``
walks the recorded tape once, in reverse topological order. Gradients are
accumulated on every node that requires them, intermediates included, so
training code and tests can inspect any point of the graph.

The primitives here are the few that glue layers together: elementwise
add, mul and neg (broadcasting), the sum of every element, reshape and
transpose. Every layer is one tape node with a hand-written adjoint of its
own (``ops``, ``rnn`` and the classifier's attention pooling).

Graphs are built per step and discarded after ``backward``; parameters are
long-lived leaves whose ``data`` the optimizer updates in place between
steps. Inside a ``no_grad()`` scope no tape is recorded at all, for inference.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible; the message names the offending axes."""


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if not np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float32)
    return arr


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple = (),
        backprop: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backprop = backprop

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- autodiff ------------------------------------------------------

    def accumulate_grad(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar output, got shape {self.shape}"
            )
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backprop is not None and node.grad is not None:
                node._backprop(node.grad)

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_lift(other, self.dtype)))

    def __rsub__(self, other):
        return add(_lift(other, self.dtype), neg(self))


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS, so graph depth is not bounded by the interpreter's
    # recursion limit.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _lift(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no tape inside the scope: every op returns a constant Tensor
    with no parents or backprop closure, whatever its inputs require. Values
    are computed exactly as outside it. The scope is per thread and nests."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _needs_grad(*tensors: Tensor) -> bool:
    return _grad_mode.enabled and any(t.requires_grad for t in tensors)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise -------------------------------------------------------


def add(a, b) -> Tensor:
    a = _lift(a, getattr(b, "dtype", None))
    b = _lift(b, a.dtype)
    out_data = a.data + b.data
    if not _needs_grad(a, b):
        return Tensor(out_data)

    def backprop(g):
        a.accumulate_grad(_unbroadcast(g, a.shape))
        b.accumulate_grad(_unbroadcast(g, b.shape))

    return Tensor(out_data, True, (a, b), backprop)


def mul(a, b) -> Tensor:
    a = _lift(a, getattr(b, "dtype", None))
    b = _lift(b, a.dtype)
    out_data = a.data * b.data
    if not _needs_grad(a, b):
        return Tensor(out_data)

    def backprop(g):
        a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return Tensor(out_data, True, (a, b), backprop)


def neg(a: Tensor) -> Tensor:
    if not _needs_grad(a):
        return Tensor(-a.data)

    def backprop(g):
        a.accumulate_grad(-g)

    return Tensor(-a.data, True, (a,), backprop)


# -- reductions --------------------------------------------------------


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of every element."""
    out_data = a.data.sum()
    if not _needs_grad(a):
        return Tensor(out_data)

    def backprop(g):
        a.accumulate_grad(np.broadcast_to(g, a.shape).astype(a.dtype))

    return Tensor(out_data, True, (a,), backprop)


# -- structure ---------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = a.data.reshape(shape)
    if not _needs_grad(a):
        return Tensor(out_data)

    def backprop(g):
        a.accumulate_grad(g.reshape(a.shape))

    return Tensor(out_data, True, (a,), backprop)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out_data = a.data.transpose(axes)
    if not _needs_grad(a):
        return Tensor(out_data)

    inverse = tuple(np.argsort(axes))

    def backprop(g):
        a.accumulate_grad(g.transpose(inverse))

    return Tensor(out_data, True, (a,), backprop)
