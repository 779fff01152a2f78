"""numpy-backed tensors with reverse-mode automatic differentiation.

Every operation returns a new Tensor that remembers its parent tensors and a
closure that scatters the output gradient back onto them. ``Tensor.backward``
walks the recorded tape once, in reverse topological order. Gradients are
accumulated on every node that requires them, intermediates included, so
training code and tests can inspect any point of the graph.

Graphs are built per step and discarded after ``backward``; parameters are
long-lived leaves whose ``data`` the optimizer rebinds between steps. Inside a
``no_grad()`` scope no tape is recorded at all, for inference.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible; the message names the offending axes."""


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if not np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float32)
    return arr


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple = (),
        backprop: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
        dtype=None,
    ):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backprop = backprop
        self.name = name

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
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tag})"

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

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)


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


def relu(a: Tensor) -> Tensor:
    # Derivative at exactly 0 is 0.
    out_data = np.maximum(a.data, 0)
    if not _needs_grad(a):
        return Tensor(out_data)

    def backprop(g):
        a.accumulate_grad(g * (a.data > 0))

    return Tensor(out_data, True, (a,), backprop)


# -- reductions --------------------------------------------------------


def _restore_axes(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool):
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    if not _needs_grad(a):
        return Tensor(out_data)

    def backprop(g):
        a.accumulate_grad(_restore_axes(g, a.shape, axis, keepdims).astype(a.dtype))

    return Tensor(out_data, True, (a,), backprop)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.data.size // out_data.size
    if not _needs_grad(a):
        return Tensor(out_data)

    def backprop(g):
        spread = _restore_axes(g, a.shape, axis, keepdims).astype(a.dtype)
        a.accumulate_grad(spread / count)

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-d operands, got {a.ndim}-d and {b.ndim}-d"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape[1]} (axis 1 of left) "
            f"vs {b.shape[0]} (axis 0 of right)"
        )
    out_data = a.data @ b.data
    if not _needs_grad(a, b):
        return Tensor(out_data)

    def backprop(g):
        a.accumulate_grad(g @ b.data.T)
        b.accumulate_grad(a.data.T @ g)

    return Tensor(out_data, True, (a, b), backprop)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=axis, keepdims=True)
    if not _needs_grad(a):
        return Tensor(out_data)

    def backprop(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        a.accumulate_grad((g - inner) * out_data)

    return Tensor(out_data, True, (a,), backprop)


# -- gradient routing --------------------------------------------------


def stop_gradient(a: Tensor) -> Tensor:
    """A constant copy: values flow forward, no gradient flows back."""
    return Tensor(a.data.copy())


def straight_through(carrier: Tensor, values: np.ndarray) -> Tensor:
    """Emit ``values`` forward; deliver the output gradient to ``carrier``
    unchanged, as if the value substitution had not happened."""
    values = np.asarray(values, dtype=carrier.dtype)
    if values.shape != carrier.shape:
        raise ShapeError(
            f"straight_through value shape {values.shape} does not match "
            f"carrier shape {carrier.shape}"
        )
    if not _needs_grad(carrier):
        return Tensor(values.copy())

    def backprop(g):
        carrier.accumulate_grad(g)

    return Tensor(values.copy(), True, (carrier,), backprop)


def gather_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup ``table[idx]`` with scatter-add of gradients onto rows."""
    idx = np.asarray(idx)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-d table, got {table.ndim}-d")
    out_data = table.data[idx].copy()
    if not _needs_grad(table):
        return Tensor(out_data)

    def backprop(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, idx, g)
        table.accumulate_grad(buf)

    return Tensor(out_data, True, (table,), backprop)
