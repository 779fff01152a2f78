"""numpy-backed tensors with reverse-mode automatic differentiation.

Every operation returns a new Tensor that remembers its parent tensors and a
closure that scatters the output gradient back onto them. ``Tensor.backward``
walks the recorded tape once, in reverse topological order, and consumes it
as it goes: once a node's closure has run, the node lets go of the closure
and of its parents, so nothing in the sweep still holds a node it has
passed. An intermediate the caller does not hold is freed mid-sweep, with
its data, its gradient and the arrays its closure saved; a tensor the
caller holds keeps its ``.grad``. A consumed node cannot be swept again: a
second ``backward`` from the same root, or from another root whose graph
reaches a consumed node, raises ``ConsumedGraphError`` before any gradient
moves (after Chen et al., "Training Deep Nets with Sublinear Memory Cost",
arXiv 1604.06174, which frees each value once its last use has run).

The primitives here are the few that glue layers together: ``add`` of two
tensors of one shape (the VQ-VAE's loss terms), reshape and transpose, plus
the sum of every element, which the benchmark's op timings differentiate.
Every layer is one tape node with a hand-written adjoint of its own
(``ops``, ``rnn`` and the classifier's attention pooling).

Graphs are built per step and consumed by ``backward``; parameters are
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


class ConsumedGraphError(RuntimeError):
    """A backward sweep reached a tape node that an earlier sweep consumed."""


def _consumed(g: np.ndarray) -> None:
    """The closure a node keeps once a sweep has run its own: the mark of a
    consumed node."""
    raise ConsumedGraphError("this tape node was consumed by an earlier backward")


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
        """Reverse-mode sweep from a scalar output that consumes the tape
        behind it (see the module docstring)."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward requires a scalar output, got shape {self.shape}"
            )
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            order.pop()._consume()

    def _consume(self) -> None:
        # A method, so that its frame is the sweep's only hold on the node
        # and on its closure, and both go when it returns.
        backprop = self._backprop
        if backprop is None:
            return
        self._backprop, self._parents = _consumed, ()
        if self.grad is not None:
            backprop(self.grad)

    def __add__(self, other):
        return add(self, other)


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
        if node._backprop is _consumed:
            raise ConsumedGraphError(
                f"backward reached {node!r}, a tape node that an earlier backward "
                "consumed; build the graph again to differentiate it again"
            )
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


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


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if not (isinstance(a, Tensor) and isinstance(b, Tensor) and a.shape == b.shape):
        raise ShapeError(f"add needs two tensors of one shape, got {a!r} and {b!r}")
    out_data = a.data + b.data
    if not _needs_grad(a, b):
        return Tensor(out_data)

    def backprop(g):
        a.accumulate_grad(g)
        b.accumulate_grad(g)

    return Tensor(out_data, True, (a, b), backprop)


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
