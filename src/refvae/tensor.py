"""Reverse-mode autodiff over dense numpy arrays.

The graph is built eagerly, apart from the arrays: a `Tensor` is its `data`
plus, if and only if it requires grad, a `Node` that holds no array, only
the gradient, the parents' nodes and the closure routing the output gradient
back to them; a constant never joins the graph.  Each closure captures only
the arrays its rule reads (`*`, `/` and `@` their operands; `+`, `-`, `sum`,
`reshape` and `concat` none), so an op output that no backward reads dies
with the forward's last reference to it.  Indexing keeps its parent's array,
whose memory order its gradient buffer copies.  Eval mode builds no nodes.
`backward` linearises the nodes reachable from the loss into a tape
(topological order, parents first) and walks it exactly once in reverse,
accumulating into `.grad`.  It releases the graph as it goes: once an
interior node's closure has run, the node drops its gradient, closure and
parents, so activations and interior gradients are freed as soon as nothing
upstream needs them.  Only leaves keep `.grad`.

One backward rule per node shape: a one-input op's closure accumulates into
its input's node unconditionally (`_from_op` attaches it only when there is
one); the broadcasting binary ops share `_binary`'s closure; `sum` and `mean`
share `_unreduce`.

Training runs in float32; `float64_mode` switches tensor creation to
float64 so finite-difference checks are meaningful.
"""
from __future__ import annotations

import contextlib
from collections.abc import Callable, Sequence

import numpy as np


class NumericsError(RuntimeError):
    """Raised when a forward/backward pass produces NaN or Inf."""


_default_dtype: type = np.float32


@contextlib.contextmanager
def float64_mode():
    """Create tensors in float64 while the context is active."""
    global _default_dtype
    prev = _default_dtype
    _default_dtype = np.float64
    try:
        yield
    finally:
        _default_dtype = prev


class Node:
    """The graph place of a tensor that requires grad, holding no array.  `_owner` is the
    node whose buffer the tensor's data views (`_from_op` records it); None: its own buffer."""
    __slots__ = ("grad", "_parents", "_backward", "_owner")

    def __init__(self, parents: tuple[Node, ...] = (), backward: Callable[[np.ndarray], None] | None = None,
                 owner: Node | None = None):
        self.grad: np.ndarray | None = None
        self._parents, self._backward, self._owner = parents, backward, owner


class Tensor:
    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            arr = data
        else:
            arr = np.asarray(data, dtype=_default_dtype)
        self.data = arr
        self.node = Node() if requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    # the node's fields, read through the tensor; a constant has no node and no gradient
    @property
    def grad(self) -> np.ndarray | None:
        return self.node and self.node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self.node is not None:
            self.node.grad = value
        elif value is not None:
            raise ValueError("a tensor that does not require grad holds no gradient")

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def _backward(self) -> Callable[[np.ndarray], None] | None:
        return self.node and self.node._backward

    @_backward.setter
    def _backward(self, fn: Callable[[np.ndarray], None]) -> None:
        self.node._backward = fn

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        b = as_tensor(other, self)
        return _binary(self.data + b.data, self, b, lambda g: g, lambda g: g)

    def __sub__(self, other):
        b = as_tensor(other, self)
        return _binary(self.data - b.data, self, b, lambda g: g, lambda g: -g)

    def __mul__(self, other):
        b = as_tensor(other, self)
        ad, bd = self.data, b.data
        return _binary(ad * bd, self, b, lambda g: g * bd, lambda g: g * ad)

    def __truediv__(self, other):
        b = as_tensor(other, self)
        ad, bd = self.data, b.data
        # IEEE negation is exact: negating the b-shaped divisor gives the bits of
        # negating the quotient
        return _binary(ad / bd, self, b, lambda g: g / bd, lambda g: g * ad / -(bd * bd))

    def __matmul__(self, b: Tensor):
        ad, bd = self.data, b.data
        if ad.ndim < 2 or bd.ndim < 2:
            raise ValueError("matmul requires at least 2-D operands")
        if ad.shape[-1] != bd.shape[-2]:
            raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
        if ad.ndim != bd.ndim or ad.shape[:-2] != bd.shape[:-2]:
            raise ValueError("matmul batch dimensions must match exactly")

        # the gradients have the operands' shapes: _unbroadcast passes them through
        return _binary(np.matmul(ad, bd), self, b, lambda g: np.matmul(g, bd.swapaxes(-1, -2)),
                       lambda g: np.matmul(ad.swapaxes(-1, -2), g))

    def __getitem__(self, key):
        out, xd, xn = self.data[key], self.data, self.node  # the buffer copies xd's memory order
        view = np.may_share_memory(out, xd)  # a basic key (ints, slices) selects each element once

        def bw(g):
            if view:
                _grad_buffer(xn, xd)[key] += g
            else:  # an array key may repeat an element: every repeat adds
                np.add.at(_grad_buffer(xn, xd), key, g)

        return _from_op(out, (self,), bw)

    def sum(self, axis=None, keepdims: bool = False):
        xn, shape = self.node, self.shape
        return _from_op(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                        lambda g: _acc(xn, _unreduce(g, shape, axis, keepdims)))

    def mean(self, axis=None, keepdims: bool = False):
        out = self.data.mean(axis=axis, keepdims=keepdims)
        xn, shape = self.node, self.shape
        n = self.data.size // max(out.size, 1)  # elements per mean
        return _from_op(out, (self,), lambda g: _acc(xn, _unreduce(g / n, shape, axis, keepdims)))

    def reshape(self, *shape):
        shape = tuple(shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)
        xn, old = self.node, self.shape
        return _from_op(self.data.reshape(shape), (self,), lambda g: _acc(xn, g.reshape(old)))

    def transpose(self, *axes):
        axes = tuple(axes[0] if len(axes) == 1 and isinstance(axes[0], (tuple, list)) else axes)
        xn, inv = self.node, tuple(np.argsort(axes))
        return _from_op(self.data.transpose(axes), (self,), lambda g: _acc(xn, g.transpose(inv)))

    def abs(self):
        xd, xn = self.data, self.node
        return _from_op(np.abs(xd), (self,), lambda g: _acc(xn, g * np.sign(xd)))

    def sqrt(self):
        out_data, xn = np.sqrt(self.data), self.node
        return _from_op(out_data, (self,), lambda g: _acc(xn, g / (2.0 * out_data)))

    def clamp(self, lo: float, hi: float):
        xd, xn = self.data, self.node
        return _from_op(np.clip(xd, lo, hi), (self,), lambda g: _acc(xn, g * ((xd >= lo) & (xd <= hi))))

    def backward(self) -> None:
        backward(self)


def parameter(data) -> Tensor:
    """Leaf tensor that participates in optimisation."""
    return Tensor(np.array(data, dtype=_default_dtype), requires_grad=True)


def as_tensor(x, like: Tensor) -> Tensor:
    """`x`, or a constant of `like`'s dtype holding it."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _from_op(data: np.ndarray, parents: Sequence[Tensor | Node],
             backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """`data` as a tensor, with a node over the parents' nodes if any has one (else none,
    so activations can be collected); a view of the first parent's array records its owner."""
    out = Tensor(data)
    if nodes := tuple(n for n in (p if isinstance(p, Node) else p.node for p in parents) if n):
        first = parents[0]
        owner = (first.node._owner or first.node if isinstance(first, Tensor) and first.node
                 and np.may_share_memory(data, first.data) else None)
        out.node = Node(nodes, backward_fn, owner)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _acc(n: Node, g: np.ndarray) -> None:
    """Accumulate a full-shape gradient; first touch copies, later adds."""
    if n.grad is None:
        n.grad = np.array(g)
    else:
        n.grad += g


def _grad_buffer(n: Node, like: np.ndarray) -> np.ndarray:
    """Zero gradient buffer, in the memory order of `like`, for closures that scatter into sub-regions."""
    if n.grad is None:
        n.grad = np.zeros_like(like)
    return n.grad


# -- primitive operations ---------------------------------------------------


def _binary(out: np.ndarray, a: Tensor, b: Tensor, grad_a: Callable, grad_b: Callable) -> Tensor:
    """Node of a broadcasting binary op.  `grad_a(g)` and `grad_b(g)` give an
    operand's gradient at the output's shape; each runs only for an operand
    that requires grad, and is summed down to that operand's shape."""
    rules = [(t.node, grad, t.shape) for t, grad in ((a, grad_a), (b, grad_b)) if t.node]

    def bw(g):
        for n, grad, shape in rules:
            _acc(n, _unbroadcast(grad(g), shape))

    return _from_op(out, (a, b), bw)


def _unreduce(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction's output gradient back over the reduced axes."""
    if not (keepdims or axis is None):
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    parts = [(t.node, int(lo), int(hi)) for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]) if t.node]

    def bw(g):
        for n, lo, hi in parts:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _acc(n, g[tuple(idx)])

    return _from_op(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


# -- backward pass -----------------------------------------------------------


def build_tape(root: Tensor) -> list[Node]:
    """Topological order of the nodes reachable from `root`, parents first."""
    tape: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root.node, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            tape.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return tape


def _released(g: np.ndarray) -> None:
    """Closure of a node whose graph an earlier backward released."""
    raise ValueError("backward through a graph that an earlier backward released")


# the node of a constant that an op took over in eval mode: reading it again builds a released graph
_CONSUMED = Node(backward=_released)


def _take_over(t: Tensor) -> tuple[Callable[[np.ndarray], None] | None, tuple[Node, ...]]:
    """t's closure and parents, for an op whose node takes t's place; t's node is left released."""
    n = t.node
    if n is None:
        t.node = _CONSUMED
        return None, ()
    taken = n._backward, n._parents
    n._backward, n._parents = _released, ()
    return taken


def backward(loss: Tensor) -> None:
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad: graph is detached")
    tape = build_tape(loss)
    for n in tape:
        n.grad = None
    loss.grad = np.ones_like(loss.data)
    while tape:
        n = tape.pop()
        if n._backward is None:  # a leaf keeps its gradient
            continue
        if n.grad is not None:
            n._backward(n.grad)
        n.grad, n._backward, n._parents = None, _released, ()
