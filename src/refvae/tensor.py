"""Reverse-mode autodiff over dense numpy arrays.

The graph is built eagerly: every operation returns a new Tensor that keeps
references to its parent tensors and a closure routing the output gradient
back to them.  `backward` linearises the graph reachable from the loss into
a tape (topological order, parents first) and walks it exactly once in
reverse, accumulating into `.grad`.  It releases the graph as it goes: once
an interior node's closure has run, the node drops its gradient, closure
and parents, so activations and interior gradients are freed as soon as
nothing upstream needs them.  Only leaves keep `.grad`.

One backward rule per node shape: a one-input op's closure accumulates
unconditionally (`_from_op` attaches it only when the input requires grad);
the broadcasting binary ops share `_binary`'s closure; `tsum` and `tmean`
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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple["Tensor", ...] = (),
                 _backward: Callable[[np.ndarray], None] | None = None):
        if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            arr = data
        else:
            arr = np.asarray(data, dtype=_default_dtype)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other, like=self), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, *axes):
        return transpose(self, axes[0] if len(axes) == 1 and isinstance(axes[0], (tuple, list)) else axes)

    def abs(self):
        return tabs(self)

    def sqrt(self):
        return sqrt(self)

    def clamp(self, lo: float, hi: float):
        return clamp(self, lo, hi)

    def backward(self) -> None:
        backward(self)


def parameter(data) -> Tensor:
    """Leaf tensor that participates in optimisation."""
    return Tensor(np.array(data, dtype=_default_dtype), requires_grad=True)


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else _default_dtype
    return Tensor(np.asarray(x, dtype=dtype))


def _from_op(data: np.ndarray, parents: Sequence[Tensor],
             backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward_fn)
    # keep eval-mode graphs free of references so activations can be collected
    return Tensor(data)


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


def _acc(t: Tensor, g: np.ndarray) -> None:
    """Accumulate a full-shape gradient; first touch copies, later adds."""
    if t.grad is None:
        t.grad = np.array(g)
    else:
        t.grad += g


def _grad_buffer(t: Tensor) -> np.ndarray:
    """Zero gradient buffer for closures that scatter into sub-regions."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


# -- primitive operations ---------------------------------------------------


def _binary(out: np.ndarray, a: Tensor, b: Tensor, grad_a: Callable, grad_b: Callable) -> Tensor:
    """Node of a broadcasting binary op.  `grad_a(g)` and `grad_b(g)` give an
    operand's gradient at the output's shape; each runs only for an operand
    that requires grad, and is summed down to that operand's shape."""
    def bw(g):
        for t, grad in ((a, grad_a), (b, grad_b)):
            if t.requires_grad:
                _acc(t, _unbroadcast(grad(g), t.data.shape))

    return _from_op(out, (a, b), bw)


def add(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b, like=a)
    return _binary(a.data + b.data, a, b, lambda g: g, lambda g: g)


def sub(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b, like=a)
    return _binary(a.data - b.data, a, b, lambda g: g, lambda g: -g)


def mul(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b, like=a)
    return _binary(a.data * b.data, a, b, lambda g: g * b.data, lambda g: g * a.data)


def div(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b, like=a)
    # IEEE negation is exact: negating the b-shaped divisor gives the bits of
    # negating the quotient
    return _binary(a.data / b.data, a, b, lambda g: g / b.data,
                   lambda g: g * a.data / -(b.data * b.data))


def neg(a: Tensor) -> Tensor:
    return _from_op(-a.data, (a,), lambda g: _acc(a, -g))


def tabs(a: Tensor) -> Tensor:
    return _from_op(np.abs(a.data), (a,), lambda g: _acc(a, g * np.sign(a.data)))


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return _from_op(out_data, (a,), lambda g: _acc(a, g / (2.0 * out_data)))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    return _from_op(np.clip(a.data, lo, hi), (a,), lambda g: _acc(a, g * ((a.data >= lo) & (a.data <= hi))))


def _unreduce(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction's output gradient back over the reduced axes."""
    if not (keepdims or axis is None):
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _from_op(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                    lambda g: _acc(a, _unreduce(g, a.data.shape, axis, keepdims)))


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size // max(out.size, 1)  # elements per mean
    return _from_op(out, (a,), lambda g: _acc(a, _unreduce(g / n, a.data.shape, axis, keepdims)))


def reshape(a: Tensor, shape) -> Tensor:
    return _from_op(a.data.reshape(tuple(shape)), (a,), lambda g: _acc(a, g.reshape(a.data.shape)))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _from_op(a.data.transpose(axes), (a,), lambda g: _acc(a, g.transpose(inv)))


def getitem(a: Tensor, key) -> Tensor:
    def bw(g):
        _grad_buffer(a)[key] += g

    return _from_op(a.data[key], (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(int(lo), int(hi))
                _acc(t, g[tuple(idx)])

    return _from_op(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires at least 2-D operands")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    if a.data.ndim != b.data.ndim or a.data.shape[:-2] != b.data.shape[:-2]:
        raise ValueError("matmul batch dimensions must match exactly")

    # the gradients have the operands' shapes: _unbroadcast passes them through
    return _binary(np.matmul(a.data, b.data), a, b, lambda g: np.matmul(g, b.data.swapaxes(-1, -2)),
                   lambda g: np.matmul(a.data.swapaxes(-1, -2), g))


# -- backward pass -----------------------------------------------------------


def build_tape(root: Tensor) -> list[Tensor]:
    """Topological order of the graph reachable from `root`, parents first."""
    tape: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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


def backward(loss: Tensor) -> None:
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad: graph is detached")
    tape = build_tape(loss)
    for t in tape:
        t.grad = None
    loss.grad = np.ones_like(loss.data)
    while tape:
        t = tape.pop()
        if t._backward is None:  # a leaf keeps its gradient
            continue
        if t.grad is not None:
            t._backward(t.grad)
        t.grad, t._backward, t._parents = None, _released, ()


def assert_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values in {what}")

