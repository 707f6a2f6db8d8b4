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
the broadcasting binary ops share `_binary`'s closure; `sum` and `mean`
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
        return _binary(self.data * b.data, self, b, lambda g: g * b.data, lambda g: g * self.data)

    def __truediv__(self, other):
        b = as_tensor(other, self)
        # IEEE negation is exact: negating the b-shaped divisor gives the bits of
        # negating the quotient
        return _binary(self.data / b.data, self, b, lambda g: g / b.data,
                       lambda g: g * self.data / -(b.data * b.data))

    def __matmul__(self, b: Tensor):
        if self.data.ndim < 2 or b.data.ndim < 2:
            raise ValueError("matmul requires at least 2-D operands")
        if self.data.shape[-1] != b.data.shape[-2]:
            raise ValueError(f"matmul shape mismatch: {self.data.shape} @ {b.data.shape}")
        if self.data.ndim != b.data.ndim or self.data.shape[:-2] != b.data.shape[:-2]:
            raise ValueError("matmul batch dimensions must match exactly")

        # the gradients have the operands' shapes: _unbroadcast passes them through
        return _binary(np.matmul(self.data, b.data), self, b, lambda g: np.matmul(g, b.data.swapaxes(-1, -2)),
                       lambda g: np.matmul(self.data.swapaxes(-1, -2), g))

    def __getitem__(self, key):
        def bw(g):
            _grad_buffer(self)[key] += g

        return _from_op(self.data[key], (self,), bw)

    def sum(self, axis=None, keepdims: bool = False):
        return _from_op(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                        lambda g: _acc(self, _unreduce(g, self.data.shape, axis, keepdims)))

    def mean(self, axis=None, keepdims: bool = False):
        out = self.data.mean(axis=axis, keepdims=keepdims)
        n = self.data.size // max(out.size, 1)  # elements per mean
        return _from_op(out, (self,), lambda g: _acc(self, _unreduce(g / n, self.data.shape, axis, keepdims)))

    def reshape(self, *shape):
        shape = tuple(shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)
        return _from_op(self.data.reshape(shape), (self,), lambda g: _acc(self, g.reshape(self.data.shape)))

    def transpose(self, *axes):
        axes = tuple(axes[0] if len(axes) == 1 and isinstance(axes[0], (tuple, list)) else axes)
        inv = tuple(np.argsort(axes))
        return _from_op(self.data.transpose(axes), (self,), lambda g: _acc(self, g.transpose(inv)))

    def abs(self):
        return _from_op(np.abs(self.data), (self,), lambda g: _acc(self, g * np.sign(self.data)))

    def sqrt(self):
        out_data = np.sqrt(self.data)
        return _from_op(out_data, (self,), lambda g: _acc(self, g / (2.0 * out_data)))

    def clamp(self, lo: float, hi: float):
        return _from_op(np.clip(self.data, lo, hi), (self,),
                        lambda g: _acc(self, g * ((self.data >= lo) & (self.data <= hi))))

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


def _unreduce(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction's output gradient back over the reduced axes."""
    if not (keepdims or axis is None):
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(int(lo), int(hi))
                _acc(t, g[tuple(idx)])

    return _from_op(np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


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

