import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grad_check
from refvae.tensor import (
    Tensor,
    backward,
    build_tape,
    concat,
    float64_mode,
    parameter,
)


def rand(rng, *shape):
    return parameter(rng.standard_normal(shape))


def test_matmul_identity():
    rng = np.random.default_rng(0)
    b = Tensor(rng.standard_normal((3, 5)))
    eye = Tensor(np.eye(3))
    out = eye @ b
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_hand_arithmetic():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([[1.0], [1.0]]))
    out = a @ b
    np.testing.assert_array_equal(out.data, np.array([[3.0], [7.0]]))


def test_matmul_shape_mismatch_raises():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        a @ b


def test_matmul_gradient_finite_differences():
    with float64_mode():
        rng = np.random.default_rng(1)
        a = rand(rng, 3, 4)
        b = Tensor(rng.standard_normal((4, 2)))
        err = grad_check(lambda t: (t @ b).sum(), a, eps=1e-3)
    assert err < 1e-4


def test_backward_sum_gives_ones():
    x = parameter(np.arange(6.0).reshape(2, 3))
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_gives_2x():
    x = parameter(np.arange(6.0).reshape(2, 3))
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, 2 * x.data)


def test_backward_rejects_nonscalar():
    x = parameter(np.ones(3))
    with pytest.raises(ValueError):
        backward(x * 2.0)


def test_backward_rejects_detached():
    x = Tensor(np.ones(()))
    with pytest.raises(ValueError):
        backward(x)


def test_tape_is_topological_and_visits_once():
    x = parameter(np.ones(2))
    y = x * 3.0
    z = y + y * 2.0  # y consumed twice
    loss = z.sum()
    tape = build_tape(loss)
    ids = [id(t) for t in tape]
    assert len(ids) == len(set(ids))
    seen = set()
    for t in tape:
        for p in t._parents:
            assert id(p) in seen
        seen.add(id(t))


def test_shared_subgraph_accumulates():
    x = parameter(np.array(2.0))
    y = parameter(np.array(-4.0))
    q = (x + y) * (x + 1.0)
    q.backward()
    assert x.grad == pytest.approx((2.0 - 4.0) + (2.0 + 1.0))
    assert y.grad == pytest.approx(3.0)


def test_backward_releases_the_graph():
    x = parameter(np.ones(3))
    y = (x * 2.0).sqrt()
    loss = y.sum()
    activation = weakref.ref(y.data)
    del y
    backward(loss)
    assert activation() is None
    assert loss.grad is None and not loss._parents
    np.testing.assert_allclose(x.grad, np.full(3, 1.0 / np.sqrt(2.0)))
    with pytest.raises(ValueError, match="released"):
        backward(loss)


def test_repeated_backward_resets_grads():
    x = parameter(np.ones(4))
    x.sum().backward()
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones(4))


def test_grad_check_sum_is_tiny():
    with float64_mode():
        x = parameter(np.random.default_rng(2).standard_normal((3, 3)))
        assert grad_check(lambda t: t.sum(), x, eps=1e-3) < 1e-10


def test_grad_check_l1_away_from_kinks():
    with float64_mode():
        rng = np.random.default_rng(3)
        target = rng.standard_normal((4, 4))
        x = parameter(target + np.where(rng.random((4, 4)) > 0.5, 0.5, -0.5))
        err = grad_check(lambda t: (t - Tensor(target)).abs().mean(), x, eps=1e-3)
    assert err < 1e-4


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_elementwise_grads_match_finite_differences(seed):
    with float64_mode():
        rng = np.random.default_rng(seed)
        x = parameter(rng.standard_normal((2, 3)))

        def f(t):
            y = (t * t + 1.0) / 3.0  # smooth and >= 1/3 for any input
            return (y.sqrt() + y / (y + 1.0) * 0.05 + y * y).mean()

        assert grad_check(f, x, eps=1e-4) < 1e-6


def test_slice_and_concat_roundtrip_grad():
    with float64_mode():
        rng = np.random.default_rng(5)
        x = parameter(rng.standard_normal((4, 6)))

        def f(t):
            parts = concat([t[:, :2] * 2.0, t[:, 2:]], axis=1)
            return (parts * parts).sum()

        assert grad_check(f, x, eps=1e-4) < 1e-7


def test_broadcast_add_unbroadcasts_grad():
    x = parameter(np.ones((3, 1, 2)))
    y = parameter(np.ones((2,)))
    (x + y).sum().backward()
    np.testing.assert_array_equal(x.grad, np.full((3, 1, 2), 1.0))
    np.testing.assert_array_equal(y.grad, np.full((2,), 3.0))


def test_transpose_reshape_grads():
    with float64_mode():
        x = parameter(np.random.default_rng(6).standard_normal((2, 3, 4)))

        def f(t):
            return (t.transpose(2, 0, 1).reshape(4, 6) * 1.5).sum()

        assert grad_check(f, x, eps=1e-4) < 1e-8


def test_clamp_grad_masks_outside():
    x = parameter(np.array([-0.5, 0.25, 1.5]))
    x.clamp(0.0, 1.0).sum().backward()
    np.testing.assert_array_equal(x.grad, np.array([0.0, 1.0, 0.0]))


def test_float64_mode_scopes_dtype():
    assert Tensor(1.0).dtype == np.float32
    with float64_mode():
        assert Tensor(1.0).dtype == np.float64
    assert Tensor(1.0).dtype == np.float32


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(7)
        x = parameter(rng.standard_normal((8, 8)))
        w = parameter(rng.standard_normal((8, 8)))
        loss = ((x @ w) * (x @ w)).mean()
        loss.backward()
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "matmul": lambda a, b: a @ b,
}
# (left shape, right shape): elementwise ops broadcast either operand, matmul's batch dims match
BINARY_SHAPES = {"matmul": [((2, 3, 4), (2, 4, 5))]}
BROADCAST_SHAPES = [((2, 3, 4), (3, 1)), ((1, 4), (2, 3, 4)), ((2, 1, 4), (1, 3, 1))]


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("op", sorted(BINARY_OPS))
def test_binary_op_grads_with_broadcast_operand(op, side):
    fn = BINARY_OPS[op]
    for k, shapes in enumerate(BINARY_SHAPES.get(op, BROADCAST_SHAPES)):
        with float64_mode():
            rng = np.random.default_rng(10 * k + side)
            arrays = [rng.standard_normal(s) for s in shapes]
            arrays[1] = np.sign(arrays[1]) * (1.0 + np.abs(arrays[1]))  # divisors away from 0
            x, const = parameter(arrays[side]), Tensor(arrays[1 - side])
            weights = Tensor(rng.standard_normal(fn(*arrays).shape))  # every output element counts

            def f(t):
                return (fn(*((t, const) if side == 0 else (const, t))) * weights).sum()

            assert grad_check(f, x, eps=1e-4) < 1e-6
        assert x.grad.shape == shapes[side]
        assert const.grad is None  # the constant operand's gradient is never computed


@pytest.mark.parametrize("axis,keepdims", [(None, False), (None, True), ((0, 2), False), ((0, 2), True),
                                           (1, True), (-1, False)])
@pytest.mark.parametrize("reduce", ["sum", "mean"])
def test_reduction_grads_over_axes(reduce, axis, keepdims):
    with float64_mode():
        rng = np.random.default_rng(8)
        x = parameter(rng.standard_normal((2, 3, 4)))
        out = getattr(x, reduce)(axis=axis, keepdims=keepdims)
        np.testing.assert_array_equal(out.data, getattr(x.data, reduce)(axis=axis, keepdims=keepdims))
        weights = Tensor(rng.standard_normal(out.shape))
        assert grad_check(lambda t: (getattr(t, reduce)(axis=axis, keepdims=keepdims) * weights).sum(), x,
                          eps=1e-4) < 1e-8
