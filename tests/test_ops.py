import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grad_check
from refvae import ops, vae
from refvae.ops import (
    attention,
    conv3d_causal,
    gelu,
    groupnorm,
    rmsnorm,
    rope_apply,
    silu,
    upsample_causal,
    upsample_nearest,
)
from refvae.tensor import Tensor, float64_mode, parameter


def conv3d_naive(x, w, stride):
    """Direct six-nested-loop convolution with causal temporal padding."""
    cin, t_in, h_in, w_in = x.shape
    cout, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (kt - 1, 0), (ph, ph), (pw, pw)))
    t_out = (t_in - 1) // st + 1
    h_out = (h_in - 1) // sh + 1
    w_out = (w_in - 1) // sw + 1
    out = np.zeros((cout, t_out, h_out, w_out), dtype=np.float64)
    for co in range(cout):
        for ci in range(cin):
            for dt in range(kt):
                for dy in range(kh):
                    for dx in range(kw):
                        for t in range(t_out):
                            out[co, t] += (
                                w[co, ci, dt, dy, dx]
                                * xp[ci, t * st + dt, dy:dy + (h_out - 1) * sh + 1:sh,
                                     dx:dx + (w_out - 1) * sw + 1:sw]
                            )
    return out


# -- conv3d_causal -----------------------------------------------------------


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((1, 4, 5, 5)))
    k = Tensor(np.ones((1, 1, 1, 1, 1)))
    out = conv3d_causal(x, k)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv_causal_future_invisible():
    rng = np.random.default_rng(1)
    base = rng.random((2, 6, 4, 4)).astype(np.float32)
    k = Tensor(rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32))
    out_a = conv3d_causal(Tensor(base.copy()), k).data
    poked = base.copy()
    poked[:, -1] += 1.0
    out_b = conv3d_causal(Tensor(poked), k).data
    assert np.array_equal(out_a[:, :-1], out_b[:, :-1])
    assert not np.array_equal(out_a[:, -1], out_b[:, -1])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.sampled_from([(1, 1, 1), (2, 2, 2), (1, 2, 1), (1, 2, 2), (3, 3, 3)]),
       st.sampled_from([(2, 3, 3), (3, 3, 3), (1, 5, 5)]))
@example(0, (1, 1, 1), (3, 3, 3))  # one phase: the padded input itself
@example(0, (2, 2, 2), (1, 5, 5))  # eight phases, two of them without an offset
def test_conv_matches_naive_oracle(seed, stride, ksize):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 5, 4, 6))
    w = rng.standard_normal((3, 2) + ksize)
    with float64_mode():
        fast = conv3d_causal(Tensor(x), Tensor(w), stride).data
    naive = conv3d_naive(x, w, stride)
    np.testing.assert_allclose(fast, naive, atol=1e-6)


@pytest.mark.parametrize("stride", [(1, 2, 2), (2, 2, 2), (3, 3, 3)])
def test_conv_grad_matches_finite_differences(stride):
    with float64_mode():
        rng = np.random.default_rng(2)
        x = parameter(rng.standard_normal((2, 4, 4, 4)))
        w = parameter(rng.standard_normal((2, 2, 2, 3, 3)) * 0.3)
        assert grad_check(lambda t: conv3d_causal(t, w, stride).sum(), x) < 1e-4
        assert grad_check(lambda t: conv3d_causal(x, t, stride).abs().mean(), w) < 1e-3


@pytest.mark.parametrize("ksize", [(3, 3, 3), (1, 5, 5)])
def test_conv_unit_stride_input_grad_matches_finite_differences(ksize):
    with float64_mode():
        rng = np.random.default_rng(3)
        x = parameter(rng.standard_normal((2, 4, 5, 6)))
        w = parameter(rng.standard_normal((3, 2) + ksize) * 0.3)
        probe = Tensor(rng.standard_normal((3, 4, 5, 6)))
        assert grad_check(lambda t: (conv3d_causal(t, w) * probe).sum(), x) < 1e-4
        assert grad_check(lambda t: (conv3d_causal(x, t) * probe).sum(), w) < 1e-4


def conv3d_unit_stride_untiled(x, w, g):
    """Stride-1 output, input gradient and kernel gradient, computed untiled.

    Output and input gradient take one whole-array GEMM per kernel offset on
    the flattened padded input, the kernel gradient one copied patch per
    offset: the same per-element summation order as the tiled kernels.
    """
    cin, t, h, wd = x.shape
    cout, _, kt, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xpad = np.pad(x.transpose(1, 2, 3, 0), ((kt - 1, 1), (ph, ph), (pw, pw), (0, 0)))
    hp, wp = xpad.shape[1:3]
    rows, n = t * hp * wp, t * h * wd
    wcl = np.ascontiguousarray(w.transpose(2, 3, 4, 1, 0))
    offsets = list(np.ndindex(kt, kh, kw))
    starts = [(dt * hp + dy) * wp + dx for dt, dy, dx in offsets]
    xf = xpad.reshape(-1, cin)
    out = np.zeros((rows, cout), x.dtype)
    for s, o in zip(starts, offsets):
        out += xf[s:s + rows] @ wcl[o]
    out = out.reshape(t, hp, wp, cout)[:, :h, :wd].transpose(3, 0, 1, 2)
    gcl = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).reshape(n, cout)
    gpad = np.zeros((t, hp, wp, cout), g.dtype)
    gpad[:, :h, :wd] = gcl.reshape(t, h, wd, cout)
    gxf = np.zeros_like(xf)
    for s, o in zip(starts, offsets):
        gxf[s:s + rows] += gpad.reshape(rows, cout) @ wcl[o].T
    gx = gxf.reshape(xpad.shape)[kt - 1:kt - 1 + t, ph:ph + h, pw:pw + wd].transpose(3, 0, 1, 2)
    gk = np.zeros_like(w)
    for dt, dy, dx in offsets:
        patch = xpad[dt:dt + t, dy:dy + h, dx:dx + wd].reshape(n, cin)
        gk[:, :, dt, dy, dx] += gcl.T @ patch
    return out, gx, gk


@pytest.mark.parametrize("cin, thw, cout, ksize, tiled", [
    pytest.param(4, (3, 5, 6), 8, (3, 3, 3), False, id="under-one-tile"),
    # 2805 output rows: forward tiles of 468 rows (the last 465), input-gradient
    # tiles of 935; a frame is 561 padded rows, so tile boundaries fall mid-frame
    pytest.param(16, (5, 15, 31), 32, (3, 3, 3), True, id="partial-tile-mid-frame"),
    # 540 rows over at most 512 per tile: two of 270, as a 28-row last tile of
    # the input gradient (a transposed operand) would take another BLAS kernel
    pytest.param(32, (3, 8, 16), 32, (3, 3, 3), True, id="no-sliver-tile"),
    pytest.param(8, (9, 32, 64), 3, (3, 3, 3), True, id="cout3"),
    pytest.param(1, (9, 32, 64), 8, (1, 5, 5), True, id="cin1"),
    # grouped narrow forward: 10880 rows run as three row tiles of 3627 (the
    # last 3626), each with one wide GEMM per temporal offset
    pytest.param(32, (5, 32, 62), 3, (3, 3, 3), True, id="cout3-three-tiles"),
    # 10240 rows x 3 x 32 is within OpenBLAS's small-matrix size: per-offset GEMMs
    pytest.param(32, (5, 30, 62), 3, (3, 3, 3), True, id="cout3-small-gemm"),
    # a one-channel output stays on per-offset GEMVs, at any size
    pytest.param(64, (9, 32, 64), 1, (3, 3, 3), True, id="cout1-gemv"),
    # a 4-wide input gradient over 20196 rows takes the grouped path too
    pytest.param(4, (9, 32, 64), 16, (3, 3, 3), True, id="cin4-grouped-input-grad"),
    # an 8-wide input gradient keeps its transposed-view kernels (dec.in)
    pytest.param(8, (5, 4, 8), 64, (3, 3, 3), True, id="cin8-cout64"),
])
def test_conv_unit_stride_tiles_match_untiled_reference(cin, thw, cout, ksize, tiled):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((cin,) + thw).astype(np.float32)
    w = (rng.standard_normal((cout, cin) + ksize) * 0.3).astype(np.float32)
    g = rng.standard_normal((cout,) + thw).astype(np.float32)
    t, h, wd = thw
    rows = t * (h + ksize[1] - 1) * (wd + ksize[2] - 1)
    assert (rows > ops._TILE_FLOATS // max(cout, cin)) == tiled
    xt, wt = parameter(x), parameter(w)
    out = conv3d_causal(xt, wt)
    (out * Tensor(g)).sum().backward()
    ref_out, ref_gx, ref_gk = conv3d_unit_stride_untiled(x, w, g)
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(xt.grad, ref_gx)
    assert np.array_equal(wt.grad, ref_gk)


def conv3d_strided_patch_reference(x, w, g, stride):
    """Output, input gradient and kernel gradient from one copied patch per offset.

    Every offset reads its [n, cin] operand as a fresh contiguous copy of the
    strided padded-input window: the per-element summation order the strided
    conv must keep.
    """
    cin, t, h, wd = x.shape
    cout, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x.transpose(1, 2, 3, 0), ((kt - 1, 0), (ph, ph), (pw, pw), (0, 0)))
    to, ho, wo = (t - 1) // st + 1, (h - 1) // sh + 1, (wd - 1) // sw + 1
    n = to * ho * wo
    wcl = np.ascontiguousarray(w.transpose(2, 3, 4, 1, 0))
    gcl = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).reshape(n, cout)
    out = np.zeros((n, cout), x.dtype)
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(w)
    for dt, dy, dx in np.ndindex(kt, kh, kw):
        win = (slice(dt, dt + (to - 1) * st + 1, st), slice(dy, dy + (ho - 1) * sh + 1, sh),
               slice(dx, dx + (wo - 1) * sw + 1, sw))
        patch = np.ascontiguousarray(xp[win]).reshape(n, cin)
        out += patch @ wcl[dt, dy, dx]
        # conv3d_causal's input-gradient kernels: .T views up to
        # _MIN_TILED_WIDTH input channels, contiguous copies above
        wt = wcl[dt, dy, dx].T
        wt = wt if cin <= ops._MIN_TILED_WIDTH else np.ascontiguousarray(wt)
        gxp[win] += (gcl @ wt).reshape(to, ho, wo, cin)
        gk[:, :, dt, dy, dx] += gcl.T @ patch
    out = out.reshape(to, ho, wo, cout).transpose(3, 0, 1, 2)
    gx = gxp[kt - 1:, ph:ph + h, pw:pw + wd].transpose(3, 0, 1, 2)
    return out, gx, gk


def conv3d_phase_rows_input_grad(x, w, g, stride):
    """Input gradient from whole-array per-offset GEMMs over stacked stride-phase rows.

    The strided twin of conv3d_unit_stride_untiled's input gradient.  g sits
    on a phase's [to, hq, wq] output rows, front-padded by the largest
    in-phase offset start; the input-holding frames of each phase gather one
    untiled GEMM per offset of that phase, in (dt, dy, dx) order.  A
    one-column product is a GEMV, whose bits OpenBLAS ties to the row range
    of the call: this layout is the one conv3d_causal calls it on.
    """
    cin, t, h, wd = x.shape
    cout, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    to, ho, wo = (t - 1) // st + 1, (h - 1) // sh + 1, (wd - 1) // sw + 1
    tq, hq, wq = -(-(kt - 1 + t) // st), -(-(h + 2 * ph) // sh), -(-(wd + 2 * pw) // sw)
    wcl = np.ascontiguousarray(w.transpose(2, 3, 4, 1, 0))
    local = {o: ((o[0] // st) * hq + o[1] // sh) * wq + o[2] // sw for o in np.ndindex(kt, kh, kw)}
    lead = max(local.values())
    gsrc = np.zeros((lead + tq * hq * wq, cout), g.dtype)
    gsrc[lead:lead + to * hq * wq].reshape(to, hq, wq, cout)[:, :ho, :wo] = g.transpose(1, 2, 3, 0)
    gxq = np.zeros((tq + 1, st, hq, sh, wq, sw, cin), g.dtype)  # padded positions by phase
    for a, b, c in np.ndindex(st, sh, sw):
        f0, f1 = -(-(kt - 1 - a) // st), -(-(kt - 1 + t - a) // st)
        if f0 >= f1:
            continue
        rows = (f1 - f0) * hq * wq
        acc = np.zeros((rows, cin), g.dtype)
        for o, s in local.items():
            if (o[0] % st, o[1] % sh, o[2] % sw) == (a, b, c):
                begin = lead + f0 * hq * wq - s
                acc += gsrc[begin:begin + rows] @ wcl[o].T
        gxq[f0:f1, a, :, b, :, c] = acc.reshape(-1, hq, wq, cin)
    gxp = gxq.reshape((tq + 1) * st, hq * sh, wq * sw, cin)
    return gxp[kt - 1:kt - 1 + t, ph:ph + h, pw:pw + wd].transpose(3, 0, 1, 2)


@pytest.mark.parametrize("xshape, cout, ksize, stride", [
    pytest.param((16, 9, 16, 32), 32, (3, 3, 3), (1, 2, 2), id="stride0"),
    pytest.param((16, 9, 16, 32), 32, (3, 3, 3), (2, 2, 2), id="stride1"),
    # the model's strided convs: enc.in, the downsamples at 17 and 5 frames,
    # and the perceptual proxy's blur
    pytest.param((3, 17, 32, 64), 32, (3, 3, 3), (1, 2, 2), id="enc-in"),
    pytest.param((32, 17, 16, 32), 64, (3, 3, 3), (2, 2, 2), id="down-32x17x16x32"),
    pytest.param((64, 9, 8, 16), 64, (3, 3, 3), (2, 2, 2), id="down-64x9x8x16"),
    pytest.param((32, 5, 16, 32), 64, (3, 3, 3), (2, 2, 2), id="down-32x5x16x32"),
    pytest.param((64, 3, 8, 16), 64, (3, 3, 3), (2, 2, 2), id="down-64x3x8x16"),
    pytest.param((1, 51, 32, 64), 1, (1, 5, 5), (1, 2, 2), id="blur-51x32x64"),
    pytest.param((1, 51, 16, 32), 1, (1, 5, 5), (1, 2, 2), id="blur-51x16x32"),
    # kernels smaller than the stride: inputs in no phase's reach get zero gradient
    pytest.param((16, 5, 8, 16), 32, (1, 1, 1), (2, 2, 2), id="k1x1x1-stride2"),
    pytest.param((16, 5, 8, 16), 32, (1, 3, 3), (2, 2, 2), id="k1x3x3-stride2"),
    # one frame: the odd temporal phase holds no input
    pytest.param((16, 1, 8, 16), 32, (3, 3, 3), (2, 2, 2), id="one-frame-kt3"),
    pytest.param((16, 7, 10, 14), 32, (3, 3, 3), (3, 3, 3), id="stride3"),
])
def test_conv_strided_matches_patch_reference(xshape, cout, ksize, stride):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(xshape).astype(np.float32)
    w = (rng.standard_normal((cout, xshape[0]) + ksize) * 0.3).astype(np.float32)
    xt, wt = parameter(x), parameter(w)
    out = conv3d_causal(xt, wt, stride)
    g = rng.standard_normal(out.shape).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    ref_out, ref_gx, ref_gk = conv3d_strided_patch_reference(x, w, g, stride)
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(xt.grad, ref_gx)
    assert np.array_equal(wt.grad, ref_gk)


@pytest.mark.parametrize("cin,cout,kt,k", [(1, 1, 1, 5), (1, 6, 2, 3), (6, 1, 2, 3)])
def test_conv_strided_one_channel_matches_patch_reference(cin, cout, kt, k):
    # an inner GEMM dimension of 1 (cin == 1 forward, cout == 1 input gradient)
    # runs as a broadcast outer product; the bits must stay the GEMM's
    rng = np.random.default_rng(8)
    x = rng.random((cin, 7, 16, 32), dtype=np.float32)
    w = rng.standard_normal((cout, cin, kt, k, k)).astype(np.float32)
    xt, wt = parameter(x), parameter(w)
    out = conv3d_causal(xt, wt, (1, 2, 2))
    g = rng.standard_normal(out.shape).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    ref_out, ref_gx, ref_gk = conv3d_strided_patch_reference(x, w, g, (1, 2, 2))
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(wt.grad, ref_gk)
    if cin == 1 < cout:
        # a one-column input gradient is a GEMV over the phase rows, not over
        # the patch reference's n rows: pinned to the same GEMVs, near the patches
        np.testing.assert_allclose(xt.grad, ref_gx, rtol=1e-5, atol=1e-5)
        ref_gx = conv3d_phase_rows_input_grad(x, w, g, (1, 2, 2))
    assert np.array_equal(xt.grad, ref_gx)


@pytest.mark.parametrize("stride", [(1, 1, 1), (1, 2, 2)])
def test_conv_promotes_mixed_dtypes(stride):
    rng = np.random.default_rng(5)
    x = Tensor(rng.random((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 2, 2, 3, 3)), requires_grad=True)
    out = conv3d_causal(x, w, stride)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out.data, conv3d_naive(x.data.astype(np.float64), w.data, stride), atol=1e-12)
    out.sum().backward()
    assert x.grad.dtype == np.float32 and w.grad.dtype == np.float64


def test_conv_rejects_bad_shapes():
    x = Tensor(np.zeros((2, 3, 4, 4)))
    with pytest.raises(ValueError):
        conv3d_causal(x, Tensor(np.zeros((1, 3, 1, 1, 1))))  # channel mismatch
    with pytest.raises(ValueError):
        conv3d_causal(x, Tensor(np.zeros((1, 2, 1, 2, 2))))  # even spatial kernel


# -- upsampling --------------------------------------------------------------


def test_upsample_identity():
    x = Tensor(np.random.default_rng(3).random((2, 2, 3, 3)))
    np.testing.assert_array_equal(upsample_nearest(x, (1, 1, 1)).data, x.data)


def test_upsample_replicates_blocks():
    x = Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
    out = upsample_nearest(x, (1, 2, 2)).data
    assert out.shape == (1, 1, 4, 4)
    for i in range(2):
        for j in range(2):
            block = out[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
            assert np.all(block == x.data[0, 0, i, j])


def test_upsample_backward_is_factor_product():
    x = parameter(np.random.default_rng(4).random((2, 2, 2, 2)))
    upsample_nearest(x, (2, 3, 2)).sum().backward()
    np.testing.assert_array_equal(x.grad, np.full(x.shape, 12.0))
    with float64_mode():
        y = parameter(np.random.default_rng(5).standard_normal((1, 2, 2, 2)))
        assert grad_check(lambda t: upsample_nearest(t, (2, 2, 1)).abs().sum(), y) < 1e-6


def test_upsample_rejects_zero_factor():
    with pytest.raises(ValueError):
        upsample_nearest(Tensor(np.zeros((1, 1, 1, 1))), (0, 1, 1))


def test_upsample_causal_keeps_first_frame_single():
    x = Tensor(np.arange(3.0).reshape(1, 3, 1, 1))
    out = upsample_causal(x, (2, 1, 1)).data
    np.testing.assert_array_equal(out[0, :, 0, 0], np.array([0.0, 1.0, 1.0, 2.0, 2.0]))
    assert out.shape[1] == 1 + (3 - 1) * 2


# -- attention ---------------------------------------------------------------


def test_attention_single_token_returns_v():
    rng = np.random.default_rng(6)
    q, k, v = (Tensor(rng.standard_normal((1, 8))) for _ in range(3))
    np.testing.assert_allclose(attention(q, k, v, 2).data, v.data, rtol=1e-6)


def test_attention_identical_keys_average_v():
    rng = np.random.default_rng(7)
    k = Tensor(np.tile(rng.standard_normal((1, 8)), (5, 1)))
    q = Tensor(rng.standard_normal((5, 8)))
    v = Tensor(rng.standard_normal((5, 8)))
    out = attention(q, k, v, 2).data
    np.testing.assert_allclose(out, np.tile(v.data.mean(0), (5, 1)), rtol=1e-5, atol=1e-6)


def test_attention_outputs_are_convex_combinations():
    rng = np.random.default_rng(8)
    q, k, v = (Tensor(rng.standard_normal((9, 12))) for _ in range(3))
    out = attention(q, k, v, 3).data
    vh = v.data.reshape(9, 3, 4)
    lo = vh.min(axis=0).reshape(-1)
    hi = vh.max(axis=0).reshape(-1)
    for row in out.reshape(9, 3, 4).reshape(9, -1):
        assert np.all(row >= lo - 1e-5) and np.all(row <= hi + 1e-5)


def test_attention_grads_match_finite_differences():
    with float64_mode():
        rng = np.random.default_rng(9)
        k = Tensor(rng.standard_normal((4, 6)))
        v = Tensor(rng.standard_normal((4, 6)))
        q = parameter(rng.standard_normal((4, 6)))
        assert grad_check(lambda t: attention(t, k, v, 2).sum(), q) < 1e-4
        kk = parameter(k.data.copy())
        assert grad_check(lambda t: attention(Tensor(q.data), t, v, 2).abs().sum(), kk) < 1e-4
        vv = parameter(v.data.copy())
        assert grad_check(lambda t: (attention(Tensor(q.data), k, t, 2) * 0.5).sum(), vv) < 1e-6


def test_attention_rejects_indivisible_heads():
    t = Tensor(np.zeros((2, 7)))
    with pytest.raises(ValueError):
        attention(t, t, t, 2)


# -- rotary embedding --------------------------------------------------------


def test_rope_zero_position_is_identity():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((4, 12)))
    pos = np.zeros((4, 3), dtype=int)
    np.testing.assert_allclose(rope_apply(x, pos).data, x.data, atol=1e-7)


def test_rope_preserves_row_norms():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((6, 30)))
    pos = rng.integers(0, 20, size=(6, 3))
    out = rope_apply(x, pos).data
    np.testing.assert_allclose(
        np.linalg.norm(out, axis=1), np.linalg.norm(x.data, axis=1), atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_rope_dot_products_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    with float64_mode():
        q = rng.standard_normal(30)
        k = rng.standard_normal(30)
        p1 = rng.integers(0, 12, size=3)
        p2 = rng.integers(0, 12, size=3)
        delta = rng.integers(0, 12, size=3)
        d0 = (rope_apply(Tensor(q[None]), p1[None]).data
              @ rope_apply(Tensor(k[None]), p2[None]).data.T).item()
        d1 = (rope_apply(Tensor(q[None]), (p1 + delta)[None]).data
              @ rope_apply(Tensor(k[None]), (p2 + delta)[None]).data.T).item()
    assert abs(d0 - d1) < 1e-4


def test_rope_grad_and_bad_width():
    with float64_mode():
        rng = np.random.default_rng(12)
        x = parameter(rng.standard_normal((3, 18)))
        pos = rng.integers(0, 5, size=(3, 3))
        assert grad_check(lambda t: rope_apply(t, pos).abs().sum(), x) < 1e-4
    with pytest.raises(ValueError):
        rope_apply(Tensor(np.zeros((2, 16))), np.zeros((2, 3)))  # 16 % 3 != 0
    with pytest.raises(ValueError):
        rope_apply(Tensor(np.zeros((2, 9))), np.zeros((2, 3)))  # odd per-axis width


# -- normalisation -----------------------------------------------------------


def test_rmsnorm_zero_input_zero_output():
    x = Tensor(np.zeros((3, 8)))
    out = rmsnorm(x, Tensor(np.ones(8)))
    np.testing.assert_array_equal(out.data, np.zeros((3, 8)))


def test_rmsnorm_unit_rms():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((5, 16)) * 3.0)
    out = rmsnorm(x, Tensor(np.ones(16))).data
    rms = np.sqrt((out ** 2).mean(axis=1))
    np.testing.assert_allclose(rms, np.ones(5), atol=1e-5)


def test_rmsnorm_grad():
    with float64_mode():
        rng = np.random.default_rng(14)
        x = parameter(rng.standard_normal((3, 6)))
        g = Tensor(rng.standard_normal(6))
        assert grad_check(lambda t: rmsnorm(t, g).abs().sum(), x) < 1e-4


def test_groupnorm_grad_and_errors():
    with float64_mode():
        rng = np.random.default_rng(15)
        x = parameter(rng.standard_normal((4, 2, 3, 3)))
        gain = Tensor(np.ones((4, 1, 1, 1)))
        bias = Tensor(np.zeros((4, 1, 1, 1)))
        assert grad_check(lambda t: groupnorm(t, 2, gain, bias).abs().mean(), x) < 1e-4
    with pytest.raises(ValueError):
        groupnorm(Tensor(np.zeros((4, 1, 1, 1))), 0, gain, bias)
    with pytest.raises(ValueError):
        groupnorm(Tensor(np.zeros((4, 1, 1, 1))), 3, gain, bias)


def _groupnorm_composed(x, groups, gain, bias):
    """The engine-primitive composition that the fused groupnorm replaces: its oracle."""
    c, t, h, w = x.shape
    xg = x.reshape(groups, c // groups, t, h, w)
    mu = xg.mean(axis=(1, 3, 4), keepdims=True)
    xc = xg - mu
    var = (xc * xc).mean(axis=(1, 3, 4), keepdims=True)
    y = xc / (var + ops.EPS).sqrt()
    return y.reshape(x.shape) * gain + bias


@pytest.mark.parametrize("shape,groups", [((32, 17, 16, 32), 8), ((64, 9, 8, 16), 8),
                                          ((64, 5, 4, 8), 8), ((8, 3, 4, 4), 8),
                                          ((4, 2, 1, 1), 4)])
def test_fused_groupnorm_matches_composed_bitwise(shape, groups):
    rng = np.random.default_rng(17)
    x0 = (rng.standard_normal(shape) * 2.0 + 0.5).astype(np.float32)
    gain0 = (1.0 + 0.3 * rng.standard_normal((shape[0], 1, 1, 1))).astype(np.float32)
    bias0 = (0.2 * rng.standard_normal((shape[0], 1, 1, 1))).astype(np.float32)
    w = Tensor(rng.standard_normal(shape).astype(np.float32))
    results = []
    for norm in (groupnorm, _groupnorm_composed):
        x, gain, bias = parameter(x0), parameter(gain0), parameter(bias0)
        out = norm(x, groups, gain, bias)
        # the resblock pattern: x feeds the norm and also the residual add
        ((x + silu(out)) * w).sum().backward()
        results.append((out.data, x.grad, gain.grad, bias.grad))
    for fused, composed in zip(*results):
        assert fused.dtype == composed.dtype == np.float32
        assert fused.shape == composed.shape
        assert fused.tobytes() == composed.tobytes()


def test_fused_groupnorm_is_one_node_over_its_inputs():
    rng = np.random.default_rng(18)
    x = parameter(rng.standard_normal((4, 2, 3, 3)))
    gain, bias = parameter(np.ones((4, 1, 1, 1))), parameter(np.zeros((4, 1, 1, 1)))
    out = groupnorm(x, 2, gain, bias)
    assert len(out._parents) == 3
    assert all(p is q for p, q in zip(out._parents, (x, gain, bias)))
    assert groupnorm(Tensor(x.data), 2, Tensor(gain.data), Tensor(bias.data))._parents == ()


def test_model_grads_match_composed_groupnorm(desk_cfg, desk_params, monkeypatch):
    frames = Tensor(np.random.default_rng(19).random((5, 3, 16, 32), dtype=np.float32))
    grads = []
    for norm in (groupnorm, _groupnorm_composed):
        monkeypatch.setattr(vae, "groupnorm", norm)
        for p in desk_params.values():
            p.grad = None
        x_hat = vae.decode_baseline_t(vae.encode_t(frames, desk_cfg, desk_params), desk_cfg, desk_params)
        (x_hat - frames).abs().mean().backward()
        grads.append({n: p.grad.tobytes() for n, p in desk_params.items()})
    for p in desk_params.values():
        p.grad = None
    assert grads[0] == grads[1]


def test_groupnorm_gain_and_bias_grads():
    with float64_mode():
        rng = np.random.default_rng(20)
        x = Tensor(rng.standard_normal((4, 2, 3, 3)))
        gain = parameter(1.0 + 0.3 * rng.standard_normal((4, 1, 1, 1)))
        bias = parameter(0.2 * rng.standard_normal((4, 1, 1, 1)))
        target = Tensor(rng.standard_normal((4, 2, 3, 3)))

        def loss(out):
            d = out - target
            return (d * d).mean()

        assert grad_check(lambda g: loss(groupnorm(x, 2, g, bias)), gain) < 1e-6
        assert grad_check(lambda b: loss(groupnorm(x, 2, gain, b)), bias) < 1e-6


def test_activation_grads():
    with float64_mode():
        rng = np.random.default_rng(16)
        x = parameter(rng.standard_normal(20))
        assert grad_check(lambda t: silu(t).sum(), x) < 1e-4
        assert grad_check(lambda t: gelu(t).sum(), x) < 1e-4
