import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    attention_batched,
    conv_of_groupnorm_silu_unfused,
    grad_check,
    linear_composed,
    patch_embed_composed,
    rmsnorm_composed,
)
from refvae import ops, vae
from refvae.ops import (
    add_bias,
    attention,
    conv3d_causal,
    gelu,
    groupnorm_silu,
    linear,
    patch_embed,
    rmsnorm,
    rope_apply,
    rope_tables,
    silu,
    upsample_causal,
    upsample_nearest,
)
from refvae.tensor import Node, Tensor, _released, build_tape, concat, float64_mode, parameter


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


UNIT_STRIDE_CASES = [
    pytest.param(4, (3, 5, 6), 8, (3, 3, 3), id="under-one-tile"),
    # 561-row frames with 495-row bands: the forward's tiles take three
    # frames each, the gaps between their bands included
    pytest.param(16, (5, 15, 31), 32, (3, 3, 3), id="partial-tile-mid-frame"),
    # three frames, each with its own live offsets in both directions
    pytest.param(32, (3, 8, 16), 32, (3, 3, 3), id="no-sliver-tile"),
    pytest.param(8, (9, 32, 64), 3, (3, 3, 3), id="cout3"),
    pytest.param(1, (9, 32, 64), 8, (1, 5, 5), id="cin1"),
    # grouped narrow forward: 10880 rows run as three row tiles of 3627 (the
    # last 3626), each with one wide GEMM per temporal offset
    pytest.param(32, (5, 32, 62), 3, (3, 3, 3), id="cout3-three-tiles"),
    # 10240 rows x 3 x 32 is within OpenBLAS's small-matrix size: per-offset GEMMs
    pytest.param(32, (5, 30, 62), 3, (3, 3, 3), id="cout3-small-gemm"),
    # a one-channel output stays on per-offset GEMVs, at any size
    pytest.param(64, (9, 32, 64), 1, (3, 3, 3), id="cout1-gemv"),
    # a 4-wide input gradient over 20196 rows takes the grouped path too
    pytest.param(4, (9, 32, 64), 16, (3, 3, 3), id="cin4-grouped-input-grad"),
    # an 8-wide input gradient keeps its transposed-view kernels, untiled
    # (dec.in)
    pytest.param(8, (5, 4, 8), 64, (3, 3, 3), id="cin8-cout64"),
    pytest.param(8, (2, 4, 8), 64, (3, 3, 3), id="cin8-two-frames"),
    # one frame reads two causal zero frames at 18 of its 27 offsets
    pytest.param(32, (1, 16, 32), 32, (3, 3, 3), id="one-frame"),
    # each frame has live offsets of its own, forward and backward
    pytest.param(32, (2, 8, 16), 32, (3, 3, 3), id="two-frames"),
    # 2480-row bands over at most 1953 rows per tile: two equal parts each
    pytest.param(16, (2, 40, 60), 32, (3, 3, 3), id="band-taller-than-tile"),
    # an 8-wide forward is never frame-tiled: 11220 rows x 64 x 8 run as
    # grouped wide GEMMs (enc.out far past its model shapes)
    pytest.param(64, (5, 32, 64), 8, (3, 3, 3), id="cout8-past-one-tile"),
]


@pytest.mark.parametrize("cin, thw, cout, ksize", UNIT_STRIDE_CASES)
def test_conv_unit_stride_tiles_match_untiled_reference(cin, thw, cout, ksize):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((cin,) + thw).astype(np.float32)
    w = (rng.standard_normal((cout, cin) + ksize) * 0.3).astype(np.float32)
    g = rng.standard_normal((cout,) + thw).astype(np.float32)
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


STRIDED_CASES = [
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
    pytest.param((16, 1, 16, 32), 32, (3, 3, 3), (1, 2, 2), id="one-frame-1x2x2"),
    # every output frame, and every input frame of each temporal phase, has
    # live offsets of its own
    pytest.param((16, 2, 8, 16), 32, (3, 3, 3), (2, 2, 2), id="two-frames-2x2x2"),
    pytest.param((16, 2, 16, 32), 32, (3, 3, 3), (1, 2, 2), id="two-frames-1x2x2"),
    # 2016-row bands over at most 1953 rows per tile, forward and backward
    pytest.param((16, 3, 64, 124), 32, (3, 3, 3), (1, 2, 2), id="band-taller-than-tile"),
    # transposed-view input-gradient kernels, untiled per phase
    pytest.param((8, 5, 8, 16), 32, (3, 3, 3), (2, 2, 2), id="cin8-2x2x2"),
    # the one output frame reads input frame 0 only: frame 1 gets a zero tile
    pytest.param((16, 2, 8, 16), 32, (2, 3, 3), (2, 2, 2), id="unread-last-frame"),
]


@pytest.mark.parametrize("xshape, cout, ksize, stride", STRIDED_CASES)
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


@pytest.mark.parametrize("xshape, cout, ksize, stride", [
    pytest.param((32, 1, 16, 32), 32, (3, 3, 3), (1, 1, 1), id="one-frame"),
    pytest.param((32, 2, 8, 16), 32, (3, 3, 3), (1, 1, 1), id="two-frames"),
    pytest.param((16, 2, 40, 60), 32, (3, 3, 3), (1, 1, 1), id="band-taller-than-tile"),
    pytest.param((8, 2, 4, 8), 64, (3, 3, 3), (1, 1, 1), id="cin8"),
    pytest.param((32, 5, 32, 62), 3, (3, 3, 3), (1, 1, 1), id="cout3-grouped"),
    pytest.param((16, 2, 8, 16), 32, (3, 3, 3), (2, 2, 2), id="two-frames-2x2x2"),
    pytest.param((16, 3, 64, 124), 32, (3, 3, 3), (1, 2, 2), id="band-taller-than-tile-1x2x2"),
    pytest.param((8, 5, 8, 16), 32, (3, 3, 3), (2, 2, 2), id="cin8-2x2x2"),
    pytest.param((16, 5, 8, 16), 32, (1, 1, 1), (2, 2, 2), id="k1x1x1-stride2"),
    pytest.param((16, 2, 8, 16), 32, (2, 3, 3), (2, 2, 2), id="unread-last-frame"),
    pytest.param((1, 15, 16, 32), 1, (1, 5, 5), (1, 2, 2), id="blur"),
])
def test_conv_reads_no_row_it_leaves_unwritten(monkeypatch, xshape, cout, ksize, stride):
    # every buffer np.empty hands out starts as NaN: a row outside every tile
    # that reached an output or a gradient would show there
    rng = np.random.default_rng(9)
    x = rng.standard_normal(xshape).astype(np.float32)
    w = (rng.standard_normal((cout, xshape[0]) + ksize) * 0.3).astype(np.float32)

    def run():
        xt, wt = parameter(x), parameter(w)
        out = conv3d_causal(xt, wt, stride)
        (out * Tensor(np.cos(np.arange(out.data.size, dtype=np.float32)).reshape(out.shape))).sum().backward()
        return out.data, xt.grad, wt.grad

    clean = run()
    empty = np.empty

    def nan_empty(*args, **kwargs):
        buf = empty(*args, **kwargs)
        if buf.dtype.kind == "f":
            buf.fill(np.nan)
        return buf

    monkeypatch.setattr(np, "empty", nan_empty)
    for got, want in zip(run(), clean):
        assert np.array_equal(got, want)


def test_frame_tiles_cover_each_band_with_its_live_offsets(monkeypatch):
    seen = []
    frame_tiles = ops._frame_tiles
    monkeypatch.setattr(ops, "_frame_tiles", lambda *a: seen.append(frame_tiles(*a)) or seen[-1])
    all27, no_zero_frames = range(27), [range(18, 27), range(9, 27)]

    # [32,5,16,32] -> 32, 3x3x3, stride 1: 612-row frames (18x34 padded), at
    # most 976 rows (1e6 multiply-adds over 32x32) per tile, one frame per tile
    out = conv3d_causal(parameter(np.ones((32, 5, 16, 32), np.float32)), Tensor(np.ones((32, 32, 3, 3, 3))))
    out.sum().backward()
    fwd, gx = seen
    # forward: rows y < 16 of each frame; frames 0 and 1 skip the offsets
    # that read the two causal zero frames
    assert fwd == [(0, 544, no_zero_frames[0]), (612, 1156, no_zero_frames[1])] + [
        (f * 612, f * 612 + 544, all27) for f in (2, 3, 4)]
    # input gradient over the five input-holding frames: rows 1 <= y < 17;
    # the last two input frames are read by no output frame at dt < 1 and < 2
    assert sorted(gx, key=lambda t: t[0]) == [(f * 612 + 34, f * 612 + 578, all27) for f in (0, 1, 2)] + [
        (3 * 612 + 34, 3 * 612 + 578, range(9, 27)), (4 * 612 + 34, 4 * 612 + 578, range(18, 27))]

    # [64,9,8,16] -> 64 at stride (2,2,2): 45-row phase frames (5x9), 244 rows
    # (1e6 / (64*64)) per tile, so runs of frames share one tile
    seen.clear()
    out = conv3d_causal(parameter(np.ones((64, 9, 8, 16), np.float32)), Tensor(np.ones((64, 64, 3, 3, 3))),
                        (2, 2, 2))
    out.sum().backward()
    # forward: rows y < 4; frame 0 reads the zero frames at dt < 2
    assert seen[0] == [(0, 36, range(18, 27)), (45, 216, all27)]
    # phase (0,0,0): offsets dt, dy, dx in {0, 2}, dt//2 in groups of four;
    # phase frames 1..5 hold input at rows 1 <= y < 5, and frame 5 is read
    # by output frame 4 through dt = 2 only
    assert seen[1] == [(9, 180, range(8)), (189, 225, range(4, 8))]
    assert len(seen) == 9  # the forward and one call per stride phase


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
    with pytest.raises(ValueError, match=r"x\[C,T,H,W\]"):
        conv3d_causal(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2, 1, 1, 1))))  # no time axis


# -- conv + bias (+ residual) as one node ----------------------------------------


@pytest.mark.parametrize("stride", [(1, 1, 1), (1, 2, 2)])
@pytest.mark.parametrize("with_residual", [False, True])
def test_add_bias_matches_composed_bitwise(stride, with_residual):
    rng = np.random.default_rng(23)
    x0 = rng.standard_normal((8, 5, 6, 8)).astype(np.float32)
    w0 = (rng.standard_normal((8, 8, 3, 3, 3)) * 0.2).astype(np.float32)
    b0 = rng.standard_normal((8, 1, 1, 1)).astype(np.float32)
    out_shape = conv3d_causal(Tensor(x0), Tensor(w0), stride).shape
    r0 = rng.standard_normal(out_shape).astype(np.float32)
    probe = Tensor(rng.standard_normal(out_shape).astype(np.float32))
    results = []
    for fused in (True, False):
        x, w, b, r = parameter(x0), parameter(w0), parameter(b0), parameter(r0)
        res = r if with_residual else None
        if fused:
            out = add_bias(conv3d_causal(x, w, stride), b, res)
        else:  # the composed ops it replaces, in the resblock's `x + h` order
            out = conv3d_causal(x, w, stride) + b
            out = out if res is None else res + out
        (out * probe).sum().backward()
        results.append([out.data, x.grad, w.grad, b.grad] + ([r.grad] if with_residual else []))
    for fused, composed in zip(*results):
        assert fused.dtype == composed.dtype == np.float32
        assert fused.tobytes() == composed.tobytes()


def test_add_bias_grads_match_finite_differences():
    with float64_mode():
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((2, 4, 4, 4)))
        w = Tensor(rng.standard_normal((3, 2, 2, 3, 3)) * 0.3)
        b = parameter(rng.standard_normal((3, 1, 1, 1)))
        r = parameter(rng.standard_normal((3, 4, 2, 2)))
        probe = Tensor(rng.standard_normal((3, 4, 2, 2)))

        def loss(b, r):
            return (add_bias(conv3d_causal(x, w, (1, 2, 2)), b, r) * probe).abs().mean()

        assert grad_check(lambda t: loss(t, r), b) < 1e-4
        assert grad_check(lambda t: loss(b, t), r) < 1e-4


def test_add_bias_absorbs_the_conv_output():
    rng = np.random.default_rng(25)
    x, w = parameter(rng.standard_normal((2, 3, 4, 4))), parameter(rng.standard_normal((2, 2, 1, 3, 3)))
    b, r = parameter(np.ones((2, 1, 1, 1))), parameter(np.ones((2, 3, 4, 4)))
    h = conv3d_causal(x, w)
    out = add_bias(h, b, r)
    assert out.data is h.data
    assert len(out.node._parents) == 4 and {id(p) for p in out.node._parents} == {id(t.node) for t in (x, w, b, r)}
    with pytest.raises(ValueError, match="released"):
        h.sum().backward()
    with pytest.raises(ValueError, match="fresh op output"):
        add_bias(h, b)  # would add the bias twice
    with pytest.raises(ValueError, match="fresh op output"):
        add_bias(x, b)  # a leaf: its gradient would be lost


def test_add_bias_without_grad_is_a_leaf():
    rng = np.random.default_rng(26)
    x, w = Tensor(rng.standard_normal((2, 3, 4, 4))), Tensor(rng.standard_normal((2, 2, 1, 3, 3)))
    out = add_bias(conv3d_causal(x, w), Tensor(np.ones((2, 1, 1, 1))), Tensor(np.ones((2, 3, 4, 4))))
    assert not out.requires_grad and out.node is None and out._backward is None


@pytest.mark.parametrize("which", ["bias", "residual"])
def test_add_bias_rejects_other_dtypes(which):
    rng = np.random.default_rng(27)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32))
    w = Tensor(rng.standard_normal((2, 2, 1, 3, 3)).astype(np.float32))
    b, r = np.ones((2, 1, 1, 1), np.float32), np.ones((2, 3, 4, 4), np.float32)
    if which == "bias":
        b = b.astype(np.float64)
    else:
        r = r.astype(np.float64)
    h = conv3d_causal(x, w)
    before = h.data.copy()
    with pytest.raises(ValueError, match="would cast"):
        add_bias(h, Tensor(b), Tensor(r))
    assert np.array_equal(h.data, before)  # checked before any in-place add


@pytest.mark.parametrize("view", ["transpose", "reshape", "slice"])
def test_add_bias_rejects_a_view_of_a_leaf_and_leaves_it_untouched(view):
    rng = np.random.default_rng(30)
    p, q = parameter(rng.standard_normal((3, 3))), parameter(rng.standard_normal((3, 3)))
    b = parameter(np.ones(3))
    views = {"transpose": lambda t: t.transpose(1, 0), "reshape": lambda t: t.reshape(9)[:3],
             "slice": lambda t: t[1]}
    before = p.data.copy()
    with pytest.raises(ValueError, match="fresh op output"):
        add_bias(views[view](p), b)
    assert p.data.tobytes() == before.tobytes()  # checked before any in-place add
    h = p @ q
    absorbed = add_bias(h, b)
    with pytest.raises(ValueError, match="fresh op output"):
        add_bias(views[view](h), b)  # h's buffer is absorbed's: the bias would go in twice
    # a view of a fresh product, as patch_embed and linear pass, is taken over
    out = add_bias(views[view](absorbed @ q), b)
    assert out.requires_grad and out._backward is not _released


def test_resblock_is_two_nodes_over_nine_leaves():
    params = {}
    vae._add_resblock(params, np.random.default_rng(28), "r", 8, 3)
    x = parameter(np.random.default_rng(29).standard_normal((8, 3, 4, 4)))
    tape = build_tape(vae._resblock(x, params, "r", 4))
    # x and the 8 parameters, then two GroupNorm+SiLU+conv+bias nodes (the second
    # one also adds x), where separate norm nodes make 4 and composed `conv + b`
    # and `x + h` nodes 9
    assert len(tape) == 11
    assert sum(t._backward is not None for t in tape) == 2


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
    for other in (Tensor(np.zeros((3, 7))), Tensor(np.zeros((2, 8)))):  # so are unequal q, k, v
        for args in ((other, t, t), (t, other, t), (t, t, other)):
            with pytest.raises(ValueError, match="share shape"):
                attention(*args, 1)
    t = Tensor(np.zeros((2, 8)))
    for heads in (0, -1):
        with pytest.raises(ValueError, match="heads"):
            attention(t, t, t, heads)


def test_attention_rejects_mixed_dtypes():
    q, k64 = Tensor(np.zeros((3, 8), dtype=np.float32)), Tensor(np.zeros((3, 8)))
    for args in ((q, k64, q), (k64, q, q), (q, q, k64)):
        with pytest.raises(ValueError, match="would cast"):
            attention(*args, 2)


@pytest.mark.parametrize("seq", [192, 320, 576])  # the default decoder stages' token counts
@pytest.mark.parametrize("needs", ["qkv", "v", "qk"])
def test_attention_matches_batched_bitwise(seq, needs):
    rng = np.random.default_rng(seq)
    arrays = [rng.standard_normal((seq, 120)).astype(np.float32) for _ in range(3)]
    probe = Tensor(rng.standard_normal((seq, 120)).astype(np.float32))
    results = []
    for attn in (attention, attention_batched):
        q, k, v = (Tensor(a.copy(), requires_grad=name in needs) for name, a in zip("qkv", arrays))
        out = attn(q, k, v, 4)
        (out * probe).sum().backward()
        results.append((out.data, *(t.grad for t in (q, k, v) if t.requires_grad)))
    assert len(results[0]) == 1 + len(needs)
    _bitwise_equal(*results)
    assert results[0][0].strides == results[1][0].strides


# -- rotary embedding --------------------------------------------------------


def _rope(x, positions):
    return rope_apply(x, rope_tables(positions, x.shape[1], x.dtype))


def test_rope_zero_position_is_identity():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((4, 12)))
    pos = np.zeros((4, 3), dtype=int)
    np.testing.assert_allclose(_rope(x, pos).data, x.data, atol=1e-7)


def test_rope_preserves_row_norms():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((6, 30)))
    pos = rng.integers(0, 20, size=(6, 3))
    out = _rope(x, pos).data
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
        d0 = (_rope(Tensor(q[None]), p1[None]).data
              @ _rope(Tensor(k[None]), p2[None]).data.T).item()
        d1 = (_rope(Tensor(q[None]), (p1 + delta)[None]).data
              @ _rope(Tensor(k[None]), (p2 + delta)[None]).data.T).item()
    assert abs(d0 - d1) < 1e-4


def test_rope_grad_and_bad_width():
    with float64_mode():
        rng = np.random.default_rng(12)
        x = parameter(rng.standard_normal((3, 18)))
        pos = rng.integers(0, 5, size=(3, 3))
        assert grad_check(lambda t: _rope(t, pos).abs().sum(), x) < 1e-4
    with pytest.raises(ValueError):
        _rope(Tensor(np.zeros((2, 16))), np.zeros((2, 3)))  # 16 % 3 != 0
    with pytest.raises(ValueError):
        _rope(Tensor(np.zeros((2, 9))), np.zeros((2, 3)))  # odd per-axis width


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rope_backward_matches_explicit_inverse_bitwise(dtype):
    rng = np.random.default_rng(15)
    pos = np.concatenate([np.zeros((3, 3), int), rng.integers(0, 9, size=(9, 3))])  # position 0: sin is +0
    x = Tensor(rng.standard_normal((12, 24)).astype(dtype), requires_grad=True)
    g = rng.standard_normal((12, 24)).astype(dtype)
    g[[0, 4, 7]] = 0.0  # zero-gradient rows, at position 0 and elsewhere: the signs of zero count
    g[[1, 5]] = -0.0
    cos, sin = tables = rope_tables(pos, 24, dtype)
    rope_apply(x, tables)._backward(g)
    gv = g.reshape(12, 3, 4, 2)
    g1, g2 = gv[..., 0], gv[..., 1]
    gx = np.empty_like(gv)
    gx[..., 0] = g1 * cos + g2 * sin
    gx[..., 1] = -g1 * sin + g2 * cos
    _bitwise_equal([x.grad], [gx.reshape(12, 24)])


def test_rope_rejects_tables_that_do_not_fit():
    x = Tensor(np.zeros((2, 18)))
    for tables in (rope_tables(np.zeros((3, 3)), 18, np.float64),  # other rows
                   rope_tables(np.zeros((2, 3)), 12, np.float64),  # another width
                   rope_tables(np.zeros((2, 3)), 18, np.float32),  # another dtype
                   rope_tables(np.zeros((2, 3)), 0, np.float64)):  # no head width
        with pytest.raises(ValueError, match="do not fit"):
            rope_apply(x, tables)
    with pytest.raises(ValueError):
        rope_tables(np.zeros((2, 2)), 18, np.float64)  # positions not [L, 3]


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


def _bitwise_equal(fused, composed):
    for a, b in zip(fused, composed):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,gain_shape,axis", [((150, 120), (120,), -1),   # a stage's token rows
                                                   ((64, 1, 4, 8), (64, 1, 1, 1), 0)])  # the reference map
def test_fused_rmsnorm_matches_composed_bitwise(dtype, shape, gain_shape, axis):
    rng = np.random.default_rng(22)
    x0 = (rng.standard_normal(shape) * 2.0 + 0.3).astype(dtype)
    gain0 = (1.0 + 0.3 * rng.standard_normal(gain_shape)).astype(dtype)
    w = Tensor(rng.standard_normal(shape).astype(dtype))
    results = []
    for norm in (rmsnorm, rmsnorm_composed):
        x, gain = Tensor(x0.copy(), requires_grad=True), Tensor(gain0.copy(), requires_grad=True)
        out = norm(x, gain, axis=axis)
        ((x + out) * w).sum().backward()  # x also takes the residual stream's gradient, first
        results.append((out.data, x.grad, gain.grad))
    _bitwise_equal(*results)


def test_fused_rmsnorm_of_a_constant_input_gives_only_the_gain_its_gradient():
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((150, 120)).astype(np.float32))  # a constant: no gradient wanted
    probe = Tensor(rng.standard_normal((150, 120)).astype(np.float32))
    gain0 = (1.0 + 0.3 * rng.standard_normal(120)).astype(np.float32)
    grads = []
    for norm in (rmsnorm, rmsnorm_composed):
        gain = parameter(gain0.copy())
        (norm(x, gain) * probe).sum().backward()
        grads.append([gain.grad])
        assert x.grad is None
    _bitwise_equal(*grads)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_linear_matches_composed_bitwise(dtype):
    rng = np.random.default_rng(23)
    x0, w0, b0 = (rng.standard_normal(s).astype(dtype) for s in ((150, 120), (120, 480), (480,)))
    probe = Tensor(rng.standard_normal((150, 480)).astype(dtype))
    results = []
    for lin in (linear, linear_composed):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        out = lin(x, w, b)
        ((out * probe).sum() + x.sum()).backward()
        results.append((out.data, x.grad, w.grad, b.grad))
    _bitwise_equal(*results)


def test_patch_embed_rejects_bad_shapes():
    x, b = Tensor(np.zeros((3, 1, 8, 8))), Tensor(np.zeros((4, 1, 1, 1)))
    for w in (np.zeros((4, 3, 2, 2, 2)), np.zeros((4, 3, 1, 2, 4))):  # temporal extent, unequal sides
        with pytest.raises(ValueError, match=r"\[D, C, 1, s, s\]"):
            patch_embed(x, Tensor(w), b)
    with pytest.raises(ValueError, match="expects 2 channels, got 3"):
        patch_embed(x, Tensor(np.zeros((4, 2, 1, 2, 2))), b)
    with pytest.raises(ValueError, match="not divisible into 3x3 patches"):
        patch_embed(x, Tensor(np.zeros((4, 3, 1, 3, 3))), b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_patch_embed_matches_composed_bitwise(dtype):
    # stage_forward's in-projection: video and reference share one weight and bias
    rng = np.random.default_rng(26)
    video0, ref0 = (rng.standard_normal(s).astype(dtype) for s in ((32, 5, 8, 16), (32, 1, 8, 16)))
    w0, b0 = (rng.standard_normal(s).astype(dtype) for s in ((24, 32, 1, 2, 2), (24, 1, 1, 1)))
    probe = Tensor(rng.standard_normal((6 * 4 * 8, 24)).astype(dtype))
    results = []
    for embed in (patch_embed, patch_embed_composed):
        video, ref, w, b = (Tensor(a.copy(), requires_grad=True) for a in (video0, ref0, w0, b0))
        vtok, rtok = embed(video, w, b), embed(ref, w, b)
        seq = concat([rtok, vtok], axis=1).transpose(1, 2, 3, 0).reshape(6 * 4 * 8, 24)
        # vtok's gradient has two terms, and its sum reads its memory layout
        ((seq * probe).sum() + vtok.sum()).backward()
        results.append((vtok.data, rtok.data, video.grad, ref.grad, w.grad, b.grad))
    _bitwise_equal(*results)
    assert [a.strides for a in results[0][:2]] == [a.strides for a in results[1][:2]]


def _closure_reach(fn):
    """Everything a backward closure holds: its cells' contents, followed into the
    cells of nested functions (a taken-over closure, gradient lambdas) and the
    items of lists and tuples (add_bias's `add_nodes`)."""
    held, stack, seen = [], [fn], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        else:
            held.append(obj)
    return held


def _nodes(*tensors):
    return tuple(t.node for t in tensors)


def test_fused_rmsnorm_and_linear_keep_only_their_inputs_and_the_rms():
    rng = np.random.default_rng(24)
    x, gain = parameter(rng.standard_normal((10, 12))), parameter(np.ones(12))
    w, b = parameter(rng.standard_normal((12, 6))), parameter(np.zeros(6))
    lin = linear(x, w, b)
    assert lin._backward.__qualname__ == "add_bias.<locals>.bw"  # no closure of its own
    # rmsnorm keeps x, the gain and the rms; linear the matmul's operands, not the bias
    for out, inputs, read, own in ((rmsnorm(x, gain), (x, gain), (x, gain), [(10, 1)]),
                                   (lin, (x, w, b), (x, w), [])):
        assert out.node._parents == _nodes(*inputs)
        held = _closure_reach(out._backward)
        assert not any(isinstance(c, Tensor) for c in held)
        assert {id(c) for c in held if isinstance(c, Node)} == {id(t.node) for t in inputs}
        arrays = {id(c): c for c in held if isinstance(c, np.ndarray)}
        assert [id(t.data) in arrays for t in inputs] == [t in read for t in inputs]
        assert [a.shape for a in arrays.values() if all(a is not t.data for t in inputs)] == own
    with pytest.raises(ValueError, match="would cast"):
        linear(x, w, Tensor(np.zeros(6)))  # a float64 bias into a float32 product


def test_attention_and_gelu_keep_no_score_sized_arrays():
    seq, d, heads = 576, 120, 4
    rng = np.random.default_rng(27)
    q, k, v = (parameter(rng.standard_normal((seq, d))) for _ in range(3))
    held = _closure_reach(attention(q, k, v, heads)._backward)
    assert not any(isinstance(c, Tensor) for c in held)
    assert {id(c) for c in held if isinstance(c, Node)} == {id(t.node) for t in (q, k, v)}
    arrays = [c for c in held if isinstance(c, np.ndarray)]
    assert arrays and all(a.size < seq * seq for a in arrays)
    for a in arrays:  # views of q, k and v, and the row max and row sum
        assert any(np.shares_memory(a, t.data) for t in (q, k, v)) or a.shape == (heads, seq, 1), a.shape
    x = parameter(rng.standard_normal((seq, 4 * d)))
    held = _closure_reach(gelu(x)._backward)  # tanh is recomputed, not kept
    assert len(held) == 2 and {id(c) for c in held} == {id(x.node), id(x.data)}


def test_attention_backward_holds_one_head_of_scores():
    # the last decoder stage's L = 576 tokens, d = 120 over 4 heads: one head's
    # probabilities, softmax gradient and product, the three [L, d] gradient
    # buffers and the row sums; all four heads' softmax gradients at once take 5.3 MB
    seq, d, heads = 576, 120, 4
    rng = np.random.default_rng(28)
    q, k, v = (parameter(rng.standard_normal((seq, d))) for _ in range(3))
    out = attention(q, k, v, heads)
    g = rng.standard_normal((seq, d)).astype(np.float32)
    square, rows = seq * seq * 4, seq * d * 4
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 3 * square + 3 * rows + 250_000, (peak - start, square, rows)


def test_conv_kernel_grad_holds_one_operand_copy():
    # the decoder head, [32,17,32,64] -> 3: the kernel gradient's phase buffer and
    # one [tq, h, w, cin] operand buffer; a second operand copy would add 5 MB
    rng = np.random.default_rng(25)
    x = Tensor(rng.standard_normal((32, 17, 32, 64)).astype(np.float32))
    kernel = parameter(rng.standard_normal((3, 32, 3, 3, 3)) * 0.1)
    out = conv3d_causal(x, kernel)
    g = rng.standard_normal(out.shape).astype(np.float32)
    phase_bytes, operand_bytes = (17 + 3) * 34 * 66 * 32 * 4, (17 + 2) * 32 * 64 * 32 * 4
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < phase_bytes + operand_bytes + 1_000_000, (peak - start, phase_bytes, operand_bytes)


def test_groupnorm_grad_and_errors():
    with float64_mode():
        rng = np.random.default_rng(15)
        x = parameter(rng.standard_normal((4, 2, 3, 3)))
        gain = Tensor(np.ones((4, 1, 1, 1)))
        bias = Tensor(np.zeros((4, 1, 1, 1)))
        assert grad_check(lambda t: groupnorm_silu(t, 2, gain, bias).abs().mean(), x) < 1e-4
    with pytest.raises(ValueError):
        groupnorm_silu(Tensor(np.zeros((4, 1, 1, 1))), 0, gain, bias)
    with pytest.raises(ValueError):
        groupnorm_silu(Tensor(np.zeros((4, 1, 1, 1))), 3, gain, bias)


def _groupnorm_silu_composed(x, groups, gain, bias):
    """The engine-primitive composition that the fused op replaces: its oracle."""
    c, t, h, w = x.shape
    xg = x.reshape(groups, c // groups, t, h, w)
    mu = xg.mean(axis=(1, 3, 4), keepdims=True)
    xc = xg - mu
    var = (xc * xc).mean(axis=(1, 3, 4), keepdims=True)
    y = xc / (var + ops.EPS).sqrt()
    return silu(y.reshape(x.shape) * gain + bias)


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
    for norm in (groupnorm_silu, _groupnorm_silu_composed):
        x, gain, bias = parameter(x0), parameter(gain0), parameter(bias0)
        out = norm(x, groups, gain, bias)
        # the resblock pattern: x feeds the norm and also the residual add
        ((x + out) * w).sum().backward()
        results.append((out.data, x.grad, gain.grad, bias.grad))
    for fused, composed in zip(*results):
        assert fused.dtype == composed.dtype == np.float32
        assert fused.shape == composed.shape
        assert fused.tobytes() == composed.tobytes()


def test_fused_groupnorm_is_one_node_over_its_inputs():
    rng = np.random.default_rng(18)
    x = parameter(rng.standard_normal((4, 2, 3, 3)))
    gain, bias = parameter(np.ones((4, 1, 1, 1))), parameter(np.zeros((4, 1, 1, 1)))
    out = groupnorm_silu(x, 2, gain, bias)
    assert len(out.node._parents) == 3
    assert all(p is q for p, q in zip(out.node._parents, _nodes(x, gain, bias)))
    assert groupnorm_silu(Tensor(x.data), 2, Tensor(gain.data), Tensor(bias.data)).node is None


def test_fused_groupnorm_keeps_only_input_and_frame_stats():
    groups, shape = 4, (16, 5, 6, 8)
    rng = np.random.default_rng(21)
    x = parameter(rng.standard_normal(shape))
    gain, bias = parameter(np.ones((16, 1, 1, 1))), parameter(np.zeros((16, 1, 1, 1)))
    out = groupnorm_silu(x, groups, gain, bias)
    kept = [c.cell_contents for c in out._backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    assert len(kept) == 4  # x's grouped view, the gain, the mean and the std
    for arr in kept:
        assert np.shares_memory(arr, x.data) or arr is gain.data or arr.size <= groups * shape[1]


def test_model_grads_match_composed_groupnorm(desk_cfg, desk_params, monkeypatch):
    frames = Tensor(np.random.default_rng(19).random((5, 3, 16, 32), dtype=np.float32))
    grads = []
    for norm in (groupnorm_silu, _groupnorm_silu_composed):
        monkeypatch.setattr(vae, "groupnorm", norm)
        for p in desk_params.values():
            p.grad = None
        x_hat = vae.decode_baseline_t(vae.encode_t(frames, desk_cfg, desk_params), desk_cfg, desk_params)
        (x_hat - frames).abs().mean().backward()
        grads.append({n: p.grad.tobytes() for n, p in desk_params.items()})
    for p in desk_params.values():
        p.grad = None
    assert grads[0] == grads[1]


# -- a conv takes over the GroupNorm+SiLU output it reads ----------------------------


def _norm_conv_inputs(rng, shape, cout, ksize):
    c = shape[0]
    return (rng.standard_normal(shape) * 2.0 + 0.5, 1.0 + 0.3 * rng.standard_normal((c, 1, 1, 1)),
            0.2 * rng.standard_normal((c, 1, 1, 1)), rng.standard_normal((cout, c) + ksize) * 0.2)


@pytest.mark.parametrize("stride", [(1, 1, 1), (2, 2, 2)])
def test_conv_over_groupnorm_grads_match_finite_differences(stride):
    with float64_mode():
        rng = np.random.default_rng(31)
        args = [parameter(a) for a in _norm_conv_inputs(rng, (4, 3, 4, 4), 3, (2, 3, 3))]
        x, gain, bias, w = args
        probe = Tensor(rng.standard_normal(conv3d_causal(Tensor(x.data), Tensor(w.data), stride).shape))

        def loss(x, gain, bias, w):
            out = conv3d_causal(groupnorm_silu(x, 2, gain, bias), w, stride)
            assert out.node._parents == _nodes(x, gain, bias, w)  # the fused node
            return (out * probe).sum()

        for i, t in enumerate(args):
            assert grad_check(lambda v: loss(*args[:i], v, *args[i + 1:]), t) < 1e-4, i


@pytest.mark.parametrize("shape,groups,stride", [((8, 5, 6, 8), 4, (1, 1, 1)), ((8, 5, 6, 8), 4, (2, 2, 2)),
                                                 ((32, 17, 16, 32), 8, (1, 1, 1)),
                                                 ((64, 9, 8, 16), 8, (2, 2, 2))])
def test_conv_over_groupnorm_matches_unfused_bitwise(shape, groups, stride):
    rng = np.random.default_rng(32)
    arrays = [a.astype(np.float32) for a in _norm_conv_inputs(rng, shape, shape[0], (3, 3, 3))]
    probe = None
    results = []
    for op in (lambda *a: conv3d_causal(groupnorm_silu(*a[:4]), a[4], stride),
               lambda *a: conv_of_groupnorm_silu_unfused(*a, stride)):
        x, gain, bias, w = (parameter(a) for a in arrays)
        out = op(x, groups, gain, bias, w)
        if probe is None:
            probe = Tensor(rng.standard_normal(out.shape).astype(np.float32))
        (out * probe).sum().backward()
        results.append((out.data, x.grad, gain.grad, bias.grad, w.grad))
    for fused, unfused in zip(*results):
        assert fused.dtype == unfused.dtype == np.float32
        assert fused.shape == unfused.shape and fused.strides == unfused.strides
        assert fused.tobytes() == unfused.tobytes()


def test_conv_takes_over_a_fresh_groupnorm_output_and_frees_it():
    rng = np.random.default_rng(33)
    x, gain, bias, w = (parameter(a) for a in _norm_conv_inputs(rng, (8, 3, 4, 4), 8, (3, 3, 3)))
    h = groupnorm_silu(x, 4, gain, bias)
    out = conv3d_causal(h, w)
    assert out.node._parents == _nodes(x, gain, bias, w)
    assert h._backward is _released and h.node._parents == ()
    held = _closure_reach(out._backward)
    assert not any(isinstance(c, Tensor) for c in held)
    assert {id(c) for c in held if isinstance(c, Node)} == {id(t.node) for t in (x, gain, bias, w)}
    freed = weakref.ref(h.data)
    del h
    assert freed() is None  # the node rebuilds the norm's output in backward
    # without a graph there is nothing to take over: the conv reads the output as it is
    plain = groupnorm_silu(Tensor(x.data), 4, Tensor(gain.data), Tensor(bias.data))
    assert conv3d_causal(plain, Tensor(w.data)).node is None and plain._backward is None


@pytest.mark.parametrize("second", ["read before", "read after", "second conv"])
def test_groupnorm_output_read_by_a_conv_and_another_op_fails_in_backward(second):
    rng = np.random.default_rng(34)
    x, gain, bias, w = (parameter(a) for a in _norm_conv_inputs(rng, (4, 3, 4, 4), 4, (3, 3, 3)))
    h = groupnorm_silu(x, 2, gain, bias)
    other = h * 2.0 if second == "read before" else None
    out = conv3d_causal(h, w)
    if other is None:
        other = h * 2.0 if second == "read after" else conv3d_causal(h, w)
    with pytest.raises(ValueError, match="released"):
        (out.sum() + other.sum()).backward()


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

        assert grad_check(lambda g: loss(groupnorm_silu(x, 2, g, bias)), gain) < 1e-6
        assert grad_check(lambda b: loss(groupnorm_silu(x, 2, gain, b)), bias) < 1e-6


def test_activation_grads():
    with float64_mode():
        rng = np.random.default_rng(16)
        x = parameter(rng.standard_normal(20))
        assert grad_check(lambda t: silu(t).sum(), x) < 1e-4
        assert grad_check(lambda t: gelu(t).sum(), x) < 1e-4
