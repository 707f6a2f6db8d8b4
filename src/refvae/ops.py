"""Model-level differentiable primitives built on the tensor engine.

Convolution, attention, rotary embedding and group normalisation carry
hand-written backward rules (fused ops); RMS normalisation and the causal
temporal upsampling are compositions of engine primitives and inherit their
gradients.
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor, _acc, _from_op, _grad_buffer, _released, _unbroadcast, concat

EPS = 1e-6
# accumulator floats per row tile of _shifted_gemm: with its operand rows and
# the kernel slice, one tile stays in L2 across all kernel offsets
_TILE_FLOATS = 16384
# narrower GEMM outputs are not tiled this way: OpenBLAS picks their kernel by
# row count, so tiles would change their bits (and with them training
# trajectories).  They run as grouped wide GEMMs instead (_grouped_gemm).
_MIN_TILED_WIDTH = 8
# row-tile height cap of _grouped_gemm: bounds its per-tile [group*k, rows]
# product, which untiled would add ~14 MB at the decoder head
_GROUPED_TILE_ROWS = 4096
# OpenBLAS runs a GEMM of at most this many multiply-adds on its small-matrix
# kernel, and a one-column product as a GEMV: each sums in another order.
# This bound, the k > 1 guard of _shifted_gemm and the contiguous-kernel rule
# of the input gradient copy OpenBLAS 0.3.31's kernel choice (DYNAMIC_ARCH,
# SkylakeX core); on any other BLAS build or core, rerun
# scripts/conv_identity.py against the previous src/ before relying on them.
_SMALL_GEMM_MACS = 100 ** 3


def _row_tiles(rows: int, cap: int) -> list[tuple[int, int]]:
    """Equal-height row ranges of at most cap rows.

    No tile may be a sliver: a GEMM of a few dozen rows takes another BLAS
    kernel, with other result bits.
    """
    n_tiles = -(-rows // max(1, cap))
    tile = -(-rows // n_tiles)
    return [(r0, min(r0 + tile, rows)) for r0 in range(0, rows, tile)]


def _shifted_gemm(src: np.ndarray, starts: list[int], mats: list[np.ndarray],
                  rows: int, dtype, group: int) -> np.ndarray:
    """out[r] = sum over o of src[r + starts[o]] @ mats[o], for r < rows.

    Runs tile by tile over output rows, so each tile's accumulator and operand
    rows stay cache-resident across all offsets instead of streaming the
    whole array once per offset.  Every row still sums its offsets in list
    order.  Outputs narrower than _MIN_TILED_WIDTH run untiled, or through
    _grouped_gemm over runs of `group` offsets where that keeps every GEMM
    off OpenBLAS's small-matrix and GEMV kernels.
    """
    c, k = mats[0].shape
    if k < _MIN_TILED_WIDTH:
        tiles = _row_tiles(rows, _GROUPED_TILE_ROWS)
        last = tiles[-1][1] - tiles[-1][0]
        if k > 1 and c * k * min(rows, group * last) > _SMALL_GEMM_MACS:
            return _grouped_gemm(src, starts, mats, tiles, group, dtype).T
        tiles = [(0, rows)]
    else:
        tiles = _row_tiles(rows, _TILE_FLOATS // k)
    # an inner dimension of 1 makes each GEMM an outer product: a broadcast
    # multiply gives every element the same single rounded product
    mul = np.multiply if c == 1 else np.matmul
    out = np.empty((rows, k), dtype=dtype)
    tmp = np.empty((tiles[0][1], k), dtype=dtype)
    for r0, r1 in tiles:
        acc, part = out[r0:r1], tmp[:r1 - r0]
        mul(src[r0 + starts[0]:r1 + starts[0]], mats[0], out=acc)
        for s, m in zip(starts[1:], mats[1:]):
            acc += mul(src[r0 + s:r1 + s], m, out=part)
    return out


def _grouped_gemm(src: np.ndarray, starts: list[int], mats: list[np.ndarray],
                  tiles: list[tuple[int, int]], group: int, dtype) -> np.ndarray:
    """_shifted_gemm's result as [k, rows], for outputs narrower than _MIN_TILED_WIDTH.

    Per row tile, each run of `group` offsets takes one wide GEMM,
    [group*k, c] @ src[r0+lo : r1+hi]ᵀ over the tile's rows plus the run's
    span of starts, in place of `group` narrow ones.  Its row blocks are
    then added at their shifts, in list order.
    """
    k = mats[0].shape[1]
    out = np.empty((k, tiles[-1][1]), dtype=dtype)
    runs = [(starts[g:g + group], np.concatenate([m.T for m in mats[g:g + group]]))
            for g in range(0, len(mats), group)]
    for r0, r1 in tiles:
        acc = out[:, r0:r1]
        for j, (ss, wide) in enumerate(runs):
            lo = min(ss)
            prod = wide @ src[r0 + lo:r1 + max(ss)].T
            # same bits: each element is the c-long dot product of a per-offset
            # GEMM on the same BLAS kernel, summed in the same offset order
            for i, s in enumerate(ss):
                part = prod[i * k:(i + 1) * k, s - lo:s - lo + r1 - r0]
                if i == j == 0:
                    np.copyto(acc, part)
                else:
                    acc += part
    return out


def conv3d_causal(x: Tensor, kernel: Tensor, stride: tuple[int, int, int] = (1, 1, 1)) -> Tensor:
    """Causal 3D convolution over [C, T, H, W].

    Temporal padding of kt-1 zeros is applied entirely at the front, so
    output index t depends only on input indices <= t*st.  Spatial padding
    is symmetric (kh-1)/2, which requires odd spatial kernels.  The result
    has the promoted dtype of x and kernel.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 5:
        raise ValueError("conv3d_causal expects x[C,T,H,W] and kernel[Cout,Cin,kt,kh,kw]")
    cin, t_in, h_in, w_in = x.shape
    cout, cin_k, kt, kh, kw = kernel.shape
    st, sh, sw = stride
    if cin_k != cin:
        raise ValueError(f"kernel expects {cin_k} input channels, got {cin}")
    if min(kt, kh, kw) < 1 or min(t_in, h_in, w_in) < 1 or min(st, sh, sw) < 1:
        raise ValueError("kernel, input and stride dims must be >= 1")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("spatial kernel dims must be odd for symmetric padding")

    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    t_out = (t_in - 1) // st + 1
    h_out = (h_in - 1) // sh + 1
    w_out = (w_in - 1) // sw + 1
    n = t_out * h_out * w_out
    dtype = np.result_type(x.data, kernel.data)

    # channels-last internally, split into stride phases: padded position
    # (t*st + a, y*sh + b, x*sw + c) sits at (t, y, x) of phase (a, b, c), so
    # each kernel offset reads a stride-1 shift of one phase.  The padded
    # extents round up to whole phases; with a spare frame per phase, every
    # offset reads its operand as one contiguous row range of the stacked
    # phases.  At stride 1 the stack is the padded input itself.
    tq, hq, wq = -(-(kt - 1 + t_in) // st), -(-(h_in + 2 * ph) // sh), -(-(w_in + 2 * pw) // sw)
    block = (tq + 1) * hq * wq

    def phases() -> np.ndarray:
        buf = np.zeros(((tq + 1) * st, hq * sh, wq * sw, cin), dtype=x.dtype)
        buf[kt - 1:kt - 1 + t_in, ph:ph + h_in, pw:pw + w_in] = x.data.transpose(1, 2, 3, 0)
        phase_major = buf.reshape(tq + 1, st, hq, sh, wq, sw, cin).transpose(1, 3, 5, 0, 2, 4, 6)
        return np.ascontiguousarray(phase_major)  # a view at stride 1

    # output row r = (t*hq + y)*wq + x of a phase reads row r + start of the
    # stack; rows with y >= h_out or x >= w_out are junk and cropped once at the end
    rows = t_out * hq * wq
    offsets = list(np.ndindex(kt, kh, kw))
    starts = [(((dt % st) * sh + dy % sh) * sw + dx % sw) * block
              + ((dt // st) * hq + dy // sh) * wq + dx // sw for dt, dy, dx in offsets]
    wcl = np.ascontiguousarray(kernel.data.transpose(2, 3, 4, 1, 0))  # [kt,kh,kw,Cin,Cout]
    mats = [wcl[o] for o in offsets]
    acc = _shifted_gemm(phases().reshape(-1, cin), starts, mats, rows, dtype, kh * kw)
    out = np.ascontiguousarray(acc.reshape(t_out, hq, wq, cout)[:, :h_out, :w_out].transpose(3, 0, 1, 2))

    def bw(g):
        gcl = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).reshape(n, cout)
        if kernel.requires_grad:
            # reduce over the n output positions only, never over junk rows;
            # one all-frames patch per temporal phase and spatial offset, whose
            # frame ranges are the [n, cin] operands a per-offset copy makes
            gk = _grad_buffer(kernel)
            xq = phases()  # rebuilt, not kept alive from the forward
            for dy, dx in np.ndindex(kh, kw):
                for a in range(min(st, kt)):
                    pt = np.ascontiguousarray(xq[a, dy % sh, dx % sw, :tq, dy // sh:dy // sh + h_out,
                                                 dx // sw:dx // sw + w_out])
                    for dt in range(a, kt, st):
                        gk[:, :, dt, dy, dx] += gcl.T @ pt[dt // st:dt // st + t_out].reshape(n, cin)
            del xq, pt  # freed before the input gradient's buffers are built
        if not x.requires_grad:
            return
        # phase row j gathers g row j - s from each offset of the phase, at
        # its in-phase start s: a forward pass of g laid out on the output
        # rows, front-padded so that every such row is in range
        lead = max(s % block for s in starts)
        gsrc = np.zeros((lead + tq * hq * wq, cout), dtype=g.dtype)
        gsrc[lead:lead + rows].reshape(t_out, hq, wq, cout)[:, :h_out, :w_out] = \
            gcl.reshape(t_out, h_out, w_out, cout)
        # contiguous kernels give the m.T views' bits only above _MIN_TILED_WIDTH
        # (measured on OpenBLAS 0.3.31, SkylakeX core; see _SMALL_GEMM_MACS)
        tmats = [np.ascontiguousarray(m.T) if cin > _MIN_TILED_WIDTH else m.T for m in mats]
        # at stride 1 the one phase's input frames are the gradient, cropped
        # in place; strided phases scatter into a zero-filled padded buffer
        gxp = None if st * sh * sw == 1 else np.zeros(((tq + 1) * st, hq * sh, wq * sw, cin), dtype=dtype)
        for p, (a, b, c) in enumerate(np.ndindex(st, sh, sw)):
            own = [i for i, s in enumerate(starts) if s // block == p]
            f0, f1 = -((a - kt + 1) // st), -((a - kt + 1 - t_in) // st)  # phase frames holding input
            if not own or f0 >= f1:
                continue
            gph = _shifted_gemm(gsrc, [lead + f0 * hq * wq - starts[i] % block for i in own],
                                [tmats[i] for i in own], (f1 - f0) * hq * wq, dtype,
                                len(own) // len(range(a, kt, st))).reshape(f1 - f0, hq, wq, cin)
            if gxp is None:
                gx = gph[:, ph:ph + h_in, pw:pw + w_in]
            else:
                gxp.reshape(tq + 1, st, hq, sh, wq, sw, cin)[f0:f1, a, :, b, :, c] = gph
        if gxp is not None:
            gx = gxp[kt - 1:kt - 1 + t_in, ph:ph + h_in, pw:pw + w_in]
        _acc(x, gx.transpose(3, 0, 1, 2).astype(x.dtype, copy=False))

    return _from_op(out, (x, kernel), bw)


def add_bias(h: Tensor, bias: Tensor, residual: Tensor | None = None) -> Tensor:
    """h + bias (+ residual) as one node, added in place into h's buffer.

    `h` must be the fresh output of an op whose backward never reads it, such
    as conv3d_causal.  The node takes over h's closure and parents, leaves h
    released and hands its gradient to that closure uncopied.  IEEE addition
    commutes, so the bits are those of `residual + (h + bias)`; adding in place
    never promotes, so an operand of another dtype than h is an error.
    """
    adds = [bias] if residual is None else [bias, residual]
    if any(t.dtype != h.dtype for t in adds):
        raise ValueError(f"add_bias of {[t.dtype.name for t in adds]} into {h.dtype.name}: would cast")
    if h._backward is _released or (h.requires_grad and h._backward is None):
        raise ValueError("add_bias takes over a fresh op output, not a leaf or an absorbed tensor")
    out = h.data
    for t in adds:
        out += t.data
    h_bw, h_parents = h._backward, h._parents
    h._backward, h._parents = _released, ()

    def bw(g):
        for t in adds:
            if t.requires_grad:
                _acc(t, _unbroadcast(g, t.data.shape))
        if h_bw is not None:
            h_bw(g)

    # parents in the order `residual + (h + bias)` puts them on the tape
    return _from_op(out, (*adds[1:], *h_parents, bias), bw)


def upsample_nearest(x: Tensor, factors: tuple[int, int, int]) -> Tensor:
    """Nearest-neighbour replication of [C, T, H, W] by integer factors."""
    ft, fh, fw = factors
    if min(ft, fh, fw) < 1:
        raise ValueError("upsample factors must be >= 1")
    c, t_in, h_in, w_in = x.shape
    y = x.data
    for ax, f in ((1, ft), (2, fh), (3, fw)):
        if f > 1:
            y = np.repeat(y, f, axis=ax)

    return _from_op(y, (x,), lambda g: _acc(
        x, g.reshape(c, t_in, ft, h_in, fh, w_in, fw).sum(axis=(2, 4, 6))))


def upsample_causal(x: Tensor, factors: tuple[int, int, int]) -> Tensor:
    """Temporal upsampling that never duplicates the first frame.

    Maps T -> 1 + (T-1)*ft so a first-frame-uncompressed encoding is
    inverted exactly; spatial factors replicate as usual.
    """
    ft, fh, fw = factors
    if ft == 1 or x.shape[1] == 1:
        return upsample_nearest(x, (1, fh, fw))
    head = upsample_nearest(x[:, :1], (1, fh, fw))
    tail = upsample_nearest(x[:, 1:], (ft, fh, fw))
    return concat([head, tail], axis=1)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over a flat [L, d] sequence.

    Full bidirectional attention: no mask over the token sequence.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise ValueError("q, k, v must share shape [L, d]")
    seq, d = q.shape
    if d % heads:
        raise ValueError(f"hidden dim {d} not divisible by {heads} heads")
    dh = d // heads
    scale = 1.0 / float(np.sqrt(dh))  # python float: no f32 -> f64 promotion

    def split(t):
        return t.reshape(seq, heads, dh).transpose(1, 0, 2)  # [H, L, dh]

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    s = np.matmul(qh, kh.transpose(0, 2, 1)) * scale
    s -= s.max(axis=-1, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=-1, keepdims=True)
    o = np.matmul(p, vh)
    out = o.transpose(1, 0, 2).reshape(seq, d)

    def bw(g):
        gh = g.reshape(seq, heads, dh).transpose(1, 0, 2)
        if v.requires_grad:
            gv = np.matmul(p.transpose(0, 2, 1), gh)
            _acc(v, gv.transpose(1, 0, 2).reshape(seq, d))
        if q.requires_grad or k.requires_grad:
            gp = np.matmul(gh, vh.transpose(0, 2, 1))
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
            if q.requires_grad:
                _acc(q, (np.matmul(gs, kh) * scale).transpose(1, 0, 2).reshape(seq, d))
            if k.requires_grad:
                _acc(k, (np.matmul(gs.transpose(0, 2, 1), qh) * scale).transpose(1, 0, 2).reshape(seq, d))

    return _from_op(out, (q, k, v), bw)


def rope_apply(x: Tensor, positions, base: float = 10000.0) -> Tensor:
    """Rotary position embedding over 3D integer coordinates (t, h, w).

    The channel budget splits equally across the three axes; within an axis
    block, consecutive channel pairs rotate with geometric frequency
    spacing.  Norm-preserving; identity at position (0, 0, 0).
    """
    seq, d = x.shape
    if d % 3 or (d // 3) % 2:
        raise ValueError("rope needs d divisible by 3 axes with even per-axis width")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != (seq, 3):
        raise ValueError(f"positions must be [L, 3], got {pos.shape}")
    pairs = d // 6
    inv_freq = base ** (-np.arange(pairs, dtype=np.float64) / pairs)
    ang = pos[:, :, None] * inv_freq[None, None, :]  # [L, 3, pairs]
    cos = np.cos(ang).astype(x.dtype)
    sin = np.sin(ang).astype(x.dtype)

    xv = x.data.reshape(seq, 3, pairs, 2)
    x1, x2 = xv[..., 0], xv[..., 1]
    y = np.empty_like(xv)
    y[..., 0] = x1 * cos - x2 * sin
    y[..., 1] = x1 * sin + x2 * cos

    def bw(g):
        gv = g.reshape(seq, 3, pairs, 2)
        g1, g2 = gv[..., 0], gv[..., 1]
        gx = np.empty_like(gv)
        gx[..., 0] = g1 * cos + g2 * sin
        gx[..., 1] = -g1 * sin + g2 * cos
        _acc(x, gx.reshape(seq, d))

    return _from_op(y.reshape(seq, d), (x,), bw)


def rmsnorm(x: Tensor, gain: Tensor, axis: int = -1) -> Tensor:
    """x / sqrt(mean(x^2, axis) + eps) * gain."""
    ms = (x * x).mean(axis=axis, keepdims=True)
    return x / (ms + EPS).sqrt() * gain


def groupnorm_silu(x: Tensor, groups: int, gain: Tensor, bias: Tensor) -> Tensor:
    """silu(group normalisation) over [C, T, H, W] with per-channel affine.

    Statistics are taken per frame (over in-group channels and space, never
    over time), so normalisation cannot leak future frames into past ones.
    One fused node keeps only the input, the mean and the std; its backward
    recomputes the normalised map and its sigmoid, applies `silu`'s rule, and
    replays the engine's rules for the composed norm (mean, sub, x*x, mean,
    +eps, sqrt, div, *gain, +bias) step by step, so outputs and gradients
    have the composed ops' bits.
    """
    c, t, h, w = x.shape
    if groups < 1:
        raise ValueError("groups must be >= 1")
    if c % groups:
        raise ValueError(f"{c} channels not divisible into {groups} groups")
    axes, n = (1, 3, 4), (c // groups) * h * w
    xg = x.data.reshape(groups, c // groups, t, h, w)
    mu = xg.mean(axis=axes, keepdims=True)
    xc = xg - mu
    var = (xc * xc).mean(axis=axes, keepdims=True)
    std = np.sqrt(var + np.asarray(EPS, dtype=var.dtype))
    act = (xc / std).reshape(x.shape) * gain.data + bias.data
    out = act * _sigmoid(act)

    def bw(g):
        xc = xg - mu
        y = (xc / std).reshape(x.shape)
        act = y * gain.data + bias.data
        g = _silu_grad(g, act, _sigmoid(act))
        del act
        if bias.requires_grad:
            _acc(bias, _unbroadcast(g, bias.shape))
        if gain.requires_grad:
            _acc(gain, _unbroadcast(g * y, gain.shape))
        del y
        if not x.requires_grad:
            return
        gy = _unbroadcast(g * gain.data, x.shape).reshape(xg.shape)
        del g
        g_xc = gy / std
        g_std = -_unbroadcast(gy * xc / (std * std), std.shape)
        g_sq = g_std / (2.0 * std) / n
        g_xc += g_sq * xc  # x*x passes one gradient per operand: two adds, as there
        g_xc += g_sq * xc
        g_xc += -_unbroadcast(g_xc, mu.shape) / n
        _acc(x, g_xc.reshape(x.shape))

    return _from_op(out, (x, gain, bias), bw)


def patch_embed(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Non-overlapping patch projection: conv with stride == kernel, no padding.

    x[C, T, H, W] with w[D, C, 1, s, s] -> [D, T, H/s, W/s].  Realised as a
    reshape + matmul, so the gradient comes from the engine primitives.
    """
    d_out, cin_k, kt, sh, sw = w.shape
    cin, t, h, w_in = x.shape
    if kt != 1 or sh != sw:
        raise ValueError("patch kernel must be [D, C, 1, s, s]")
    if cin_k != cin:
        raise ValueError(f"patch kernel expects {cin_k} channels, got {cin}")
    if h % sh or w_in % sw:
        raise ValueError(f"{h}x{w_in} not divisible into {sh}x{sw} patches")
    ht, wt = h // sh, w_in // sw
    cols = x.reshape(cin, t, ht, sh, wt, sw).transpose(1, 2, 4, 0, 3, 5).reshape(t * ht * wt, cin * sh * sw)
    out = cols @ w.reshape(d_out, cin * sh * sw).transpose(1, 0)
    out = out.reshape(t, ht, wt, d_out).transpose(3, 0, 1, 2)
    return out + b


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def _silu_grad(g: np.ndarray, v: np.ndarray, sig: np.ndarray) -> np.ndarray:
    return g * sig * (1.0 + v * (1.0 - sig))


def silu(x: Tensor) -> Tensor:
    sig = _sigmoid(x.data)
    return _from_op(x.data * sig, (x,), lambda g: _acc(x, _silu_grad(g, x.data, sig)))


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    xd = x.data
    inner = _GELU_C * (xd + _GELU_A * xd * xd * xd)
    th = np.tanh(inner)
    out = 0.5 * xd * (1.0 + th)

    def bw(g):
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd)
        _acc(x, g * (0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th * th) * dinner))

    return _from_op(out, (x,), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[L, din] @ w[din, dout] + b[dout]."""
    return x @ w + b
