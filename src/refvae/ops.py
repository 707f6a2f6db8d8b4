"""Model-level differentiable primitives built on the tensor engine.

Convolution, attention, rotary embedding and group and RMS normalisation
carry hand-written backward rules (fused ops).  Every bias, of a conv, the
linear map or the patch embedding, is added in place by `add_bias`; the rest
of those two and the causal temporal upsampling compose engine primitives.
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor, _acc, _from_op, _grad_buffer, _released, _unbroadcast, concat

EPS = 1e-6
# GEMM outputs at most this wide get no frame tiles and no kernel copies: OpenBLAS
# picks their kernel by row count and memory order, so either would change
# their bits (and with them training trajectories).
_MIN_TILED_WIDTH = 8
# row-tile height cap: bounds _grouped_gemm's per-tile [group*k, rows]
# product (~14 MB untiled at the decoder head) and a frame tile's buffers
_TILE_ROWS = 4096
# OpenBLAS runs a GEMM of at most this many multiply-adds on its small-matrix
# kernel, and a one-column product as a GEMV: each sums in another order.
# Frame tiles stay within it: there a row of a C-contiguous kernel's product
# has the same bits at any tile height, at 30-40% less time per row.
# This bound and _shifted_gemm's width rule and k > 1 guard copy OpenBLAS 0.3.31's
# kernel choice (DYNAMIC_ARCH, SkylakeX core); on any other BLAS build or core,
# rerun scripts/conv_identity.py against the previous src/ before relying on them.
_SMALL_GEMM_MACS = 100 ** 3


def _row_tiles(rows: int, cap: int) -> list[tuple[int, int]]:
    """Equal-height row ranges of at most cap rows.

    No tile may be a sliver: a GEMM of a few dozen rows takes another BLAS
    kernel, with other result bits.
    """
    if rows <= cap:
        return [(0, rows)]
    n_tiles = -(-rows // max(1, cap))
    tile = -(-rows // n_tiles)
    return [(r0, min(r0 + tile, rows)) for r0 in range(0, rows, tile)]


def _frame_tiles(frame_rows: int, band: tuple[int, int], live: list[range],
                 cap: int) -> list[tuple[int, int, range]]:
    """_shifted_gemm's tiles (r0, r1, live offsets) over frames of frame_rows rows.

    Only rows [lo, hi) = band of a frame are needed, and frame f sums only
    the offsets in live[f].  A run of neighbouring frames with equal live
    offsets shares a tile while their band span fits in cap rows; a taller
    band splits into equal parts.
    """
    lo, hi = band
    per = max(1, (cap - hi + lo) // frame_rows + 1)  # frames per tile
    parts = _row_tiles(hi - lo, cap)
    ends = [f for f in range(1, len(live) + 1) if f == len(live) or live[f] != live[f - 1]]
    return [((f0 + a) * frame_rows + lo + p0, (f0 + b - 1) * frame_rows + lo + p1, live[f0])
            for f0, f1 in zip([0] + ends, ends) for a, b in _row_tiles(f1 - f0, per) for p0, p1 in parts]


def _shifted_gemm(src: np.ndarray, starts: list[int], mats: np.ndarray, rows: int,
                  dtype, group: int, frames: tuple[int, tuple[int, int], list[range]]) -> np.ndarray:
    """out[r] = sum over o of src[r + starts[o]] @ mats[o], for r < rows.

    mats holds the [c, k] kernels, offsets row-major over its leading axes.
    Outputs wider than _MIN_TILED_WIDTH run on one C-contiguous copy of
    mats, over _frame_tiles' tiles of `frames` = (frame_rows, band, live
    offsets per frame): each tile's accumulator and operand rows stay in
    cache across its offsets, offsets that add exact zeros are skipped and
    rows in no tile are left unwritten.  Narrower outputs take every row, and
    untiled the offsets from the first any frame reads to the last, or
    through _grouped_gemm every offset over runs of `group` where that keeps
    every GEMM off OpenBLAS's small-matrix and GEMV kernels.  Every row sums
    its offsets in order.
    """
    c, k = mats.shape[-2:]
    if k <= _MIN_TILED_WIDTH:
        mats = [mats[o] for o in np.ndindex(mats.shape[:-2])]
        spans = _row_tiles(rows, _TILE_ROWS)
        last = spans[-1][1] - spans[-1][0]
        if k > 1 and c * k * min(rows, group * last) > _SMALL_GEMM_MACS:
            return _grouped_gemm(src, starts, mats, spans, group, dtype).T
        live = frames[2]  # one whole-array tile over the offsets some frame reads
        tiles = [(0, rows, range(min(r.start for r in live), max(r.stop for r in live)))]
    else:
        mats = list(np.ascontiguousarray(mats).reshape(-1, c, k))
        tiles = _frame_tiles(*frames, min(_TILE_ROWS, _SMALL_GEMM_MACS // (c * k)))
    # an inner dimension of 1 makes each GEMM an outer product: a broadcast
    # multiply gives every element the same single rounded product
    mul = np.multiply if c == 1 else np.matmul
    out = np.empty((rows, k), dtype=dtype)
    tmp = np.empty((max(r1 - r0 for r0, r1, _ in tiles), k), dtype=dtype)
    for r0, r1, live in tiles:
        acc, part = out[r0:r1], tmp[:r1 - r0]
        ss, ms = starts[live.start:live.stop], mats[live.start:live.stop]
        if not ss:
            acc.fill(0)
            continue
        mul(src[r0 + ss[0]:r1 + ss[0]], ms[0], out=acc)
        for s, m in zip(ss[1:], ms[1:]):
            acc += mul(src[r0 + s:r1 + s], m, out=part)
    return out


def _grouped_gemm(src: np.ndarray, starts: list[int], mats: list[np.ndarray],
                  tiles: list[tuple[int, int]], group: int, dtype) -> np.ndarray:
    """_shifted_gemm's result as [k, rows], for outputs at most _MIN_TILED_WIDTH wide.

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
    has the promoted dtype of x and kernel.  A fresh `groupnorm_silu` output
    x is taken over: the node keeps the norm's input and statistics, not x.
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

    def phases(src: np.ndarray) -> np.ndarray:
        buf = np.zeros(((tq + 1) * st, hq * sh, wq * sw, cin), dtype=src.dtype)
        buf[kt - 1:kt - 1 + t_in, ph:ph + h_in, pw:pw + w_in] = src.transpose(1, 2, 3, 0)
        phase_major = buf.reshape(tq + 1, st, hq, sh, wq, sw, cin).transpose(1, 3, 5, 0, 2, 4, 6)
        return np.ascontiguousarray(phase_major)  # a view at stride 1

    # output row r = (t*hq + y)*wq + x of a phase reads row r + start of the
    # stack; rows with y >= h_out or x >= w_out are junk and cropped once at the end
    rows = t_out * hq * wq
    offsets = list(np.ndindex(kt, kh, kw))
    starts = [(((dt % st) * sh + dy % sh) * sw + dx % sw) * block
              + ((dt // st) * hq + dy // sh) * wq + dx // sw for dt, dy, dx in offsets]
    wcl = np.ascontiguousarray(kernel.data.transpose(2, 3, 4, 1, 0))  # [kt,kh,kw,Cin,Cout]
    # output frame t needs its rows y < h_out and only its offsets
    # dt >= kt-1 - t*st: the others read causal zero frames
    frames = (hq * wq, (0, h_out * wq), [range(kh * kw * max(0, kt - 1 - t * st), len(offsets))
                                         for t in range(t_out)])
    acc = _shifted_gemm(phases(x.data).reshape(-1, cin), starts, wcl, rows, dtype, kh * kw, frames)
    out = np.ascontiguousarray(acc.reshape(t_out, hq, wq, cout)[:, :h_out, :w_out].transpose(3, 0, 1, 2))

    norm_bw = x._backward if hasattr(x._backward, "rebuild") else None
    plain, x_dtype = None if norm_bw else x, x.dtype

    def bw(g):
        parts = norm_bw.rebuild() if norm_bw else None  # [normalised map, affine output, its sigmoid]
        gcl = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).reshape(n, cout)
        if kernel.requires_grad:
            # reduce over the n output positions only, never over junk rows;
            # one all-frames patch per temporal phase and spatial offset, whose
            # frame ranges are the [n, cin] operands a per-offset copy makes
            gk = _grad_buffer(kernel)
            xq = phases(parts[1] * parts[2] if norm_bw else plain.data)  # rebuilt, not kept alive from the forward
            pt = np.empty((tq, h_out, w_out, cin), dtype=x_dtype)  # one operand buffer for every patch
            for dy, dx in np.ndindex(kh, kw):
                for a in range(min(st, kt)):
                    np.copyto(pt, xq[a, dy % sh, dx % sw, :tq, dy // sh:dy // sh + h_out, dx // sw:dx // sw + w_out])
                    for dt in range(a, kt, st):
                        gk[:, :, dt, dy, dx] += gcl.T @ pt[dt // st:dt // st + t_out].reshape(n, cin)
            del xq, pt  # freed before the input gradient's buffers are built
        if not (norm_bw or plain.requires_grad):
            return
        # phase row j gathers g row j - s from each offset of the phase, at
        # its in-phase start s: a forward pass of g laid out on the output
        # rows, front-padded so that every such row is in range
        lead = max(s % block for s in starts)
        gsrc = np.zeros((lead + tq * hq * wq, cout), dtype=g.dtype)
        gsrc[lead:lead + rows].reshape(t_out, hq, wq, cout)[:, :h_out, :w_out] = \
            gcl.reshape(t_out, h_out, w_out, cout)
        # at stride 1 the one phase's input frames are the gradient, cropped
        # in place; each stride phase writes the input positions it holds
        gx = np.zeros((t_in, h_in, w_in, cin), dtype=dtype) if st * sh * sw > 1 else None
        for p, (a, b, c) in enumerate(np.ndindex(st, sh, sw)):
            # the phase's offsets' in-phase starts, in (dt, dy, dx) order, and
            # the frames, rows and columns of the phase that hold input
            own = [s % block for s in starts if s // block == p]
            f0, f1 = -((a - kt + 1) // st), -((a - kt + 1 - t_in) // st)
            y0, y1 = -((b - ph) // sh), -((b - ph - h_in) // sh)
            x0, x1 = -((c - pw) // sw), -((c - pw - w_in) // sw)
            if not own or f0 >= f1:
                continue
            # phase frame f takes the offsets dt//st = j, grp of them each,
            # whose output frame f - j exists
            mats = wcl[a::st, b::sh, c::sw].transpose(0, 1, 2, 4, 3)  # [kt', kh', kw', Cout, Cin]
            n_dt, grp = len(mats), len(own) // len(mats)
            frames = (hq * wq, (y0 * wq, y1 * wq), [range(grp * max(0, f - t_out + 1), grp * min(n_dt, f + 1))
                                                    for f in range(f0, f1)])
            gph = _shifted_gemm(gsrc, [lead + f0 * hq * wq - s for s in own], mats,
                                (f1 - f0) * hq * wq, dtype, grp, frames).reshape(f1 - f0, hq, wq, cin)
            if gx is None:
                gx = gph[:, ph:ph + h_in, pw:pw + w_in]
            else:
                gx[f0 * st + a - kt + 1::st, y0 * sh + b - ph::sh, x0 * sw + c - pw::sw] = gph[:, y0:y1, x0:x1]
        gx = gx.transpose(3, 0, 1, 2).astype(x_dtype, copy=False)
        norm_bw(gx, parts) if norm_bw else _acc(plain, gx)

    parents = (x, kernel)
    if norm_bw:
        parents, x._backward, x._parents = (*x._parents, kernel), _released, ()
    return _from_op(out, parents, bw)


def add_bias(h: Tensor, bias: Tensor, residual: Tensor | None = None) -> Tensor:
    """h + bias (+ residual) as one node, added in place into h's buffer.

    `h` must be the fresh output of an op whose backward never reads it, such
    as conv3d_causal or a matmul, or a reshape or transpose view of such a
    product, whose buffer then holds the sum.  The node takes over h's closure
    and parents, leaves h released and hands its gradient to that closure
    uncopied.  IEEE addition commutes, so the bits are those of
    `residual + (h + bias)`; adding in place never promotes, so an operand of
    another dtype than h is an error.
    """
    adds = [bias] if residual is None else [bias, residual]
    if any(t.dtype != h.dtype for t in adds):
        raise ValueError(f"add_bias of {[t.dtype.name for t in adds]} into {h.dtype.name}: would cast")
    owner = h  # view ops lead down to the tensor whose buffer h's data is
    while owner._parents and np.may_share_memory(owner.data, owner._parents[0].data):
        owner = owner._parents[0]
    if any(t._backward is _released or (t.requires_grad and t._backward is None) for t in (h, owner)):
        raise ValueError("add_bias takes over a fresh op output, not a leaf or an absorbed tensor or their view")
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

    Full bidirectional attention: no mask over the token sequence.  Heads run
    one at a time through one [L, L] buffer, and the node keeps only each
    head's row max and row sum of its scaled scores: the backward rebuilds a
    head's probabilities from them by the forward's expressions, same bits.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise ValueError("q, k, v must share shape [L, d]")
    if not q.dtype == k.dtype == v.dtype:
        raise ValueError(f"q, k, v of dtypes {q.dtype.name}, {k.dtype.name}, {v.dtype.name}: would cast")
    seq, d = q.shape
    if heads < 1 or d % heads:
        raise ValueError(f"hidden dim {d} not divisible into {heads} heads")
    dh = d // heads
    scale = 1.0 / float(np.sqrt(dh))  # python float: no f32 -> f64 promotion

    def split(t):
        return t.reshape(seq, heads, dh).transpose(1, 0, 2)  # [H, L, dh]

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    rmax, rsum = np.empty((2, heads, seq, 1), dtype=q.dtype)

    def softmax(i, p, fresh=False):  # head i's probabilities in p; `fresh` takes its row max and sum
        np.matmul(qh[i], kh[i].T, out=p)
        p *= scale
        if fresh:
            p.max(axis=-1, keepdims=True, out=rmax[i])
        p -= rmax[i]
        np.exp(p, out=p)
        if fresh:
            p.sum(axis=-1, keepdims=True, out=rsum[i])
        p /= rsum[i]
        return p

    out, p = np.empty((seq, heads, dh), dtype=q.dtype), np.empty((seq, seq), dtype=q.dtype)
    for i in range(heads):
        np.matmul(softmax(i, p, fresh=True), vh[i], out=out[:, i])

    def bw(g):
        gh = split(g)
        grads = np.empty((3, seq, heads, dh), dtype=q.dtype)  # v's, q's and k's as [L, H, dh]
        p, gs, prod = np.empty((3, seq, seq), dtype=q.dtype)  # one head's [L, L] arrays
        for i in range(heads):
            np.matmul(softmax(i, p).T, gh[i], out=grads[0, :, i])
            np.matmul(gh[i], vh[i].T, out=gs)  # gp, turned into p * (gp - rowsum(gp * p)) in place
            gs -= np.multiply(gs, p, out=prod).sum(axis=-1, keepdims=True)
            gs *= p
            np.matmul(gs, kh[i], out=grads[1, :, i])
            np.matmul(gs.T, qh[i], out=grads[2, :, i])
        grads[1:] *= scale
        del p, gs, prod  # freed before the gradients' first-touch copies
        for t, gt in zip((v, q, k), grads):
            if t.requires_grad:
                _acc(t, gt.reshape(seq, d))

    return _from_op(out.reshape(seq, d), (q, k, v), bw)


def rope_tables(positions, width: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """rope_apply's (cos, sin) [L, 3, width/6] tables of positions [L, 3], in float64 rounded to dtype."""
    if width % 6:
        raise ValueError("rope needs d divisible by 3 axes with even per-axis width")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be [L, 3], got {pos.shape}")
    pairs = width // 6
    inv_freq = 10000.0 ** (-np.arange(pairs, dtype=np.float64) / pairs)
    ang = pos[:, :, None] * inv_freq[None, None, :]  # [L, 3, pairs]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


def rope_apply(x: Tensor, tables: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """Rotary position embedding over 3D integer coordinates (t, h, w).

    Each head's channels split equally across the three axes; within an axis
    block, consecutive channel pairs rotate with geometric frequency
    spacing.  Norm-preserving; identity at position (0, 0, 0).  The backward
    is the rotation by -theta: IEEE negation is exact, so g1*cos - g2*(-sin)
    has the bits of g1*cos + g2*sin.  `tables` are the `rope_tables` of x's
    rows' positions and dtype at a head width 6*pairs dividing d; every head
    slice of row l turns by row l's angles.
    """
    (seq, d), (cos, sin) = x.shape, tables
    pairs = cos.shape[-1]
    if cos.shape[:2] != (seq, 3) or not pairs or d % (6 * pairs) or cos.dtype != x.dtype:
        raise ValueError(f"rope tables {cos.shape} {cos.dtype.name} do not fit x {x.shape} {x.dtype.name}")
    heads, cos, sin = (seq, d // (6 * pairs), 3, pairs, 2), cos[:, None], sin[:, None]
    return _from_op(_rotate(x.data.reshape(heads), cos, sin).reshape(seq, d), (x,),
                    lambda g: _acc(x, _rotate(g.reshape(heads), cos, -sin).reshape(seq, d)))


def _rotate(v: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Each channel pair (v1, v2) of v[..., 2] turned by the angle of (cos, sin)."""
    v1, v2 = v[..., 0], v[..., 1]
    y = np.empty_like(v)
    y[..., 0] = v1 * cos - v2 * sin
    y[..., 1] = v1 * sin + v2 * cos
    return y


def rmsnorm(x: Tensor, gain: Tensor, axis: int = -1) -> Tensor:
    """x / sqrt(mean(x^2, axis) + eps) * gain.

    One node keeps only x and the rms r; its backward recomputes x / r and
    replays the engine's rules for the composed ops (*gain, /, sqrt, +eps,
    mean, x*x) in their order, so outputs and gradients have their bits.
    """
    xd = x.data
    ms = (xd * xd).mean(axis=axis, keepdims=True)
    n = xd.size // max(ms.size, 1)  # elements per mean
    r = np.sqrt(ms + np.asarray(EPS, dtype=ms.dtype))
    out = xd / r * gain.data

    def bw(g):
        if gain.requires_grad:
            _acc(gain, _unbroadcast(g * (x.data / r), gain.shape))
        if not x.requires_grad:
            return
        g_q = g * gain.data
        _acc(x, g_q / r)
        g_sq = _unbroadcast(g_q * x.data / -(r * r), r.shape) / (2.0 * r) / n
        del g_q
        _acc(x, g_sq * x.data)  # x*x passes one gradient per operand: two adds, as there
        _acc(x, g_sq * x.data)

    return _from_op(out, (x, gain), bw)


def groupnorm_silu(x: Tensor, groups: int, gain: Tensor, bias: Tensor) -> Tensor:
    """silu(group normalisation) over [C, T, H, W] with per-channel affine.

    Statistics are taken per frame (over in-group channels and space, never
    over time), so normalisation cannot leak future frames into past ones.
    One fused node keeps only the input, the mean and the std; its backward
    recomputes the normalised map and its sigmoid, applies `silu`'s rule, and
    replays the engine's rules for the composed norm (mean, sub, x*x, mean,
    +eps, sqrt, div, *gain, +bias) step by step, so outputs and gradients
    have the composed ops' bits.  A conv3d_causal reading the fresh output
    takes the node over and rebuilds the output in backward, so the output
    must feed that conv alone: read by another op too, backward raises a
    "released" ValueError rather than give a wrong gradient.
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

    def rebuild():  # [normalised map, affine output, its sigmoid], by the forward's expressions
        y = ((xg - mu) / std).reshape(x.shape)
        act = y * gain.data + bias.data
        return [y, act, _sigmoid(act)]

    def bw(g, parts=None):  # a taking-over conv passes its rebuild(), emptied so each part frees once used
        y, act, sig = parts = parts or rebuild()
        parts.clear()
        g = _silu_grad(g, act, sig)
        del act, sig
        if bias.requires_grad:
            _acc(bias, _unbroadcast(g, bias.shape))
        if gain.requires_grad:
            _acc(gain, _unbroadcast(g * y, gain.shape))
        del y
        if not x.requires_grad:
            return
        gy = _unbroadcast(g * gain.data, x.shape).reshape(xg.shape)
        del g
        xc = xg - mu
        g_xc = gy / std
        g_std = -_unbroadcast(gy * xc / (std * std), std.shape)
        g_sq = g_std / (2.0 * std) / n
        g_xc += g_sq * xc  # x*x passes one gradient per operand: two adds, as there
        g_xc += g_sq * xc
        g_xc += -_unbroadcast(g_xc, mu.shape) / n
        _acc(x, g_xc.reshape(x.shape))

    bw.rebuild = rebuild
    return _from_op(out, (x, gain, bias), bw)


def patch_embed(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Non-overlapping patch projection: conv with stride == kernel, no padding.

    x[C, T, H, W] with w[D, C, 1, s, s] -> [D, T, H/s, W/s].  Realised as
    reshape + matmul + `add_bias`, so the gradient comes from their rules.
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
    return add_bias(out.reshape(t, ht, wt, d_out).transpose(3, 0, 1, 2), b)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def _silu_grad(g: np.ndarray, v: np.ndarray, sig: np.ndarray) -> np.ndarray:
    return g * sig * (1.0 + v * (1.0 - sig))


def silu(x: Tensor) -> Tensor:
    sig = _sigmoid(x.data)
    return _from_op(x.data * sig, (x,), lambda g: _acc(x, _silu_grad(g, x.data, sig)))


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def _gelu_tanh(xd: np.ndarray) -> np.ndarray:
    return np.tanh(_GELU_C * (xd + _GELU_A * xd * xd * xd))


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation.  The node keeps only x: its backward recomputes the tanh."""
    out = 0.5 * x.data * (1.0 + _gelu_tanh(x.data))

    def bw(g):
        xd, th = x.data, _gelu_tanh(x.data)
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd)
        _acc(x, g * (0.5 * (1.0 + th) + 0.5 * xd * (1.0 - th * th) * dinner))

    return _from_op(out, (x,), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[L, din] @ w[din, dout] + b[dout] as one node: `add_bias` keeps the composed op's bits."""
    return add_bias(x @ w, b)
