import struct
from collections.abc import Callable
from pathlib import Path

import numpy as np
import pytest

from refvae.ops import EPS, conv3d_causal, groupnorm_silu
from refvae.refcond import RefCondConfig, init_ref_params
from refvae.synthdata import RDVC_MAGIC, RDVC_VERSION
from refvae.tensor import Tensor, _acc, _from_op, backward
from refvae.vae import VaeConfig, init_vae_params


def rmsnorm_composed(x, gain, axis=-1):
    """The engine-primitive composition that the fused `ops.rmsnorm` replaces: its oracle."""
    ms = (x * x).mean(axis=axis, keepdims=True)
    return x / (ms + EPS).sqrt() * gain


def linear_composed(x, w, b):
    """The engine-primitive composition that the fused `ops.linear` replaces: its oracle."""
    return x @ w + b


def attention_batched(q, k, v, heads):
    """`ops.attention` with every head's [L, L] probabilities formed at once and kept
    for backward: its oracle."""
    seq, d = q.shape
    dh = d // heads
    scale = 1.0 / float(np.sqrt(dh))

    def split(t):
        return t.reshape(seq, heads, dh).transpose(1, 0, 2)  # [H, L, dh]

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = np.matmul(qh, kh.transpose(0, 2, 1))
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = np.matmul(p, vh).transpose(1, 0, 2).reshape(seq, d)

    def bw(g):
        gh = g.reshape(seq, heads, dh).transpose(1, 0, 2)
        if v.requires_grad:
            _acc(v, np.matmul(p.transpose(0, 2, 1), gh).transpose(1, 0, 2).reshape(seq, d))
        if q.requires_grad or k.requires_grad:
            gs = np.matmul(gh, vh.transpose(0, 2, 1))
            for gsh, ph in zip(gs, p):
                gsh -= (gsh * ph).sum(axis=-1, keepdims=True)
            gs *= p
            if q.requires_grad:
                _acc(q, (np.matmul(gs, kh) * scale).transpose(1, 0, 2).reshape(seq, d))
            if k.requires_grad:
                _acc(k, (np.matmul(gs.transpose(0, 2, 1), qh) * scale).transpose(1, 0, 2).reshape(seq, d))

    return _from_op(out, (q, k, v), bw)


def patch_embed_composed(x, w, b):
    """`ops.patch_embed` with its bias added by the composed `+ b` in place of `add_bias`: its oracle."""
    d_out, cin, _, sh, sw = w.shape
    t, h, w_in = x.shape[1:]
    ht, wt = h // sh, w_in // sw
    cols = x.reshape(cin, t, ht, sh, wt, sw).transpose(1, 2, 4, 0, 3, 5).reshape(t * ht * wt, cin * sh * sw)
    out = cols @ w.reshape(d_out, cin * sh * sw).transpose(1, 0)
    return out.reshape(t, ht, wt, d_out).transpose(3, 0, 1, 2) + b


def conv_of_groupnorm_silu_unfused(x, groups, gain, bias, kernel, stride=(1, 1, 1)):
    """conv3d_causal over a groupnorm_silu node it cannot take over, so the conv keeps
    the norm's output: the two nodes that the fused one replaces, its oracle."""
    h = groupnorm_silu(x, groups, gain, bias)
    norm_bw = h._backward
    h._backward = lambda g: norm_bw(g)  # the same rule, with no `rebuild` to offer
    return conv3d_causal(h, kernel, stride)


def read_rdvc(path: Path) -> np.ndarray:
    """Frames of a `write_rdvc` dump: magic, version, T/H/W, then little-endian f32."""
    raw = Path(path).read_bytes()
    assert raw[:4] == RDVC_MAGIC
    version, t, h, w = struct.unpack("<IIII", raw[4:20])
    assert version == RDVC_VERSION
    return np.frombuffer(raw[20:], dtype="<f4").reshape(t, 3, h, w)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    Error per coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    `f` must be scalar-valued and deterministic.
    """
    out = f(x)
    backward(out)
    analytic = x.grad.copy()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x).item()
        flat[i] = orig - eps
        fm = f(x).item()
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * eps)

    rel = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(rel.max())


@pytest.fixture(scope="session")
def desk_cfg():
    return VaeConfig()


@pytest.fixture(scope="session")
def desk_params(desk_cfg):
    return init_vae_params(desk_cfg, np.random.default_rng(11))


@pytest.fixture()
def tiny_cfg():
    """Smallest legal backbone: 2x spatial, no temporal compression, 1x1x1 convs."""
    return VaeConfig(spatial_compression=2, temporal_compression=1, latent_channels=2,
                     stage_channels=(4, 2, 2), res_blocks=1, stage_kernels=(1, 1, 1),
                     norm_groups=2)


@pytest.fixture()
def tiny_ref_cfg():
    return RefCondConfig(n_blocks=1, hidden=12, heads=2, ff_mult=2, token_strides=(1, 1, 1))


@pytest.fixture()
def tiny_params(tiny_cfg, tiny_ref_cfg):
    rng = np.random.default_rng(3)
    params = init_vae_params(tiny_cfg, rng)
    params.update(init_ref_params(tiny_cfg, tiny_ref_cfg, rng, null_hw=(2, 2)))
    return params
