"""Reference-conditioned decoding: the backbone's decode plus a per-stage hook.

A single strided convolution plus normalisation lifts the reference image
into the first decoder stage's feature space.  `vae.decode_baseline_t`, the
one decoder walk, calls the hook after each stage's residual blocks: the
reference map and the video features are projected to a shared hidden
width, concatenated along time (reference at temporal coordinate 0, video
at 1..T_s), processed by one weight-shared stack of transformer blocks
with 3D rotary coordinates, projected back and split.  Both then go through
the pretrained stage upsampler -- the one-frame reference spatially only.

Stage in/out projections are token-extraction patch embeddings with
per-stage strides, so the token grid stays at the latent resolution at
every stage.  The out-projections are zero-initialised: at initialisation
the conditioned decoder reproduces the baseline decoder exactly.

Residual injection (ControlNet-style) is the alternative hook, run when the
parameters hold its `ctrl.*` tensors: a parallel conv branch per stage adds
reference features to every video frame alike, with no attention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (
    add_bias,
    attention,
    conv3d_causal,
    gelu,
    linear,
    patch_embed,
    rmsnorm,
    rope_apply,
    rope_tables,
    silu,
    upsample_nearest,
)
from .tensor import Tensor, concat, parameter
from .vae import VaeConfig, dec_stage_upsample, decode_baseline_t


@dataclass
class RefCondConfig:
    n_blocks: int = 3
    hidden: int = 120
    heads: int = 4
    ff_mult: int = 4
    token_strides: tuple[int, int, int] = (1, 2, 4)

    def validate(self) -> None:
        if min(self.heads, self.hidden, self.ff_mult) < 1:
            raise ValueError("heads, hidden and ff_mult must be >= 1")
        if self.hidden % self.heads:
            raise ValueError("hidden width must divide into heads")
        dh = self.hidden // self.heads
        if dh % 6:
            raise ValueError("head width must be divisible by 6 for 3-axis rotary pairs")
        if self.n_blocks < 1:
            raise ValueError("need at least one transformer block")
        if len(self.token_strides) != 3 or any(s < 1 for s in self.token_strides):
            raise ValueError("token_strides must be three positive ints")

    def check_grid(self, vae_cfg: VaeConfig, height: int, width: int) -> None:
        """Each stage's token stride divides that stage's grid for height x width clips."""
        _, _, hs, ws = vae_cfg.latent_shape(1, height, width)
        for s, ((_, fh, fw), sig) in enumerate(zip(vae_cfg.stage_factors(), self.token_strides)):
            if hs % sig or ws % sig:
                raise ValueError(f"stage {s} grid {hs}x{ws} not divisible by token stride {sig}")
            hs, ws = hs * fh, ws * fw


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_ref_params(vae_cfg: VaeConfig, cfg: RefCondConfig, rng: np.random.Generator,
                    injection: str = "attention",
                    null_hw: tuple[int, int] = (4, 8)) -> dict[str, Tensor]:
    """Fresh conditioning modules; pretrained backbone weights live elsewhere."""
    cfg.validate()
    c1 = vae_cfg.stage_channels[0]
    p_comp = vae_cfg.spatial_compression
    d = cfg.hidden
    params: dict[str, Tensor] = {}

    fan = 3 * p_comp * p_comp
    params["ref.patch.w"] = parameter(_xavier(rng, fan, c1, (c1, 3, 1, p_comp, p_comp)))
    params["ref.patch.b"] = parameter(np.zeros((c1, 1, 1, 1)))
    params["ref.norm.g"] = parameter(np.ones((c1, 1, 1, 1)))
    params["ref.null"] = parameter(rng.standard_normal((c1, 1) + null_hw) * 0.02)  # never trained

    if injection == "attention":
        for s, ch in enumerate(vae_cfg.stage_channels):
            sig = cfg.token_strides[s]
            fan_in = ch * sig * sig
            params[f"ref.embed{s}.in.w"] = parameter(
                _xavier(rng, fan_in, d, (d, ch, 1, sig, sig)))
            params[f"ref.embed{s}.in.b"] = parameter(np.zeros((d, 1, 1, 1)))
            params[f"ref.embed{s}.out.w"] = parameter(np.zeros((d, fan_in)))
            params[f"ref.embed{s}.out.b"] = parameter(np.zeros(fan_in))
        for i in range(cfg.n_blocks):
            blk = f"ref.blk{i}"
            params[f"{blk}.n1.g"] = parameter(np.ones(d))
            for w in ("wq", "wk", "wv", "wo"):
                params[f"{blk}.{w}"] = parameter(_xavier(rng, d, d, (d, d)))
            params[f"{blk}.n2.g"] = parameter(np.ones(d))
            ff = d * cfg.ff_mult
            params[f"{blk}.ff1.w"] = parameter(_xavier(rng, d, ff, (d, ff)))
            params[f"{blk}.ff1.b"] = parameter(np.zeros(ff))
            params[f"{blk}.ff2.w"] = parameter(_xavier(rng, ff, d, (ff, d)))
            params[f"{blk}.ff2.b"] = parameter(np.zeros(d))
    elif injection == "controlnet":
        for s, ch in enumerate(vae_cfg.stage_channels):
            params[f"ctrl.s{s}.branch.w"] = parameter(
                _xavier(rng, ch * 9, ch, (ch, ch, 1, 3, 3)))
            params[f"ctrl.s{s}.branch.b"] = parameter(np.zeros((ch, 1, 1, 1)))
            params[f"ctrl.s{s}.inject.w"] = parameter(np.zeros((ch, ch, 1, 1, 1)))
            params[f"ctrl.s{s}.inject.b"] = parameter(np.zeros((ch, 1, 1, 1)))
    else:
        raise ValueError(f"unknown injection kind {injection!r}")
    return params


# -- reference image encoding --------------------------------------------------


def encode_reference(image: Tensor, params: dict[str, Tensor], vae_cfg: VaeConfig) -> Tensor:
    """[3, H, W] image -> [C1, 1, H/p, W/p] tokens: one strided conv + norm."""
    p_comp = vae_cfg.spatial_compression
    c, h, w = image.shape
    if c != 3 or h % p_comp or w % p_comp:
        raise ValueError(f"reference image {image.shape} not divisible by compression {p_comp}")
    x = image.reshape(3, 1, h, w)
    x = patch_embed(x, params["ref.patch.w"], params["ref.patch.b"])
    return rmsnorm(x, params["ref.norm.g"], axis=0)


def _resolve_reference(ref_image, params, vae_cfg, hz, wz) -> Tensor:
    """The reference image's tokens, or the null map `ref.null` tiled onto the hz x wz grid."""
    if ref_image is None:
        null = params["ref.null"]
        _, _, h0, w0 = null.shape
        if hz % h0 or wz % w0:
            raise ValueError(f"null reference map {h0}x{w0} cannot tile latent grid {hz}x{wz}")
        return upsample_nearest(null, (1, hz // h0, wz // w0))  # factor 1 keeps the map's data
    tokens = encode_reference(Tensor(np.asarray(ref_image, dtype=np.float32)), params, vae_cfg)
    if tokens.shape[2:] != (hz, wz):
        raise ValueError(
            f"reference implies a {tokens.shape[2]}x{tokens.shape[3]} latent grid, decoder got {hz}x{wz}")
    return tokens


# -- shared transformer stack ----------------------------------------------------


def _block(seq: Tensor, tables: tuple[np.ndarray, np.ndarray], params: dict[str, Tensor],
           idx: int, cfg: RefCondConfig) -> Tensor:
    blk = f"ref.blk{idx}"
    h = rmsnorm(seq, params[f"{blk}.n1.g"])
    q = rope_apply(h @ params[f"{blk}.wq"], tables)
    k = rope_apply(h @ params[f"{blk}.wk"], tables)
    v = h @ params[f"{blk}.wv"]
    seq = seq + attention(q, k, v, cfg.heads) @ params[f"{blk}.wo"]
    h = rmsnorm(seq, params[f"{blk}.n2.g"])
    ff = linear(gelu(linear(h, params[f"{blk}.ff1.w"], params[f"{blk}.ff1.b"])),
                params[f"{blk}.ff2.w"], params[f"{blk}.ff2.b"])
    return seq + ff


def _token_positions(t_len: int, h: int, w: int) -> np.ndarray:
    """Coordinates for [1+T, h, w] tokens: reference at t=0, video at 1..T."""
    tt, yy, xx = np.meshgrid(np.arange(t_len + 1), np.arange(h), np.arange(w), indexing="ij")
    return np.stack([tt.ravel(), yy.ravel(), xx.ravel()], axis=1)


def stage_forward(video: Tensor, ref: Tensor, s: int, cfg: RefCondConfig,
                  params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Joint attention over temporally concatenated reference + video tokens.

    Returns the residual-updated (video', ref') feature maps, still at
    stage resolution; the caller sends each through the stage upsampler.
    """
    if not 0 <= s <= 2:
        raise ValueError(f"stage index {s} out of range")
    ch, t_len, hs, ws = video.shape
    if ref.shape != (ch, 1, hs, ws):
        raise ValueError(f"reference map {ref.shape} does not match stage features {video.shape}")
    sig = cfg.token_strides[s]
    if hs % sig or ws % sig:
        raise ValueError(f"stage grid {hs}x{ws} not divisible by token stride {sig}")
    ht, wt = hs // sig, ws // sig
    d = cfg.hidden

    win = params[f"ref.embed{s}.in.w"]
    bin_ = params[f"ref.embed{s}.in.b"]
    vtok = patch_embed(video, win, bin_)
    rtok = patch_embed(ref, win, bin_)
    seq = concat([rtok, vtok], axis=1)  # [d, 1+T, ht, wt]
    seq = seq.transpose(1, 2, 3, 0).reshape((1 + t_len) * ht * wt, d)

    # one rotary table pair per stage, per token, shared by every head of every block's q and k
    tables = rope_tables(_token_positions(t_len, ht, wt), d // cfg.heads, seq.dtype)
    for i in range(cfg.n_blocks):
        seq = _block(seq, tables, params, i, cfg)

    back = linear(seq, params[f"ref.embed{s}.out.w"], params[f"ref.embed{s}.out.b"])
    back = back.reshape(1 + t_len, ht, wt, ch, sig, sig)
    delta = back.transpose(3, 0, 1, 4, 2, 5).reshape(ch, 1 + t_len, hs, ws)
    return video + delta[:, 1:], ref + delta[:, :1]


# -- full decodes -----------------------------------------------------------------


def _controlnet_inject(ref: Tensor, s: int, params: dict[str, Tensor]) -> Tensor:
    """Residual injection: a per-stage conv branch of the reference map, [C, 1, H, W]."""
    feat = silu(add_bias(conv3d_causal(ref, params[f"ctrl.s{s}.branch.w"]), params[f"ctrl.s{s}.branch.b"]))
    return add_bias(conv3d_causal(feat, params[f"ctrl.s{s}.inject.w"]), params[f"ctrl.s{s}.inject.b"])


def decode_conditioned_t(z: Tensor, ref_image, vae_cfg: VaeConfig, cfg: RefCondConfig,
                         params: dict[str, Tensor]) -> Tensor:
    """`vae.decode_baseline_t` with the reference hook; `ref_image` None uses the null map `ref.null`.

    The null map is never trained: every training step passes a reference
    frame, so it keeps its N(0, 0.02^2) initial draw.
    """
    ref = None

    def condition(x: Tensor, s: int) -> Tensor:
        nonlocal ref  # resolved on stage 0's grid, the latent grid; then it follows x up
        ref = (dec_stage_upsample(ref, s - 1, vae_cfg, params) if s
               else _resolve_reference(ref_image, params, vae_cfg, *x.shape[2:]))
        if "ctrl.s0.branch.w" in params:  # residual-injection tensors, else attention
            return x + _controlnet_inject(ref, s, params)  # broadcasts over every frame
        x, ref = stage_forward(x, ref, s, cfg, params)
        return x

    return decode_baseline_t(z, vae_cfg, params, condition)
