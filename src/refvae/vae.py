"""Causal 3D-convolutional video autoencoder backbone.

Encoder and decoder mirror each other around a narrow latent: spatial
compression p comes from a pixel-space patchify (x2) plus the per-stage
upsamplers, temporal compression q keeps the first frame uncompressed
(T_z = 1 + (T-1)/q).  Encoding is deterministic (mean-only, no sampling
and no KL term): at this scale a plain autoencoder stands in for the VAE.

`decode_baseline_t` is the one decoder walk; the reference-conditioned
decoders are that walk plus a per-stage hook, so only this module knows its layers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench times the resblock ops by the names they are called through here, so
# the fused op keeps the name `groupnorm`; silu is unused, but perfbench wraps vae.silu.
# conv3d_causal takes no bias, as perfbench counts its flops from its arguments: add_bias adds it
from .ops import add_bias, conv3d_causal, silu, upsample_causal, upsample_nearest  # noqa: F401
from .ops import groupnorm_silu as groupnorm
from .tensor import Tensor, parameter


@dataclass
class VaeConfig:
    spatial_compression: int = 8
    temporal_compression: int = 4
    latent_channels: int = 8
    stage_channels: tuple[int, int, int] = (64, 32, 32)
    res_blocks: int = 2
    stage_kernels: tuple[int, int, int] = (3, 3, 3)
    norm_groups: int = 8

    def validate(self) -> None:
        p, q = self.spatial_compression, self.temporal_compression
        if len(self.stage_channels) != 3:
            raise ValueError("decoder has exactly three stages")
        if min(self.norm_groups, self.latent_channels, *self.stage_channels) < 1:
            raise ValueError("norm_groups, latent_channels and stage_channels must be >= 1")
        if p < 2 or p & (p - 1) or q < 1 or q & (q - 1):
            raise ValueError("compression factors must be powers of two")
        if p // 2 > 2 ** 3 or q > 2 ** 3:
            raise ValueError("compression exceeds what three stages can invert")
        if any(c % self.norm_groups for c in self.stage_channels):
            raise ValueError("stage channels must divide into norm groups")
        if any(k % 2 == 0 or k < 1 for k in self.stage_kernels):
            raise ValueError("stage kernels must be odd")
        if self.res_blocks < 1:
            raise ValueError("need at least one residual block per stage")

    def stage_factors(self) -> list[tuple[int, int, int]]:
        """Per-stage (ft, fh, fw) upsampling factors of the decoder.

        The pixel-space patchify contributes a final x2, so the stages
        provide p/2 spatially and q temporally.
        """
        n_sp = int(np.log2(self.spatial_compression // 2))
        n_tp = int(np.log2(self.temporal_compression))
        return [(2 if s < n_tp else 1, 2 if s < n_sp else 1, 2 if s < n_sp else 1)
                for s in range(3)]

    def latent_shape(self, frames: int, height: int, width: int) -> tuple[int, int, int, int]:
        p, q = self.spatial_compression, self.temporal_compression
        if frames < 1 or (frames - 1) % q:
            raise ValueError(f"frame count {frames} must be 1 plus a multiple of {q}")
        if height % p or width % p:
            raise ValueError(f"{height}x{width} not divisible by spatial compression {p}")
        return (self.latent_channels, 1 + (frames - 1) // q, height // p, width // p)


# -- parameters ---------------------------------------------------------------


def _add_conv(params: dict[str, Tensor], rng, name: str, cout: int, cin: int,
              k: int, gain: float = 1.0) -> None:
    """A k x k x k conv: He-normal weights scaled by `gain`, zero bias."""
    w = rng.standard_normal((cout, cin, k, k, k)) * gain * np.sqrt(2.0 / (cin * k ** 3))
    params[f"{name}.w"] = parameter(w)
    params[f"{name}.b"] = parameter(np.zeros((cout, 1, 1, 1)))


def _add_resblock(params: dict[str, Tensor], rng, name: str, ch: int, k: int) -> None:
    params[f"{name}.gn1.g"] = parameter(np.ones((ch, 1, 1, 1)))
    params[f"{name}.gn1.b"] = parameter(np.zeros((ch, 1, 1, 1)))
    _add_conv(params, rng, f"{name}.c1", ch, ch, k)
    params[f"{name}.gn2.g"] = parameter(np.ones((ch, 1, 1, 1)))
    params[f"{name}.gn2.b"] = parameter(np.zeros((ch, 1, 1, 1)))
    _add_conv(params, rng, f"{name}.c2", ch, ch, k, gain=0.5)


def init_vae_params(cfg: VaeConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    cfg.validate()
    c1, c2, c3 = cfg.stage_channels
    k0, k1, k2 = cfg.stage_kernels
    p: dict[str, Tensor] = {}

    # encoder: pixels -> latent, mirroring the decoder stages in reverse
    _add_conv(p, rng, "enc.in", c3, 3, k2)
    enc_plan = [(c3, c2, k2), (c2, c1, k1), (c1, c1, k0)]
    for i, (ca, cb, k) in enumerate(enc_plan):
        for j in range(cfg.res_blocks):
            _add_resblock(p, rng, f"enc.s{i}.r{j}", ca, k)
        _add_conv(p, rng, f"enc.s{i}.down", cb, ca, k)
    _add_conv(p, rng, "enc.out", cfg.latent_channels, c1, k0)

    # decoder: latent -> pixels
    _add_conv(p, rng, "dec.in", c1, cfg.latent_channels, k0)
    dec_out = (c2, c3, c3)
    for s, ch in enumerate(cfg.stage_channels):
        k = cfg.stage_kernels[s]
        for j in range(cfg.res_blocks):
            _add_resblock(p, rng, f"dec.s{s}.r{j}", ch, k)
        _add_conv(p, rng, f"dec.s{s}.up", dec_out[s], ch, k)
    _add_conv(p, rng, "dec.head", 3, c3, k2)
    p["dec.head.b"] = parameter(np.full((3, 1, 1, 1), 0.5))  # start mid-range, clamp stays live
    return p


# -- forward ------------------------------------------------------------------


def _resblock(x: Tensor, params: dict[str, Tensor], name: str, groups: int) -> Tensor:
    h = groupnorm(x, groups, params[f"{name}.gn1.g"], params[f"{name}.gn1.b"])  # ops.groupnorm_silu
    h = add_bias(conv3d_causal(h, params[f"{name}.c1.w"]), params[f"{name}.c1.b"])
    h = groupnorm(h, groups, params[f"{name}.gn2.g"], params[f"{name}.gn2.b"])
    return add_bias(conv3d_causal(h, params[f"{name}.c2.w"]), params[f"{name}.c2.b"], residual=x)


def encode_t(frames: Tensor, cfg: VaeConfig, params: dict[str, Tensor]) -> Tensor:
    """[T, 3, H, W] pixels -> [C_z, T_z, H_z, W_z] latent (graph-enabled)."""
    t, c, h, w = frames.shape
    cfg.latent_shape(t, h, w)  # shape validation
    x = frames.transpose(1, 0, 2, 3)
    x = add_bias(conv3d_causal(x, params["enc.in.w"], (1, 2, 2)), params["enc.in.b"])
    down_factors = list(reversed(cfg.stage_factors()))
    for i, factors in enumerate(down_factors):
        for j in range(cfg.res_blocks):
            x = _resblock(x, params, f"enc.s{i}.r{j}", cfg.norm_groups)
        x = add_bias(conv3d_causal(x, params[f"enc.s{i}.down.w"], factors), params[f"enc.s{i}.down.b"])
    return add_bias(conv3d_causal(x, params["enc.out.w"]), params["enc.out.b"])


def dec_stage_upsample(x: Tensor, s: int, cfg: VaeConfig, params: dict[str, Tensor]) -> Tensor:
    """Stage s's pretrained upsampler; causal in time, so a one-frame map grows in space only."""
    x = upsample_causal(x, cfg.stage_factors()[s])
    return add_bias(conv3d_causal(x, params[f"dec.s{s}.up.w"]), params[f"dec.s{s}.up.b"])


def decode_baseline_t(z: Tensor, cfg: VaeConfig, params: dict[str, Tensor], condition=None) -> Tensor:
    """[C_z, T_z, H_z, W_z] latent -> [T, 3, H, W] in [0, 1]; `condition(x, s)` follows stage s's blocks."""
    if len(z.shape) != 4 or z.shape[0] != cfg.latent_channels:
        raise ValueError(f"latent {z.shape} is not [{cfg.latent_channels}, T, H, W]")
    x = add_bias(conv3d_causal(z, params["dec.in.w"]), params["dec.in.b"])
    for s in range(3):
        for j in range(cfg.res_blocks):
            x = _resblock(x, params, f"dec.s{s}.r{j}", cfg.norm_groups)
        if condition is not None:
            x = condition(x, s)
        x = dec_stage_upsample(x, s, cfg, params)
    x = upsample_nearest(x, (1, 2, 2))
    x = add_bias(conv3d_causal(x, params["dec.head.w"]), params["dec.head.b"])
    return x.clamp(0.0, 1.0).transpose(1, 0, 2, 3)
