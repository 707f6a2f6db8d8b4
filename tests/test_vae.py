import numpy as np
import pytest

from refvae.synthdata import gen_clip
from refvae.tensor import Tensor
from refvae.vae import (
    VaeConfig,
    decode_baseline_t,
    encode_t,
    init_vae_params,
)


def earliest_frame(j: int, q: int) -> int:
    """First output frame that latent temporal index j can influence."""
    return 0 if j == 0 else 1 + (j - 1) * q


def test_config_validates():
    VaeConfig().validate()
    with pytest.raises(ValueError):
        VaeConfig(spatial_compression=6).validate()
    with pytest.raises(ValueError):
        VaeConfig(stage_channels=(64, 32, 30)).validate()
    with pytest.raises(ValueError):
        VaeConfig(stage_kernels=(3, 2, 3)).validate()
    with pytest.raises(ValueError, match="exactly three stages"):
        VaeConfig(stage_channels=(64, 32)).validate()


def test_stage_factors_invert_compression(desk_cfg):
    factors = desk_cfg.stage_factors()
    spatial = int(np.prod([f[1] for f in factors]))
    temporal = int(np.prod([f[0] for f in factors]))
    assert desk_cfg.spatial_compression == 2 * spatial
    assert desk_cfg.temporal_compression == temporal


def test_latent_shape_arithmetic(desk_cfg):
    assert desk_cfg.latent_shape(5, 32, 64) == (8, 2, 4, 8)
    assert desk_cfg.latent_shape(17, 32, 64) == (8, 5, 4, 8)
    with pytest.raises(ValueError):
        desk_cfg.latent_shape(6, 32, 64)
    with pytest.raises(ValueError):
        desk_cfg.latent_shape(5, 30, 64)
    with pytest.raises(ValueError):  # -3 % 4 == 1, but no clip has -3 frames
        desk_cfg.latent_shape(-3, 32, 64)
    with pytest.raises(ValueError):
        desk_cfg.latent_shape(0, 32, 64)
    no_temporal = VaeConfig(temporal_compression=1)
    assert no_temporal.latent_shape(1, 32, 64) == (8, 1, 4, 8)
    assert no_temporal.latent_shape(6, 32, 64) == (8, 6, 4, 8)


def test_tiny_backbone_keeps_every_frame(tiny_cfg, tiny_params):
    # q = 1: each frame is its own latent frame, and decodes back to one frame
    frames = gen_clip(2, "content_rich", 3, 8, 8).frames
    z = encode_t(Tensor(frames), tiny_cfg, tiny_params)
    assert z.shape == (2, 3, 4, 4)
    assert decode_baseline_t(z, tiny_cfg, tiny_params).shape == frames.shape


def test_encode_shape_and_determinism(desk_cfg, desk_params):
    clip = gen_clip(1, "content_rich", 5, 32, 64)
    z1 = encode_t(Tensor(clip.frames), desk_cfg, desk_params).data
    z2 = encode_t(Tensor(clip.frames), desk_cfg, desk_params).data
    assert z1.shape == (8, 2, 4, 8)
    assert np.array_equal(z1, z2)


def test_encode_is_temporally_causal(desk_cfg, desk_params):
    clip = gen_clip(2, "content_rich", 5, 32, 64)
    z_a = encode_t(Tensor(clip.frames), desk_cfg, desk_params).data
    poked = clip.frames.copy()
    poked[4] = np.clip(poked[4] + 0.3, 0, 1)
    z_b = encode_t(Tensor(poked), desk_cfg, desk_params).data
    assert np.array_equal(z_a[:, 0], z_b[:, 0])
    assert not np.array_equal(z_a[:, 1], z_b[:, 1])


def test_roundtrip_shape_inversion(desk_cfg, desk_params):
    for frames in (5, 17):
        clip = gen_clip(3, "content_sparse", frames, 32, 64)
        z = encode_t(Tensor(clip.frames), desk_cfg, desk_params)
        out = decode_baseline_t(z, desk_cfg, desk_params)
        assert out.shape == clip.frames.shape


def test_zero_latent_decodes_in_range(desk_cfg, desk_params):
    z = Tensor(np.zeros((8, 2, 4, 8), dtype=np.float32))
    out = decode_baseline_t(z, desk_cfg, desk_params).data
    assert np.all(np.isfinite(out))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_identity_condition_decodes_bit_equal(desk_cfg, desk_params):
    z = Tensor(np.random.default_rng(41).standard_normal((8, 2, 4, 8)).astype(np.float32))
    base = decode_baseline_t(z, desk_cfg, desk_params).data
    hooked = decode_baseline_t(z, desk_cfg, desk_params, condition=lambda x, s: x).data
    assert np.array_equal(base, hooked)


def test_condition_sees_each_stage_in_order_at_its_shape(desk_cfg, desk_params):
    seen = []
    z = Tensor(np.zeros((8, 2, 4, 8), dtype=np.float32))
    decode_baseline_t(z, desk_cfg, desk_params, condition=lambda x, s: seen.append((s, x.shape)) or x)
    assert seen == [(0, (64, 2, 4, 8)), (1, (32, 3, 8, 16)), (2, (32, 5, 16, 32))]


@pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
def test_decoder_temporal_causality(desk_cfg, desk_params, j):
    rng = np.random.default_rng(40 + j)
    z = rng.standard_normal((8, 5, 4, 8)).astype(np.float32)
    base = decode_baseline_t(Tensor(z), desk_cfg, desk_params).data
    poked = z.copy()
    poked[:, j] += 0.5
    out = decode_baseline_t(Tensor(poked), desk_cfg, desk_params).data
    first = earliest_frame(j, desk_cfg.temporal_compression)
    assert np.array_equal(base[:first], out[:first])
    assert not np.array_equal(base[first:], out[first:])


def test_init_is_seed_deterministic(desk_cfg):
    a = init_vae_params(desk_cfg, np.random.default_rng(5))
    b = init_vae_params(desk_cfg, np.random.default_rng(5))
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)
