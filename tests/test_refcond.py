import numpy as np
import pytest

from conftest import grad_check, linear_composed, rmsnorm_composed
from refvae import ops, refcond
from refvae.ops import rope_apply, rope_tables
from refvae.refcond import (
    RefCondConfig,
    _token_positions,
    decode_conditioned_t,
    encode_reference,
    init_ref_params,
    stage_forward,
)
from refvae.tensor import Tensor, build_tape, concat, float64_mode, parameter
from refvae.training import loss_recon
from refvae.vae import decode_baseline_t, encode_t, init_vae_params


@pytest.fixture(scope="module")
def desk_ref_cfg():
    return RefCondConfig()


@pytest.fixture(scope="module")
def desk_full(desk_ref_cfg):
    from refvae.vae import VaeConfig

    cfg = VaeConfig()
    rng = np.random.default_rng(21)
    params = init_vae_params(cfg, rng)
    params.update(init_ref_params(cfg, desk_ref_cfg, rng))
    return cfg, params


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_rope_heads_equals_per_head_concat(heads):
    rng = np.random.default_rng(heads)
    dh = 12
    positions = _token_positions(2, 2, 3)
    data = rng.standard_normal((len(positions), heads * dh)).astype(np.float32)
    probe = Tensor(rng.standard_normal(data.shape).astype(np.float32))
    xa, xb = parameter(data), parameter(data)
    tables = rope_tables(positions, dh, np.float32)  # one row per token, [L, 3, dh/6]
    fused = rope_apply(xa, tables)
    per_head = concat([rope_apply(xb[:, i * dh:(i + 1) * dh], tables) for i in range(heads)], axis=1)
    assert np.array_equal(fused.data, per_head.data)
    (fused * probe).sum().backward()
    (per_head * probe).sum().backward()
    assert np.array_equal(xa.grad, xb.grad)


def test_block_is_fourteen_nodes_over_eleven_leaves(desk_full, desk_ref_cfg):
    _, params = desk_full
    seq = parameter(np.random.default_rng(30).standard_normal((3 * 2 * 4, desk_ref_cfg.hidden)))
    tables = rope_tables(_token_positions(2, 2, 4), desk_ref_cfg.hidden // desk_ref_cfg.heads, seq.dtype)
    tape = build_tape(refcond._block(seq, tables, params, 0, desk_ref_cfg))
    # seq and the 10 block parameters; rmsnorm, the q, k and v matmuls, one rope each for q and k,
    # attention, the wo matmul and its residual add, rmsnorm, two linears (one add_bias node
    # over each matmul), gelu and the residual add. Per-head reshapes around each rope made 18
    assert len(tape) == 25
    assert sum(t._backward is not None for t in tape) == 14


def test_config_rejects_bad_widths():
    with pytest.raises(ValueError):
        RefCondConfig(hidden=128, heads=4).validate()  # head width 32 has no 3-axis split
    with pytest.raises(ValueError):
        RefCondConfig(hidden=120, heads=7).validate()
    RefCondConfig().validate()


def test_encode_reference_shape_and_determinism(desk_full):
    cfg, params = desk_full
    rng = np.random.default_rng(0)
    img = Tensor(rng.random((3, 32, 64)).astype(np.float32))
    a = encode_reference(img, params, cfg)
    b = encode_reference(img, params, cfg)
    assert a.shape == (64, 1, 4, 8)
    assert np.array_equal(a.data, b.data)


def test_encode_reference_zero_image_finite(desk_full):
    cfg, params = desk_full
    out = encode_reference(Tensor(np.zeros((3, 32, 64), np.float32)), params, cfg)
    assert np.all(np.isfinite(out.data))


def test_encode_reference_rejects_indivisible(desk_full):
    cfg, params = desk_full
    with pytest.raises(ValueError):
        encode_reference(Tensor(np.zeros((3, 30, 64), np.float32)), params, cfg)


def test_token_positions_reference_at_time_zero():
    pos = _token_positions(2, 4, 8)
    assert pos.shape == ((1 + 2) * 4 * 8, 3)
    ref_rows = pos[:32]
    assert np.all(ref_rows[:, 0] == 0)
    assert set(pos[:, 0]) == {0, 1, 2}


def test_stage_forward_shapes_and_split(desk_full, desk_ref_cfg):
    cfg, params = desk_full
    rng = np.random.default_rng(1)
    video = Tensor(rng.standard_normal((64, 2, 4, 8)).astype(np.float32))
    ref = Tensor(rng.standard_normal((64, 1, 4, 8)).astype(np.float32))
    v2, r2 = stage_forward(video, ref, 0, desk_ref_cfg, params)
    assert v2.shape == video.shape
    assert r2.shape == ref.shape
    assert r2.shape[1] == 1


def test_stage_forward_zeroed_blocks_is_baseline_stage(desk_full, desk_ref_cfg):
    cfg, params = desk_full
    rng = np.random.default_rng(2)
    video = Tensor(rng.standard_normal((64, 2, 4, 8)).astype(np.float32))
    ref = Tensor(rng.standard_normal((64, 1, 4, 8)).astype(np.float32))
    v2, _ = stage_forward(video, ref, 0, desk_ref_cfg, params)
    # out-projections are zero-initialised, so the video path is untouched
    np.testing.assert_allclose(v2.data, video.data, atol=1e-6)


def test_stage_forward_rejects_mismatch(desk_full, desk_ref_cfg):
    cfg, params = desk_full
    video = Tensor(np.zeros((64, 2, 4, 8), np.float32))
    ref = Tensor(np.zeros((64, 1, 4, 4), np.float32))
    with pytest.raises(ValueError):
        stage_forward(video, ref, 0, desk_ref_cfg, params)
    with pytest.raises(ValueError):
        stage_forward(video, Tensor(np.zeros((64, 1, 4, 8), np.float32)), 5, desk_ref_cfg, params)


def test_stage_forward_builds_rotary_tables_once_and_rotates_q_and_k_per_block(desk_full, desk_ref_cfg,
                                                                              monkeypatch):
    _, params = desk_full
    tables, rotated = [], []
    monkeypatch.setattr(refcond, "rope_tables", lambda *a: tables.append(rope_tables(*a)) or tables[-1])
    monkeypatch.setattr(refcond, "rope_apply", lambda x, t: rotated.append(t) or rope_apply(x, t))
    video = Tensor(np.zeros((64, 2, 4, 8), np.float32))
    stage_forward(video, Tensor(np.zeros((64, 1, 4, 8), np.float32)), 0, desk_ref_cfg, params)
    assert len(tables) == 1 and len(rotated) == 2 * desk_ref_cfg.n_blocks == 6
    assert all(t is tables[0] for t in rotated)
    assert tables[0][0].shape == (3 * 4 * 8, 3, desk_ref_cfg.hidden // desk_ref_cfg.heads // 6)  # one row per token


def test_finetune_grads_match_composed_rmsnorm_and_linear(desk_cfg, desk_ref_cfg, monkeypatch):
    rng = np.random.default_rng(26)
    params = init_vae_params(desk_cfg, rng)
    params.update(init_ref_params(desk_cfg, desk_ref_cfg, rng))
    for s in range(3):  # zero out-projections would stop every gradient into the blocks
        w = params[f"ref.embed{s}.out.w"]
        w.data[...] = rng.standard_normal(w.shape) * 1e-2
    frames = rng.random((5, 3, 16, 32), dtype=np.float32)
    z = Tensor(encode_t(Tensor(frames), desk_cfg, params).data)  # the frozen encoder's latent
    grads = []
    for norm, lin in ((ops.rmsnorm, ops.linear), (rmsnorm_composed, linear_composed)):
        monkeypatch.setattr(refcond, "rmsnorm", norm)
        monkeypatch.setattr(refcond, "linear", lin)
        for p in params.values():
            p.grad = None
        x_hat = decode_conditioned_t(z, frames[0], desk_cfg, desk_ref_cfg, params)
        loss_recon(Tensor(frames), x_hat)[0].backward()
        grads.append({n: p.grad.tobytes() for n, p in params.items() if p.grad is not None})
    assert any(n.startswith("ref.blk") for n in grads[0])
    assert grads[0] == grads[1]


def test_compatibility_at_init_bitwise(desk_full, desk_ref_cfg):
    cfg, params = desk_full
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = Tensor(rng.standard_normal((8, 2, 4, 8)).astype(np.float32))
        ref = rng.random((3, 32, 64)).astype(np.float32)
        base = decode_baseline_t(z, cfg, params).data
        with_ref = decode_conditioned_t(z, ref, cfg, desk_ref_cfg, params).data
        without = decode_conditioned_t(z, None, cfg, desk_ref_cfg, params).data
        assert np.array_equal(base, with_ref)
        assert np.array_equal(base, without)


def test_decode_shapes_and_dtype(desk_full, desk_ref_cfg):
    cfg, params = desk_full
    z = Tensor(np.random.default_rng(4).standard_normal((8, 2, 4, 8)).astype(np.float32))
    out = decode_conditioned_t(z, None, cfg, desk_ref_cfg, params)
    assert out.shape == (5, 3, 32, 64)
    assert out.dtype == np.float32  # no silent f64 promotion anywhere in the path


def test_ref_temporal_extent_stays_one(desk_full, desk_ref_cfg, monkeypatch):
    cfg, params = desk_full
    rng = np.random.default_rng(5)
    seen = []

    def spy(video, ref, s, *rest):
        seen.append((s, video.shape, ref.shape))
        return stage_forward(video, ref, s, *rest)

    monkeypatch.setattr(refcond, "stage_forward", spy)
    video = Tensor(rng.standard_normal((8, 2, 4, 8)).astype(np.float32))
    decode_conditioned_t(video, rng.random((3, 32, 64)).astype(np.float32), cfg, desk_ref_cfg, params)
    assert [s for s, *_ in seen] == [0, 1, 2]
    for _, x_shape, ref_shape in seen:
        assert ref_shape[1] == 1
        assert ref_shape[2:] == x_shape[2:]


def test_weight_sharing_zeroing_degrades_every_stage(desk_full, desk_ref_cfg):
    cfg, params = desk_full
    rng = np.random.default_rng(6)
    # make the out-projections non-zero so the blocks influence the output
    for s in range(3):
        params[f"ref.embed{s}.out.w"].data[...] = rng.standard_normal(
            params[f"ref.embed{s}.out.w"].shape) * 0.05

    def stage_out(s, ch, t_len, h, w):
        video = Tensor(rng_fixed[s][0])
        ref = Tensor(rng_fixed[s][1])
        return stage_forward(video, ref, s, desk_ref_cfg, params)[0].data

    shapes = [(64, 2, 4, 8), (32, 3, 8, 16), (32, 5, 16, 32)]
    rng_fixed = [(rng.standard_normal(sh).astype(np.float32),
                  rng.standard_normal((sh[0], 1) + sh[2:]).astype(np.float32)) for sh in shapes]
    before = [stage_out(s, *shapes[s]) for s in range(3)]
    saved = params["ref.blk0.wv"].data.copy()
    params["ref.blk0.wv"].data[...] = 0.0  # one shared stack: every stage must move
    after = [stage_out(s, *shapes[s]) for s in range(3)]
    params["ref.blk0.wv"].data[...] = saved
    for s in range(3):
        assert not np.array_equal(before[s], after[s])
    for s in range(3):
        params[f"ref.embed{s}.out.w"].data[...] = 0.0


def test_null_and_real_reference_differ_once_trained(desk_full, desk_ref_cfg):
    cfg, params = desk_full
    rng = np.random.default_rng(7)
    for s in range(3):
        params[f"ref.embed{s}.out.w"].data[...] = rng.standard_normal(
            params[f"ref.embed{s}.out.w"].shape) * 0.05
    z = Tensor(rng.standard_normal((8, 2, 4, 8)).astype(np.float32))
    style = rng.random((3, 32, 64)).astype(np.float32)
    with_null = decode_conditioned_t(z, None, cfg, desk_ref_cfg, params).data
    with_style = decode_conditioned_t(z, style, cfg, desk_ref_cfg, params).data
    assert np.abs(with_null - with_style).sum() > 0
    assert with_style.min() >= 0.0 and with_style.max() <= 1.0
    for s in range(3):
        params[f"ref.embed{s}.out.w"].data[...] = 0.0


def test_decode_rejects_incompatible_reference(desk_full, desk_ref_cfg):
    cfg, params = desk_full
    z = Tensor(np.zeros((8, 2, 4, 8), np.float32))
    with pytest.raises(ValueError):
        decode_conditioned_t(z, np.zeros((3, 16, 32), np.float32), cfg, desk_ref_cfg, params)


# -- controlnet-style variant --------------------------------------------------


@pytest.fixture(scope="module")
def ctrl_full(desk_ref_cfg):
    from refvae.vae import VaeConfig

    cfg = VaeConfig()
    rng = np.random.default_rng(31)
    params = init_vae_params(cfg, rng)
    params.update(init_ref_params(cfg, desk_ref_cfg, rng, injection="controlnet"))
    return cfg, params


def test_controlnet_zero_init_is_baseline(ctrl_full, desk_ref_cfg):
    cfg, params = ctrl_full
    rng = np.random.default_rng(8)
    z = Tensor(rng.standard_normal((8, 2, 4, 8)).astype(np.float32))
    ref = rng.random((3, 32, 64)).astype(np.float32)
    base = decode_baseline_t(z, cfg, params).data
    out = decode_conditioned_t(z, ref, cfg, desk_ref_cfg, params).data
    np.testing.assert_allclose(out, base, atol=1e-6)


def test_controlnet_contribution_is_time_constant(ctrl_full, desk_ref_cfg, monkeypatch):
    cfg, params = ctrl_full
    rng = np.random.default_rng(9)
    for s in range(3):
        params[f"ctrl.s{s}.inject.w"].data[...] = rng.standard_normal(
            params[f"ctrl.s{s}.inject.w"].shape) * 0.1
    injects, stages = [], []
    inject_fn, decode = refcond._controlnet_inject, refcond.decode_baseline_t

    def hooked_decode(z, vae_cfg, params, condition):
        def observed(x, s):
            out = condition(x, s)
            stages.append((x.data, out.data))
            return out
        return decode(z, vae_cfg, params, observed)

    monkeypatch.setattr(refcond, "_controlnet_inject", lambda *a: injects.append(inject_fn(*a)) or injects[-1])
    monkeypatch.setattr(refcond, "decode_baseline_t", hooked_decode)
    z = Tensor(rng.standard_normal((8, 3, 4, 8)).astype(np.float32))
    decode_conditioned_t(z, rng.random((3, 32, 64)).astype(np.float32), cfg, desk_ref_cfg, params)
    assert len(injects) == len(stages) == 3
    for inject, (x, injected) in zip(injects, stages):
        assert inject.shape[1] == 1  # single temporal slice, broadcast over frames
        for t in range(injected.shape[1]):
            np.testing.assert_array_equal(injected[:, t], x[:, t] + inject.data[:, 0])
        assert np.abs(inject.data).max() > 0
    for s in range(3):
        params[f"ctrl.s{s}.inject.w"].data[...] = 0.0


def test_init_ref_params_names_cover_both_kinds(desk_cfg, desk_ref_cfg):
    rng = np.random.default_rng(41)
    attn_new = list(init_ref_params(desk_cfg, desk_ref_cfg, rng))
    ctrl_new = list(init_ref_params(desk_cfg, desk_ref_cfg, rng, injection="controlnet"))
    assert any(n.startswith("ref.blk") for n in attn_new)
    assert any(n.startswith("ctrl.") for n in ctrl_new)
    assert not any(n.startswith(("enc.", "dec.")) for n in attn_new + ctrl_new)


# -- gradients through a full stage ---------------------------------------------


def test_full_stage_grad_check(tiny_cfg, tiny_ref_cfg, tiny_params):
    with float64_mode():
        rng = np.random.default_rng(10)
        params = init_vae_params(tiny_cfg, rng)
        params.update(init_ref_params(tiny_cfg, tiny_ref_cfg, rng, null_hw=(2, 2)))
        for s in range(3):
            params[f"ref.embed{s}.out.w"].data[...] = rng.standard_normal(
                params[f"ref.embed{s}.out.w"].shape) * 0.1
        video = parameter(rng.standard_normal((4, 2, 2, 2)))
        ref = Tensor(rng.standard_normal((4, 1, 2, 2)))

        def f(t):
            v2, r2 = stage_forward(t, ref, 0, tiny_ref_cfg, params)
            return (v2 * v2).sum() + r2.sum()

        assert grad_check(f, video, eps=1e-3) < 1e-3

        wq = params["ref.blk0.wq"]

        def g(t):
            params["ref.blk0.wq"] = t
            v2, _ = stage_forward(Tensor(video.data), ref, 0, tiny_ref_cfg, params)
            return (v2 * v2).mean()

        try:
            assert grad_check(g, parameter(wq.data.copy()), eps=1e-3) < 1e-3
        finally:
            params["ref.blk0.wq"] = wq
