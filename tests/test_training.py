import tracemalloc
import weakref

import numpy as np
import pytest

from refvae import vae
from refvae.refcond import RefCondConfig
from refvae.synthdata import DatasetSpec, build_dataset, gen_clip
from refvae.tensor import Tensor, backward, float64_mode, parameter
from refvae.training import (
    AdamW,
    CurriculumSpec,
    DropoutSpec,
    OptimizerSpec,
    RefPolicy,
    StageSpec,
    apply_latent_dropout,
    loss_recon,
    lr_at,
    perceptual_proxy,
    pretrain_baseline,
    sample_dropout_rate,
    select_reference_frame,
    train_refdecoder,
)
from refvae.vae import VaeConfig, decode_baseline_t, encode_t, init_vae_params


# -- dropout ---------------------------------------------------------------


def test_dropout_rate_zero_rmax():
    rng = np.random.default_rng(0)
    spec = DropoutSpec(r_max=0.0)
    assert all(sample_dropout_rate(rng, spec) == 0.0 for _ in range(100))


def test_dropout_rate_mean_and_range():
    rng = np.random.default_rng(1)
    spec = DropoutSpec(r_max=0.7)
    draws = np.array([sample_dropout_rate(rng, spec) for _ in range(100_000)])
    assert draws.min() >= 0.0 and draws.max() < 0.7
    assert abs(draws.mean() - 0.35) < 0.01


def test_dropout_rate_seeded_sequence_identical():
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    s = DropoutSpec()
    assert [sample_dropout_rate(rng1, s) for _ in range(50)] == \
           [sample_dropout_rate(rng2, s) for _ in range(50)]


def test_latent_dropout_extremes():
    rng = np.random.default_rng(2)
    z = Tensor(rng.standard_normal((8, 2, 4, 8)).astype(np.float32))
    out0 = apply_latent_dropout(z, 0.0, np.random.default_rng(0))
    assert np.array_equal(out0.data, z.data)
    out1 = apply_latent_dropout(z, 1.0, np.random.default_rng(0))
    assert np.all(out1.data == 0.0)


def test_latent_dropout_zeroes_whole_columns():
    rng = np.random.default_rng(3)
    z = Tensor(np.abs(rng.standard_normal((8, 2, 4, 8))).astype(np.float32) + 0.1)
    out = apply_latent_dropout(z, 0.5, np.random.default_rng(1)).data
    zeroed = out == 0.0
    per_pos = zeroed.reshape(8, -1)
    # a position is either fully zeroed or fully kept across channels
    assert np.all(per_pos.all(axis=0) | (~per_pos).all(axis=0))
    kept = ~zeroed
    assert np.array_equal(out[kept], z.data[kept])  # survivors bit-identical


def test_latent_dropout_count_in_binomial_interval():
    # 1e4 trials on a 2x4x8 grid at r=0.5: total zeroed positions should land
    # in the central 99% normal interval of Binomial(1e4*64, 0.5)
    rng = np.random.default_rng(4)
    z = Tensor(np.ones((3, 2, 4, 8), np.float32))
    total = 0
    trials, positions = 10_000, 64
    for _ in range(trials):
        out = apply_latent_dropout(z, 0.5, rng).data
        total += int((out[0] == 0.0).sum())
    n = trials * positions
    mean, std = n * 0.5, np.sqrt(n * 0.25)
    assert abs(total - mean) < 2.576 * std


def test_latent_dropout_channel_independent_mode():
    rng = np.random.default_rng(5)
    z = Tensor(np.ones((4, 2, 4, 8), np.float32))
    out = apply_latent_dropout(z, 0.5, rng, channel_joint=False).data
    per_pos = (out == 0.0).reshape(4, -1)
    mixed = per_pos.any(axis=0) & ~per_pos.all(axis=0)
    assert mixed.any()  # some positions dropped in only a subset of channels


# -- reference selection -----------------------------------------------------


def test_first_frame_policy_always_zero():
    clip = gen_clip(0, "content_rich", 5, 32, 64)
    rng = np.random.default_rng(6)
    for _ in range(10):
        frame, idx = select_reference_frame(clip.frames, RefPolicy.first_frame, rng)
        assert idx == 0
        assert np.array_equal(frame, clip.frames[0])


def test_random_frame_uniform_chi_square():
    t = 17
    frames = np.zeros((t, 3, 4, 4), np.float32)
    rng = np.random.default_rng(7)
    counts = np.zeros(t)
    n = 10_000
    for _ in range(n):
        _, idx = select_reference_frame(frames, RefPolicy.random_frame, rng)
        counts[idx] += 1
    expected = n / t
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 32.0  # chi-square 99th percentile, 16 dof


def test_single_frame_clip_both_policies():
    frames = np.zeros((1, 3, 4, 4), np.float32)
    rng = np.random.default_rng(8)
    assert select_reference_frame(frames, RefPolicy.first_frame, rng)[1] == 0
    assert select_reference_frame(frames, RefPolicy.random_frame, rng)[1] == 0
    with pytest.raises(ValueError):
        select_reference_frame(np.zeros((0, 3, 4, 4), np.float32), RefPolicy.first_frame, rng)


# -- losses -------------------------------------------------------------------


def test_loss_zero_on_identical():
    clip = gen_clip(1, "content_rich", 5, 16, 32)
    x = Tensor(clip.frames)
    loss, l1, perc = loss_recon(x, Tensor(clip.frames.copy()))
    assert loss.item() == 0.0 and l1 == 0.0 and perc == 0.0


def test_loss_l1_term_of_constant_offset():
    clip = gen_clip(2, "content_sparse", 3, 16, 32)
    x = clip.frames * 0.5  # keep offset exactly representable range
    _, l1, _ = loss_recon(Tensor(x), Tensor(x + 0.1))
    assert l1 == pytest.approx(0.1, rel=1e-5)


def test_loss_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        loss_recon(Tensor(np.zeros((2, 3, 16, 32))), Tensor(np.zeros((3, 3, 16, 32))))


def test_loss_gradient_matches_finite_differences():
    # directional derivatives: isolated |.| kinks inside the proxy average out
    # over a full random direction, unlike per-coordinate checks
    with float64_mode():
        rng = np.random.default_rng(9)
        x = Tensor(rng.random((2, 3, 8, 16)))
        x_hat = parameter(x.data + rng.uniform(0.05, 0.15, x.shape))

        loss, _, _ = loss_recon(x, x_hat)
        loss.backward()
        analytic = x_hat.grad.copy()
        eps = 1e-3
        for _ in range(5):
            v = rng.standard_normal(x.shape)
            v /= np.linalg.norm(v)
            x_plus = Tensor(x_hat.data + eps * v)
            x_minus = Tensor(x_hat.data - eps * v)
            numeric = (loss_recon(x, x_plus)[0].item() - loss_recon(x, x_minus)[0].item()) / (2 * eps)
            direction = float((analytic * v).sum())
            assert abs(direction - numeric) / max(1e-8, abs(direction) + abs(numeric)) < 1e-3


def test_loss_without_perceptual_term_is_the_l1_term():
    rng = np.random.default_rng(13)
    x = Tensor(rng.random((2, 3, 8, 16)).astype(np.float32))
    x_hat = parameter(rng.random((2, 3, 8, 16)))
    loss, l1, perc = loss_recon(x, x_hat, lambda_perc=0)
    loss.backward()
    x_hat_l1 = parameter(x_hat.data)
    (x - x_hat_l1).abs().mean().backward()
    assert loss.item() == l1 and perc == 0.0
    np.testing.assert_array_equal(x_hat.grad, x_hat_l1.grad)


def test_proxy_symmetric_and_zero():
    rng = np.random.default_rng(10)
    a = Tensor(rng.random((2, 3, 16, 32)).astype(np.float32))
    b = Tensor(rng.random((2, 3, 16, 32)).astype(np.float32))
    assert perceptual_proxy(a, a).item() == 0.0
    assert perceptual_proxy(a, b).item() == pytest.approx(perceptual_proxy(b, a).item(), rel=1e-6)


def test_proxy_penalizes_blur_over_matched_noise():
    clip = gen_clip(11, "content_rich", 2, 32, 64)
    x = clip.frames.astype(np.float64)
    blurred = x.copy()
    for _ in range(3):  # strong box blur
        blurred[:, :, 1:-1] = (blurred[:, :, :-2] + blurred[:, :, 1:-1] + blurred[:, :, 2:]) / 3
        blurred[:, :, :, 1:-1] = (blurred[:, :, :, :-2] + blurred[:, :, :, 1:-1] + blurred[:, :, :, 2:]) / 3
    l1_blur = np.abs(x - blurred).mean()
    rng = np.random.default_rng(12)
    noise = rng.uniform(-1, 1, x.shape)
    noise *= l1_blur / np.abs(noise).mean()  # match the L1 distance exactly
    noisy = x + noise
    p_blur = perceptual_proxy(Tensor(x), Tensor(blurred)).item()
    p_noise = perceptual_proxy(Tensor(x), Tensor(noisy)).item()
    assert np.abs(x - blurred).mean() == pytest.approx(np.abs(x - noisy).mean(), rel=1e-6)
    assert p_blur > p_noise


# -- schedule -------------------------------------------------------------------


def test_lr_schedule_anchors():
    spec = OptimizerSpec(base_lr=2e-3, warmup_steps=100, total_steps=1000)
    assert lr_at(0, spec) == pytest.approx(0.01 * spec.base_lr)
    assert lr_at(100, spec) == pytest.approx(spec.base_lr)
    assert lr_at(1000, spec) == pytest.approx(0.0, abs=1e-12)
    mid = lr_at(550, spec)
    assert 0 < mid < spec.base_lr
    with pytest.raises(ValueError):
        lr_at(1001, spec)
    with pytest.raises(ValueError):
        lr_at(-1, spec)


def test_optimizer_spec_validation():
    with pytest.raises(ValueError):
        OptimizerSpec(warmup_steps=600, total_steps=600).validate()
    with pytest.raises(ValueError):
        OptimizerSpec(decoder_lr_scale=0.0).validate()


# -- AdamW ------------------------------------------------------------------------


def test_adamw_zero_grad_leaves_params():
    p = parameter(np.ones(4))
    opt = AdamW([({"p": p}, 1.0)], OptimizerSpec(total_steps=10, warmup_steps=1))
    p.grad = np.zeros(4)
    before = p.data.copy()
    opt.step(0.1)
    np.testing.assert_array_equal(p.data, before)


def test_adamw_weight_decay_of_a_zero_gradient_step_is_decoupled():
    p = parameter(np.array([1.0, -2.0, 0.5, 3.0]))
    opt = AdamW([({"p": p}, 1.0)], OptimizerSpec(total_steps=10, warmup_steps=1, weight_decay=0.01))
    p.grad = np.zeros(4, np.float32)
    before = p.data.copy()
    opt.step(0.1)
    np.testing.assert_array_equal(p.data, before - 0.1 * 0.01 * before)
    assert np.any(p.data != before)


def test_adamw_quadratic_convergence():
    w = parameter(np.array(1.0))
    opt = AdamW([({"w": w}, 1.0)], OptimizerSpec(total_steps=1000, warmup_steps=1))
    for _ in range(500):
        w.grad = 2.0 * w.data  # d/dw w^2
        opt.step(0.1)
    assert abs(w.data) < 1e-3


def test_adamw_group_scale_first_step_displacement():
    a = parameter(np.ones(3))
    b = parameter(np.ones(3))
    opt = AdamW([({"a": a}, 1.0), ({"b": b}, 0.1)],
                OptimizerSpec(total_steps=10, warmup_steps=1))
    a.grad = np.ones(3)
    b.grad = np.ones(3)
    opt.step(0.05)
    move_a = np.abs(1.0 - a.data).mean()
    move_b = np.abs(1.0 - b.data).mean()
    assert move_b == pytest.approx(0.1 * move_a, rel=1e-5)


def test_adamw_rejects_nan_gradient():
    from refvae.tensor import NumericsError

    p = parameter(np.ones(2))
    opt = AdamW([({"p": p}, 1.0)], OptimizerSpec(total_steps=10, warmup_steps=1))
    p.grad = np.array([np.nan, 1.0])
    with pytest.raises(NumericsError):
        opt.step(0.1)


# -- specs ----------------------------------------------------------------------


def test_curriculum_validation():
    vae, data = VaeConfig(), DatasetSpec()
    CurriculumSpec().validate(vae, data, 600)
    with pytest.raises(ValueError):
        CurriculumSpec((StageSpec(17, 32, 64, 10), StageSpec(5, 32, 64, 10))).validate(vae, data, 20)
    with pytest.raises(ValueError):
        CurriculumSpec((StageSpec(6, 32, 64, 10),)).validate(vae, data, 10)
    with pytest.raises(ValueError, match="exceed dataset clip length"):
        CurriculumSpec((StageSpec(5, 32, 64, 10), StageSpec(21, 32, 64, 10))).validate(vae, data, 20)
    with pytest.raises(ValueError, match="step total"):
        CurriculumSpec().validate(vae, data, 601)
    with pytest.raises(ValueError, match="resolution must match"):
        CurriculumSpec((StageSpec(5, 16, 32, 10),)).validate(vae, data, 10)


def test_dropout_spec_validation():
    with pytest.raises(ValueError):
        DropoutSpec(r_max=1.2).validate()


# -- training loops -----------------------------------------------------------------


SMALL = DatasetSpec(n_train=12, n_val=2, frames=9, height=16, width=32, master_seed=77)


@pytest.fixture(scope="module")
def small_baseline():
    train, _ = build_dataset(SMALL)
    cfg = VaeConfig()
    cur = CurriculumSpec((StageSpec(5, 16, 32, 150),))
    opt = OptimizerSpec(base_lr=1e-3, warmup_steps=20, total_steps=150)
    params, rows, _ = pretrain_baseline(train, SMALL, cfg, cur, opt, seed=3)
    return cfg, params, rows, train


def test_pretrain_reduces_loss(small_baseline):
    _, _, rows, _ = small_baseline
    stage0 = [r["loss_total"] for r in rows if r["stage"] == 0]
    first = np.mean(stage0[:10])
    last = np.mean(stage0[-10:])
    assert last < 0.7 * first  # at least a 30% reduction at matched clip length
    # no reference path: nothing dropped, no reference frame, one learning rate
    assert all(r["r"] == 0.0 and r["ref_index"] == -1 for r in rows)
    assert all(r["lr_new"] == r["lr_dec"] for r in rows)
    # telemetry: the norm before clipping and the scale the default clip at 1.0 applied
    assert all(r["grad_norm"] > 0 and r["clip_scale"] == min(1.0, 1.0 / r["grad_norm"])
               for r in rows)


def test_pretrain_deterministic():
    train, _ = build_dataset(SMALL)
    cfg = VaeConfig()
    cur = CurriculumSpec((StageSpec(5, 16, 32, 8),))
    opt = OptimizerSpec(total_steps=8, warmup_steps=2)
    p1, r1, _ = pretrain_baseline(train, SMALL, cfg, cur, opt, seed=5)
    p2, r2, _ = pretrain_baseline(train, SMALL, cfg, cur, opt, seed=5)
    assert r1 == r2
    for n in p1:
        assert np.array_equal(p1[n].data, p2[n].data)


def test_refdec_training_freezes_encoder(small_baseline):
    cfg, baseline, _, train = small_baseline
    rcfg = RefCondConfig(n_blocks=1)
    cur = CurriculumSpec((StageSpec(5, 16, 32, 6), StageSpec(9, 16, 32, 4)))
    opt = OptimizerSpec(total_steps=10, warmup_steps=2)
    enc_before = {n: baseline[n].data.tobytes() for n in baseline if n.startswith("enc.")}
    params, rows, _ = train_refdecoder(baseline, train, SMALL, cfg, rcfg, cur, opt,
                                       DropoutSpec(), RefPolicy.random_frame, seed=6)
    for n, raw in enc_before.items():
        assert params[n].data.tobytes() == raw
        assert baseline[n].data.tobytes() == raw
    # decoder did move, conditioning modules exist
    assert any(params[n].data.tobytes() != baseline[n].data.tobytes()
               for n in baseline if n.startswith("dec."))
    assert any(n.startswith("ref.blk") for n in params)
    # log schema and recorded draws
    assert {r["stage"] for r in rows} == {0, 1}
    assert all(0 <= r["r"] < 0.7 for r in rows)
    assert all(0 <= r["ref_index"] < 9 for r in rows)
    assert all(r["lr_dec"] == pytest.approx(0.1 * r["lr_new"]) for r in rows)


def test_refdec_training_deterministic(small_baseline):
    cfg, baseline, _, train = small_baseline
    rcfg = RefCondConfig(n_blocks=1)
    cur = CurriculumSpec((StageSpec(5, 16, 32, 6),))
    opt = OptimizerSpec(total_steps=6, warmup_steps=2)
    _, r1, _ = train_refdecoder(baseline, train, SMALL, cfg, rcfg, cur, opt,
                                DropoutSpec(), RefPolicy.random_frame, seed=8)
    _, r2, _ = train_refdecoder(baseline, train, SMALL, cfg, rcfg, cur, opt,
                                DropoutSpec(), RefPolicy.random_frame, seed=8)
    assert r1 == r2


def test_refdec_rejects_missing_decoder(small_baseline):
    cfg, baseline, _, train = small_baseline
    broken = {n: t for n, t in baseline.items() if not n.startswith("dec.")}
    with pytest.raises(ValueError):
        train_refdecoder(broken, train, SMALL, cfg, RefCondConfig(n_blocks=1),
                         CurriculumSpec((StageSpec(5, 16, 32, 2),)),
                         OptimizerSpec(total_steps=2, warmup_steps=1),
                         DropoutSpec(), RefPolicy.first_frame, seed=0)


def test_total_steps_mismatch_rejected(small_baseline):
    cfg, baseline, _, train = small_baseline
    with pytest.raises(ValueError):
        train_refdecoder(baseline, train, SMALL, cfg, RefCondConfig(n_blocks=1),
                         CurriculumSpec((StageSpec(5, 16, 32, 4),)),
                         OptimizerSpec(total_steps=99, warmup_steps=1),
                         DropoutSpec(), RefPolicy.first_frame, seed=0)


def test_adamw_step_reports_norm_before_clipping():
    for grad_clip, scale in ((0.0, 1.0), (1.0, 0.2), (10.0, 1.0)):
        p = parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        opt = AdamW([({"p": p}, 1.0)], OptimizerSpec(total_steps=10, warmup_steps=2,
                                                     grad_clip=grad_clip))
        opt.step(1e-3)
        assert (opt.grad_norm, opt.clip_scale) == (5.0, scale)


# -- graph release ---------------------------------------------------------------


def _pretrain_step_loss() -> tuple[dict[str, Tensor], Tensor]:
    """Parameters and loss of one pretrain step at the CLI tests' tiny shape (9x16x32)."""
    cfg = VaeConfig()
    params = init_vae_params(cfg, np.random.default_rng(0))
    window = Tensor(gen_clip(3, "content_rich", 9, 16, 32).frames)
    x_hat = decode_baseline_t(encode_t(window, cfg, params), cfg, params)
    return params, loss_recon(window, x_hat)[0]


def test_backward_frees_activations_and_keeps_leaf_grads(monkeypatch):
    norm_inputs, norm_outputs = [], []

    def recording_groupnorm(x, *args):
        out = vae_groupnorm(x, *args)
        norm_inputs.append(weakref.ref(x.data))
        norm_outputs.append(weakref.ref(out.data))
        return out

    vae_groupnorm = vae.groupnorm
    monkeypatch.setattr(vae, "groupnorm", recording_groupnorm)
    params, loss = _pretrain_step_loss()
    # each norm output is rebuilt by the conv that took it over, never kept;
    # the norm inputs, such as each resblock's first conv output, are kept
    assert norm_outputs and all(ref() is None for ref in norm_outputs)
    assert all(ref() is not None for ref in norm_inputs)
    backward(loss)
    assert all(ref() is None for ref in norm_inputs)  # resblock activations are gone
    assert all(p.grad is not None for p in params.values())
    grads = {n: p.grad for n, p in params.items()}
    with pytest.raises(ValueError, match="released"):
        backward(loss)
    assert all(params[n].grad is g for n, g in grads.items())


def test_backward_peak_memory_stays_near_its_start():
    tracemalloc.start()
    try:
        _, loss = _pretrain_step_loss()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # interior gradients and activations are freed as backward goes
    assert peak <= 1.15 * start, (peak, start)
    assert end < start, (end, start)
