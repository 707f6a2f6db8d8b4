import numpy as np
import pytest

from refvae.metrics import (
    MetricsReport,
    PSNR_CAP,
    clip_metrics,
    derive_clip_seeds,
    evaluate_params,
    fixed_seed_swap_compare,
    flicker_error,
    psnr,
    split_report,
    ssim,
    temporal_consistency_proxy,
)
from refvae.synthdata import gen_clip
from refvae.tensor import Tensor
from refvae.training import perceptual_proxy


def ssim_naive(x, x_hat, win=7, c1=1e-4, c2=9e-4):
    """Direct per-window summation oracle."""
    t, _, h, w = x.shape
    frames = []
    for f in range(t):
        vals = []
        for c in range(3):
            a = x[f, c].astype(np.float64)
            b = x_hat[f, c].astype(np.float64)
            for i in range(h - win + 1):
                for j in range(w - win + 1):
                    pa = a[i:i + win, j:j + win]
                    pb = b[i:i + win, j:j + win]
                    mu_a, mu_b = pa.mean(), pb.mean()
                    va, vb = pa.var(), pb.var()
                    cov = ((pa - mu_a) * (pb - mu_b)).mean()
                    vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                                / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
        frames.append(np.mean(vals))
    return frames, float(np.mean(frames))


# -- psnr ---------------------------------------------------------------------


def test_psnr_identical_hits_cap():
    clip = gen_clip(0, "content_rich", 3, 16, 32).frames
    frames, mean = psnr(clip, clip.copy())
    assert frames == [PSNR_CAP] * 3 and mean == PSNR_CAP


def test_psnr_zero_vs_one_is_zero_db():
    x = np.zeros((2, 3, 16, 32), np.float32)
    _, mean = psnr(x, np.ones_like(x))
    assert mean == pytest.approx(0.0, abs=1e-9)


def test_psnr_mse_001_is_20db():
    x = np.zeros((1, 3, 16, 32), np.float32)
    _, mean = psnr(x, np.full_like(x, 0.1))
    assert mean == pytest.approx(20.0, abs=1e-5)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 3, 8, 8)), np.zeros((3, 3, 8, 8)))


# -- ssim ---------------------------------------------------------------------


def test_ssim_identical_is_one():
    clip = gen_clip(1, "content_rich", 2, 16, 32).frames
    _, mean = ssim(clip, clip.copy())
    assert mean == pytest.approx(1.0, abs=1e-12)


def test_ssim_inverted_below_one():
    clip = gen_clip(2, "content_rich", 2, 16, 32).frames
    _, mean = ssim(clip, 1.0 - clip)
    assert mean < 1.0


def test_ssim_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for seed in range(4):
        x = rng.random((2, 3, 12, 14)).astype(np.float32)
        y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1).astype(np.float32)
        frames_fast, mean_fast = ssim(x, y)
        frames_ref, mean_ref = ssim_naive(x, y)
        np.testing.assert_allclose(frames_fast, frames_ref, atol=1e-6)
        assert mean_fast == pytest.approx(mean_ref, abs=1e-6)


def test_ssim_window_too_big():
    with pytest.raises(ValueError):
        ssim(np.zeros((1, 3, 5, 5)), np.zeros((1, 3, 5, 5)))


# -- flicker --------------------------------------------------------------------


def test_flicker_zero_cases():
    clip = gen_clip(4, "content_rich", 4, 16, 32).frames
    assert flicker_error(clip.copy(), clip) == 0.0
    assert flicker_error(np.clip(clip + 0.07, 0, 2), clip) == pytest.approx(0.0, abs=1e-7)


def test_flicker_alternating_offset_closed_form():
    clip = gen_clip(5, "content_sparse", 6, 16, 32).frames.astype(np.float64)
    delta = 0.01
    signs = np.array([(-1.0) ** t for t in range(6)]).reshape(6, 1, 1, 1)
    wobbled = clip + delta * signs
    assert flicker_error(wobbled, clip) == pytest.approx(2 * delta, rel=1e-9)


def test_flicker_needs_two_frames():
    with pytest.raises(ValueError):
        flicker_error(np.zeros((1, 3, 8, 8)), np.zeros((1, 3, 8, 8)))


# -- temporal consistency ---------------------------------------------------------


def test_temporal_proxy_zero_on_identical():
    clip = gen_clip(6, "content_rich", 3, 16, 32).frames
    assert temporal_consistency_proxy(clip.copy(), clip) == 0.0


def test_temporal_proxy_equals_per_pair_definition():
    a = gen_clip(11, "content_rich", 5, 16, 32).frames
    b = np.clip(a + 0.03 * np.random.default_rng(12).standard_normal(a.shape), 0, 1).astype(np.float32)

    def pair(clip, t):
        return perceptual_proxy(Tensor(clip[t:t + 1]), Tensor(clip[t + 1:t + 2])).item()

    oracle = float(np.mean([abs(pair(b, t) - pair(a, t)) for t in range(len(a) - 1)]))
    assert temporal_consistency_proxy(b, a) == oracle


def test_temporal_proxy_time_reversal_invariant():
    a = gen_clip(7, "content_rich", 4, 16, 32).frames
    b = gen_clip(8, "content_rich", 4, 16, 32).frames
    fwd = temporal_consistency_proxy(b, a)
    rev = temporal_consistency_proxy(b[::-1].copy(), a[::-1].copy())
    assert fwd == pytest.approx(rev, rel=1e-6)


def test_temporal_proxy_monotone_in_noise():
    clip = gen_clip(9, "content_rich", 4, 16, 32).frames
    rng = np.random.default_rng(10)
    noise = rng.standard_normal(clip.shape).astype(np.float32)
    values = []
    for level in (0.01, 0.02, 0.04, 0.08, 0.16):
        noisy = clip + level * noise  # fresh independent corruption per frame
        values.append(temporal_consistency_proxy(noisy, clip))
    assert all(b > a for a, b in zip(values, values[1:]))


# -- splits -----------------------------------------------------------------------


def test_split_single_frame():
    out = split_report([31.0], 0)
    assert out["overall"] == out["reference_frame"] == 31.0
    assert out["non_reference"] is None


def test_split_uniform_values():
    out = split_report([25.0] * 5, 2)
    assert out["overall"] == out["reference_frame"] == out["non_reference"] == 25.0


def test_split_hand_computed():
    vals = [10.0, 20.0, 30.0, 40.0]
    out = split_report(vals, 1)
    assert out["overall"] == pytest.approx(25.0)
    assert out["reference_frame"] == 20.0
    assert out["non_reference"] == pytest.approx((10 + 30 + 40) / 3)
    with pytest.raises(ValueError):
        split_report(vals, 4)


def test_report_per_category_aggregates_hand_computed():
    report = MetricsReport()
    clips = [("content_rich", 20.0, 0.10), ("content_sparse", 30.0, 0.20),
             ("content_rich", 26.0, 0.30), ("large_motion", 14.0, 0.40),
             ("content_rich", 17.0, 0.50)]
    for i, (cat, v, fl) in enumerate(clips):
        report.per_clip.append({
            "clip_id": f"val-{i:04d}", "category": cat, "ref_index": 0,
            "psnr": {"overall": v, "reference_frame": v + 2, "non_reference": v - 1},
            "ssim": {"overall": v / 100, "reference_frame": 0.6,
                     "non_reference": None if cat == "large_motion" else 0.4},
            "l1": 0.01 * (i + 1), "flicker": fl, "temporal_consistency": 0.2,
        })
    per_cat = report.finalize().aggregate["per_category"]
    assert set(per_cat) == {"content_rich", "content_sparse", "large_motion"}
    rich = per_cat["content_rich"]
    assert rich["clips"] == 3
    assert rich["psnr"]["overall"] == pytest.approx((20 + 26 + 17) / 3)
    assert rich["psnr"]["reference_frame"] == pytest.approx((22 + 28 + 19) / 3)
    assert rich["ssim"]["overall"] == pytest.approx((0.20 + 0.26 + 0.17) / 3)
    assert rich["l1"] == pytest.approx((0.01 + 0.03 + 0.05) / 3)
    assert rich["flicker"] == pytest.approx((0.1 + 0.3 + 0.5) / 3)
    assert per_cat["content_sparse"]["clips"] == 1
    assert per_cat["content_sparse"]["psnr"]["non_reference"] == pytest.approx(29.0)
    assert per_cat["large_motion"]["ssim"]["non_reference"] is None
    assert per_cat["large_motion"]["flicker"] == pytest.approx(0.4)
    assert report.aggregate["psnr"]["overall"] == pytest.approx(107.0 / 5)
    assert "per_category" not in rich


def test_report_aggregate_is_mean_of_clips():
    report = MetricsReport()
    for i, v in enumerate((20.0, 30.0)):
        report.per_clip.append({
            "clip_id": f"val-{i:04d}", "category": "content_rich", "ref_index": 0,
            "psnr": {"overall": v, "reference_frame": v + 1, "non_reference": v - 1},
            "ssim": {"overall": 0.5, "reference_frame": 0.6, "non_reference": 0.4},
            "l1": 0.05, "flicker": 0.1 * (i + 1), "temporal_consistency": 0.2,
        })
    report.finalize()
    assert report.aggregate["psnr"]["overall"] == pytest.approx(25.0)
    assert report.aggregate["flicker"] == pytest.approx(0.15)
    rows = report.csv_rows()
    assert {"clip_id", "metric", "split", "value"} == set(rows[0])
    assert len(rows) == 2 * (3 + 3 + 3)


def test_derive_clip_seeds_deterministic_32bit():
    a = derive_clip_seeds(9, 10)
    b = derive_clip_seeds(9, 10)
    assert a == b
    assert all(0 <= s < 2 ** 32 for s in a)


# -- fixed-seed swap protocol ----------------------------------------------------


@pytest.fixture(scope="module")
def swap_setup():
    from refvae.refcond import RefCondConfig, init_ref_params
    from refvae.synthdata import DatasetSpec, build_dataset
    from refvae.vae import VaeConfig, init_vae_params

    cfg = VaeConfig()
    rcfg = RefCondConfig(n_blocks=1)
    rng = np.random.default_rng(5)
    base = init_vae_params(cfg, rng)
    cond = {n: t for n, t in base.items()}
    cond.update(init_ref_params(cfg, rcfg, np.random.default_rng(6)))
    spec = DatasetSpec(n_train=2, n_val=4, frames=5, height=16, width=32, master_seed=3)
    _, val = build_dataset(spec)
    return cfg, rcfg, base, cond, spec, val


def test_swap_shares_latents_and_is_paired(swap_setup):
    cfg, rcfg, base, cond, spec, val = swap_setup
    result = fixed_seed_swap_compare(val, spec, cfg, rcfg, base, cond, master_seed=11)
    # zero-residual initialisation: both decoders produce identical pixels,
    # so every paired delta is exactly zero
    assert all(d["delta_psnr"] == 0.0 for d in result.deltas)
    assert [e["latent_path"] for e in result.seed_log["entries"]] == [""] * 4  # the caller saves them
    assert [z.shape for z in result.latents] == [cfg.latent_shape(5, 16, 32)] * 4


def test_eval_matches_swap_per_clip(swap_setup):
    from refvae.training import RefPolicy

    cfg, rcfg, base, cond, spec, val = swap_setup
    rng = np.random.default_rng(7)
    live = dict(cond)  # non-zero out-projections, so the two decoders differ
    for s in range(3):
        w = cond[f"ref.embed{s}.out.w"]
        live[f"ref.embed{s}.out.w"] = Tensor(rng.standard_normal(w.shape).astype(np.float32) * 0.05)
    policy = RefPolicy.random_frame
    swap = fixed_seed_swap_compare(val, spec, cfg, rcfg, base, live, 12, eval_policy=policy)
    assert all(d["delta_psnr"] != 0.0 for d in swap.deltas)
    assert len({c["ref_index"] for c in swap.baseline.per_clip}) > 1
    (rep_base,) = evaluate_params(val, spec, [(base, cfg, None, policy)], 12)
    (rep_cond,) = evaluate_params(val, spec, [(live, cfg, rcfg, policy)], 12)
    assert rep_base.per_clip == swap.baseline.per_clip
    assert rep_cond.per_clip == swap.conditioned.per_clip


def test_swap_rejects_encoder_mismatch(swap_setup):
    from refvae.checkpoint import CheckpointError
    from refvae.tensor import Tensor

    cfg, rcfg, base, cond, spec, val = swap_setup
    tampered = dict(cond)
    tampered["enc.in.w"] = Tensor(cond["enc.in.w"].data + 1.0)
    with pytest.raises(CheckpointError):
        fixed_seed_swap_compare(val, spec, cfg, rcfg, base, tampered, master_seed=13)


def test_swap_fingerprints_each_encoder_once(swap_setup, monkeypatch):
    from refvae import metrics

    cfg, rcfg, base, cond, spec, val = swap_setup
    real, calls = metrics.encoder_fingerprint, []
    monkeypatch.setattr(metrics, "encoder_fingerprint", lambda params: calls.append(1) or real(params))
    fixed_seed_swap_compare(val[:1], spec, cfg, rcfg, base, cond, master_seed=15)
    assert len(calls) == 2  # the paired-protocol check's two serve the latent sharing too


def test_evaluate_params_fingerprints_each_parameter_dict_once(swap_setup, monkeypatch):
    from refvae import metrics
    from refvae.training import RefPolicy

    cfg, rcfg, base, cond, spec, val = swap_setup
    real, calls = metrics.encoder_fingerprint, []
    monkeypatch.setattr(metrics, "encoder_fingerprint", lambda params: calls.append(id(params)) or real(params))
    # the ref_policy ablation's shape: one parameter dict under two eval policies
    decoders = [(cond, cfg, rcfg, policy) for policy in (RefPolicy.first_frame, RefPolicy.random_frame)]
    evaluate_params(val[:1], spec, decoders + [(base, cfg, None, RefPolicy.first_frame)], 16)
    assert sorted(calls) == sorted([id(cond), id(base)])


def test_evaluate_params_deterministic(swap_setup):
    cfg, rcfg, base, cond, spec, val = swap_setup
    from refvae.training import RefPolicy

    (a,) = evaluate_params(val, spec, [(cond, cfg, rcfg, RefPolicy.random_frame)], 21)
    (b,) = evaluate_params(val, spec, [(cond, cfg, rcfg, RefPolicy.random_frame)], 21)
    assert a.per_clip == b.per_clip and a.aggregate == b.aggregate


def test_evaluate_params_encodes_with_each_decoders_own_encoder(swap_setup):
    from refvae.training import RefPolicy

    cfg, rcfg, base, cond, spec, val = swap_setup
    other = dict(cond)  # a second encoder: the two decoders' latents differ
    other["enc.out.b"] = Tensor(cond["enc.out.b"].data + 0.5)
    policy = RefPolicy.first_frame
    decoders = [(base, cfg, None, policy), (other, cfg, rcfg, policy)]
    together = evaluate_params(val, spec, decoders, 14)
    for decoder, report in zip(decoders, together):
        (alone,) = evaluate_params(val, spec, [decoder], 14)
        assert report.per_clip == alone.per_clip and report.aggregate == alone.aggregate
    assert together[0].per_clip != together[1].per_clip
