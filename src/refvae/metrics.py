"""Quality metrics and the paired fixed-seed evaluation protocol.

All metrics are deterministic functions of their inputs.  PSNR is capped
at 99 dB so aggregates stay finite; SSIM uses a uniform 7x7 window over
positions where the window fits entirely inside the frame.

The swap comparison decodes the *same* latent with two decoders, so every
per-clip delta is attributable to the decoder alone.  Per-clip 32-bit
seeds drive the reference-frame draw; the seed log records each clip's
seed, and the swap returns each clip's latent for the caller to save
beside it.  Nothing here writes a file.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import CheckpointError, encoder_fingerprint
from .refcond import RefCondConfig, decode_conditioned_t
from .synthdata import ClipRef, DatasetSpec, realize
from .tensor import Tensor
from .training import RefPolicy, feature_pyramid, pyramid_distance, select_reference_frame
from .vae import VaeConfig, decode_baseline_t, encode_t

PSNR_CAP = 99.0
SSIM_WINDOW = 7
SSIM_C1 = 1e-4
SSIM_C2 = 9e-4


def _check_pair(x: np.ndarray, x_hat: np.ndarray) -> None:
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {x_hat.shape}")
    if x.ndim != 4 or x.shape[1] != 3:
        raise ValueError("expected [T, 3, H, W] clips")


def psnr(x: np.ndarray, x_hat: np.ndarray) -> tuple[list[float], float]:
    """Per-frame 10*log10(1/MSE) in dB (peak 1.0), capped at 99 dB."""
    _check_pair(x, x_hat)
    per_frame = []
    for t in range(x.shape[0]):
        mse = float(np.mean((x[t].astype(np.float64) - x_hat[t].astype(np.float64)) ** 2))
        per_frame.append(PSNR_CAP if mse == 0.0 else min(PSNR_CAP, 10.0 * np.log10(1.0 / mse)))
    return per_frame, float(np.mean(per_frame))


def _box_sum(img: np.ndarray, win: int) -> np.ndarray:
    """Sums over all win x win windows fully inside img (valid mode)."""
    ii = np.zeros((img.shape[0] + 1, img.shape[1] + 1), dtype=np.float64)
    ii[1:, 1:] = img.cumsum(axis=0).cumsum(axis=1)
    return ii[win:, win:] - ii[:-win, win:] - ii[win:, :-win] + ii[:-win, :-win]


def _ssim_map(a: np.ndarray, b: np.ndarray, win: int) -> np.ndarray:
    n = win * win
    mu_a = _box_sum(a, win) / n
    mu_b = _box_sum(b, win) / n
    var_a = _box_sum(a * a, win) / n - mu_a * mu_a
    var_b = _box_sum(b * b, win) / n - mu_b * mu_b
    cov = _box_sum(a * b, win) / n - mu_a * mu_b
    num = (2 * mu_a * mu_b + SSIM_C1) * (2 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return num / den


def ssim(x: np.ndarray, x_hat: np.ndarray) -> tuple[list[float], float]:
    """Uniform-window SSIM per frame (mean over channels and positions)."""
    _check_pair(x, x_hat)
    if x.shape[2] < SSIM_WINDOW or x.shape[3] < SSIM_WINDOW:
        raise ValueError(f"frame {x.shape[2]}x{x.shape[3]} smaller than window {SSIM_WINDOW}")
    per_frame = []
    for t in range(x.shape[0]):
        vals = [_ssim_map(x[t, c].astype(np.float64), x_hat[t, c].astype(np.float64), SSIM_WINDOW).mean()
                for c in range(3)]
        per_frame.append(float(np.mean(vals)))
    return per_frame, float(np.mean(per_frame))


def flicker_error(x_hat: np.ndarray, x: np.ndarray) -> float:
    """Mean deviation of reconstructed frame differences from ground truth's."""
    _check_pair(x, x_hat)
    if x.shape[0] < 2:
        raise ValueError("flicker needs at least two frames")
    d_hat = np.diff(x_hat.astype(np.float64), axis=0)
    d_ref = np.diff(x.astype(np.float64), axis=0)
    return float(np.abs(d_hat - d_ref).mean())


def frame_distances(clip: np.ndarray) -> list[float]:
    """Perceptual distance of each consecutive frame pair of a [T, 3, H, W] clip.

    The pyramid is built once over all frames: the blur never mixes frames,
    so frame t's slice of it is frame t's own pyramid.
    """
    t, c, h, w = clip.shape
    pyramid = feature_pyramid(Tensor(clip).reshape(1, t * c, h, w))
    return [pyramid_distance([lvl[:, i * c:(i + 1) * c] for lvl in pyramid],
                             [lvl[:, (i + 1) * c:(i + 2) * c] for lvl in pyramid]).item()
            for i in range(t - 1)]


def temporal_consistency_proxy(x_hat: np.ndarray, x: np.ndarray,
                               ref_distances: list[float] | None = None) -> float:
    """Gap between consecutive-frame perceptual distances of the two clips.

    `ref_distances` are `frame_distances(x)`, for a caller that scores
    several reconstructions of one clip and computes them once.
    """
    _check_pair(x, x_hat)
    if x.shape[0] < 2:
        raise ValueError("temporal consistency needs at least two frames")
    if ref_distances is None:
        ref_distances = frame_distances(x)
    gaps = [abs(d_hat - d_ref) for d_hat, d_ref in zip(frame_distances(x_hat), ref_distances)]
    return float(np.mean(gaps))


def split_report(per_frame: list[float], ref_index: int) -> dict[str, float | None]:
    """Overall / reference-frame / non-reference means of a per-frame metric."""
    if not 0 <= ref_index < len(per_frame):
        raise ValueError(f"reference index {ref_index} out of range")
    others = [v for i, v in enumerate(per_frame) if i != ref_index]
    return {
        "overall": float(np.mean(per_frame)),
        "reference_frame": float(per_frame[ref_index]),
        "non_reference": float(np.mean(others)) if others else None,
    }


# -- reports -----------------------------------------------------------------


def _mean_metrics(clips: list[dict]) -> dict:
    agg: dict = {}
    for metric in ("psnr", "ssim"):
        agg[metric] = {}
        for split in ("overall", "reference_frame", "non_reference"):
            vals = [c[metric][split] for c in clips if c[metric][split] is not None]
            agg[metric][split] = float(np.mean(vals)) if vals else None
    for metric in ("l1", "flicker", "temporal_consistency"):
        agg[metric] = float(np.mean([c[metric] for c in clips]))
    return agg


@dataclass
class MetricsReport:
    per_clip: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def finalize(self) -> "MetricsReport":
        """Means over all clips, and under `per_category` over each category's clips."""
        self.aggregate = _mean_metrics(self.per_clip)
        by_cat: dict[str, list[dict]] = {}
        for clip in self.per_clip:
            by_cat.setdefault(clip["category"], []).append(clip)
        self.aggregate["per_category"] = {cat: {**_mean_metrics(clips), "clips": len(clips)}
                                          for cat, clips in by_cat.items()}
        return self

    def csv_rows(self) -> list[dict]:
        rows = []
        for clip in self.per_clip:
            for metric in ("psnr", "ssim"):
                for split, value in clip[metric].items():
                    rows.append({"clip_id": clip["clip_id"], "metric": metric,
                                 "split": split, "value": value})
            for metric in ("l1", "flicker", "temporal_consistency"):
                rows.append({"clip_id": clip["clip_id"], "metric": metric,
                             "split": "overall", "value": clip[metric]})
        return rows


def clip_metrics(frames: np.ndarray, decoded: np.ndarray, ref_index: int,
                 clip_id: str, category: str, ref_distances: list[float]) -> dict:
    psnr_frames, _ = psnr(frames, decoded)
    ssim_frames, _ = ssim(frames, decoded)
    return {
        "clip_id": clip_id,
        "category": category,
        "ref_index": ref_index,
        "psnr": split_report(psnr_frames, ref_index),
        "ssim": split_report(ssim_frames, ref_index),
        "l1": float(np.abs(frames.astype(np.float64) - decoded.astype(np.float64)).mean()),
        "flicker": flicker_error(decoded, frames),
        "temporal_consistency": temporal_consistency_proxy(decoded, frames, ref_distances),
    }


def derive_clip_seeds(master_seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(np.random.PCG64(master_seed))
    return [int(s) for s in rng.integers(0, 2 ** 32, size=count, dtype=np.uint64)]


# (params, backbone config, ref_cfg or None for baseline, eval policy)
Decoder = tuple[dict, VaeConfig, RefCondConfig | None, RefPolicy]


def _eval_clips(val_refs: list[ClipRef], data_spec: DatasetSpec, decoders: list[Decoder],
                fingerprints: list[str], master_seed: int,
                ) -> tuple[list[MetricsReport], list[tuple[int, np.ndarray]]]:
    """Score every clip with each `(params, vae_cfg, ref_cfg, policy)` decoder.

    Each clip is encoded once per distinct encoder (by its entry in
    `fingerprints`, the caller's `encoder_fingerprint` of each decoder) and
    backbone config, and decoders that share both share the latent.  Each
    policy draws the reference from its own generator on the clip seed, so
    decoders that share a policy share the draw; a decoder whose `ref_cfg` is
    None decodes without the reference.  Returns one report per decoder and
    each clip's `(seed, latent of the first decoder's encoder)`.
    """
    seeds = derive_clip_seeds(master_seed, len(val_refs))
    keys = [(fp, repr(vae_cfg)) for fp, (_, vae_cfg, *_) in zip(fingerprints, decoders)]
    reports = [MetricsReport() for _ in decoders]
    latents = []
    for ref, seed in zip(val_refs, seeds):
        clip = realize(ref, data_spec)
        draws = {policy: select_reference_frame(clip.frames, policy,
                                                np.random.default_rng(np.random.PCG64(seed)))
                 for *_, policy in decoders}
        ref_distances = frame_distances(clip.frames)  # ground truth's share of the temporal proxy
        zs: dict[tuple[str, str], Tensor] = {}
        for report, key, (params, vae_cfg, ref_cfg, policy) in zip(reports, keys, decoders):
            if key not in zs:  # the first decoder of each key encodes for all of them
                zs[key] = encode_t(Tensor(clip.frames), vae_cfg, params)
            ref_frame, ref_index = draws[policy]
            if ref_cfg is not None:
                decoded = decode_conditioned_t(zs[key], ref_frame, vae_cfg, ref_cfg, params).data
            else:
                decoded = decode_baseline_t(zs[key], vae_cfg, params).data
            report.per_clip.append(clip_metrics(clip.frames, decoded, ref_index,
                                                ref.clip_id, ref.category, ref_distances))
        latents.append((seed, zs[keys[0]].data))
    return [report.finalize() for report in reports], latents


def evaluate_params(val_refs: list[ClipRef], data_spec: DatasetSpec, decoders: list[Decoder],
                    master_seed: int) -> list[MetricsReport]:
    """Reconstruction metrics over a validation set, one report per decoder.

    Each report is the one that decoder gets when it is scored alone.
    """
    distinct = {id(params): params for params, *_ in decoders}  # one hash per parameter dict
    fps = {key: encoder_fingerprint(params) for key, params in distinct.items()}
    reports, _ = _eval_clips(val_refs, data_spec, decoders,
                             [fps[id(params)] for params, *_ in decoders], master_seed)
    for report, (*_, ref_cfg, policy) in zip(reports, decoders):
        report.metadata.update({"eval_policy": policy.value, "master_seed": master_seed,
                                "conditioned": ref_cfg is not None})
    return reports


# -- fixed-seed decoder swap ----------------------------------------------------


@dataclass
class SwapResult:
    baseline: MetricsReport
    conditioned: MetricsReport
    deltas: list[dict]
    seed_log: dict  # each entry's latent_path is "" until the caller saves its latent
    latents: list[np.ndarray]  # each clip's shared latent, in seed-log order

    @property
    def mean_delta_psnr(self) -> float:
        return float(np.mean([d["delta_psnr"] for d in self.deltas]))

    @property
    def fraction_improved(self) -> float:
        return float(np.mean([d["delta_psnr"] > 0 for d in self.deltas]))


def fixed_seed_swap_compare(val_refs: list[ClipRef], data_spec: DatasetSpec,
                            vae_cfg: VaeConfig, ref_cfg: RefCondConfig,
                            params_baseline: dict, params_conditioned: dict,
                            master_seed: int, eval_policy: RefPolicy = RefPolicy.first_frame) -> SwapResult:
    """Decode identical latents with both decoders and report paired deltas."""
    fp_base = encoder_fingerprint(params_baseline)
    if fp_base != encoder_fingerprint(params_conditioned):
        raise CheckpointError("the baseline and conditioned checkpoints hold different encoders")

    decoders = [(params_baseline, vae_cfg, None, eval_policy),
                (params_conditioned, vae_cfg, ref_cfg, eval_policy)]
    (rep_base, rep_cond), latents = _eval_clips(val_refs, data_spec, decoders, [fp_base] * 2, master_seed)

    deltas = [{
        "clip_id": m_base["clip_id"], "category": m_base["category"],
        "delta_psnr": m_cond["psnr"]["overall"] - m_base["psnr"]["overall"],
        "delta_psnr_reference": m_cond["psnr"]["reference_frame"] - m_base["psnr"]["reference_frame"],
        "delta_ssim": m_cond["ssim"]["overall"] - m_base["ssim"]["overall"],
    } for m_base, m_cond in zip(rep_base.per_clip, rep_cond.per_clip)]

    seed_log = {
        "master_seed": master_seed,
        "eval_policy": eval_policy.value,
        "encoder_fingerprint": fp_base,
        "entries": [{"clip_id": ref.clip_id, "seed": seed, "latent_path": ""}
                    for ref, (seed, _) in zip(val_refs, latents)],
    }
    meta = {"protocol": "fixed-seed-swap", "eval_policy": eval_policy.value,
            "encoder_fingerprint": fp_base}
    rep_base.metadata.update(meta)
    rep_cond.metadata.update(meta)
    return SwapResult(rep_base, rep_cond, deltas, seed_log, [z for _, z in latents])
