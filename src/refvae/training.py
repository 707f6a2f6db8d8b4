"""Training recipe: losses, latent dropout, schedules, AdamW, and the loops.

Fine-tuning keeps the encoder frozen (its tensors never enter the
optimiser), trains the conditioning modules from scratch at the base rate
and the pretrained decoder at a reduced rate, and runs a two-stage
curriculum from short clips to the full frame count with optimiser state
carried across stages.  Every stochastic draw (clip, temporal crop,
reference frame, dropout rate, dropout mask) comes from one seeded
generator in a fixed order, so a run is reproducible bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ops import conv3d_causal
from .refcond import decode_conditioned_t, init_ref_params, RefCondConfig
from .synthdata import ClipRef, DatasetSpec, realize
from .tensor import NumericsError, Tensor, backward, parameter
from .vae import VaeConfig, decode_baseline_t, encode_t, init_vae_params


class RefPolicy(Enum):
    first_frame = "first_frame"
    random_frame = "random_frame"


@dataclass
class DropoutSpec:
    r_max: float = 0.7
    channel_joint: bool = True  # zero whole spatiotemporal columns, not single channels

    def validate(self) -> None:
        if not 0.0 <= self.r_max <= 1.0:
            raise ValueError("r_max must lie in [0, 1]")


@dataclass
class StageSpec:
    frames: int
    height: int
    width: int
    steps: int


@dataclass
class CurriculumSpec:
    stages: tuple[StageSpec, ...] = (
        StageSpec(5, 32, 64, 400),
        StageSpec(17, 32, 64, 200),
    )

    def validate(self, vae_cfg: VaeConfig, data_spec: DatasetSpec, total_steps: int) -> None:
        """The stages, and their fit to the backbone, the clips and the optimiser's step total."""
        if not self.stages:
            raise ValueError("curriculum needs at least one stage")
        frames = [s.frames for s in self.stages]
        if frames != sorted(frames):
            raise ValueError("stage frame counts must be non-decreasing")
        for s in self.stages:
            if s.steps < 1:
                raise ValueError("every stage needs at least one step")
            if (s.height, s.width) != (data_spec.height, data_spec.width):
                raise ValueError("curriculum stage resolution must match the dataset")
            vae_cfg.latent_shape(s.frames, s.height, s.width)
            if s.frames > data_spec.frames:
                raise ValueError("curriculum stage frames exceed dataset clip length")
        if total_steps != self.total_steps:
            raise ValueError("optimizer.total_steps must equal the curriculum step total")
        vae_cfg.latent_shape(data_spec.frames, data_spec.height, data_spec.width)

    @property
    def total_steps(self) -> int:
        return sum(s.steps for s in self.stages)


@dataclass
class OptimizerSpec:
    base_lr: float = 1e-3
    decoder_lr_scale: float = 0.1
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    warmup_steps: int = 100
    total_steps: int = 600
    warmup_start_fraction: float = 0.01
    grad_clip: float = 1.0  # global-norm clip; 0 disables

    def validate(self) -> None:
        inf = float("inf")  # every rule is a comparison, so NaN breaks each one
        rules = {"base_lr must be positive and finite": 0 < self.base_lr < inf,
                 "decoder_lr_scale must lie in (0, 1]": 0 < self.decoder_lr_scale <= 1,
                 "betas must lie in [0, 1)": all(0 <= beta < 1 for beta in self.betas),
                 "eps must be positive and finite": 0 < self.eps < inf,
                 "weight_decay must be non-negative and finite": 0 <= self.weight_decay < inf,
                 "warmup must be shorter than the run": 0 <= self.warmup_steps < self.total_steps,
                 "warmup_start_fraction must lie in [0, 1]": 0 <= self.warmup_start_fraction <= 1,
                 "grad_clip must be non-negative": self.grad_clip >= 0}
        for message, ok in rules.items():
            if not ok:
                raise ValueError(message)


# -- stochastic draws ----------------------------------------------------------


def sample_dropout_rate(rng: np.random.Generator, spec: DropoutSpec) -> float:
    return float(rng.uniform(0.0, spec.r_max))


def apply_latent_dropout(z: Tensor, r: float, rng: np.random.Generator,
                         channel_joint: bool = True) -> Tensor:
    """Zero spatiotemporal latent positions with probability r.

    A dropped position is zeroed across all channels jointly; surviving
    positions are bit-identical to the input.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError("dropout rate must lie in [0, 1]")
    c, t, h, w = z.shape
    shape = (c, t, h, w) if not channel_joint else (1, t, h, w)
    keep = (rng.random(shape) >= r).astype(z.data.dtype)
    return z * Tensor(keep)


def select_reference_frame(frames: np.ndarray, policy: RefPolicy,
                           rng: np.random.Generator) -> tuple[np.ndarray, int]:
    t = frames.shape[0]
    if t < 1:
        raise ValueError("empty clip")
    index = 0 if policy is RefPolicy.first_frame else int(rng.integers(t))
    return frames[index], index


# -- losses ---------------------------------------------------------------------


_BLUR = (np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0)
_BLUR_KERNEL = (np.outer(_BLUR, _BLUR))[None, None, None].astype(np.float32)


def _grad_maps(x: Tensor) -> tuple[Tensor, Tensor]:
    return x[:, :, :, 1:] - x[:, :, :, :-1], x[:, :, 1:, :] - x[:, :, :-1, :]


def _blur_down(x: Tensor) -> Tensor:
    # per-frame 5-tap binomial blur + 2x decimation; folding (T, 3) into the
    # temporal axis is safe because the kernel never mixes time (kt = 1)
    t3, h, w = x.shape[1], x.shape[2], x.shape[3]
    flat = x.reshape(1, t3, h, w)
    kernel = Tensor(_BLUR_KERNEL if x.dtype == np.float32 else _BLUR_KERNEL.astype(np.float64))
    return conv3d_causal(flat, kernel, (1, 2, 2)).reshape(1, t3, h // 2, w // 2)


_LEVEL_WEIGHTS = (1.0, 2.0, 4.0)  # coarse scales, where noise washes out, count more


def feature_pyramid(x: Tensor) -> list[Tensor]:
    """[1, N, H, W] frame-channels followed by blurred 2x decimations, one level per level weight."""
    pyramid = [x]
    for _ in _LEVEL_WEIGHTS[1:]:
        pyramid.append(_blur_down(pyramid[-1]))
    return pyramid


def pyramid_distance(pa: list[Tensor], pb: list[Tensor]) -> Tensor:
    """Weighted L1 gap between the features of two same-shape pyramids.

    Features are the levels themselves (beyond the base, which the main L1
    term already covers) plus horizontal/vertical gradient maps at every
    level.
    """
    total = None
    norm = 0.0
    for lvl, (weight, a, b) in enumerate(zip(_LEVEL_WEIGHTS, pa, pb)):
        terms = [] if lvl == 0 else [(a - b).abs().mean()]
        for ga, gb in zip(_grad_maps(a), _grad_maps(b)):
            terms.append((ga - gb).abs().mean())
        for term in terms:
            total = term * weight if total is None else total + term * weight
            norm += weight
    return total * (1.0 / norm)


def perceptual_proxy(x: Tensor, x_hat: Tensor) -> Tensor:
    """L1 gap between fixed features over a Gaussian pyramid.

    Deterministic, non-learned, symmetric, and it penalises losing
    high-frequency structure far more than matched-energy noise:
    downsampling suppresses independent noise but not the damage blur does.
    Inputs are [T, 3, H, W].
    """
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {x_hat.shape}")
    t, c, h, w = x.shape
    return pyramid_distance(feature_pyramid(x.reshape(1, t * c, h, w)),
                            feature_pyramid(x_hat.reshape(1, t * c, h, w)))


def loss_recon(x: Tensor, x_hat: Tensor, lambda_perc: float = 1.0) -> tuple[Tensor, float, float]:
    """Mean L1 plus weighted perceptual proxy; returns (loss, l1, perc) floats for logging."""
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {x_hat.shape}")
    l1 = (x - x_hat).abs().mean()
    if lambda_perc == 0.0:
        return l1, l1.item(), 0.0
    perc = perceptual_proxy(x, x_hat)
    return l1 + perc * lambda_perc, l1.item(), perc.item()


# -- schedule and optimiser -------------------------------------------------------


def lr_at(step: int, spec: OptimizerSpec) -> float:
    """Linear warmup from warmup_start_fraction to 1, then cosine to 0."""
    if not 0 <= step <= spec.total_steps:
        raise ValueError(f"step {step} outside [0, {spec.total_steps}]")
    w = spec.warmup_steps
    if step < w:
        frac = spec.warmup_start_fraction + (1.0 - spec.warmup_start_fraction) * step / w
    else:
        progress = (step - w) / max(1, spec.total_steps - w)
        frac = 0.5 * (1.0 + np.cos(np.pi * progress))
    return spec.base_lr * float(frac)


class AdamW:
    """Decoupled-weight-decay Adam over named parameter groups.

    Each group carries a learning-rate scale; moments are kept per parameter
    name and carried across curriculum stages.
    """

    def __init__(self, groups: list[tuple[dict[str, Tensor], float]], spec: OptimizerSpec):
        spec.validate()
        self.spec = spec
        self.groups = groups
        self.step_count = 0
        self.grad_norm, self.clip_scale = 0.0, 1.0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        for params, _ in groups:
            for name, p in params.items():
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)

    def step(self, base_lr: float) -> None:
        """One update.

        The global gradient norm before clipping and the clip scale are kept
        as `grad_norm` and `clip_scale` until the next step.
        """
        self.step_count += 1
        b1, b2 = self.spec.betas
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        sq = 0.0
        for params, _ in self.groups:
            for name in params:
                g = params[name].grad
                if g is not None:
                    sq += float(np.vdot(g, g))
        norm = np.sqrt(sq)
        clip_scale = 1.0
        if self.spec.grad_clip and norm > self.spec.grad_clip:
            clip_scale = self.spec.grad_clip / norm
        for params, scale in self.groups:
            lr = base_lr * scale
            for name in sorted(params):
                p = params[name]
                if p.grad is None:
                    continue
                g = p.grad
                if not np.all(np.isfinite(g)):
                    raise NumericsError(f"NaN/Inf gradient in {name}")
                if clip_scale != 1.0:
                    g = g * clip_scale
                if self.spec.weight_decay:
                    p.data -= lr * self.spec.weight_decay * p.data
                m = self.m[name]
                v = self.v[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p.data -= lr * (m / c1) / (np.sqrt(v / c2) + self.spec.eps)
        self.grad_norm, self.clip_scale = norm, clip_scale


# -- training loops -----------------------------------------------------------------

def _run_curriculum(forward, params: dict[str, Tensor], groups: list, train_refs: list[ClipRef],
                    data_spec: DatasetSpec, vae_cfg: VaeConfig, curriculum: CurriculumSpec,
                    opt_spec: OptimizerSpec, rng: np.random.Generator, lambda_perc: float,
                    ) -> tuple[list[dict], AdamW]:
    """The curriculum loop shared by pretraining and fine-tuning.

    Each step draws a clip and a temporal window, runs
    `forward(idx, t0, window) -> (x_hat, r, ref_index)`, and takes one
    optimiser step on the reconstruction loss of that window.
    """
    curriculum.validate(vae_cfg, data_spec, opt_spec.total_steps)
    opt = AdamW(groups, opt_spec)
    clips = [realize(r, data_spec).frames for r in train_refs]
    rows: list[dict] = []
    step = 0
    for stage_idx, stage in enumerate(curriculum.stages):
        for _ in range(stage.steps):
            idx = int(rng.integers(len(clips)))
            t0 = int(rng.integers(0, data_spec.frames - stage.frames + 1))
            window = clips[idx][t0:t0 + stage.frames]
            for p in params.values():
                p.grad = None
            x_hat, r, ref_index = forward(idx, t0, window)
            loss, l1, perc = loss_recon(Tensor(window), x_hat, lambda_perc)
            if not np.isfinite(loss.item()):
                raise NumericsError(f"training diverged at step {step}: loss={loss.item()}")
            backward(loss)
            lr = lr_at(step, opt_spec)
            opt.step(lr)
            rows.append({"step": step, "stage": stage_idx, "lr_new": lr * groups[0][1],
                         "lr_dec": lr * groups[-1][1], "r": r, "ref_index": ref_index,
                         "loss_l1": l1, "loss_perc": perc, "loss_total": loss.item(),
                         "grad_norm": float(opt.grad_norm), "clip_scale": float(opt.clip_scale)})
            step += 1
    for name in sorted(params):
        if not np.all(np.isfinite(params[name].data)):
            raise NumericsError(f"non-finite values in parameter {name}")
    return rows, opt


def pretrain_baseline(train_refs: list[ClipRef], data_spec: DatasetSpec, cfg: VaeConfig,
                      curriculum: CurriculumSpec, opt_spec: OptimizerSpec, seed: int,
                      lambda_perc: float = 1.0,
                      ) -> tuple[dict[str, Tensor], list[dict], AdamW]:
    """Joint encoder+decoder training on reconstruction; emits the frozen backbone."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    params = init_vae_params(cfg, rng)

    def forward(idx, t0, window):
        x_hat = decode_baseline_t(encode_t(Tensor(window), cfg, params), cfg, params)
        return x_hat, 0.0, -1

    rows, opt = _run_curriculum(forward, params, [(params, 1.0)], train_refs, data_spec,
                                cfg, curriculum, opt_spec, rng, lambda_perc)
    return params, rows, opt


def train_refdecoder(baseline: dict[str, Tensor], train_refs: list[ClipRef],
                     data_spec: DatasetSpec, vae_cfg: VaeConfig, ref_cfg: RefCondConfig,
                     curriculum: CurriculumSpec, opt_spec: OptimizerSpec,
                     dropout: DropoutSpec, policy: RefPolicy, seed: int,
                     injection: str = "attention", lambda_perc: float = 1.0,
                     ) -> tuple[dict[str, Tensor], list[dict], AdamW]:
    """Fine-tune the decoder with reference conditioning on a frozen encoder."""
    vae_cfg.validate()
    dropout.validate()
    if not any(n.startswith("dec.") for n in baseline):
        raise ValueError("baseline checkpoint is missing decoder parameters")

    rng = np.random.default_rng(np.random.PCG64(seed))
    # a copy of the backbone: the encoder frozen (no grad, never optimised), the decoder trainable
    params = {name: Tensor(p.data.copy()) if name.startswith("enc.") else parameter(p.data)
              for name, p in baseline.items()}
    hz, wz = vae_cfg.latent_shape(data_spec.frames, data_spec.height, data_spec.width)[2:]
    new = init_ref_params(vae_cfg, ref_cfg, rng, injection, null_hw=(hz, wz))
    params.update(new)
    dec_names = sorted(n for n in params if n.startswith("dec."))
    groups = [({n: new[n] for n in sorted(new)}, 1.0),
              ({n: params[n] for n in dec_names}, opt_spec.decoder_lr_scale)]
    latent_cache: dict[tuple[int, int, int], np.ndarray] = {}

    def forward(idx, t0, window):
        ref_frame, ref_index = select_reference_frame(window, policy, rng)
        r = sample_dropout_rate(rng, dropout)
        key = (idx, t0, len(window))
        if key not in latent_cache:  # encoder frozen: latents are reusable
            latent_cache[key] = encode_t(Tensor(window), vae_cfg, params).data
        z = apply_latent_dropout(Tensor(latent_cache[key]), r, rng, dropout.channel_joint)
        return decode_conditioned_t(z, ref_frame, vae_cfg, ref_cfg, params), r, ref_index

    rows, opt = _run_curriculum(forward, params, groups, train_refs, data_spec,
                                vae_cfg, curriculum, opt_spec, rng, lambda_perc)
    return params, rows, opt
