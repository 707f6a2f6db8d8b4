"""Seeded procedural video clips.

Clips are generated on demand from a 64-bit seed, never stored: textured
sprites with subpixel linear + rotational motion over an analytic
background.  Three categories:

- content_rich: 6-12 textured sprites (checker / stripes / noise) plus
  small high-frequency glyph patches standing in for text overlays.
- content_sparse: 1-2 large smooth-gradient blobs, slow motion.
- large_motion: content_rich dynamics under a global pan of >= 4 px/frame.

All randomness flows through a PCG64 generator keyed by the seed, so the
same (seed, category, shape) always reproduces the same bytes.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CATEGORIES = ("content_rich", "content_sparse", "large_motion")

# keeps train (< 2^31) and val seed ranges disjoint by construction
VAL_SEED_OFFSET = 2 ** 48


@dataclass
class VideoClip:
    frames: np.ndarray  # [T, 3, H, W] float32 in [0, 1]


@dataclass(frozen=True)
class ClipRef:
    seed: int
    category: str
    split: str
    index: int

    @property
    def clip_id(self) -> str:
        return f"{self.split}-{self.index:04d}"


@dataclass
class DatasetSpec:
    n_train: int = 24
    n_val: int = 64
    mix: dict[str, float] = field(default_factory=lambda: {
        "content_rich": 0.5, "content_sparse": 0.25, "large_motion": 0.25})
    frames: int = 17
    height: int = 32
    width: int = 64
    master_seed: int = 1234

    def validate(self) -> None:
        if self.n_train < 1 or self.n_val < 1:
            raise ValueError("dataset sizes must be positive")
        if set(self.mix) - set(CATEGORIES):
            raise ValueError(f"unknown categories in mix: {set(self.mix) - set(CATEGORIES)}")
        if not all(f >= 0 for f in self.mix.values()):  # NaN fails this too
            raise ValueError(f"category fractions must be non-negative numbers, got {self.mix}")
        if abs(sum(self.mix.values()) - 1.0) > 1e-9:
            raise ValueError("category fractions must sum to 1")
        if self.frames < 2:
            raise ValueError(f"dataset.frames must be at least 2, got {self.frames}: flicker and "
                             "temporal consistency compare consecutive frames")
        if self.height < 8 or self.width < 8:
            raise ValueError("degenerate clip shape")


def _rotated_patch(tex: np.ndarray, angle: float, cy: float, cx: float,
                   frame: np.ndarray) -> None:
    """Alpha-composite `tex` rotated by `angle` at float center (cy, cx)."""
    _, h, w = frame.shape
    s = tex.shape[1]
    half = s * 0.75 + 2.0
    y0, y1 = max(0, int(np.floor(cy - half))), min(h, int(np.ceil(cy + half)) + 1)
    x0, x1 = max(0, int(np.floor(cx - half))), min(w, int(np.ceil(cx + half)) + 1)
    if y0 >= y1 or x0 >= x1:
        return
    ys, xs = np.mgrid[y0:y1, x0:x1]
    dy, dx = ys - cy, xs - cx
    ca, sa = np.cos(-angle), np.sin(-angle)
    u = ca * dx - sa * dy + (s - 1) / 2.0
    v = sa * dx + ca * dy + (s - 1) / 2.0
    # bilinear sample with antialiased box edges
    inside = (u > -0.5) & (u < s - 0.5) & (v > -0.5) & (v < s - 0.5)
    if not inside.any():
        return
    uc, vc = np.clip(u, 0, s - 1), np.clip(v, 0, s - 1)
    ui, vi = np.floor(uc).astype(int), np.floor(vc).astype(int)
    ui1, vi1 = np.minimum(ui + 1, s - 1), np.minimum(vi + 1, s - 1)
    fu, fv = uc - ui, vc - vi
    sample = ((tex[:, vi, ui] * (1 - fu) + tex[:, vi, ui1] * fu) * (1 - fv)
              + (tex[:, vi1, ui] * (1 - fu) + tex[:, vi1, ui1] * fu) * fv)
    edge_u = np.clip(np.minimum(u + 0.5, s - 0.5 - u), 0.0, 1.0)
    edge_v = np.clip(np.minimum(v + 0.5, s - 0.5 - v), 0.0, 1.0)
    alpha = np.where(inside, edge_u * edge_v, 0.0)
    region = frame[:, y0:y1, x0:x1]
    region *= 1.0 - alpha
    region += sample * alpha


def _make_texture(rng: np.random.Generator, size: int, kind: str) -> np.ndarray:
    color_a = rng.uniform(0.05, 0.95, size=3)[:, None, None]
    color_b = rng.uniform(0.05, 0.95, size=3)[:, None, None]
    yy, xx = np.mgrid[0:size, 0:size]
    if kind == "checker":
        cell = rng.integers(2, 4)
        mask = ((yy // cell + xx // cell) % 2).astype(np.float64)
    elif kind == "stripes":
        period = rng.integers(2, 5)
        phase = rng.uniform(0, period)
        axis = yy if rng.random() < 0.5 else xx
        mask = (((axis + phase) // max(1, period // 2)) % 2).astype(np.float64)
    elif kind == "noise":
        mask = rng.random((size, size))
    else:  # smooth radial gradient
        cy, cx = (size - 1) / 2.0, (size - 1) / 2.0
        r = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2) / (size / 2.0)
        mask = np.clip(1.0 - r, 0.0, 1.0) ** 1.5
    return color_a * mask[None] + color_b * (1.0 - mask[None])


def _glyph(rng: np.random.Generator) -> np.ndarray:
    bits = rng.random((5, 4)) < 0.5
    patch = np.concatenate([bits, bits[:, ::-1]], axis=1).astype(np.float64)
    bright = rng.random() < 0.5
    tex = np.where(patch[None], 0.95 if bright else 0.05, 0.05 if bright else 0.95)
    return np.repeat(tex, 3, axis=0)


def _background(rng: np.random.Generator, ys: np.ndarray, xs: np.ndarray,
                coeff: dict[str, float]) -> np.ndarray:
    base = coeff["base"] + coeff["gy"] * ys + coeff["gx"] * xs
    wave = coeff["amp"] * np.sin(2 * np.pi * (coeff["fy"] * ys + coeff["py"])) \
        * np.sin(2 * np.pi * (coeff["fx"] * xs + coeff["px"]))
    out = np.empty((3,) + ys.shape)
    for c in range(3):
        out[c] = base * coeff[f"tint{c}"] + wave
    return out


def gen_clip(seed: int, category: str, T: int, H: int, W: int) -> VideoClip:
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}")
    if T < 1 or H < 8 or W < 8:
        raise ValueError("degenerate clip shape")
    rng = np.random.default_rng(np.random.PCG64(seed))
    scale = W / 64.0  # motion magnitudes quoted at the 32x64 reference scale

    rich = category in ("content_rich", "large_motion")
    coeff = {
        "base": rng.uniform(0.25, 0.6),
        "gy": rng.uniform(-0.3, 0.3) / H, "gx": rng.uniform(-0.3, 0.3) / W,
        "amp": rng.uniform(0.04, 0.12) if rich else rng.uniform(0.01, 0.04),
        "fy": rng.uniform(0.5, 2.0) / H, "fx": rng.uniform(0.5, 2.0) / W,
        "py": rng.uniform(0, 1), "px": rng.uniform(0, 1),
        "tint0": rng.uniform(0.8, 1.2), "tint1": rng.uniform(0.8, 1.2),
        "tint2": rng.uniform(0.8, 1.2),
    }

    if category == "large_motion":
        pan_dir = rng.uniform(0, 2 * np.pi)
        pan_speed = rng.uniform(4.0, 6.5) * scale
        pan = np.array([np.sin(pan_dir), np.cos(pan_dir)]) * pan_speed  # (dy, dx) per frame
    else:
        pan = np.zeros(2)

    # sprite inventory; positions live in canvas coordinates (pan subtracts)
    sprites = []
    if rich:
        n_sprites = int(rng.integers(6, 13))
        kinds = ["checker", "stripes", "noise"]
        speed_lo, speed_hi = 0.5 * scale, 2.5 * scale
    else:
        n_sprites = int(rng.integers(1, 3))
        kinds = ["smooth"]
        speed_lo, speed_hi = 0.2 * scale, 0.8 * scale
    span_y = H + abs(pan[0]) * (T - 1)
    span_x = W + abs(pan[1]) * (T - 1)
    origin_y = min(0.0, pan[0] * (T - 1))
    origin_x = min(0.0, pan[1] * (T - 1))
    for _ in range(n_sprites):
        size = int(rng.integers(6, 15)) if rich else int(rng.integers(14, 24))
        size = max(4, int(round(size * scale)))
        tex = _make_texture(rng, size, kinds[int(rng.integers(len(kinds)))])
        pos = np.array([origin_y + rng.uniform(0, span_y), origin_x + rng.uniform(0, span_x)])
        ang = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(speed_lo, speed_hi)
        heading = rng.uniform(0, 2 * np.pi)
        vel = np.array([np.sin(heading), np.cos(heading)]) * speed
        omega = rng.uniform(-0.15, 0.15) if rich else rng.uniform(-0.03, 0.03)
        sprites.append((tex, pos, vel, ang, omega))

    glyphs = []
    if rich:
        for _ in range(int(rng.integers(2, 5))):
            gpos = np.array([origin_y + rng.uniform(2, span_y - 2),
                             origin_x + rng.uniform(2, span_x - 2)])
            glyphs.append((_glyph(rng), gpos))

    # guarantee motion even in near-static sparse draws
    drift = np.array([rng.uniform(0.1, 0.25), rng.uniform(0.1, 0.25)]) * scale \
        * np.where(rng.random(2) < 0.5, -1.0, 1.0)

    frames = np.empty((T, 3, H, W), dtype=np.float32)
    grid_y, grid_x = np.mgrid[0:H, 0:W].astype(np.float64)
    for t in range(T):
        off = pan * t + (drift * t if not rich else 0.0)
        frame = _background(rng, grid_y + off[0], grid_x + off[1], coeff)
        for tex, pos, vel, ang, omega in sprites:
            cy = pos[0] + vel[0] * t - off[0]
            cx = pos[1] + vel[1] * t - off[1]
            _rotated_patch(tex, ang + omega * t, cy, cx, frame)
        for tex, gpos in glyphs:
            _rotated_patch(tex, 0.0, gpos[0] - off[0], gpos[1] - off[1], frame)
        frames[t] = np.clip(frame, 0.0, 1.0).astype(np.float32)
    return VideoClip(frames=frames)


# -- dataset assembly ---------------------------------------------------------


def _category_counts(n: int, mix: dict[str, float]) -> list[str]:
    """Exact per-category counts: floor, then remainder by largest fraction."""
    raw = {c: n * f for c, f in sorted(mix.items())}
    counts = {c: int(np.floor(v)) for c, v in raw.items()}
    short = n - sum(counts.values())
    order = sorted(raw, key=lambda c: (-(raw[c] - counts[c]), c))
    for c in order[:short]:
        counts[c] += 1
    out: list[str] = []
    for c in sorted(counts):
        out.extend([c] * counts[c])
    return out


def build_dataset(spec: DatasetSpec) -> tuple[list[ClipRef], list[ClipRef]]:
    spec.validate()
    rng = np.random.default_rng(np.random.PCG64(spec.master_seed))
    train_seeds = rng.integers(0, 2 ** 31, size=spec.n_train)
    val_seeds = VAL_SEED_OFFSET + rng.integers(0, 2 ** 31, size=spec.n_val)
    train_cats = _category_counts(spec.n_train, spec.mix)
    val_cats = _category_counts(spec.n_val, spec.mix)
    train = [ClipRef(int(s), c, "train", i) for i, (s, c) in enumerate(zip(train_seeds, train_cats))]
    val = [ClipRef(int(s), c, "val", i) for i, (s, c) in enumerate(zip(val_seeds, val_cats))]
    return train, val


def realize(ref: ClipRef, spec: DatasetSpec) -> VideoClip:
    return gen_clip(ref.seed, ref.category, spec.frames, spec.height, spec.width)


# -- raw frame dump -----------------------------------------------------------

RDVC_MAGIC = b"RDVC"
RDVC_VERSION = 1


def write_rdvc(path: Path, frames: np.ndarray) -> None:
    """Planar binary dump: magic, version, T/H/W, then little-endian f32."""
    t, c, h, w = frames.shape
    if c != 3:
        raise ValueError("expected [T, 3, H, W] frames")
    with open(path, "wb") as fh:
        fh.write(RDVC_MAGIC)
        fh.write(struct.pack("<IIII", RDVC_VERSION, t, h, w))
        fh.write(np.ascontiguousarray(frames, dtype="<f4").tobytes())
