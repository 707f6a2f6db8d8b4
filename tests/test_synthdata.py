import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_rdvc
from refvae.synthdata import (
    CATEGORIES,
    DatasetSpec,
    VAL_SEED_OFFSET,
    build_dataset,
    gen_clip,
    write_rdvc,
)


def test_same_seed_bitwise_identical():
    a = gen_clip(42, "content_rich", 9, 32, 64)
    b = gen_clip(42, "content_rich", 9, 32, 64)
    assert np.array_equal(a.frames, b.frames)


def test_different_seeds_differ():
    a = gen_clip(1, "content_rich", 5, 32, 64)
    b = gen_clip(2, "content_rich", 5, 32, 64)
    assert not np.array_equal(a.frames, b.frames)


@pytest.mark.parametrize("category", CATEGORIES)
def test_every_frame_moves(category):
    clip = gen_clip(7, category, 9, 32, 64)
    for t in range(8):
        assert np.abs(clip.frames[t + 1] - clip.frames[t]).mean() > 0


@pytest.mark.parametrize("category", CATEGORIES)
def test_pixel_range(category):
    clip = gen_clip(11, category, 5, 32, 64)
    assert clip.frames.min() >= 0.0 and clip.frames.max() <= 1.0
    assert clip.frames.dtype == np.float32


def test_rich_has_more_gradient_energy_than_sparse():
    def grad_energy(frames):
        gy = np.abs(np.diff(frames, axis=2)).mean()
        gx = np.abs(np.diff(frames, axis=3)).mean()
        return gy + gx

    wins = 0
    for seed in range(100):
        rich = gen_clip(seed, "content_rich", 3, 32, 64)
        sparse = gen_clip(seed, "content_sparse", 3, 32, 64)
        wins += grad_energy(rich.frames) > grad_energy(sparse.frames)
    assert wins == 100


def test_large_motion_pans_at_least_4px():
    # global pan shows up as a large mean absolute temporal difference;
    # verify via frame cross-correlation displacement on the first pair
    clip = gen_clip(100, "large_motion", 5, 32, 64)
    a, b = clip.frames[0].mean(0), clip.frames[1].mean(0)
    best = (0, 0)
    best_err = np.inf
    for dy in range(-8, 9):
        for dx in range(-8, 9):
            shifted = np.roll(np.roll(b, dy, axis=0), dx, axis=1)
            err = np.abs(shifted[8:-8, 8:-8] - a[8:-8, 8:-8]).mean()
            if err < best_err:
                best_err, best = err, (dy, dx)
    assert np.hypot(*best) >= 4.0


def test_gen_clip_rejects_degenerate(tmp_path):
    with pytest.raises(ValueError):
        gen_clip(0, "content_rich", 0, 32, 64)
    with pytest.raises(ValueError):
        gen_clip(0, "bogus", 5, 32, 64)
    with pytest.raises(ValueError, match=r"\[T, 3, H, W\]"):
        write_rdvc(tmp_path / "clip.rdvc", np.zeros((2, 4, 8, 8), np.float32))
    assert not (tmp_path / "clip.rdvc").exists()


def test_dataset_seeds_disjoint_and_exact_mix():
    spec = DatasetSpec(n_train=10, n_val=8, master_seed=5)
    train, val = build_dataset(spec)
    assert all(r.seed < VAL_SEED_OFFSET for r in train)
    assert all(r.seed >= VAL_SEED_OFFSET for r in val)
    assert not {r.seed for r in train} & {r.seed for r in val}
    cats = [r.category for r in train]
    assert cats.count("content_rich") == 5
    assert cats.count("content_sparse") == 3  # 2.5 floors to 2, largest remainder wins
    assert cats.count("large_motion") == 2


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 31 - 1))
def test_mix_counts_always_total(n, seed):
    spec = DatasetSpec(n_train=n, n_val=1, master_seed=seed)
    train, _ = build_dataset(spec)
    assert len(train) == n


def test_build_dataset_is_deterministic():
    spec = DatasetSpec(n_train=4, n_val=4, master_seed=9)
    assert build_dataset(spec) == build_dataset(spec)


def test_rdvc_roundtrip(tmp_path):
    frames = gen_clip(3, "content_sparse", 4, 32, 64).frames
    path = tmp_path / "clip.rdvc"
    write_rdvc(path, frames)
    back = read_rdvc(path)
    assert np.array_equal(back, frames)
