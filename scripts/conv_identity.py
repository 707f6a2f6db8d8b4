#!/usr/bin/env python3
"""Check that conv3d_causal here and in another source tree agree bit for bit.

    python3 scripts/conv_identity.py OTHER_SRC

OTHER_SRC is a directory that holds a `refvae` package, such as the `src/`
of another checkout.  The script records the conv3d_causal call shapes of
one default-config pretrain step per curriculum stage, one fine-tune step
per stage (each injection) and one swap clip, on a small dataset.  For each
distinct call it draws SEEDS sets of seeded inputs, kernel and output
gradient, and runs the op of both trees: one line per shape says whether the
output, the input gradient (gx) and the kernel gradient (gk) are bit-equal.
It exits 1 if any differs.  BLAS runs on one thread, as in perfbench.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from refvae import ops, refcond, tensor, training, vae  # noqa: E402
from refvae.config import ExperimentConfig  # noqa: E402
from refvae.metrics import fixed_seed_swap_compare  # noqa: E402
from refvae.synthdata import build_dataset  # noqa: E402
from refvae.training import CurriculumSpec, pretrain_baseline, train_refdecoder  # noqa: E402

CALLERS = (vae, refcond, training)  # every module that calls conv3d_causal
SEEDS = 3  # input draws per call shape


def load_other(src: Path):
    """Import OTHER_SRC/refvae as a second package, `refvae_other`."""
    pkg = src / "refvae"
    spec = importlib.util.spec_from_file_location("refvae_other", pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    if spec is None or not (pkg / "ops.py").is_file():
        raise SystemExit(f"no refvae package with ops.py under {src}")
    sys.modules["refvae_other"] = mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return importlib.import_module("refvae_other.ops"), importlib.import_module("refvae_other.tensor")


def record_calls() -> list[tuple]:
    """(x shape, kernel shape, stride, x dtype, kernel dtype) of each distinct call."""
    seen: dict[tuple, None] = {}
    real = ops.conv3d_causal

    def spy(x, kernel, stride=(1, 1, 1)):
        seen[(x.shape, kernel.shape, tuple(stride), x.dtype.str, kernel.dtype.str)] = None
        return real(x, kernel, stride)

    cfg = ExperimentConfig()
    data = replace(cfg.dataset, n_train=2, n_val=1)
    train_refs, val_refs = build_dataset(data)
    cur = CurriculumSpec(tuple(replace(s, steps=1) for s in cfg.curriculum.stages))
    opt = replace(cfg.optimizer, warmup_steps=0, total_steps=cur.total_steps)
    for mod in CALLERS:
        mod.conv3d_causal = spy
    try:
        base, _, _ = pretrain_baseline(train_refs, data, cfg.vae, cur, opt, seed=0)
        for injection in ("controlnet", cfg.injection):
            cond, _, _ = train_refdecoder(base, train_refs, data, cfg.vae, cfg.refdec, cur, opt,
                                          cfg.dropout, cfg.ref_policy, 0, injection)
        fixed_seed_swap_compare(val_refs, data, cfg.vae, cfg.refdec, base, cond, 0)
    finally:
        for mod in CALLERS:
            mod.conv3d_causal = real
    return list(seen)


def run_conv(conv, tensor_mod, x, w, g, stride):
    """Output, input gradient and kernel gradient of one call, g the output gradient."""
    xt = tensor_mod.Tensor(x.copy(), requires_grad=True)
    wt = tensor_mod.Tensor(w.copy(), requires_grad=True)
    out = conv(xt, wt, stride)
    out._backward(g)
    return out.data, xt.grad, wt.grad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other_src", type=Path, help="directory holding the other refvae package")
    args = parser.parse_args(argv)
    other_ops, other_tensor = load_other(args.other_src.resolve())
    calls = record_calls()
    bad = 0
    print(f"{len(calls)} conv3d_causal call shapes, {SEEDS} seeds each")
    for xs, ks, stride, xd, kd in calls:
        same = np.ones(3, dtype=bool)
        for seed in range(SEEDS):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(xs).astype(xd)
            w = (rng.standard_normal(ks) * 0.1).astype(kd)
            out_shape = (ks[0],) + tuple((n - 1) // s + 1 for n, s in zip(xs[1:], stride))
            g = rng.standard_normal(out_shape).astype(np.result_type(xd, kd))
            a = run_conv(ops.conv3d_causal, tensor, x, w, g, stride)
            b = run_conv(other_ops.conv3d_causal, other_tensor, x, w, g, stride)
            same &= [np.array_equal(p, q) and p.dtype == q.dtype for p, q in zip(a, b)]
        bad += not same.all()
        flags = " ".join(f"{k}={'equal' if v else 'DIFFERS'}" for k, v in zip(("out", "gx", "gk"), same))
        print(f"x{list(xs)} k{list(ks)} stride{list(stride)} {np.dtype(xd).name}: {flags}")
    print(f"{len(calls) - bad}/{len(calls)} shapes bit-equal")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
