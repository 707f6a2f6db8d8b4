#!/usr/bin/env python3
"""Check that this source tree and another one train and score bit for bit alike.

    python3 scripts/conv_identity.py OTHER_SRC

OTHER_SRC is a directory that holds a `refvae` package, such as the `src/`
of another checkout.  The script runs a short sequence with each tree's own
code: one default-config pretrain step per curriculum stage, one fine-tune
step per stage for each injection, and one swap clip, on a small dataset.
One line per run says whether its loss rows and its parameters are
bit-equal across the trees, and one whether the swap reports are.

It also records the conv3d_causal call shapes of the sequence.  For each
distinct call it draws SEEDS sets of seeded inputs, kernel and output
gradient (`run_op`'s probe), and runs the op of both trees: one line per shape
says whether the output, the input gradient (gx) and the kernel gradient (gk)
are bit-equal, and for each that is not, its largest absolute difference
over the draws.

The other fused ops (linear, patch_embed, rope_apply on `[tokens, d]` rows
with per-token tables as the model calls it, rmsnorm on the last axis and on
axis 0, attention, groupnorm_silu, a conv3d_causal that takes over the
groupnorm_silu output it reads, as in a resblock, and add_bias over a conv)
run the same way, at each default decoder stage's shapes for a
default-config clip, SEEDS seeded float32 draws each: one line per op says
whether the output (values and strides) and each input's gradient are
bit-equal, with the largest absolute difference of each that is not, so a
difference in the reference stack names its op and its size.

Last, each tree's CLI runs a command sequence on a tiny config (TINY):
gen-data --dump, pretrain, attention and controlnet train, a three-checkpoint
eval, swap-compare for both injections, ablate on every axis, and six
decodes (the last one of a latent on twice the null map's grid with no
reference, so the tiled null map is checked).  It compares every output file
across the trees byte for byte, after writing each run root as `<root>` and
dropping each manifest's `wall_time_s`, and prints the files that differ or
exist in one tree only.

For each tree it also prints the tracemalloc peak, the bytes held when
backward starts and the tape-node count of one default-config 17-frame
pretrain step and one attention fine-tune step (forward, loss and backward;
the fine-tune on a cached latent with the encoder frozen), and the line count
of its `refvae/*.py`, the `src/` size that ROADMAP tracks.  These lines are
informational: the exit status does not depend on them.

It exits 1 if any conv shape, any fused op, any part of the run or any CLI
output differs.
BLAS runs on one thread, as in perfbench.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from refvae import ops, refcond, tensor, training, vae  # noqa: E402
from refvae.cli import ABLATIONS  # noqa: E402
from refvae.config import ExperimentConfig  # noqa: E402

CALLERS = (vae, refcond, training)  # every module that calls conv3d_causal
SEEDS = 3  # input draws per call shape
TINY = {  # the CLI sequence's config: 4 train and 3 val clips of 9x16x32, 10 steps
    "curriculum": {"stages": [{"frames": 5, "height": 16, "width": 32, "steps": 6},
                              {"frames": 9, "height": 16, "width": 32, "steps": 4}]},
    "optimizer": {"total_steps": 10, "warmup_steps": 2},
    "seeds": {"master": 5},
    "dataset": {"n_train": 4, "n_val": 3, "frames": 9, "height": 16, "width": 32},
    "refdec": {"n_blocks": 1},
}


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


def run_sequence(pkg: str) -> dict[str, object]:
    """The short pretrain, both fine-tunes and the swap, run with package `pkg`.

    Returns what is compared across trees: each run's loss rows and
    parameter arrays, and the swap reports.
    """
    config, metrics, synthdata, train = (importlib.import_module(f"{pkg}.{m}")
                                         for m in ("config", "metrics", "synthdata", "training"))
    cfg = config.ExperimentConfig()
    data = replace(cfg.dataset, n_train=2, n_val=1)
    train_refs, val_refs = synthdata.build_dataset(data)
    cur = train.CurriculumSpec(tuple(replace(s, steps=1) for s in cfg.curriculum.stages))
    opt = replace(cfg.optimizer, warmup_steps=0, total_steps=cur.total_steps)
    base, rows, _ = train.pretrain_baseline(train_refs, data, cfg.vae, cur, opt, seed=0)
    runs = {"pretrain": (base, rows)}
    for injection in ("controlnet", cfg.injection):
        runs[injection] = train.train_refdecoder(base, train_refs, data, cfg.vae, cfg.refdec, cur, opt,
                                                 cfg.dropout, cfg.ref_policy, 0, injection)[:2]
    swap = metrics.fixed_seed_swap_compare(val_refs, data, cfg.vae, cfg.refdec, base,
                                           runs[cfg.injection][0], 0)
    out: dict[str, object] = {}
    for name, (params, rows) in runs.items():
        out[f"{name} loss rows"] = repr(rows)  # repr round-trips every float exactly
        out[f"{name} parameters"] = {n: (t.data.dtype.str, t.data.shape, t.data.tobytes())
                                     for n, t in params.items()}
    out["swap reports"] = json.dumps([asdict(swap.baseline), asdict(swap.conditioned), swap.deltas,
                                      swap.seed_log], sort_keys=True)
    return out


def step_memory(pkg: str) -> list[tuple[str, float, float, int]]:
    """(step, tracemalloc peak and bytes held at backward start in MiB, tape nodes)
    of one 17-frame pretrain and one fine-tune step.

    Each step runs forward, loss and backward with package `pkg`; both
    figures count only what the step itself allocates.
    """
    config, refcond_mod, synthdata, tensor_mod, train, vae_mod = (
        importlib.import_module(f"{pkg}.{m}") for m in ("config", "refcond", "synthdata", "tensor", "training", "vae"))
    cfg, rng, Tensor = config.ExperimentConfig(), np.random.default_rng(0), tensor_mod.Tensor
    window = synthdata.gen_clip(0, "content_rich", 17, cfg.dataset.height, cfg.dataset.width).frames
    params = vae_mod.init_vae_params(cfg.vae, rng)
    z = vae_mod.encode_t(Tensor(window), cfg.vae, params).data  # the latent cache's entry
    finetune = {n: Tensor(p.data) if n.startswith("enc.") else p for n, p in params.items()}
    finetune.update(refcond_mod.init_ref_params(cfg.vae, cfg.refdec, rng, "attention", null_hw=z.shape[2:]))
    steps = {"pretrain": lambda: vae_mod.decode_baseline_t(vae_mod.encode_t(Tensor(window), cfg.vae, params),
                                                           cfg.vae, params),
             "attention fine-tune": lambda: refcond_mod.decode_conditioned_t(Tensor(z), window[0], cfg.vae,
                                                                             cfg.refdec, finetune)}
    out = []
    for name, forward in steps.items():
        for p in finetune.values():
            p.grad = None
        tracemalloc.start()
        try:
            loss = train.loss_recon(Tensor(window), forward())[0]
            nodes = len(tensor_mod.build_tape(loss))
            held = tracemalloc.get_traced_memory()[0]
            tensor_mod.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out.append((name, peak / 2 ** 20, held / 2 ** 20, nodes))
    return out


def cli_outputs(pkg: str, root: Path) -> dict[str, bytes]:
    """Every file the TINY command sequence writes under `root` with package `pkg`'s CLI.

    Keys are paths relative to `root`.  In each file `root` reads `<root>`,
    and each manifest is re-serialised without its `wall_time_s`.
    """
    main = importlib.import_module(f"{pkg}.cli").main
    configs = {}
    for injection in ("attention", "controlnet"):
        configs[injection] = root / f"{injection}.json"
        configs[injection].write_text(json.dumps({**TINY, "injection": injection}))

    def run(out: str, command: str, *args, injection: str = "attention") -> Path:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(configs[injection]), "--out", str(root / out),
                         *map(str, args)])
        if code:
            raise SystemExit(f"{pkg}: {command} {' '.join(map(str, args))} exited {code}")
        (outdir,) = (root / out).iterdir()
        return outdir

    run("gen-data", "gen-data", "--dump")
    base = run("pretrain", "pretrain") / "baseline.ckpt"
    ckpts = {injection: run(f"train-{injection}", "train", "--baseline", base, injection=injection)
             / "refdec.ckpt" for injection in configs}
    run("eval", "eval", "--ckpt", base, *(a for c in ckpts.values() for a in ("--ckpt", c)))
    swaps = {injection: run(f"swap-{injection}", "swap-compare", "--baseline", base, "--refdec", ckpt,
                            injection=injection) for injection, ckpt in ckpts.items()}
    for axis in ABLATIONS:  # this tree's axes, run by each tree's CLI
        run(f"ablate-{axis}", "ablate", "--axis", axis, "--baseline", base)
    np.save(root / "ref.npy", np.full((3, 16, 32), 0.5, np.float32))
    run("decode-baseline", "decode", "--ckpt", base, "--clip-seed", 77)
    run("decode-frame", "decode", "--ckpt", ckpts["attention"], "--clip-seed", 77, "--ref", "frame:2")
    run("decode-null", "decode", "--ckpt", ckpts["attention"], "--clip-seed", 3)
    run("decode-controlnet", "decode", "--ckpt", ckpts["controlnet"], "--clip-seed", 77,
        "--ref", "frame:4", injection="controlnet")
    latent = swaps["attention"] / "latents" / "val-0000.npy"
    run("decode-latent", "decode", "--ckpt", ckpts["attention"], "--latent", latent,
        "--ref", root / "ref.npy")
    np.save(root / "latent-2x.npy", np.tile(np.load(latent), (1, 1, 2, 2)))  # the null map is 2x4
    run("decode-null-2x", "decode", "--ckpt", ckpts["attention"], "--latent", root / "latent-2x.npy",
        "--ref", "none")

    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        raw = path.read_bytes().replace(str(root).encode(), b"<root>")
        if path.name == "manifest.json":
            manifest = json.loads(raw)
            manifest.pop("wall_time_s")
            raw = json.dumps(manifest, sort_keys=True).encode()
        files[str(path.relative_to(root))] = raw
    return files


def src_lines(src: Path) -> int:
    """Newline count of src/refvae/*.py, as `wc -l` gives it."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "refvae").glob("*.py"))


def record_calls() -> tuple[list[tuple], dict[str, object]]:
    """(x shape, kernel shape, stride, x dtype, kernel dtype) of each distinct call, and the run's outputs."""
    seen: dict[tuple, None] = {}
    real = ops.conv3d_causal

    def spy(x, kernel, stride=(1, 1, 1)):
        seen[(x.shape, kernel.shape, tuple(stride), x.dtype.str, kernel.dtype.str)] = None
        return real(x, kernel, stride)

    for mod in CALLERS:
        mod.conv3d_causal = spy
    try:
        outputs = run_sequence("refvae")
    finally:
        for mod in CALLERS:
            mod.conv3d_causal = real
    return list(seen), outputs


def fused_cases(cfg, s: int, ch: int, t: int, h: int, w: int) -> dict[str, tuple[list, object]]:
    """Each fused op at decoder stage s on [ch, t, h, w] features.

    Maps the op's name to its named input shapes and its call on a tree's
    `ops` module with those inputs as tensors.
    """
    d, heads, sig = cfg.refdec.hidden, cfg.refdec.heads, cfg.refdec.token_strides[s]
    ff, dh, k = d * cfg.refdec.ff_mult, d // heads, cfg.vae.stage_kernels[s]
    tokens = (1 + t) * (h // sig) * (w // sig)
    positions = np.indices((1 + t, h // sig, w // sig)).reshape(3, -1).T  # one row per token
    return {
        "linear": ([("x", (tokens, d)), ("w", (d, ff)), ("b", (ff,))],
                   lambda o, x, wt, b: o.linear(x, wt, b)),
        "patch_embed": ([("x", (ch, t, h, w)), ("w", (d, ch, 1, sig, sig)), ("b", (d, 1, 1, 1))],
                        lambda o, x, wt, b: o.patch_embed(x, wt, b)),
        "rope_apply": ([("x", (tokens, d))],
                       lambda o, x: o.rope_apply(x, o.rope_tables(positions, dh, x.dtype))),
        "rmsnorm axis -1": ([("x", (tokens, d)), ("gain", (d,))], lambda o, x, g: o.rmsnorm(x, g)),
        "rmsnorm axis 0": ([("x", (ch, 1, h, w)), ("gain", (ch, 1, 1, 1))],
                           lambda o, x, g: o.rmsnorm(x, g, axis=0)),
        "attention": ([("q", (tokens, d)), ("k", (tokens, d)), ("v", (tokens, d))],
                      lambda o, q, kt, v: o.attention(q, kt, v, heads)),
        "groupnorm_silu": ([("x", (ch, t, h, w)), ("gain", (ch, 1, 1, 1)), ("bias", (ch, 1, 1, 1))],
                           lambda o, x, g, b: o.groupnorm_silu(x, cfg.vae.norm_groups, g, b)),
        "groupnorm_silu + conv3d_causal": (
            [("x", (ch, t, h, w)), ("gain", (ch, 1, 1, 1)), ("bias", (ch, 1, 1, 1)), ("kernel", (ch, ch, k, k, k))],
            lambda o, x, g, b, kn: o.conv3d_causal(o.groupnorm_silu(x, cfg.vae.norm_groups, g, b), kn)),
        "add_bias": ([("x", (ch, t, h, w)), ("kernel", (ch, ch, k, k, k)), ("bias", (ch, 1, 1, 1)),
                      ("residual", (ch, t, h, w))],
                     lambda o, x, kn, b, r: o.add_bias(o.conv3d_causal(x, kn), b, r)),
    }


def stage_shapes(cfg) -> list[tuple[int, int, int, int]]:
    """[C, T, H, W] of each decoder stage's features for one default-config clip."""
    _, t, h, w = cfg.vae.latent_shape(cfg.dataset.frames, cfg.dataset.height, cfg.dataset.width)
    shapes = []
    for ch, (ft, fh, fw) in zip(cfg.vae.stage_channels, cfg.vae.stage_factors()):
        shapes.append((ch, t, h, w))
        t, h, w = 1 + (t - 1) * ft, h * fh, w * fw
    return shapes


def run_op(call, ops_mod, tensor_mod, arrays, seed: int) -> list[np.ndarray]:
    """Output and each input's gradient of one op call, backward from sum(output * probe).

    The probe, a seeded draw of the output's shape from its own stream, is
    the output gradient the op's backward receives.
    """
    inputs = [tensor_mod.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = call(ops_mod, *inputs)
    probe = np.random.default_rng([seed, 1]).standard_normal(out.shape).astype(out.dtype)
    tensor_mod.backward((out * tensor_mod.Tensor(probe)).sum())
    return [out.data] + [t.grad for t in inputs]


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| over two arrays of one shape, in float64; inf if the shapes differ."""
    return float(np.max(np.abs(a.astype(np.float64) - b), initial=0.0)) if a.shape == b.shape else np.inf


def flags(labels: list[str], same: np.ndarray, gap: np.ndarray) -> str:
    """`label=equal`, or `label=DIFFERS (max abs ...)`, for each compared array."""
    return " ".join(f"{k}=equal" if s else f"{k}=DIFFERS (max abs {g:.3g})" for k, s, g in zip(labels, same, gap))


def check_fused(other_ops, other_tensor) -> int:
    """Print one line per fused op across the default stages and SEEDS draws; return how many differ."""
    cfg = ExperimentConfig()
    cases = [fused_cases(cfg, s, *shape) for s, shape in enumerate(stage_shapes(cfg))]
    bad = 0
    print(f"{len(cases[0])} fused ops at {len(cases)} decoder stages, {SEEDS} seeds each")
    for name in cases[0]:
        labels = ["out"] + [f"g{arg}" for arg, _ in cases[0][name][0]]
        same, gap = np.ones(len(labels), dtype=bool), np.zeros(len(labels))
        for stage in cases:
            named_shapes, call = stage[name]
            for seed in range(SEEDS):
                rng = np.random.default_rng(seed)
                arrays = [rng.standard_normal(shape).astype(np.float32) for _, shape in named_shapes]
                a = run_op(call, ops, tensor, arrays, seed)
                b = run_op(call, other_ops, other_tensor, arrays, seed)
                same &= [np.array_equal(p, q) and p.dtype == q.dtype for p, q in zip(a, b)]
                same[0] &= a[0].strides == b[0].strides
                gap = np.maximum(gap, [max_abs_diff(p, q) for p, q in zip(a, b)])
        bad += not same.all()
        print(f"{name}: {flags(labels, same, gap)}")
    print(f"{len(cases[0]) - bad}/{len(cases[0])} fused ops bit-equal")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other_src", type=Path, help="directory holding the other refvae package")
    args = parser.parse_args(argv)
    other_ops, other_tensor = load_other(args.other_src.resolve())
    calls, outputs = record_calls()
    other_outputs = run_sequence("refvae_other")
    run_bad = 0
    for part, value in outputs.items():
        same = other_outputs.get(part) == value
        run_bad += not same
        print(f"{part}: {'equal' if same else 'DIFFERS'}")
    print(f"whole run {'bit-equal' if not run_bad else 'DIFFERS'}")
    bad = 0
    print(f"{len(calls)} conv3d_causal call shapes, {SEEDS} seeds each")
    for xs, ks, stride, xd, kd in calls:
        same, gap = np.ones(3, dtype=bool), np.zeros(3)

        def conv(o, x, kernel, stride=stride):
            return o.conv3d_causal(x, kernel, stride)

        for seed in range(SEEDS):
            rng = np.random.default_rng(seed)
            arrays = [rng.standard_normal(xs).astype(xd), (rng.standard_normal(ks) * 0.1).astype(kd)]
            a = run_op(conv, ops, tensor, arrays, seed)
            b = run_op(conv, other_ops, other_tensor, arrays, seed)
            same &= [np.array_equal(p, q) and p.dtype == q.dtype for p, q in zip(a, b)]
            gap = np.maximum(gap, [max_abs_diff(p, q) for p, q in zip(a, b)])
        bad += not same.all()
        print(f"x{list(xs)} k{list(ks)} stride{list(stride)} {np.dtype(xd).name}: "
              f"{flags(['out', 'gx', 'gk'], same, gap)}")
    print(f"{len(calls) - bad}/{len(calls)} shapes bit-equal")
    op_bad = check_fused(other_ops, other_tensor)
    for tree, pkg in (("this tree", "refvae"), ("other tree", "refvae_other")):
        print(f"memory, {tree}: " + "; ".join(f"{name} step peak {peak:.1f} MiB, {held:.1f} MiB held at "
                                             f"backward start, {nodes} tape nodes"
                                             for name, peak, held, nodes in step_memory(pkg)))
    print(f"src/refvae/*.py lines: this tree {src_lines(SRC)}, other tree {src_lines(args.other_src)}")
    with tempfile.TemporaryDirectory() as mine, tempfile.TemporaryDirectory() as theirs:
        files, other_files = cli_outputs("refvae", Path(mine)), cli_outputs("refvae_other", Path(theirs))
    names = files.keys() | other_files.keys()
    cli_bad = sorted(n for n in names if files.get(n) != other_files.get(n))
    for name in cli_bad:
        both = name in files and name in other_files
        print(f"CLI output {name}: {'DIFFERS' if both else 'in one tree only'}")
    print(f"{len(names) - len(cli_bad)}/{len(names)} CLI output files "
          f"byte-equal apart from run paths and wall_time_s")
    return 1 if bad or op_bad or run_bad or cli_bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
