"""Experiment runner.

Every command reads one JSON config, writes into
`<output_dir>/<command>-<config-hash>/`, and drops a run manifest (config
copy, seeds, wall time, parallelism degree, output list) next to its
artifacts.  Exit codes: 0 success, 2 invalid config or input, 3 missing,
malformed or wrong-kind checkpoint, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import multiprocessing
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, load_checkpoint, params_from_arrays, save_checkpoint
from .config import INJECTIONS, ConfigError, ExperimentConfig, Seeds
from .metrics import evaluate_params, fixed_seed_swap_compare, psnr
from .refcond import RefCondConfig, decode_conditioned_t, init_ref_params
from .synthdata import CATEGORIES, build_dataset, gen_clip, realize, save_manifest, write_rdvc
from .tensor import NumericsError, Tensor
from .training import CurriculumSpec, RefPolicy, pretrain_baseline, train_refdecoder
from .vae import VaeConfig, decode_baseline_t, encode_t, init_vae_params

EXIT_CODES = {ConfigError: 2, CheckpointError: 3, FileNotFoundError: 3, NumericsError: 4}

CKPT_KINDS = {"baseline": None, **{kind: inj for inj, kind in INJECTIONS.items()}}  # kind -> injection


def _parallelism_degree() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):  # read as OpenBLAS does: C atoi, <= 0 unset
        lead = re.match(r"\s*[+-]?\d+", os.environ.get(var, ""), re.ASCII)
        if lead and int(lead.group()) > 0:
            return int(lead.group())
    return os.cpu_count() or 1


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def _write_csv(path: Path, rows: list[dict]) -> None:
    """`rows` as CSV; the first row's keys, in order, are the header."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


class Runner:
    """One command's clock, run directory and manifest; `main` finishes or discards the run."""

    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.made: list[Path] = []  # the directories `open` created, innermost first
        self.extra: dict = {}

    def open(self, cfg: ExperimentConfig, command: str | None = None) -> None:
        """Make `<output root>/<command>-<config hash>/`, once the command's inputs check out."""
        self.cfg, self.command = cfg, command or self.args.command
        root = Path(self.args.out) if self.args.out else Path(cfg.output_dir)
        self.outdir = root / f"{self.command}-{cfg.hash12}"
        self.made = [d for d in (self.outdir, *self.outdir.parents) if not d.exists()]
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # the output root names a file
            raise ConfigError(f"cannot make run directory {self.outdir}: {exc.strerror or exc}") from None

    def discard(self) -> None:
        """Remove each directory `open` made that is still empty: a failed run keeps what it wrote."""
        for d in self.made:
            with contextlib.suppress(OSError):
                d.rmdir()

    def finish(self) -> Path:
        outputs = sorted(str(p.relative_to(self.outdir))
                         for p in self.outdir.rglob("*")
                         if p.is_file() and p.name != "manifest.json")
        manifest = {
            "command": self.command,
            "config": self.cfg.to_dict(),
            "config_hash": self.cfg.config_hash(),
            "code_version": __version__,
            "parallelism_degree": _parallelism_degree(),
            "seeds": asdict(self.cfg.seeds),
            "outputs": outputs,
            "extra": self.extra,
            "wall_time_s": round(time.perf_counter() - self.started, 3),
        }
        _write_json(self.outdir / "manifest.json", manifest)
        return self.outdir


def _load_model(path: str | Path | None, kinds: tuple[str, ...] = tuple(CKPT_KINDS),
                vae: VaeConfig | None = None) -> tuple[dict[str, Tensor], dict, VaeConfig, RefCondConfig | None]:
    """Checkpoint of one of `kinds` -> parameters, metadata, VaeConfig, RefCondConfig or None.

    The parameters are exactly the tensors of the model the metadata records;
    other tensors (the optimiser moments older checkpoints carry) are dropped.
    No path, missing or malformed `kind`, `vae` or `refdec` metadata, a kind
    not in `kinds`, a backbone other than `vae` (when given), or a missing,
    misshapen or non-finite model tensor is a CheckpointError.
    """
    if not path:
        raise CheckpointError(f"no {' or '.join(kinds)} checkpoint given")
    p = Path(path)
    arrays, meta = load_checkpoint(p)
    try:
        if meta["kind"] not in CKPT_KINDS:
            raise ValueError(f"unknown kind {meta['kind']!r}")
        model = ExperimentConfig.from_dict({"vae": meta["vae"], "refdec": meta["refdec"]})
        model.vae.validate()
        model.refdec.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{p}: malformed checkpoint metadata ({exc!r})") from None
    if meta["kind"] not in kinds:
        raise CheckpointError(f"{p} is a {meta['kind']} checkpoint, not {' or '.join(kinds)}")
    if vae is not None and model.vae != vae:
        raise CheckpointError(f"{p} records backbone {model.vae}, not {vae}")
    injection = CKPT_KINDS[meta["kind"]]
    rng = np.random.default_rng(0)  # only the names and shapes of these tensors are used
    model_params = init_vae_params(model.vae, rng)
    if injection:
        model_params.update(init_ref_params(model.vae, model.refdec, rng, injection))
    for name, tensor in model_params.items():
        want, got = tensor.shape, arrays.get(name)
        dims = 2 if name == "ref.null" else len(want)  # the null map's grid is not recorded
        if got is None or got.ndim != len(want) or got.shape[:dims] != want[:dims] or not got.size:
            shape = want if dims == len(want) else f"({want[0]}, {want[1]}, H, W)"
            raise CheckpointError(f"{p}: tensor {name} is missing or not of shape {shape}")
        if not np.isfinite(got).all():
            raise CheckpointError(f"{p}: tensor {name} holds NaN or Inf")
    params = params_from_arrays({n: a for n, a in arrays.items() if n in model_params})
    return params, meta, model.vae, model.refdec if injection else None


def _check_encodes(cfg: ExperimentConfig, vae_cfg: VaeConfig) -> None:
    try:
        vae_cfg.latent_shape(cfg.dataset.frames, cfg.dataset.height, cfg.dataset.width)
    except ValueError as exc:
        raise ConfigError(f"the checkpoint's backbone cannot encode the config's clips: {exc}") from None


def _save_trained(outdir: Path, cfg: ExperimentConfig, kind: str, params: dict[str, Tensor],
                  rows: list[dict], **meta_extra) -> None:
    """Checkpoint (parameters and metadata) plus loss.csv of one training run."""
    meta = {"kind": kind, "config_hash": cfg.config_hash(), "code_version": __version__,
            "vae": asdict(cfg.vae), "refdec": asdict(cfg.refdec), "opt_step": len(rows), **meta_extra}
    save_checkpoint(outdir / ("baseline.ckpt" if kind == "baseline" else "refdec.ckpt"), params, meta)
    _write_csv(outdir / "loss.csv", rows)


def _finetune_and_save(cfg: ExperimentConfig, baseline: dict[str, Tensor], train_refs,
                      outdir: Path, **meta_extra) -> tuple[dict[str, Tensor], list[dict]]:
    """Fine-tune on `baseline` as `cfg` says and save the result into `outdir`."""
    params, rows, _ = train_refdecoder(
        baseline, train_refs, cfg.dataset, cfg.vae, cfg.refdec, cfg.curriculum, cfg.optimizer,
        cfg.dropout, cfg.ref_policy, cfg.seeds.train_seed, cfg.injection, cfg.lambda_perc)
    _save_trained(outdir, cfg, INJECTIONS[cfg.injection], params, rows, **meta_extra)
    return params, rows


# -- commands ----------------------------------------------------------------


def cmd_gen_data(cfg: ExperimentConfig, args, run: Runner) -> None:
    run.open(cfg)
    train, val = build_dataset(cfg.dataset)
    save_manifest(run.outdir / "dataset_manifest.json", cfg.dataset, train, val)
    if args.dump:
        clips_dir = run.outdir / "clips"
        clips_dir.mkdir(exist_ok=True)
        for ref in train + val:
            write_rdvc(clips_dir / f"{ref.clip_id}.rdvc", realize(ref, cfg.dataset).frames)
    run.extra["n_train"] = len(train)
    run.extra["n_val"] = len(val)


def cmd_pretrain(cfg: ExperimentConfig, args, run: Runner) -> None:
    run.open(cfg)
    train, _ = build_dataset(cfg.dataset)
    params, rows, _ = pretrain_baseline(train, cfg.dataset, cfg.vae, cfg.curriculum,
                                        cfg.optimizer, cfg.seeds.train_seed, cfg.lambda_perc)
    _save_trained(run.outdir, cfg, "baseline", params, rows)
    run.extra["final_loss"] = rows[-1]["loss_total"]


def cmd_train(cfg: ExperimentConfig, args, run: Runner) -> None:
    baseline_path = args.baseline or cfg.baseline_checkpoint
    baseline, base_meta, _, _ = _load_model(baseline_path, ("baseline",), cfg.vae)
    run.open(cfg)
    train, _ = build_dataset(cfg.dataset)
    _, rows = _finetune_and_save(cfg, baseline, train, run.outdir,
                                baseline_config_hash=base_meta.get("config_hash", ""))
    run.extra["final_loss"] = rows[-1]["loss_total"]
    run.extra["baseline_checkpoint"] = str(baseline_path)


def cmd_eval(cfg: ExperimentConfig, args, run: Runner) -> None:
    if not args.ckpt:
        raise CheckpointError("eval needs at least one --ckpt")
    models = [_load_model(ckpt) for ckpt in args.ckpt]  # every checkpoint loads before any output
    for _, _, vae_cfg, _ in models:
        _check_encodes(cfg, vae_cfg)
    run.open(cfg)
    _, val = build_dataset(cfg.dataset)
    reports = evaluate_params(val, cfg.dataset, [(params, vae_cfg, ref_cfg, cfg.eval_ref_policy)
                                                 for params, _, vae_cfg, ref_cfg in models],
                              cfg.seeds.eval_seed)
    for i, (ckpt, (_, meta, _, _), report) in enumerate(zip(args.ckpt, models, reports)):
        report.metadata.update({"checkpoint": str(ckpt), "checkpoint_kind": meta["kind"],
                                "config_hash": cfg.config_hash(), "code_version": __version__,
                                "parallelism_degree": _parallelism_degree()})
        stem = f"metrics-{i}-{meta['kind']}"
        (run.outdir / f"{stem}.json").write_text(report.to_json())
        _write_csv(run.outdir / f"{stem}.csv", report.csv_rows())
        run.extra[stem] = report.aggregate["psnr"]["overall"]


def cmd_swap_compare(cfg: ExperimentConfig, args, run: Runner) -> None:
    baseline_path = args.baseline or cfg.baseline_checkpoint
    params_base, _, vae_cfg, _ = _load_model(baseline_path, ("baseline",))
    params_cond, _, _, ref_cfg = _load_model(args.refdec, ("refdec", "controlnet"), vae_cfg)
    _check_encodes(cfg, vae_cfg)
    run.open(cfg)  # the swap checks that the two checkpoints share an encoder
    _, val = build_dataset(cfg.dataset)
    result = fixed_seed_swap_compare(
        val, cfg.dataset, vae_cfg, ref_cfg, params_base, params_cond,
        cfg.seeds.eval_seed, run.outdir, cfg.eval_ref_policy)
    (run.outdir / "baseline_metrics.json").write_text(result.baseline.to_json())
    (run.outdir / "refdec_metrics.json").write_text(result.conditioned.to_json())
    _write_json(run.outdir / "seedlog.json", result.seed_log)
    _write_csv(run.outdir / "deltas.csv", result.deltas)
    run.extra["mean_delta_psnr"] = result.mean_delta_psnr
    run.extra["fraction_improved"] = result.fraction_improved
    run.extra["checkpoints"] = {"baseline": str(baseline_path), "refdec": str(args.refdec)}


# -- ablation grids -------------------------------------------------------------

ABLATIONS = {  # axis -> the grid points of a config: (label, point config) pairs, in run order
    "dropout": lambda cfg: [(f"rmax-{r}", replace(cfg, dropout=replace(cfg.dropout, r_max=r)))
                            for r in (0.0, 0.3, 0.7)],
    "blocks": lambda cfg: [(f"blocks-{n}", replace(cfg, refdec=replace(cfg.refdec, n_blocks=n)))
                           for n in (3, 5, 7, 10)],
    "ref_policy": lambda cfg: [(f"train-{policy.value}", replace(cfg, ref_policy=policy))
                               for policy in RefPolicy],
    "curriculum": lambda cfg: [("one-stage", replace(cfg, curriculum=CurriculumSpec(
        (replace(cfg.curriculum.stages[0], steps=cfg.curriculum.total_steps),)))), ("two-stage", cfg)],
    "injection": lambda cfg: [(name, replace(cfg, injection=name)) for name in INJECTIONS],
}


def _run_grid_point(payload: tuple) -> list[dict]:
    label, cfg, baseline, point_dir, axis = payload
    point_dir.mkdir(parents=True, exist_ok=True)
    train, val = build_dataset(cfg.dataset)
    params, _ = _finetune_and_save(cfg, baseline, train, point_dir)

    eval_policies = ([RefPolicy.first_frame, RefPolicy.random_frame]
                     if axis == "ref_policy" else [cfg.eval_ref_policy])
    # one pass scores every policy: each clip is encoded once
    reports = evaluate_params(val, cfg.dataset,
                              [(params, cfg.vae, cfg.refdec, policy) for policy in eval_policies],
                              cfg.seeds.eval_seed)
    table_rows = []
    for policy, report in zip(eval_policies, reports):
        stem = f"metrics-eval-{policy.value}"
        (point_dir / f"{stem}.json").write_text(report.to_json())
        agg = report.aggregate
        table_rows.append({
            "axis": axis, "setting": label, "eval_policy": policy.value,
            "psnr_overall": agg["psnr"]["overall"],
            "psnr_reference": agg["psnr"]["reference_frame"],
            "ssim_overall": agg["ssim"]["overall"],
            "ssim_reference": agg["ssim"]["reference_frame"],
        })
    return table_rows


def cmd_ablate(cfg: ExperimentConfig, args, run: Runner) -> None:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    baseline = _load_model(args.baseline or cfg.baseline_checkpoint, ("baseline",), cfg.vae)[0]
    run.open(cfg, f"ablate-{args.axis}")
    points = ABLATIONS[args.axis](cfg)
    payloads = [(label, point_cfg, baseline, run.outdir / f"point-{label}", args.axis)
                for label, point_cfg in points]
    if args.workers > 1:
        from unittest import mock  # ~60 ms to import: only parallel runs pay it

        # BLAS sizes its thread pool when numpy loads: spawned workers read one
        # thread from the environment they start in (forked ones would inherit
        # this process's pool and oversubscribe the cores)
        one_thread = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        with mock.patch.dict(os.environ, one_thread), ProcessPoolExecutor(
                max_workers=args.workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_run_grid_point, payloads))
    else:
        results = [_run_grid_point(p) for p in payloads]
    table = [row for rows in results for row in rows]
    _write_csv(run.outdir / "table.csv", table)
    _write_json(run.outdir / "table.json", {"axis": args.axis, "rows": table})
    run.extra["points"] = [label for label, _ in points]
    run.extra["workers"] = args.workers


def _load_npy(path: str, what: str) -> np.ndarray:
    """A float32 array from a .npy file; every load failure is a ConfigError."""
    try:
        arr = np.load(path)
        if not isinstance(arr, np.ndarray):
            raise ValueError("not a single .npy array")
        with np.errstate(over="ignore"):  # values past float32's range become Inf, rejected here
            if not np.isfinite(arr := arr.astype(np.float32)).all():
                raise ValueError("holds NaN or Inf as float32")
        return arr
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc


def cmd_decode(cfg: ExperimentConfig, args, run: Runner) -> None:
    params, _, vae_cfg, ref_cfg = _load_model(args.ckpt)

    ground_truth = None
    ref_index = None
    if args.latent is not None:
        if args.category is not None:
            raise ConfigError("--category needs --clip-seed")
        z = Tensor(_load_npy(args.latent, "--latent"))
    else:
        if args.clip_seed < 0:
            raise ConfigError(f"--clip-seed must be a non-negative integer, got {args.clip_seed}")
        ground_truth = gen_clip(args.clip_seed, args.category or "content_rich", cfg.dataset.frames,
                                cfg.dataset.height, cfg.dataset.width).frames

    ref_image = None
    if args.ref and args.ref != "none":
        if args.ref.startswith("frame:"):
            if ground_truth is None:
                raise ConfigError("frame references need --clip-seed")
            k = args.ref.split(":", 1)[1]
            if not (k.isdecimal() and int(k) < len(ground_truth)):
                raise ConfigError(f"--ref frame:K needs an integer K in [0, {len(ground_truth)})")
            ref_index = int(k)
            ref_image = ground_truth[ref_index]
        else:
            ref_image = _load_npy(args.ref, "--ref")
    if ref_cfg is None and ref_image is not None:
        raise ConfigError("baseline checkpoints cannot take a reference image")
    try:  # the encoder checks the clip, the decoders the latent and the reference, against the checkpoint
        if ground_truth is not None:
            z = encode_t(Tensor(ground_truth), vae_cfg, params)
        if ref_cfg is None:
            decoded = decode_baseline_t(z, vae_cfg, params).data
        else:
            decoded = decode_conditioned_t(z, ref_image, vae_cfg, ref_cfg, params).data
    except ValueError as exc:
        raise ConfigError(f"cannot decode: {exc}") from exc

    run.open(cfg)
    write_rdvc(run.outdir / "frames.rdvc", decoded)

    if ground_truth is not None:
        frames_psnr, mean_psnr = psnr(ground_truth, decoded)
        sidecar = {"per_frame_psnr": frames_psnr, "mean_psnr": mean_psnr,
                   "reference_index": ref_index}
        _write_json(run.outdir / "psnr.json", sidecar)
        run.extra["mean_psnr"] = mean_psnr


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="refvae",
                                     description="reference-conditioned video autoencoder experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, command, seeded=True):
        p.set_defaults(command_fn=command, seed=None)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output root (overrides config)")
        if seeded:  # the commands that read the config's seeds
            p.add_argument("--seed", type=int, help="override master seed")

    p = sub.add_parser("gen-data", help="materialise the dataset manifest")
    common(p, cmd_gen_data, seeded=False)
    p.add_argument("--dump", action="store_true", help="also write raw clip dumps")

    p = sub.add_parser("pretrain", help="train the baseline autoencoder")
    common(p, cmd_pretrain)

    p = sub.add_parser("train", help="fine-tune the reference-conditioned decoder")
    common(p, cmd_train)
    p.add_argument("--baseline", default=None, help="baseline checkpoint path")

    p = sub.add_parser("eval", help="reconstruction metrics for checkpoints")
    common(p, cmd_eval)
    p.add_argument("--ckpt", action="append", default=[], help="checkpoint (repeatable)")

    p = sub.add_parser("swap-compare", help="paired fixed-seed decoder comparison")
    common(p, cmd_swap_compare)
    p.add_argument("--baseline", default=None, help="baseline checkpoint path")
    p.add_argument("--refdec", required=True)

    p = sub.add_parser("ablate", help="run an ablation grid")
    common(p, cmd_ablate)
    p.add_argument("--axis", required=True, choices=ABLATIONS)
    p.add_argument("--baseline", default=None, help="baseline checkpoint path")
    p.add_argument("--workers", type=int, default=1, help="grid points fine-tuned in parallel (recorded)")

    p = sub.add_parser("decode", help="decode a latent or synthetic clip to frames")
    common(p, cmd_decode, seeded=False)
    p.add_argument("--ckpt", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--latent", help="latent .npy file")
    source.add_argument("--clip-seed", type=int, dest="clip_seed")
    p.add_argument("--category", choices=CATEGORIES, help="--clip-seed's category (default content_rich)")
    p.add_argument("--ref", default="none", help="'none', 'frame:K', or an image .npy")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = Runner(args)
    try:
        cfg = ExperimentConfig.load(args.config)
        if args.seed is not None:
            cfg.seeds = Seeds(master=args.seed)
            cfg.validate()
        args.command_fn(cfg, args, run)
        print(run.finish())
        return 0
    except BaseException as exc:  # KeyboardInterrupt too: no run leaves an empty directory behind
        run.discard()
        code = next((code for kind, code in EXIT_CODES.items() if isinstance(exc, kind)), None)
        if code is None:
            raise
        print(f"error code={code} command={args.command}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
