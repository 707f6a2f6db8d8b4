#!/usr/bin/env python3
"""End-to-end study driver: dataset, baseline, fine-tune, swap, ablations.

Runs the whole experiment grid through the CLI so every artifact lands in
hash-named run directories with manifests. Use --fast for a smoke-scale
pass (minutes), default scale matches the acceptance budgets.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from refvae.cli import main as cli  # noqa: E402
from refvae.config import ExperimentConfig, Seeds  # noqa: E402
from refvae.training import CurriculumSpec, OptimizerSpec, StageSpec  # noqa: E402


def study_config(out: Path, fast: bool) -> ExperimentConfig:
    if fast:
        curriculum = CurriculumSpec((StageSpec(5, 32, 64, 40), StageSpec(17, 32, 64, 10)))
        optimizer = OptimizerSpec(base_lr=1e-3, warmup_steps=10, total_steps=50)
    else:
        curriculum = CurriculumSpec((StageSpec(5, 32, 64, 700), StageSpec(17, 32, 64, 200)))
        optimizer = OptimizerSpec(base_lr=1e-3, warmup_steps=100, total_steps=900)
    cfg = ExperimentConfig(curriculum=curriculum, optimizer=optimizer,
                           seeds=Seeds(master=1234), output_dir=str(out))
    if fast:
        cfg.dataset.n_train = 6
        cfg.dataset.n_val = 8
    return cfg


def run(argv: list[str]) -> None:
    print("+ refvae " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/study", help="output root")
    parser.add_argument("--fast", action="store_true", help="smoke-scale budgets")
    parser.add_argument("--axes", nargs="*", default=["dropout", "curriculum", "ref_policy", "injection"],
                        help="ablation axes to run (blocks is the long one, off by default)")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = study_config(out, args.fast)
    cfg_path = out / "config.json"
    cfg.save(cfg_path)

    run(["gen-data", "--config", str(cfg_path)])
    run(["pretrain", "--config", str(cfg_path)])
    baseline = out / f"pretrain-{cfg.hash12}" / "baseline.ckpt"
    run(["train", "--config", str(cfg_path), "--baseline", str(baseline)])
    refdec = out / f"train-{cfg.hash12}" / "refdec.ckpt"
    run(["swap-compare", "--config", str(cfg_path), "--baseline", str(baseline),
         "--refdec", str(refdec)])
    summary = json.loads((out / f"swap-compare-{cfg.hash12}" / "manifest.json").read_text())["extra"]
    print(f"paired decoder swap: mean dPSNR {summary['mean_delta_psnr']:+.3f} dB, "
          f"{summary['fraction_improved'] * 100:.0f}% of clips improved")

    for axis in args.axes:
        run(["ablate", "--config", str(cfg_path), "--axis", axis,
             "--baseline", str(baseline)])
        table = json.loads((out / f"ablate-{axis}-{cfg.hash12}" / "table.json").read_text())
        print(f"\n[{axis}]")
        for row in table["rows"]:
            print(f"  {row['setting']:<22} eval={row['eval_policy']:<12} "
                  f"PSNR {row['psnr_overall']:.2f} (ref {row['psnr_reference']:.2f})")


if __name__ == "__main__":
    main()
