import csv
import json
import os
import shutil
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import read_rdvc
from refvae.checkpoint import load_checkpoint, params_from_arrays, save_checkpoint
from refvae.cli import main
from refvae.config import ConfigError, ExperimentConfig, Seeds
from refvae.metrics import clip_metrics, derive_clip_seeds, frame_distances
from refvae.refcond import decode_conditioned_t
from refvae.synthdata import build_dataset, gen_clip, realize
from refvae.tensor import Tensor
from refvae.training import CurriculumSpec, OptimizerSpec, StageSpec, select_reference_frame
from refvae.vae import VaeConfig, encode_t


def tiny_config(out: Path, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        curriculum=CurriculumSpec((StageSpec(5, 16, 32, 6), StageSpec(9, 16, 32, 4))),
        optimizer=OptimizerSpec(total_steps=10, warmup_steps=2),
        seeds=Seeds(master=5),
        output_dir=str(out),
    )
    cfg.dataset.n_train = 4
    cfg.dataset.n_val = 3
    cfg.dataset.frames = 9
    cfg.dataset.height = 16
    cfg.dataset.width = 32
    cfg.refdec.n_blocks = 1
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = tiny_config(tmp_path / "runs", **overrides)
    path = tmp_path / "config.json"
    cfg.save(path)
    return path


def manifest_of(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text())


def only_run_dir(root: Path, prefix: str) -> Path:
    dirs = [d for d in root.iterdir() if d.name.startswith(prefix)]
    assert len(dirs) == 1
    return dirs[0]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data + pretrain + train, shared across CLI tests."""
    tmp = tmp_path_factory.mktemp("cli")
    cfg_path = write_config(tmp)
    assert main(["gen-data", "--config", str(cfg_path), "--dump"]) == 0
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    runs = tmp / "runs"
    baseline = only_run_dir(runs, "pretrain-") / "baseline.ckpt"
    assert main(["train", "--config", str(cfg_path), "--baseline", str(baseline)]) == 0
    refdec = only_run_dir(runs, "train-") / "refdec.ckpt"
    return tmp, cfg_path, runs, baseline, refdec


def test_gen_data_outputs(pipeline):
    _, _, runs, _, _ = pipeline
    outdir = only_run_dir(runs, "gen-data-")
    manifest = manifest_of(outdir)
    assert manifest["command"] == "gen-data"
    assert manifest["config_hash"]
    assert manifest["code_version"]
    data = json.loads((outdir / "dataset_manifest.json").read_text())
    assert len(data["clips"]) == 7
    clip = read_rdvc(outdir / "clips" / "train-0000.rdvc")
    assert clip.shape == (9, 3, 16, 32)


def test_pretrain_and_train_outputs(pipeline):
    _, _, runs, baseline, refdec = pipeline
    assert baseline.exists() and refdec.exists()
    loss = (only_run_dir(runs, "train-") / "loss.csv").read_text().splitlines()
    assert loss[0] == ("step,stage,lr_new,lr_dec,r,ref_index,loss_l1,loss_perc,loss_total,"
                       "grad_norm,clip_scale")
    assert len(loss) == 11  # header + 10 steps


def test_eval_command(pipeline):
    tmp, cfg_path, runs, baseline, refdec = pipeline
    assert main(["eval", "--config", str(cfg_path), "--ckpt", str(baseline),
                 "--ckpt", str(refdec)]) == 0
    outdir = only_run_dir(runs, "eval-")
    base_metrics = json.loads((outdir / "metrics-0-baseline.json").read_text())
    ref_metrics = json.loads((outdir / "metrics-1-refdec.json").read_text())
    assert base_metrics["aggregate"]["psnr"]["overall"] > 0
    assert len(ref_metrics["per_clip"]) == 3


def test_eval_encodes_each_clip_once_per_encoder(pipeline, tmp_path, monkeypatch):
    from refvae import metrics
    _, cfg_path, _, baseline, refdec = pipeline
    calls = []
    encode = metrics.encode_t
    monkeypatch.setattr(metrics, "encode_t", lambda *a: calls.append(1) or encode(*a))
    assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--ckpt", str(baseline), "--ckpt", str(refdec)]) == 0
    assert len(calls) == 3  # 3 val clips; baseline and refdec share the encoder
    outdir = only_run_dir(tmp_path, "eval-")
    assert (outdir / "metrics-0-baseline.json").exists() and (outdir / "metrics-1-refdec.json").exists()
    per_cat = json.loads((outdir / "metrics-1-refdec.json").read_text())["aggregate"]["per_category"]
    assert sum(c["clips"] for c in per_cat.values()) == 3


def ablate_ref_policy(pipeline, out: Path, *flags: str) -> Path:
    _, cfg_path, _, baseline, _ = pipeline
    assert main(["ablate", "--config", str(cfg_path), "--out", str(out), "--axis", "ref_policy",
                 "--baseline", str(baseline), *flags]) == 0
    return only_run_dir(out, "ablate-")


@pytest.fixture(scope="module")
def serial_ablate(pipeline, tmp_path_factory):
    """`ablate --axis ref_policy` in one process: (run directory, metrics.encode_t call count)."""
    from refvae import metrics
    calls = []
    encode = metrics.encode_t
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "encode_t", lambda *a: calls.append(1) or encode(*a))
        outdir = ablate_ref_policy(pipeline, tmp_path_factory.mktemp("ablate"))
    return outdir, len(calls)


def test_ablate_ref_policy_encodes_each_clip_once_per_grid_point(serial_ablate):
    outdir, encodes = serial_ablate
    assert encodes == 6  # 3 val clips x 2 grid points; both eval policies share each encode
    rows = json.loads((outdir / "table.json").read_text())["rows"]
    assert [r["eval_policy"] for r in rows] == ["first_frame", "random_frame"] * 2


def test_ablate_workers_match_serial_bytes(pipeline, serial_ablate, tmp_path):
    parallel = ablate_ref_policy(pipeline, tmp_path, "--workers", "2")
    outputs = []
    for outdir, workers in ((serial_ablate[0], 1), (parallel, 2)):
        assert manifest_of(outdir)["extra"]["workers"] == workers
        files = [outdir / "table.json", outdir / "table.csv",
                 *sorted(outdir.glob("point-*/metrics-eval-*.json"))]
        outputs.append({str(f.relative_to(outdir)): f.read_bytes() for f in files})
    assert len(outputs[0]) == 6  # the tables, and 2 grid points x 2 eval policies
    assert outputs[0] == outputs[1]


def test_workers_is_an_ablate_flag_only(pipeline):
    _, cfg_path, _, baseline, _ = pipeline
    assert exit_code(["train", "--config", str(cfg_path), "--baseline", str(baseline),
                      "--workers", "2"]) == 2


@pytest.mark.parametrize("argv", [["gen-data"], ["decode", "--ckpt", "x.ckpt", "--clip-seed", "3"]])
def test_seed_is_not_a_flag_of_the_commands_that_read_no_seeds(tmp_path, argv):
    assert exit_code([*argv, "--config", str(write_config(tmp_path)), "--seed", "99"]) == 2
    assert not (tmp_path / "runs").exists()


def test_swap_compare_and_decode(pipeline):
    tmp, cfg_path, runs, baseline, refdec = pipeline
    assert main(["swap-compare", "--config", str(cfg_path), "--baseline", str(baseline),
                 "--refdec", str(refdec)]) == 0
    outdir = only_run_dir(runs, "swap-compare-")
    seedlog = json.loads((outdir / "seedlog.json").read_text())
    assert len(seedlog["entries"]) == 3
    for entry in seedlog["entries"]:
        assert Path(entry["latent_path"]).exists()

    assert main(["decode", "--config", str(cfg_path), "--ckpt", str(refdec),
                 "--clip-seed", "77", "--ref", "frame:0"]) == 0
    dec_dir = only_run_dir(runs, "decode-")
    frames = read_rdvc(dec_dir / "frames.rdvc")
    assert frames.shape == (9, 3, 16, 32)
    sidecar = json.loads((dec_dir / "psnr.json").read_text())
    assert sidecar["reference_index"] == 0
    assert len(sidecar["per_frame_psnr"]) == 9

    # a different reference changes the output bytes
    first = (dec_dir / "frames.rdvc").read_bytes()
    shutil.rmtree(dec_dir)
    assert main(["decode", "--config", str(cfg_path), "--ckpt", str(refdec),
                 "--clip-seed", "77", "--ref", "frame:8"]) == 0
    second = (dec_dir / "frames.rdvc").read_bytes()
    assert first != second


def test_decode_null_reference_works(pipeline):
    tmp, cfg_path, runs, _, refdec = pipeline
    out2 = tmp / "null-ref"
    assert main(["decode", "--config", str(cfg_path), "--ckpt", str(refdec),
                 "--clip-seed", "3", "--ref", "none", "--out", str(out2)]) == 0
    frames = read_rdvc(only_run_dir(out2, "decode-") / "frames.rdvc")
    assert np.isfinite(frames).all()


def test_exit_codes(pipeline, tmp_path):
    tmp, cfg_path, runs, baseline, refdec = pipeline
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"vae": {"spatial_compression": 6}}))
    assert main(["pretrain", "--config", str(bad_cfg)]) == 2
    assert main(["train", "--config", str(cfg_path),
                 "--baseline", str(tmp_path / "missing.ckpt")]) == 3
    assert main(["train", "--config", str(cfg_path)]) == 3  # no baseline anywhere


def test_eval_with_no_checkpoint_exits_3(tmp_path, capsys):
    assert main(["eval", "--config", str(write_config(tmp_path))]) == 3
    assert "eval needs at least one --ckpt" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_eval_on_truncated_checkpoint_exits_3(pipeline, tmp_path):
    baseline = pipeline[3]
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(baseline.read_bytes()[:10])  # magic plus half a header
    assert main(["eval", "--config", str(write_config(tmp_path)), "--ckpt", str(truncated)]) == 3
    assert not any((tmp_path / "runs").glob("eval-*"))  # no run directory for a failed load


def _drop_block0(arrays, meta):
    for name in [n for n in arrays if n.startswith("ref.blk0.")]:
        del arrays[name]


BROKEN_CKPT = {  # case -> (pipeline index of the checkpoint it breaks, edit of its arrays and meta)
    "no-vae": (3, lambda arrays, meta: meta.pop("vae")),
    "no-kind": (3, lambda arrays, meta: meta.pop("kind")),
    "bad-vae-field": (3, lambda arrays, meta: meta["vae"].update(bogus=1)),
    "kind-mismatch": (4, lambda arrays, meta: meta.update(kind="controlnet")),  # no ctrl.* tensors
    "no-ref-blk0": (4, _drop_block0),
    "bad-dec-in-shape": (4, lambda arrays, meta: arrays.update({"dec.in.w": arrays["dec.in.w"][:, :-1]})),
    "nan-tensor": (3, lambda arrays, meta: arrays.update({"dec.head.b": np.full((3, 1, 1, 1), np.nan)})),
    "empty-null-map": (4, lambda arrays, meta: arrays.update({"ref.null": arrays["ref.null"][:, :, :0, :0]})),
    "unknown-kind": (3, lambda arrays, meta: meta.update(kind="bogus")),
}


BROKEN_STDERR = {  # case -> what stderr says; the null map's grid is not recorded, so not named
    "empty-null-map": "tensor ref.null is missing or not of shape (64, 1, H, W)",
    "bad-dec-in-shape": "tensor dec.in.w is missing or not of shape (64, 8, 3, 3, 3)",
    "unknown-kind": "unknown kind 'bogus'",
}


@pytest.mark.parametrize("command", ["eval", "decode"])
@pytest.mark.parametrize("broken", sorted(BROKEN_CKPT))
def test_malformed_checkpoint_meta_exits_3(pipeline, tmp_path, broken, command, capsys):
    source, edit = BROKEN_CKPT[broken]
    arrays, meta = load_checkpoint(pipeline[source])
    edit(arrays, meta)
    ckpt = tmp_path / "broken.ckpt"
    save_checkpoint(ckpt, arrays, meta)
    extra = ["--clip-seed", "3"] if command == "decode" else []
    assert main([command, "--config", str(write_config(tmp_path)), "--ckpt", str(ckpt), *extra]) == 3
    assert BROKEN_STDERR.get(broken, "") in capsys.readouterr().err
    assert not any((tmp_path / "runs").glob(f"{command}-*"))


def decoded_bytes(pipeline, ckpt: Path, out: Path) -> bytes:
    """frames.rdvc of `decode --clip-seed 3 --ref frame:2` with the pipeline's config."""
    assert main(["decode", "--config", str(pipeline[1]), "--ckpt", str(ckpt),
                 "--clip-seed", "3", "--ref", "frame:2", "--out", str(out)]) == 0
    return (only_run_dir(out, "decode-") / "frames.rdvc").read_bytes()


def test_checkpoint_with_optimizer_moments_decodes_the_same(pipeline, tmp_path):
    refdec = pipeline[4]
    arrays, meta = load_checkpoint(refdec)
    moments = {f"opt.{k}.{n}": np.ones_like(a) for k in "mv" for n, a in arrays.items()}
    with_moments = tmp_path / "with-moments.ckpt"  # as checkpoints were written before
    save_checkpoint(with_moments, {**arrays, **moments}, meta)
    original = decoded_bytes(pipeline, refdec, tmp_path / "original")
    assert decoded_bytes(pipeline, with_moments, tmp_path / "with-moments") == original


def test_checkpoint_with_injection_field_decodes_the_same(pipeline, tmp_path):
    refdec = pipeline[4]
    arrays, meta = load_checkpoint(refdec)
    assert meta["kind"] == "refdec" and "injection" not in meta
    with_field = tmp_path / "with-injection.ckpt"  # metadata as checkpoints were written before
    save_checkpoint(with_field, arrays, {**meta, "injection": "attention"})
    original = decoded_bytes(pipeline, refdec, tmp_path / "original")
    assert decoded_bytes(pipeline, with_field, tmp_path / "with-injection") == original


@pytest.fixture(scope="module")
def controlnet(pipeline, tmp_path_factory):
    """`train` with residual injection on the pipeline's baseline: (config, checkpoint)."""
    tmp = tmp_path_factory.mktemp("controlnet")
    cfg_path = write_config(tmp, injection="controlnet")
    assert main(["train", "--config", str(cfg_path), "--baseline", str(pipeline[3])]) == 0
    return cfg_path, only_run_dir(tmp / "runs", "train-") / "refdec.ckpt"


def direct_decode(cfg: ExperimentConfig, ckpt: Path, frames: np.ndarray, ref_index: int) -> np.ndarray:
    """`decode_conditioned_t` on the checkpoint's tensors, with frame `ref_index` as reference."""
    params = params_from_arrays(load_checkpoint(ckpt)[0])
    z = encode_t(Tensor(frames), cfg.vae, params)
    return decode_conditioned_t(z, frames[ref_index], cfg.vae, cfg.refdec, params).data


def test_controlnet_checkpoint_decodes_by_residual_injection(pipeline, controlnet, tmp_path):
    cfg_path, ckpt = controlnet
    cfg = ExperimentConfig.load(cfg_path)
    arrays, meta = load_checkpoint(ckpt)
    assert meta["kind"] == "controlnet" and "injection" not in meta
    assert np.abs(arrays["ctrl.s0.inject.w"]).max() > 0  # the residual branch is live

    _, val = build_dataset(cfg.dataset)
    expected = []
    for ref, seed in zip(val, derive_clip_seeds(cfg.seeds.eval_seed, len(val))):
        frames = realize(ref, cfg.dataset).frames
        _, ref_index = select_reference_frame(frames, cfg.eval_ref_policy,
                                              np.random.default_rng(np.random.PCG64(seed)))
        expected.append(clip_metrics(frames, direct_decode(cfg, ckpt, frames, ref_index), ref_index,
                                     ref.clip_id, ref.category, frame_distances(frames)))
    expected = json.loads(json.dumps(expected))
    assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path), "--ckpt", str(ckpt)]) == 0
    report = json.loads((only_run_dir(tmp_path, "eval-") / "metrics-0-controlnet.json").read_text())
    assert report["per_clip"] == expected
    assert main(["swap-compare", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--baseline", str(pipeline[3]), "--refdec", str(ckpt)]) == 0
    report = json.loads((only_run_dir(tmp_path, "swap-compare-") / "refdec_metrics.json").read_text())
    assert report["per_clip"] == expected

    assert main(["decode", "--config", str(cfg_path), "--out", str(tmp_path), "--ckpt", str(ckpt),
                 "--clip-seed", "77", "--ref", "frame:4"]) == 0
    frames = gen_clip(77, "content_rich", cfg.dataset.frames, cfg.dataset.height, cfg.dataset.width).frames
    decoded = read_rdvc(only_run_dir(tmp_path, "decode-") / "frames.rdvc")
    assert np.array_equal(decoded, direct_decode(cfg, ckpt, frames, 4))


WRONG_KIND = {  # command -> arguments naming a checkpoint of the wrong kind (pipeline index)
    "train": ["--baseline", 4],
    "ablate": ["--axis", "dropout", "--baseline", 4],
    "swap-compare": ["--baseline", 3, "--refdec", 3],
}


@pytest.mark.parametrize("command", sorted(WRONG_KIND))
def test_wrong_checkpoint_kind_exits_3(pipeline, tmp_path, command):
    args = [str(pipeline[a]) if isinstance(a, int) else a for a in WRONG_KIND[command]]
    assert main([command, "--config", str(write_config(tmp_path)), *args]) == 3
    assert not (tmp_path / "runs").exists()


def compression_16(ckpt: Path, out: Path) -> Path:
    """`ckpt` saved as a p=16 model: the same backbone tensors, a reference patch of 16x16 pixels."""
    arrays, meta = load_checkpoint(ckpt)
    meta["vae"]["spatial_compression"] = 16
    if "ref.patch.w" in arrays:
        arrays["ref.patch.w"] = np.resize(arrays["ref.patch.w"], (64, 3, 1, 16, 16))
    save_checkpoint(out, arrays, meta)
    return out


def config_24_high(tmp_path: Path) -> Path:
    """The tiny config on 24x32 clips, which a p=8 backbone encodes and a p=16 one cannot."""
    cfg = tiny_config(tmp_path / "runs", curriculum=CurriculumSpec(
        (StageSpec(5, 24, 32, 6), StageSpec(9, 24, 32, 4))))
    cfg.dataset.height = 24
    cfg.save(tmp_path / "config.json")
    return tmp_path / "config.json"


@pytest.mark.parametrize("case", ["refdec-other-encoder", "baseline-p16"])
def test_swap_compare_of_checkpoints_with_other_backbones_exits_3(pipeline, tmp_path, case):
    _, _, _, baseline, refdec = pipeline
    if case == "baseline-p16":  # the refdec, fine-tuned from this baseline, records p=8
        baseline = compression_16(baseline, tmp_path / "p16.ckpt")
    else:
        arrays, meta = load_checkpoint(refdec)
        arrays["enc.in.b"] = arrays["enc.in.b"] + 0.25
        refdec = tmp_path / "other-encoder.ckpt"
        save_checkpoint(refdec, arrays, meta)
    assert main(["swap-compare", "--config", str(write_config(tmp_path)), "--baseline", str(baseline),
                 "--refdec", str(refdec)]) == 3
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["eval", "swap-compare"])
def test_checkpoints_that_cannot_encode_the_clips_exit_2(pipeline, tmp_path, command):
    base16, ref16 = (compression_16(pipeline[i], tmp_path / f"p16-{i}.ckpt") for i in (3, 4))
    args = ["--ckpt", str(base16)] if command == "eval" else ["--baseline", str(base16),
                                                              "--refdec", str(ref16)]
    assert main([command, "--config", str(config_24_high(tmp_path)), *args]) == 2
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["eval", "swap-compare", "decode"])
def test_checkpoint_whose_token_stride_misses_the_stage_grid_exits_2(pipeline, tmp_path, command, capsys):
    _, cfg_path, _, baseline, refdec = pipeline
    arrays, meta = load_checkpoint(refdec)
    meta["refdec"]["token_strides"] = [1, 2, 3]  # stage 2's grid is 8x16 on 16x32 clips
    d, ch = arrays["ref.embed2.in.w"].shape[:2]
    for name, shape in {"in.w": (d, ch, 1, 3, 3), "out.w": (d, ch * 9), "out.b": (ch * 9,)}.items():
        arrays[f"ref.embed2.{name}"] = np.resize(arrays[f"ref.embed2.{name}"], shape)
    save_checkpoint(tmp_path / "stride3.ckpt", arrays, meta)
    cfg = ExperimentConfig.load(cfg_path)  # decode's latent: the one the swap saves for val-0000
    clip = realize(build_dataset(cfg.dataset)[1][0], cfg.dataset).frames
    np.save(tmp_path / "z.npy", encode_t(Tensor(clip), cfg.vae, params_from_arrays(arrays)).data)
    args = {"eval": ["--ckpt"], "swap-compare": ["--baseline", str(baseline), "--refdec"],
            "decode": ["--latent", str(tmp_path / "z.npy"), "--ref", "none", "--ckpt"]}[command]
    assert main([command, "--config", str(write_config(tmp_path)), *args, str(tmp_path / "stride3.ckpt")]) == 2
    assert "not divisible by token stride 3" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


BASELINE_VAE_MISMATCH = {  # case -> (config vae, whether the baseline is saved as p=16)
    "config-norm-groups-4": (VaeConfig(norm_groups=4), False),
    "config-stage-channels-32": (VaeConfig(stage_channels=(32, 32, 32)), False),
    "baseline-p16": (VaeConfig(), True),
}


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("case", sorted(BASELINE_VAE_MISMATCH))
def test_fine_tune_on_a_baseline_of_another_vae_exits_3(pipeline, tmp_path, case, command):
    vae, p16 = BASELINE_VAE_MISMATCH[case]
    baseline = compression_16(pipeline[3], tmp_path / "p16.ckpt") if p16 else pipeline[3]
    axis = ["--axis", "dropout"] if command == "ablate" else []
    assert main([command, "--config", str(write_config(tmp_path, vae=vae)), *axis,
                 "--baseline", str(baseline)]) == 3
    assert not (tmp_path / "runs").exists()


def test_swap_compare_falls_back_to_the_config_baseline(pipeline, tmp_path):
    _, _, _, baseline, refdec = pipeline
    cfg_path = write_config(tmp_path, baseline_checkpoint=str(baseline))
    assert main(["swap-compare", "--config", str(cfg_path), "--refdec", str(refdec)]) == 0
    manifest = manifest_of(only_run_dir(tmp_path / "runs", "swap-compare-"))
    assert manifest["extra"]["checkpoints"]["baseline"] == str(baseline)


DIVERGING = OptimizerSpec(total_steps=10, warmup_steps=2, base_lr=1e12, grad_clip=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_diverging_pretrain_exits_4(tmp_path, capsys):
    cfg_path = write_config(tmp_path, optimizer=DIVERGING)
    assert main(["pretrain", "--config", str(cfg_path)]) == 4
    assert "error code=4 command=pretrain: training diverged at step 1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()  # neither the run directory nor the root it made


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_train_exits_4_and_leaves_no_run_directory(pipeline, tmp_path, capsys):
    cfg_path = write_config(tmp_path, optimizer=DIVERGING)
    assert main(["train", "--config", str(cfg_path), "--baseline", str(pipeline[3])]) == 4
    assert "error code=4 command=train: training diverged" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_pretrain_into_a_new_nested_root_leaves_no_directory(tmp_path):
    cfg_path = write_config(tmp_path, optimizer=DIVERGING)
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "new" / "root")]) == 4
    assert not (tmp_path / "new").exists()


def test_interrupted_pretrain_propagates_and_leaves_no_directory(tmp_path, monkeypatch):
    from refvae import cli

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "pretrain_baseline", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["pretrain", "--config", str(write_config(tmp_path))])
    assert not (tmp_path / "runs").exists()


def test_decode_wall_time_covers_the_decode(pipeline, tmp_path, monkeypatch):
    from refvae import cli
    decode = cli.decode_baseline_t
    monkeypatch.setattr(cli, "decode_baseline_t", lambda *a: time.sleep(0.2) or decode(*a))
    assert main(["decode", "--config", str(pipeline[1]), "--ckpt", str(pipeline[3]),
                 "--clip-seed", "3", "--out", str(tmp_path)]) == 0
    assert manifest_of(only_run_dir(tmp_path, "decode-"))["wall_time_s"] >= 0.2


def exit_code(argv: list[str]) -> int:
    """main's return value, or the code of the exit argparse takes on a bad flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


BAD_SEEDS = {  # case -> (command, config edits by section, arguments; ints index the pipeline)
    "seed-flag-negative": ("pretrain", {}, ["--seed", "-5"]),
    "dataset-master-seed-negative": ("gen-data", {"dataset": {"master_seed": -1}}, []),
    "eval-seed-negative": ("eval", {"seeds": {"eval": -3}}, ["--ckpt", 3]),
}


@pytest.mark.parametrize("case", sorted(BAD_SEEDS))
def test_negative_seed_exits_2_before_any_output(pipeline, tmp_path, case):
    command, edits, args = BAD_SEEDS[case]
    cfg_path = write_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    for section, values in edits.items():
        payload[section].update(values)
    cfg_path.write_text(json.dumps(payload))
    args = [str(pipeline[a]) if isinstance(a, int) else a for a in args]
    assert main([command, "--config", str(cfg_path), *args]) == 2
    assert not (tmp_path / "runs").exists()


BAD_DECODE = {  # case -> decode arguments; files name arrays written by the test
    "frame-past-end": ["--clip-seed", "3", "--ref", "frame:99"],
    "frame-not-int": ["--clip-seed", "3", "--ref", "frame:x"],
    "frame-negative": ["--clip-seed", "3", "--ref", "frame:-1"],
    "latent-3-channels": ["--latent", "z3ch.npy"],
    "latent-3d": ["--latent", "z3d.npy"],
    "latent-no-frames": ["--latent", "z0t.npy"],
    "ref-image-wrong-size": ["--clip-seed", "3", "--ref", "ref8x8.npy"],
    "ref-image-2d": ["--clip-seed", "3", "--ref", "ref2d.npy"],
    "ref-none-untileable-latent": ["--latent", "z3x5.npy", "--ref", "none"],
    "latent-not-npy": ["--latent", "junk.npy"],
    "ref-not-npy": ["--clip-seed", "3", "--ref", "junk.npy"],
    "latent-missing": ["--latent", "missing.npy"],
    "latent-nan": ["--latent", "znan.npy"],
    "latent-inf": ["--latent", "zinf.npy"],
    "ref-image-nan": ["--clip-seed", "3", "--ref", "refnan.npy"],
    "ref-missing": ["--clip-seed", "3", "--ref", "missing.npy"],
    "clip-seed-negative": ["--clip-seed", "-1"],
    "category-unknown": ["--clip-seed", "3", "--category", "bogus"],
    "latent-and-clip-seed": ["--latent", "z.npy", "--clip-seed", "3"],
    "latent-with-category": ["--latent", "z.npy", "--category", "large_motion"],
    "neither-latent-nor-clip-seed": [],
    "latent-with-frame-ref": ["--latent", "z.npy", "--ref", "frame:0"],
    "latent-complex": ["--latent", "zcomplex.npy"],
    "ref-image-structured": ["--clip-seed", "3", "--ref", "refrecord.npy"],
}


DECODE_STDERR = {  # case -> what stderr says for a baseline and a refdec checkpoint alike
    "latent-3-channels": "latent (3, 3, 2, 4) is not [8, T, H, W]",
    "latent-3d": "latent (8, 2, 4) is not [8, T, H, W]",
    "latent-nan": "holds NaN or Inf",
    "latent-inf": "holds NaN or Inf",
    "ref-image-nan": "holds NaN or Inf",
    "latent-with-frame-ref": "frame references need --clip-seed",
    "latent-complex": "not a single .npy array of real numbers",
    "ref-image-structured": "not a single .npy array of real numbers",
}


@pytest.mark.parametrize("case", sorted(BAD_DECODE))
def test_decode_rejects_malformed_input_with_exit_2(pipeline, tmp_path, case, capsys):
    _, _, _, baseline, refdec = pipeline
    np.save(tmp_path / "z.npy", np.zeros((8, 1, 2, 4), np.float32))
    np.save(tmp_path / "z3ch.npy", np.zeros((3, 3, 2, 4), np.float32))
    np.save(tmp_path / "z3d.npy", np.zeros((8, 2, 4), np.float32))
    np.save(tmp_path / "z0t.npy", np.zeros((8, 0, 2, 4), np.float32))
    np.save(tmp_path / "ref8x8.npy", np.zeros((3, 8, 8), np.float32))
    np.save(tmp_path / "ref2d.npy", np.zeros((16, 32), np.float32))
    np.save(tmp_path / "z3x5.npy", np.zeros((8, 3, 3, 5), np.float32))  # null map is 2x4
    np.save(tmp_path / "znan.npy", np.where(np.arange(64).reshape(8, 1, 2, 4) == 5, np.nan, 0.0))
    np.save(tmp_path / "zinf.npy", np.full((8, 1, 2, 4), 1e39))  # finite in float64, not in float32
    np.save(tmp_path / "refnan.npy", np.full((3, 16, 32), np.nan, np.float32))
    np.save(tmp_path / "zcomplex.npy", np.full((8, 1, 2, 4), 1j, np.complex64))  # cast would drop 1j
    np.save(tmp_path / "refrecord.npy", np.zeros((3, 16, 32), [("v", "<f4")]))  # one float field
    (tmp_path / "junk.npy").write_text("not an array\n")
    args = [str(tmp_path / a) if a.endswith(".npy") else a for a in BAD_DECODE[case]]
    for ckpt in (refdec, baseline) if case in DECODE_STDERR else (refdec,):
        assert exit_code(["decode", "--config", str(write_config(tmp_path)), "--ckpt", str(ckpt),
                          *args]) == 2
        assert DECODE_STDERR.get(case, "") in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("openblas, omp, degree", [
    ("2x", "", 2), (" +3", "", 3), ("", "4,2", 4), ("0", "5", 5), ("-2", "x", None), ("", "", None)])
def test_parallelism_degree_reads_thread_variables_as_atoi(tmp_path, monkeypatch, openblas, omp, degree):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", openblas)
    monkeypatch.setenv("OMP_NUM_THREADS", omp)
    assert main(["gen-data", "--config", str(write_config(tmp_path))]) == 0
    manifest = manifest_of(only_run_dir(tmp_path / "runs", "gen-data-"))
    assert manifest["parallelism_degree"] == (degree or os.cpu_count() or 1)


def test_decode_of_a_clip_the_backbone_cannot_encode_exits_2(pipeline, tmp_path):
    ckpt = compression_16(pipeline[3], tmp_path / "p16.ckpt")
    assert main(["decode", "--config", str(config_24_high(tmp_path)), "--ckpt", str(ckpt),
                 "--clip-seed", "3"]) == 2
    assert not (tmp_path / "runs").exists()


def test_decode_of_a_baseline_checkpoint_with_a_reference_exits_2(pipeline, tmp_path, capsys):
    assert main(["decode", "--config", str(write_config(tmp_path)), "--ckpt", str(pipeline[3]),
                 "--clip-seed", "3", "--ref", "frame:0"]) == 2
    assert "baseline checkpoints cannot take a reference image" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_decode_takes_a_reference_image(pipeline, tmp_path):
    _, cfg_path, _, _, refdec = pipeline
    np.save(tmp_path / "ref.npy", np.full((3, 16, 32), 0.5, np.float32))
    assert main(["decode", "--config", str(cfg_path), "--ckpt", str(refdec), "--clip-seed", "3",
                 "--ref", str(tmp_path / "ref.npy"), "--out", str(tmp_path)]) == 0
    assert read_rdvc(only_run_dir(tmp_path, "decode-") / "frames.rdvc").shape == (9, 3, 16, 32)


def assert_rerun_identical(argv: list[str], outdir: Path, empty_first: bool = True) -> None:
    """Rerun a command into its run directory (emptied first if `empty_first`) and compare every output file."""
    snapshot = {p.relative_to(outdir): p.read_bytes()
                for p in outdir.rglob("*") if p.is_file()}
    if empty_first:
        shutil.rmtree(outdir)
    assert main(argv) == 0
    assert {p.relative_to(outdir) for p in outdir.rglob("*") if p.is_file()} == set(snapshot)
    for rel, raw in snapshot.items():
        fresh = (outdir / rel).read_bytes()
        if rel.name == "manifest.json":
            a = json.loads(raw)
            b = json.loads(fresh)
            a.pop("wall_time_s")
            b.pop("wall_time_s")
            assert a == b
        else:
            assert fresh == raw, f"{rel} differs across reruns"


def test_rerun_is_byte_identical_modulo_walltime(pipeline, tmp_path):
    cfg_path = write_config(tmp_path)
    pretrain = ["pretrain", "--config", str(cfg_path)]
    assert main(pretrain) == 0
    assert_rerun_identical(pretrain, only_run_dir(tmp_path / "runs", "pretrain-"))

    _, pipeline_cfg, _, baseline, refdec = pipeline
    out = tmp_path / "eval-runs"
    for prefix, args in (("eval", ["--ckpt", str(baseline), "--ckpt", str(refdec)]),
                         ("swap-compare", ["--baseline", str(baseline), "--refdec", str(refdec)])):
        argv = [prefix, "--config", str(pipeline_cfg), "--out", str(out), *args]
        assert main(argv) == 0
        assert_rerun_identical(argv, only_run_dir(out, f"{prefix}-"))


def test_swap_compare_reruns_into_the_run_directory_it_left(pipeline, tmp_path):
    _, cfg_path, _, baseline, refdec = pipeline
    argv = ["swap-compare", "--config", str(cfg_path), "--out", str(tmp_path),
            "--baseline", str(baseline), "--refdec", str(refdec)]
    assert main(argv) == 0
    assert_rerun_identical(argv, only_run_dir(tmp_path, "swap-compare-"), empty_first=False)


def test_seed_flag_overrides_only_the_master_seed(tmp_path):
    runs = {}
    for name, seeds, flag in (("flag", Seeds(master=5, train=7), ["--seed", "3"]),
                              ("config", Seeds(master=3, train=7), [])):
        (tmp_path / name).mkdir()
        assert main(["pretrain", "--config", str(write_config(tmp_path / name, seeds=seeds)), *flag]) == 0
        runs[name] = only_run_dir(tmp_path / name / "runs", "pretrain-")
    assert runs["flag"].name == runs["config"].name  # one config, one hash
    assert (runs["flag"] / "loss.csv").read_bytes() == (runs["config"] / "loss.csv").read_bytes()
    assert manifest_of(runs["flag"])["seeds"] == {"master": 3, "train": 7, "eval": None}


def test_seed_override_changes_hash_and_results(tmp_path):
    cfg_path = write_config(tmp_path)
    assert main(["pretrain", "--config", str(cfg_path)]) == 0
    assert main(["pretrain", "--config", str(cfg_path), "--seed", "99"]) == 0
    dirs = list((tmp_path / "runs").iterdir())
    assert len(dirs) == 2  # different config hash, different run dir
    losses = [[row["loss_total"] for row in csv.DictReader((d / "loss.csv").read_text().splitlines())]
              for d in dirs]
    assert len(losses[0]) == 10
    assert all(a != b for a, b in zip(*losses))  # every step's loss_total differs


def test_config_roundtrip_and_hash_stability(tmp_path):
    cfg = tiny_config(tmp_path)
    d = cfg.to_dict()
    back = ExperimentConfig.from_dict(d)
    assert back.to_dict() == d
    assert back.config_hash() == cfg.config_hash()
    moved = ExperimentConfig.from_dict({**d, "output_dir": "elsewhere"})
    assert moved.config_hash() == cfg.config_hash()  # location does not change identity


STAGE = {"frames": 5, "height": 32, "width": 64, "steps": 400}
MALFORMED_CONFIGS = {  # case -> config JSON with a value of the wrong type, or data the model cannot use
    "not-an-object": [],
    "curriculum-list": {"curriculum": []},
    "frames-string": {"dataset": {"frames": "17"}},
    "lambda-perc-string": {"lambda_perc": "1"},
    "base-lr-null": {"optimizer": {"base_lr": None}},
    "r-max-string": {"dropout": {"r_max": "0.5"}},
    "latent-channels-string": {"vae": {"latent_channels": "8"}},
    "stage-kernels-two": {"vae": {"stage_kernels": [3, 3]}},
    "seed-bool": {"seeds": {"master": True}},
    "frames-not-1-mod-4": {"dataset": {"frames": 16}, "curriculum": {"stages": [STAGE]},
                           "optimizer": {"total_steps": 400}},
    "stage-frames-negative": {"curriculum": {"stages": [{**STAGE, "frames": -3},
                                                        {**STAGE, "frames": 17, "steps": 200}]}},
    "token-stride-3": {"refdec": {"token_strides": [1, 2, 3]}},  # stage 2's 16x32 grid
    "frames-1": {"dataset": {"frames": 1}, "curriculum": {"stages": [{**STAGE, "frames": 1}]},
                 "optimizer": {"total_steps": 400}},  # flicker needs two frames
    "height-not-divisible": {"dataset": {"height": 36}, "curriculum": {"stages": [
        {**STAGE, "height": 36}, {**STAGE, "frames": 17, "height": 36, "steps": 200}]}},
    "mix-negative": {"dataset": {"mix": {"content_rich": 1.5, "content_sparse": -0.5,
                                         "large_motion": 0}}},
    "mix-nan": {"dataset": {"mix": {"content_rich": float("nan"), "content_sparse": 0.5,
                                    "large_motion": 0.5}}},
    "base-lr-nan": {"optimizer": {"base_lr": float("nan")}},
    "base-lr-inf": {"optimizer": {"base_lr": float("inf")}},
    "beta-one": {"optimizer": {"betas": [1.0, 0.999]}},
    "beta-nan": {"optimizer": {"betas": [0.9, float("nan")]}},
    "eps-zero": {"optimizer": {"eps": 0}},
    "eps-inf": {"optimizer": {"eps": float("inf")}},
    "weight-decay-negative": {"optimizer": {"weight_decay": -1}},
    "weight-decay-nan": {"optimizer": {"weight_decay": float("nan")}},
    "warmup-start-negative": {"optimizer": {"warmup_start_fraction": -1}},
    "warmup-start-above-1": {"optimizer": {"warmup_start_fraction": 1.5}},
    "grad-clip-nan": {"optimizer": {"grad_clip": float("nan")}},
    "lambda-perc-nan": {"lambda_perc": float("nan")},
    "lambda-perc-inf": {"lambda_perc": float("inf")},
    "injection-unknown": {"injection": "bogus"},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_exits_2_before_any_output(tmp_path, case):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(MALFORMED_CONFIGS[case]))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 2
    assert not (tmp_path / "runs").exists()


ZERO_SIZES = {  # case -> (section, field, value): a layer left with no width, heads or groups
    "norm-groups-0": ("vae", "norm_groups", 0),
    "latent-channels-0": ("vae", "latent_channels", 0),
    "stage-channel-0": ("vae", "stage_channels", [64, 0, 32]),
    "heads-0": ("refdec", "heads", 0),
    "hidden-0": ("refdec", "hidden", 0),
    "ff-mult-0": ("refdec", "ff_mult", 0),
}


@pytest.mark.parametrize("case", sorted(ZERO_SIZES))
def test_zero_width_or_count_exits_2_before_any_output(tmp_path, case, capsys):
    section, name, value = ZERO_SIZES[case]
    cfg_path = write_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    payload[section][name] = value
    cfg_path.write_text(json.dumps(payload))
    assert main(["pretrain", "--config", str(cfg_path)]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_config_that_is_not_utf8_exits_2_before_any_output(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(b"\xff\xfe{}")
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_config_types_are_checked_never_coerced(tmp_path):
    d = tiny_config(tmp_path).to_dict()
    with pytest.raises(ConfigError, match="lambda_perc"):
        ExperimentConfig.from_dict({**d, "lambda_perc": "1"})
    as_int = ExperimentConfig.from_dict({**d, "lambda_perc": 1})  # an int is a float, kept as given
    assert type(as_int.lambda_perc) is int
    assert as_int.config_hash() != ExperimentConfig.from_dict(d).config_hash()  # 1 hashes as 1, not 1.0


@pytest.mark.parametrize("command", ["eval", "train", "ablate", "swap-compare", "decode"])
def test_checkpoint_path_that_is_a_directory_exits_3(tmp_path, command):
    ckpt_dir = tmp_path / "dir.ckpt"
    ckpt_dir.mkdir()
    args = {"eval": ["--ckpt"], "train": ["--baseline"], "ablate": ["--axis", "dropout", "--baseline"],
            "swap-compare": ["--refdec", str(ckpt_dir), "--baseline"],
            "decode": ["--clip-seed", "3", "--ckpt"]}[command]
    assert main([command, "--config", str(write_config(tmp_path)), *args, str(ckpt_dir)]) == 3
    assert not (tmp_path / "runs").exists()


def test_out_naming_a_file_exits_2(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("not a directory\n")
    assert main(["gen-data", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_ablate_workers_below_1_exits_2_before_any_output(pipeline, tmp_path, workers):
    assert main(["ablate", "--config", str(write_config(tmp_path)), "--axis", "ref_policy",
                 "--baseline", str(pipeline[3]), "--workers", workers]) == 2
    assert not (tmp_path / "runs").exists()
