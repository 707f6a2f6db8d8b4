"""Experiment configuration: one JSON document describes a full run.

Every command validates the config before touching anything, and embeds
the config hash in all outputs.  The hash covers everything that affects
results; output locations and checkpoint paths are excluded (the run
manifest records those, plus the hashes of the checkpoints actually
loaded).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .refcond import RefCondConfig
from .synthdata import DatasetSpec
from .training import CurriculumSpec, DropoutSpec, OptimizerSpec, RefPolicy, StageSpec
from .vae import VaeConfig

INJECTIONS = ("attention", "controlnet")


class ConfigError(ValueError):
    pass


@dataclass
class Seeds:
    master: int = 0
    train: int | None = None
    eval: int | None = None

    @property
    def train_seed(self) -> int:
        return self.master + 1 if self.train is None else self.train

    @property
    def eval_seed(self) -> int:
        return self.master + 2 if self.eval is None else self.eval


@dataclass
class ExperimentConfig:
    vae: VaeConfig = field(default_factory=VaeConfig)
    refdec: RefCondConfig = field(default_factory=RefCondConfig)
    dropout: DropoutSpec = field(default_factory=DropoutSpec)
    curriculum: CurriculumSpec = field(default_factory=CurriculumSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    ref_policy: RefPolicy = RefPolicy.random_frame
    eval_ref_policy: RefPolicy = RefPolicy.first_frame
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    seeds: Seeds = field(default_factory=Seeds)
    injection: str = "attention"
    lambda_perc: float = 1.0
    output_dir: str = "runs"
    baseline_checkpoint: str | None = None

    def validate(self) -> None:
        try:
            self.vae.validate()
            self.refdec.validate()
            self.dropout.validate()
            self.curriculum.validate(self.vae.temporal_compression)
            self.optimizer.validate()
            self.dataset.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.injection not in INJECTIONS:
            raise ConfigError(f"injection must be one of {INJECTIONS}")
        if self.optimizer.total_steps != self.curriculum.total_steps:
            raise ConfigError("optimizer.total_steps must equal the curriculum step total")
        if self.lambda_perc < 0:
            raise ConfigError("lambda_perc must be non-negative")
        seeds = {f"seeds.{k}": v for k, v in asdict(self.seeds).items()}
        seeds["dataset.master_seed"] = self.dataset.master_seed
        for name, seed in seeds.items():
            if seed is not None and not (isinstance(seed, int) and seed >= 0):
                raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")
        for stage in self.curriculum.stages:
            if (stage.height, stage.width) != (self.dataset.height, self.dataset.width):
                raise ConfigError("curriculum stage resolution must match the dataset")
            if stage.frames > self.dataset.frames:
                raise ConfigError("curriculum stage frames exceed dataset clip length")
        self.vae.latent_shape(self.dataset.frames, self.dataset.height, self.dataset.width)

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ref_policy"] = self.ref_policy.value
        d["eval_ref_policy"] = self.eval_ref_policy.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        def build(klass, payload, tuple_fields=()):
            payload = dict(payload)
            for name in tuple_fields:
                if name in payload:
                    payload[name] = tuple(payload[name])
            return klass(**payload)

        try:
            cfg = cls(
                vae=build(VaeConfig, d.get("vae", {}), ("stage_channels", "stage_kernels")),
                refdec=build(RefCondConfig, d.get("refdec", {}), ("token_strides",)),
                dropout=build(DropoutSpec, d.get("dropout", {})),
                curriculum=CurriculumSpec(tuple(
                    StageSpec(**s) for s in d.get("curriculum", {}).get(
                        "stages", [asdict(s) for s in CurriculumSpec().stages]))),
                optimizer=build(OptimizerSpec, d.get("optimizer", {}), ("betas",)),
                ref_policy=RefPolicy(d.get("ref_policy", "random_frame")),
                eval_ref_policy=RefPolicy(d.get("eval_ref_policy", "first_frame")),
                dataset=build(DatasetSpec, d.get("dataset", {})),
                seeds=build(Seeds, d.get("seeds", {})),
                injection=d.get("injection", "attention"),
                lambda_perc=d.get("lambda_perc", 1.0),
                output_dir=d.get("output_dir", "runs"),
                baseline_checkpoint=d.get("baseline_checkpoint"),
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        return cfg

    @classmethod
    def load(cls, path: Path) -> "ExperimentConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        cfg = cls.from_dict(payload)
        cfg.validate()
        return cfg

    def save(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True))

    def config_hash(self) -> str:
        d = self.to_dict()
        d.pop("output_dir")
        d.pop("baseline_checkpoint")
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()

    @property
    def hash12(self) -> str:
        return self.config_hash()[:12]
