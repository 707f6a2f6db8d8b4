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
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from enum import Enum
from pathlib import Path

from .refcond import RefCondConfig
from .synthdata import DatasetSpec
from .training import CurriculumSpec, DropoutSpec, OptimizerSpec, RefPolicy
from .vae import VaeConfig

INJECTIONS = {"attention": "refdec", "controlnet": "controlnet"}  # injection -> checkpoint kind


class ConfigError(ValueError):
    pass


_SCALARS = {float: (int, float), int: (int,), bool: (bool,), str: (str,)}  # JSON types each field takes


def _typed(tp, value, name: str):
    """`value` as a field of type `tp`, checked and never coerced.

    An object builds a dataclass from the fields it names (the others keep
    their defaults) and a list builds a tuple; a value of another type raises
    TypeError.  An int passes as a float (and keeps its config hash), a bool
    as neither.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if value is None else _typed(args[0], value, name)
    if isinstance(tp, type) and issubclass(tp, Enum) and value in [m.value for m in tp]:
        return tp(value)
    if is_dataclass(tp) and isinstance(value, dict):
        hints = typing.get_type_hints(tp)  # an unknown field fails in the constructor
        return tp(**{k: _typed(hints[k], v, f"{name}.{k}") if k in hints else v
                     for k, v in value.items()})
    if origin is dict and isinstance(value, dict):
        return {k: _typed(args[1], v, f"{name}.{k}") for k, v in value.items()}
    if origin is tuple and isinstance(value, (list, tuple)):
        kinds = args[:1] * len(value) if args[1:] == (...,) else args
        if len(kinds) == len(value):
            return tuple(_typed(t, v, f"{name}[{i}]") for i, (t, v) in enumerate(zip(kinds, value)))
    elif type(value) in _SCALARS.get(tp, ()):
        return value
    want = "an object" if is_dataclass(tp) else tp.__name__ if isinstance(tp, type) else tp
    raise TypeError(f"{name} must be {want}, got {value!r}")


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
            self.optimizer.validate()
            self.dataset.validate()
            self.curriculum.validate(self.vae, self.dataset, self.optimizer.total_steps)
            self.refdec.check_grid(self.vae, self.dataset.height, self.dataset.width)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.injection not in INJECTIONS:
            raise ConfigError(f"injection must be one of {tuple(INJECTIONS)}")
        if not 0 <= self.lambda_perc < float("inf"):  # False for NaN
            raise ConfigError("lambda_perc must be non-negative and finite")
        seeds = {f"seeds.{k}": v for k, v in asdict(self.seeds).items()}
        seeds["dataset.master_seed"] = self.dataset.master_seed
        for name, seed in seeds.items():
            if seed is not None and not (isinstance(seed, int) and seed >= 0):
                raise ConfigError(f"{name} must be a non-negative integer, got {seed!r}")

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ref_policy"] = self.ref_policy.value
        d["eval_ref_policy"] = self.eval_ref_policy.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            return _typed(cls, d, "config")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def load(cls, path: Path) -> "ExperimentConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 (UnicodeDecodeError) or not JSON
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
