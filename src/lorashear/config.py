"""Pipeline configuration: one JSON document, validated with path-qualified errors.

The sections below are the only configuration; each stage reads its section
as it is. Every value is judged when the config loads, before any stage
writes a file, by ``ModelConfig`` and the ``RULES`` table: a bad value is a
ConfigError naming its ``config.<section>.<field>`` path. Stages never judge
a value again; each rule has this one copy. One combination waits for
analyze's group count: prune rejects a ``lhspg.pruning_ratio`` and
``analysis.unprunable_fraction`` that would zero every structure group.

All defaults are materialized into the output directory at the start of a
run so every run is self-documenting. A single seed fans out
deterministically to every stage.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from pathlib import Path

from .artifacts import canonical_json, read_json, write_json
from .data import GENERATORS, INSTRUCT_KINDS, PRETRAIN_KINDS
from .errors import ConfigError
from .model import ModelConfig


@dataclass
class ModelSection:
    vocab_size: int = 64
    dim: int = 32
    n_layers: int = 2
    n_heads: int = 4
    mlp_dim: int = 64
    lora_rank: int = 4
    lora_gamma: float = 2.0
    block_size: int = 48


@dataclass
class DataSection:
    pretraining_sources: list[str] = field(default_factory=lambda: list(PRETRAIN_KINDS))
    instruct_sources: list[str] = field(default_factory=lambda: list(INSTRUCT_KINDS))
    train_sequences_per_source: int = 160
    val_sequences_per_source: int = 16
    seq_len: int = 48


@dataclass
class PretrainSection:
    steps: int = 350
    batch_size: int = 8
    learning_rate: float = 3e-3


@dataclass
class AnalysisSection:
    ratios: list[float] = field(default_factory=lambda: [0.25, 0.5])
    unprunable_fraction: float = 0.1
    eval_sequences: int = 16


@dataclass
class LhspgSection:
    warmup_steps: int = 100
    periods: int = 4
    steps_per_period: int = 40
    pruning_ratio: float = 0.2
    learning_rate: float = 0.3
    halfspace_eps: float = 0.0
    batch_size: int = 8


@dataclass
class RecoverySection:
    subset_size: int = 96
    source_floor: float = 0.05
    round_steps: int = 30
    learning_rate: float = 0.15
    tol: float = 1e-3
    patience: int = 2
    max_rounds: int = 5
    batch_size: int = 8


@dataclass
class PipelineConfig:
    model: ModelSection = field(default_factory=ModelSection)
    data: DataSection = field(default_factory=DataSection)
    pretrain: PretrainSection = field(default_factory=PretrainSection)
    analysis: AnalysisSection = field(default_factory=AnalysisSection)
    lhspg: LhspgSection = field(default_factory=LhspgSection)
    recovery: RecoverySection = field(default_factory=RecoverySection)
    seed: int = 7

    def to_dict(self) -> dict:
        return asdict(self)

    def model_config(self) -> ModelConfig:
        return ModelConfig(**asdict(self.model), seed=self.seed)

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict())).hexdigest()


def _finite(path: str, value):
    """``value``, unless it is a float JSON gave as NaN or an infinity (1e999 too)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: must be a finite number, got {value}")
    return value


def _coerce(path: str, value, expected):
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer past float range
            value = math.inf
        return _finite(path, value)
    if expected is list:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        for i, item in enumerate(value):
            _finite(f"{path}[{i}]", item)
        return value
    if not isinstance(value, expected) or isinstance(value, bool) and expected is not bool:
        raise ConfigError(f"{path}: expected {expected.__name__}, got {type(value).__name__}")
    return _finite(path, value)


def config_from_dict(raw: dict) -> PipelineConfig:
    cfg = PipelineConfig()
    defaults = cfg.to_dict()
    for key, value in raw.items():
        if key == "seed":
            cfg.seed = _coerce("config.seed", value, int)
            continue
        if key not in defaults:
            raise ConfigError(f"config.{key}: unknown section")
        if not isinstance(value, dict):
            raise ConfigError(f"config.{key}: expected an object")
        section = getattr(cfg, key)
        for name, v in value.items():
            if name not in defaults[key]:
                raise ConfigError(f"config.{key}.{name}: unknown field")
            expected = type(defaults[key][name])
            setattr(section, name, _coerce(f"config.{key}.{name}", v, expected))
    _validate(cfg)
    return cfg


def _at_least(low):
    return (lambda v, cfg: v >= low), f">= {low}"


_SOURCES = (
    lambda v, cfg: bool(v)
    and all(type(k) is str and k in GENERATORS for k in v)
    and len(set(v)) == len(v),
    f"a non-empty list of distinct names from {sorted(GENERATORS)}",
)


def _n_sources(cfg) -> int:
    return max(len(cfg.data.pretraining_sources), len(cfg.data.instruct_sources))


def _subset_size(v, cfg) -> bool:
    """A subset has room for one sequence of every source while the floor is active."""
    return v >= 1 and (cfg.recovery.source_floor <= 0 or v >= _n_sources(cfg))


def _source_floor(v, cfg) -> bool:
    """Every source of the longer source list can get its floor share of a subset."""
    return v >= 0 and v * _n_sources(cfg) < 1


# (path under config., rule(value, cfg), what the rule expects); the model
# section is judged by ModelConfig itself, and here only where a pipeline
# needs more than a model does: pruning and recovery train the adaptors
RULES = (
    ("seed", *_at_least(0)),
    ("model.lora_rank", *_at_least(1)),
    ("data.pretraining_sources", *_SOURCES),
    ("data.instruct_sources", *_SOURCES),
    ("data.train_sequences_per_source", *_at_least(1)),
    ("data.val_sequences_per_source", *_at_least(1)),
    ("data.seq_len", lambda v, cfg: 1 <= v <= cfg.model.block_size, "in [1, model.block_size]"),
    ("pretrain.steps", *_at_least(0)),
    ("pretrain.batch_size", *_at_least(1)),
    ("pretrain.learning_rate", lambda v, cfg: v > 0, "> 0"),
    ("analysis.ratios",
     lambda v, cfg: bool(v) and all(type(r) in (int, float) and 0 < r <= 1 for r in v),
     "a non-empty list of numbers in (0, 1]"),
    ("analysis.unprunable_fraction", lambda v, cfg: 0 <= v < 1, "in [0, 1)"),
    ("analysis.eval_sequences", *_at_least(1)),
    ("lhspg.warmup_steps", *_at_least(0)),
    ("lhspg.periods", *_at_least(1)),
    ("lhspg.steps_per_period", *_at_least(1)),
    ("lhspg.pruning_ratio", lambda v, cfg: 0 < v <= 1, "in (0, 1]"),
    ("lhspg.learning_rate", lambda v, cfg: v > 0, "> 0"),
    ("lhspg.halfspace_eps", lambda v, cfg: 0 <= v < 1, "in [0, 1)"),
    ("lhspg.batch_size", *_at_least(1)),
    ("recovery.subset_size", _subset_size,
     ">= 1, and >= the larger source count while recovery.source_floor > 0"),
    ("recovery.source_floor", _source_floor, ">= 0, and below 1 / the larger source count"),
    ("recovery.round_steps", *_at_least(1)),
    ("recovery.learning_rate", lambda v, cfg: v > 0, "> 0"),
    ("recovery.tol", *_at_least(0)),
    ("recovery.patience", *_at_least(1)),
    ("recovery.max_rounds", *_at_least(1)),
    ("recovery.batch_size", *_at_least(1)),
)


def _validate(cfg: PipelineConfig) -> None:
    try:
        cfg.model_config()
    except ConfigError as e:  # its messages start at the section: "model.dim: ..."
        raise ConfigError(f"config.{e}") from e
    for path, rule, expected in RULES:
        value = attrgetter(path)(cfg)
        if not rule(value, cfg):
            raise ConfigError(f"config.{path}: must be {expected}, got {value!r}")


def load_config(path: str | Path | None, seed: int | None = None) -> PipelineConfig:
    """The config in JSON file ``path`` (the defaults when None), checked by
    every rule; ``seed``, when given, replaces its seed and is checked too."""
    raw = {} if path is None else read_json(path, ConfigError)
    try:
        cfg = config_from_dict(raw)
    except ConfigError as e:  # name the file that holds the bad value
        raise ConfigError(f"{path}: {e}") from e
    if seed is not None:
        cfg.seed = seed
        _validate(cfg)
    return cfg


def write_config(cfg: PipelineConfig, path: str | Path) -> None:
    write_json(path, cfg.to_dict())
