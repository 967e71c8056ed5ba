"""Pipeline configuration: one JSON document, validated with path-qualified errors.

All defaults are materialized into the output directory at the start of a
run so every run is self-documenting. A single seed fans out
deterministically to every stage.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .artifacts import canonical_json, read_json, write_json
from .errors import ConfigError
from .model import SIZE_FIELDS


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
    pretraining_sources: list[str] = field(default_factory=lambda: ["markov", "brackets", "copy", "runs"])
    instruct_sources: list[str] = field(default_factory=lambda: ["qa_copy", "qa_lookup"])
    train_sequences_per_source: int = 160
    val_sequences_per_source: int = 16
    seq_len: int = 48


@dataclass
class PretrainSection:
    steps: int = 350
    batch_size: int = 8
    learning_rate: float = 3e-3
    optimizer: str = "adamw"


@dataclass
class AnalysisSection:
    ratios: list[float] = field(default_factory=lambda: [0.25, 0.5])
    unprunable_fraction: float = 0.1
    eval_sequences: int = 16
    saliency: str = "effective_l2"


@dataclass
class LhspgSection:
    warmup_steps: int = 100
    periods: int = 4
    steps_per_period: int = 40
    pruning_ratio: float = 0.2
    learning_rate: float = 0.3
    optimizer: str = "sgd"
    lr_schedule: str = "constant"
    halfspace_eps: float = 0.0
    saliency: str = "effective_l2"
    batch_size: int = 8


@dataclass
class RecoverySection:
    subset_size: int = 96
    source_floor: float = 0.05
    round_steps: int = 30
    learning_rate: float = 0.15
    optimizer: str = "sgd"
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

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict())).hexdigest()


_SECTIONS = {
    "model": ModelSection,
    "data": DataSection,
    "pretrain": PretrainSection,
    "analysis": AnalysisSection,
    "lhspg": LhspgSection,
    "recovery": RecoverySection,
}


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
    for key, value in raw.items():
        if key == "seed":
            cfg.seed = _coerce("config.seed", value, int)
            continue
        if key not in _SECTIONS:
            raise ConfigError(f"config.{key}: unknown section")
        if not isinstance(value, dict):
            raise ConfigError(f"config.{key}: expected an object")
        section = getattr(cfg, key)
        defaults = _SECTIONS[key]()
        for name, v in value.items():
            if not hasattr(defaults, name):
                raise ConfigError(f"config.{key}.{name}: unknown field")
            expected = type(getattr(defaults, name))
            setattr(section, name, _coerce(f"config.{key}.{name}", v, expected))
    _validate(cfg)
    return cfg


def _validate(cfg: PipelineConfig) -> None:
    m = cfg.model
    for name in SIZE_FIELDS:
        if getattr(m, name) < 1:
            raise ConfigError(f"config.model.{name}: must be >= 1, got {getattr(m, name)}")
    if m.dim % m.n_heads != 0:
        raise ConfigError(f"config.model.dim: {m.dim} not divisible by n_heads {m.n_heads}")
    if cfg.data.seq_len > m.block_size:
        raise ConfigError(
            f"config.data.seq_len: {cfg.data.seq_len} exceeds model.block_size {m.block_size}"
        )
    if not (0.0 <= cfg.analysis.unprunable_fraction < 1.0):
        raise ConfigError("config.analysis.unprunable_fraction: must be in [0, 1)")
    if not (0.0 < cfg.lhspg.pruning_ratio <= 1.0):
        raise ConfigError("config.lhspg.pruning_ratio: must be in (0, 1]")
    if not (0.0 <= cfg.lhspg.halfspace_eps < 1.0):
        raise ConfigError("config.lhspg.halfspace_eps: must be in [0, 1)")
    if cfg.lhspg.periods < 1:
        raise ConfigError("config.lhspg.periods: must be >= 1")
    if cfg.lhspg.steps_per_period < 1:
        raise ConfigError("config.lhspg.steps_per_period: must be >= 1")
    if not cfg.data.pretraining_sources:
        raise ConfigError("config.data.pretraining_sources: must not be empty")
    if not cfg.data.instruct_sources:
        raise ConfigError("config.data.instruct_sources: must not be empty")
    n_sources = len(cfg.data.pretraining_sources)
    if cfg.recovery.source_floor * max(n_sources, len(cfg.data.instruct_sources)) >= 1.0:
        raise ConfigError("config.recovery.source_floor: floor * |sources| must be < 1")


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    raw = read_json(path, ConfigError)
    try:
        return config_from_dict(raw)
    except ConfigError as e:  # name the file that holds the bad value
        raise ConfigError(f"{path}: {e}") from e


def write_config(cfg: PipelineConfig, path: str | Path) -> None:
    write_json(path, cfg.to_dict())
