"""Dynamic knowledge recovery for the compact model.

Two phases in order, pretraining-style then instruction-style. Each round
builds a training subset that prioritizes sources by their perplexity
degradation against cached full-model reference scores, guaranteeing every
source a floor allocation, and runs LoRA-only fine-tuning on it. Each model
state is scored once: the per-source scores taken after a round give the
phase's pooled validation loss, which a patience-based convergence tracker
checks, and the next round's degradation. The adaptor is folded into the
weights when a phase converges; shapes never change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .artifacts import event_log
from .config import RecoverySection
from .data import SourceTaggedCorpus
from .errors import ConfigError
from .evaluate import pooled_loss, source_losses
from .model import LoraModel
from .optim import lora_optimizer, train_step


@dataclass
class ConvergenceTracker:
    tol: float
    patience: int
    best: float = math.inf
    stale_rounds: int = 0

    def update(self, value: float) -> bool:
        """Record a validation loss; True when the phase should stop."""
        if self.best - value > self.tol:
            self.best = value
            self.stale_rounds = 0
        else:
            self.stale_rounds += 1
        return self.stale_rounds >= self.patience


def measure_degradation(losses: dict[str, float], full_scores: dict[str, float]) -> dict[str, float]:
    """Per-source ppl - ppl(full reference), from a model's ``source_losses``."""
    return {name: math.exp(loss) - full_scores[name] for name, loss in losses.items()}


def _phase_ppl(losses: dict[str, dict[str, float]]) -> dict[str, float]:
    """``source_losses`` by phase as ppls keyed ``phase/source``."""
    return {f"{phase}/{name}": math.exp(v) for phase, by in losses.items() for name, v in by.items()}


def allocate_subset(
    names: list[str], degradation: dict[str, float], total: int, floor_frac: float
) -> dict[str, int]:
    """Floor allocation floor(floor_frac*total) per source, remainder split
    proportionally to positive degradation by largest-remainder rounding.
    The counts always sum to exactly ``total``."""
    if not names:
        raise ConfigError("allocation requires at least one source")
    if floor_frac * len(names) >= 1.0:
        raise ConfigError(f"source_floor {floor_frac} * {len(names)} sources must be < 1")
    if floor_frac > 0 and total < len(names):
        raise ConfigError(f"subset_size {total} smaller than {len(names)} sources with floor active")
    names = sorted(names)
    base = int(math.floor(floor_frac * total))
    remainder = total - base * len(names)
    weights = np.array([max(degradation[n], 0.0) for n in names])
    if weights.sum() == 0:
        weights = np.ones(len(names))
    quotas = remainder * weights / weights.sum()
    counts = {n: base + int(math.floor(q)) for n, q in zip(names, quotas)}
    leftover = total - sum(counts.values())
    fractional = sorted(
        zip(names, quotas), key=lambda nq: (-(nq[1] - math.floor(nq[1])), nq[0])
    )
    for n, _ in fractional[:leftover]:
        counts[n] += 1
    return counts


def build_subset(
    corpus: SourceTaggedCorpus,
    degradation: dict[str, float],
    total: int,
    floor_frac: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, dict[str, int]]:
    """Sample the allocated counts per source without replacement, seeded."""
    counts = allocate_subset(corpus.source_names, degradation, total, floor_frac)
    parts = []
    for name in corpus.source_names:
        pool = corpus.sources[name].train
        n = counts[name]
        if n > len(pool):
            raise ConfigError(
                f"source {name!r} has {len(pool)} training sequences, need {n}: "
                "lower config.recovery.subset_size or raise config.data.train_sequences_per_source"
            )
        idx = rng.choice(len(pool), size=n, replace=False)
        parts.append(pool[np.sort(idx)])
    return np.concatenate(parts), counts


def recovery_round(
    model: LoraModel, subset: np.ndarray, config: RecoverySection, rng: np.random.Generator
) -> list[float]:
    """LoRA-only SGD steps over a built subset."""
    opt = lora_optimizer(model, config.learning_rate)
    losses = []
    for step in range(config.round_steps):
        idx = rng.integers(0, len(subset), size=config.batch_size)
        losses.append(train_step(model, subset[idx], opt, where=f"recovery step {step}"))
    return losses


@dataclass
class RecoverySummary:
    pre_ppl: dict[str, float]
    post_ppl: dict[str, float]
    pre_mean_ppl: float = field(init=False)
    post_mean_ppl: float = field(init=False)

    def __post_init__(self):
        self.pre_mean_ppl = float(np.mean(list(self.pre_ppl.values())))
        self.post_mean_ppl = float(np.mean(list(self.post_ppl.values())))


def run_recovery(
    model: LoraModel,
    corpora: dict[str, SourceTaggedCorpus],
    full_scores: dict[str, dict[str, float]],
    config: RecoverySection,
    seed: int,
    log_path=None,
) -> RecoverySummary:
    """Run both phases in order on ``model`` (mutated in place, LoRA merged).

    ``corpora`` maps phase name -> corpus; phases run in the fixed order
    ("pretraining", "instruct"), the second starting only after the first
    converges. ``full_scores`` are the cached full-model per-source ppls.
    ``config`` is the pipeline's ``recovery`` section, checked when it
    loaded; ``seed`` seeds the subset and batch draws.
    """
    phases = [p for p in ("pretraining", "instruct") if p in corpora]
    if not phases:
        raise ConfigError("recovery requires at least one corpus phase")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x2EC0]))

    with event_log(log_path) as emit:
        start = {phase: source_losses(model, corpora[phase]) for phase in phases}
        pre_ppl = _phase_ppl(start)
        emit({"event": "start", "pre_ppl": pre_ppl})
        for phase in phases:
            corpus = corpora[phase]
            tracker = ConvergenceTracker(tol=config.tol, patience=config.patience)
            # the first phase starts from the model just scored, a later one
            # from the model the previous phase's merge changed
            losses = start[phase] if phase == phases[0] else source_losses(model, corpus)
            for round_idx in range(config.max_rounds):
                degradation = measure_degradation(losses, full_scores[phase])
                subset, allocations = build_subset(
                    corpus, degradation, config.subset_size, config.source_floor, rng
                )
                recovery_round(model, subset, config, rng)
                losses = source_losses(model, corpus)
                val_loss = pooled_loss(losses, corpus)
                converged = tracker.update(val_loss)
                emit(
                    {
                        "event": "round",
                        "phase": phase,
                        "round": round_idx,
                        "degradation": degradation,
                        "allocations": allocations,
                        "val_loss": val_loss,
                        "best_val_loss": tracker.best,
                        "converged": converged,
                    }
                )
                if converged:
                    break
            model.merge_all_lora()
            emit({"event": "phase_end", "phase": phase})
        post_ppl = _phase_ppl({phase: source_losses(model, corpora[phase]) for phase in phases})
        emit({"event": "done", "post_ppl": post_ppl})
        return RecoverySummary(pre_ppl=pre_ppl, post_ppl=post_ppl)
