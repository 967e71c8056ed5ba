"""Perplexity evaluation: exp of mean token-level cross entropy."""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .data import SourceTaggedCorpus
from .errors import ConfigError
from .model import LoraModel
from .tensor import Tensor

_CHUNK = 32  # fixed so summation order (and therefore bytes) is reproducible


def empty_residuals(sequences: np.ndarray, sublayers) -> list[dict[int, Tensor | None]]:
    """One ``keep`` dict naming ``sublayers`` per chunk that ``mean_cross_entropy`` scores."""
    n = len(np.atleast_2d(sequences))
    return [dict.fromkeys(sublayers) for _ in range(0, n, _CHUNK)]


def mean_cross_entropy(
    model: LoraModel,
    sequences: np.ndarray,
    *,
    start: int = 0,
    residuals: list[dict[int, Tensor | None]] | None = None,
    keep: list[dict[int, Tensor | None]] | None = None,
) -> float:
    """Mean next-token cross entropy over (n, seq_len + 1) id sequences.

    ``start``, ``residuals`` and ``keep`` pass through to ``LoraModel.forward``
    per chunk: ``residuals[c]`` and ``keep[c]`` are chunk c's dicts of
    residual streams by sublayer (see ``empty_residuals``).
    """
    sequences = np.asarray(sequences)
    if sequences.ndim == 1:
        sequences = sequences[None, :]
    if sequences.size == 0:
        raise ConfigError("evaluation set is empty")
    total_nll = 0.0
    total_tokens = 0
    for c, begin in enumerate(range(0, len(sequences), _CHUNK)):
        chunk = sequences[begin : begin + _CHUNK]
        logits = model.forward(
            chunk[:, :-1],
            start=start,
            residual=residuals[c][start] if start else None,
            keep=None if keep is None else keep[c],
        )
        loss = T.cross_entropy(logits, chunk[:, 1:])
        tokens = chunk[:, 1:].size
        total_nll += loss.item() * tokens
        total_tokens += tokens
    return total_nll / total_tokens


def perplexity(model: LoraModel, sequences: np.ndarray) -> float:
    return math.exp(mean_cross_entropy(model, sequences))


def source_losses(model: LoraModel, corpus: SourceTaggedCorpus) -> dict[str, float]:
    """Mean cross entropy of each source's validation split: one model state's one scoring pass."""
    if not corpus.sources:
        raise ConfigError(f"corpus {corpus.name!r} has no sources")
    losses = {}
    for name, src in sorted(corpus.sources.items()):
        if src.val.size == 0:
            raise ConfigError(f"source {name!r} has an empty validation split")
        losses[name] = mean_cross_entropy(model, src.val)
    return losses


def pooled_loss(losses: dict[str, float], corpus: SourceTaggedCorpus) -> float:
    """Token-weighted mean of ``source_losses``: the loss of the pooled validation split."""
    tokens = {name: corpus.sources[name].val[:, 1:].size for name in losses}
    return sum(losses[name] * tokens[name] for name in losses) / sum(tokens.values())


def per_source_perplexity(model: LoraModel, corpus: SourceTaggedCorpus) -> dict[str, float]:
    """Perplexity of each source's validation split, by source name."""
    return {name: math.exp(loss) for name, loss in source_losses(model, corpus).items()}
