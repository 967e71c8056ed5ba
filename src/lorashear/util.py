"""Small shared helpers: model hashing and per-stage seeding."""

from __future__ import annotations

import hashlib

import numpy as np

from .model import LoraModel


def model_hash(model: LoraModel) -> str:
    """sha256 over canonical tensor names and raw payload bytes."""
    h = hashlib.sha256()
    params = model.parameters()
    for name in sorted(params):
        h.update(name.encode("utf-8"))
        h.update(params[name].data.astype("<f8").tobytes())
    return h.hexdigest()


def stage_rng(seed: int, stage: str) -> np.random.Generator:
    """Per-stage generator so running stages individually matches run-all."""
    stage_key = int.from_bytes(hashlib.sha256(stage.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([int(seed), stage_key]))
