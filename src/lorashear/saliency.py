"""Pluggable saliency proxies ranking structure groups by estimated importance.

One registry serves both knowledge analysis (which structures to drop first
inside a probed node group) and the pruning optimizer (which groups become
redundant each period), keeping a single project-wide proxy definition.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConfigError
from .groups import StructureGroup, effective_slice_vector, frozen_slice_vector
from .model import LoraModel

SaliencyFn = Callable[[LoraModel, StructureGroup], float]

# saliency proxies by config name, filled by @register
SALIENCIES: dict[str, SaliencyFn] = {}


def register(name: str):
    def deco(fn: SaliencyFn) -> SaliencyFn:
        SALIENCIES[name] = fn
        return fn

    return deco


def get_saliency(name: str) -> SaliencyFn:
    if name not in SALIENCIES:
        raise ConfigError(f"unknown saliency proxy {name!r}; known: {sorted(SALIENCIES)}")
    return SALIENCIES[name]


@register("effective_l2")
def effective_l2(model: LoraModel, group: StructureGroup) -> float:
    """Size-normalized l2 of the effective weight (host + gamma*B@A) slices."""
    v = effective_slice_vector(model, group)
    return float(np.linalg.norm(v)) / math.sqrt(v.size)


@register("frozen_l2")
def frozen_l2(model: LoraModel, group: StructureGroup) -> float:
    """Size-normalized l2 of the frozen host slices only."""
    v = frozen_slice_vector(model, group)
    return float(np.linalg.norm(v)) / math.sqrt(v.size)
