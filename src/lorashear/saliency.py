"""The saliency proxy ranking structure groups by estimated importance.

Knowledge analysis (which structures to drop first inside a probed node
group), the pruning optimizer (which groups become redundant each period)
and the one-shot baseline all pick groups with ``least_salient``.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import StructureGroup, effective_slice_vector
from .model import LoraModel


def effective_l2(model: LoraModel, group: StructureGroup) -> float:
    """Size-normalized l2 of the effective weight (host + gamma*B@A) slices."""
    v = effective_slice_vector(model, group)
    return float(np.linalg.norm(v)) / math.sqrt(v.size)


def least_salient(
    model: LoraModel, groups: list[StructureGroup], k: int | None = None
) -> list[StructureGroup]:
    """``groups`` by ascending (effective_l2, id), cut to the first ``k`` (all when None)."""
    return sorted(groups, key=lambda g: (effective_l2(model, g), g.id))[:k]
