"""The saliency proxy ranking structure groups by estimated importance.

Knowledge analysis (which structures to drop first inside a probed node
group), the pruning optimizer (which groups become redundant each period)
and the one-shot baseline all pick groups with ``least_salient``.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import GroupSet, StructureGroup, effective_slice_vector
from .model import LoraModel


def effective_l2(model: LoraModel, group: StructureGroup) -> float:
    """Size-normalized l2 of the effective weight (host + gamma*B@A) slices:
    the proxy's definition, one group at a time. Rankings read
    ``effective_l2_all``, which tests compare against this."""
    v = effective_slice_vector(model, group)
    return float(np.linalg.norm(v)) / math.sqrt(v.size)


def effective_l2_all(model: LoraModel, group_set: GroupSet) -> np.ndarray:
    """``effective_l2`` of every group, by ordinal, read per host tensor.

    Each host axis forms its module's effective weight once, takes its row
    or column sums of squares, and adds them to the owning groups. The
    values equal the per-group ones up to summation order (1e-12 relative).
    """
    modules = model.lora_linears()
    n = len(group_set.groups)
    squares, sizes = np.zeros(n), np.zeros(n)
    for (param, axis), entry in group_set.index.items():
        if entry.role != "host":
            continue
        mod = modules[param.removesuffix(".weight")]
        w = mod.weight.data
        if mod.has_lora:
            w = w + mod.gamma * (mod.lora_b.data @ mod.lora_a.data)
        sums = (w * w).sum(axis=1 - axis)
        squares += np.bincount(entry.owners, weights=sums[entry.indices], minlength=n)
        sizes += np.bincount(entry.owners, minlength=n) * w.shape[1 - axis]
    return np.sqrt(squares) / np.sqrt(sizes)


def least_salient(
    model: LoraModel, group_set: GroupSet, groups: list[StructureGroup], k: int | None = None
) -> list[StructureGroup]:
    """``groups`` of ``group_set`` by ascending (effective_l2, id), cut to the
    first ``k`` (all when None)."""
    values = effective_l2_all(model, group_set).tolist()
    return sorted(groups, key=lambda g: (values[group_set.ordinal[g.id]], g.id))[:k]
