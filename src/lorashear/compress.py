"""Construct the physically smaller model from the pruning solution.

A structure group already lists every slice its removal touches: the
producer rows, the consumer columns and the matching LoRA slices. The plan
erases all of them, on every axis, for each redundant group; a group whose
slices do not share one index set is inconsistent and a hard error. LoRA
factors shrink alongside their hosts so the compact model stays
fine-tunable, and each block's head count and MLP width follow from its
shrunk tensors; a sublayer left with no head or channel is dropped whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PlanError
from .groups import GroupSet
from .model import LoraModel, parameter_shapes


@dataclass
class CompressionPlan:
    """Kept indices per (tensor, axis); kept[i] is the old index of new index i."""

    kept: dict[str, dict[int, list[int]]] = field(default_factory=dict)
    removed_units: dict[str, list[int]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kept": {p: {str(a): idx for a, idx in axes.items()} for p, axes in sorted(self.kept.items())},
            "removed_units": {k: v for k, v in sorted(self.removed_units.items())},
        }


def plan_compression(group_set: GroupSet, model: LoraModel) -> CompressionPlan:
    """Erase every slice of each redundant structure group, on whichever axis it lies.

    The kept indices of each (tensor, axis) come from one keep-mask over the
    group set's index.
    """
    params = model.parameters()
    plan = CompressionPlan()
    redundant = group_set.ids_with_status("redundant")
    for gid in redundant:
        g = group_set.by_id[gid]
        if len({s.indices for s in g.slices}) > 1:
            raise PlanError(
                f"structure group {g.id} has inconsistent slices: "
                + ", ".join(f"{s.param}[{s.axis}]={list(s.indices)[:4]}" for s in g.slices)
            )
        plan.removed_units.setdefault(g.node_group, []).append(g.unit_index)
    selected = group_set.mask(redundant)
    for (param, axis), entry in group_set.index.items():
        drop = entry.owned_by(selected)
        if drop.size:
            keep = np.ones(params[param].data.shape[axis], dtype=bool)
            keep[drop] = False
            plan.kept.setdefault(param, {})[axis] = np.flatnonzero(keep).tolist()
    for fid in plan.removed_units:
        plan.removed_units[fid] = sorted(set(plan.removed_units[fid]))
    return plan


def apply_compression(model: LoraModel, plan: CompressionPlan) -> LoraModel:
    """Materialize the compact model, the tensors ``parameter_shapes`` lists for
    the shrunk blocks; an identity plan yields a bit-identical clone."""
    shrunk = model.clone()
    params = shrunk.parameters()
    for param, axes in plan.kept.items():
        t = params[param]
        data = t.data
        for axis in sorted(axes):
            data = np.take(data, axes[axis], axis=axis)
        t.data = np.ascontiguousarray(data)
    dims = [(b.n_heads, b.head_dim, b.mlp_dim) for b in shrunk.blocks]
    return LoraModel(model.config, {name: params[name] for name in parameter_shapes(model.config, dims)})

