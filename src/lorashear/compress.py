"""Construct the physically smaller model from the pruning solution.

Two passes over the dependency graph. Pass one walks the node groups and
records, for every tensor whose rows belong to a redundant structure, the
output-row indices to erase. Pass two walks each consumer's incoming edges
backward through the shape-preserving ops to the producers feeding it and
erases the matching input columns, checking that every producer reports the
same pruned status (a disagreement means the plan is inconsistent and is a
hard error). LoRA factors shrink alongside their hosts so the compact model
stays fine-tunable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PlanError
from .graph import TraceGraph
from .groups import GroupSet, NodeGroups
from .model import Block, LoraLinear, LoraModel
from .tensor import Tensor

_PRODUCER_KINDS = ("linear", "lora_B", "embedding")
_PASS_THROUGH_KINDS = ("add", "mul", "silu", "rmsnorm", "reshape", "softmax")


@dataclass
class CompressionPlan:
    """Kept indices per (tensor, axis); kept[i] is the old index of new index i."""

    kept: dict[str, dict[int, list[int]]] = field(default_factory=dict)
    removed_units: dict[str, list[int]] = field(default_factory=dict)
    block_dims: list[dict] = field(default_factory=list)

    def is_identity(self) -> bool:
        return not self.kept

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kept": {p: {str(a): idx for a, idx in axes.items()} for p, axes in sorted(self.kept.items())},
            "removed_units": {k: v for k, v in sorted(self.removed_units.items())},
            "block_dims": self.block_dims,
        }


def _upstream_producers(graph: TraceGraph, node_id: str) -> set[str]:
    """Producer nodes whose output channels reach this node's input unchanged."""
    producers: set[str] = set()
    frontier = list(graph.inputs[node_id])
    seen = set()
    while frontier:
        nid = frontier.pop()
        if nid in seen:
            continue
        seen.add(nid)
        kind = graph.nodes[nid].kind
        if kind in _PRODUCER_KINDS:
            producers.add(nid)
        elif kind in _PASS_THROUGH_KINDS:
            frontier.extend(graph.inputs[nid])
        else:
            raise PlanError(f"cannot propagate pruning through node kind {kind!r}")
    return producers


def plan_compression(group_set: GroupSet, node_groups: NodeGroups, graph: TraceGraph, model: LoraModel) -> CompressionPlan:
    params = model.parameters()
    plan = CompressionPlan()
    plan.block_dims = [
        {"n_heads": b.n_heads, "head_dim": b.head_dim, "mlp_dim": b.mlp_dim}
        for b in model.blocks
    ]

    redundant = {gid for gid in group_set.status if group_set.status[gid] == "redundant"}
    if not redundant:
        return plan

    # pass 1: walk the node groups, erasing along the primary dimension; the
    # removed rows come from the structure groups' own slices
    row_removed: dict[str, set[int]] = {}  # producer node id -> removed rows
    families = {f.id: f for f in node_groups.prunable_families()}
    member_node = {
        (m.param, m.axis): m.node_id for f in families.values() for m in f.members
    }
    for g in group_set.groups:
        if g.id not in redundant:
            continue
        plan.removed_units.setdefault(g.node_group, []).append(g.unit_index)
        for s in g.slices:
            if s.axis != 0:
                continue
            row_removed.setdefault(member_node[(s.param, 0)], set()).update(s.indices)
            _remove(plan, params, s.param, 0, s.indices)
    for fid in plan.removed_units:
        plan.removed_units[fid] = sorted(set(plan.removed_units[fid]))

    # pass 2: erase along the secondary dimension upon the pruned status of the
    # incoming structures; every producer feeding a consumer must report the
    # same removed set or the plan is inconsistent
    for family in node_groups.prunable_families():
        for m in family.members:
            if m.axis != 1:
                continue
            incoming = _upstream_producers(graph, m.node_id)
            reported = {
                nid: frozenset(row_removed.get(nid, set()))
                for nid in incoming
                if graph.nodes[nid].kind != "embedding"
            }
            agreed = set(reported.values())
            if len(agreed) > 1:
                raise PlanError(
                    f"consumer {m.node_id} sees inconsistent pruned inputs: "
                    + ", ".join(f"{nid}={sorted(rows)[:4]}" for nid, rows in sorted(reported.items()))
                )
            cols = set(agreed.pop()) if agreed else set()
            if cols:
                _remove(plan, params, m.param, 1, cols)

    for fid, removed in plan.removed_units.items():
        family = families[fid]
        kept_units = family.n_units - len(removed)
        b = int(fid.split(".")[1])
        if family.granularity == "head":
            plan.block_dims[b]["n_heads"] = kept_units
        else:
            plan.block_dims[b]["mlp_dim"] = kept_units
    return plan


def _remove(plan: CompressionPlan, params, param: str, axis: int, channels) -> None:
    full = params[param].data.shape[axis]
    current = plan.kept.setdefault(param, {}).setdefault(axis, list(range(full)))
    drop = set(channels)
    plan.kept[param][axis] = [i for i in current if i not in drop]


def apply_compression(model: LoraModel, plan: CompressionPlan) -> LoraModel:
    """Materialize the compact model; identity plan yields a bit-identical clone."""
    compact = model.clone()
    params = compact.parameters()
    for param, axes in plan.kept.items():
        t = params[param]
        data = t.data
        for axis in sorted(axes):
            data = np.take(data, axes[axis], axis=axis)
        t.data = np.ascontiguousarray(data)
    for block, dims in zip(compact.blocks, plan.block_dims):
        block.n_heads = dims["n_heads"]
        block.head_dim = dims["head_dim"]
        block.mlp_dim = dims["mlp_dim"]
    return compact

