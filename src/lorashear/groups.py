"""Minimally removal structure discovery over the trace graph.

Dependency closure is computed by flowing channel "spaces" along the graph:
every linear-like node opens a fresh space on its output rows and binds its
input columns to the incoming space; elementwise ops (add, mul, silu) union
the spaces of their operands; rmsnorm binds its gain and passes through; the
head split/mix/merge trio tags the flowing space as head-granular. LoRA
factors bind into the same spaces through their host's add node, which is
what puts a lora_B node in two groups at once: its composed span and the
basic dependency class of its host's output.

Each resulting class is one *node group*. Classes touching embeddings, norm
gains, or the output head are unprunable by construction (the residual
stream and the vocabulary dimension are never pruned). Prunable classes
partition into structure groups: one per MLP channel or attention head, each
a set of (tensor, axis, indices) slices that must be removed together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_json
from .errors import AnalysisError
from .graph import ComposedSpan, TraceGraph
from .model import LoraModel


@dataclass(frozen=True)
class Member:
    """A parameter tensor axis bound to a node group's structure index space."""

    node_id: str
    param: str
    axis: int


@dataclass
class NodeGroup:
    id: str
    kind: str  # "basic" | "composed"
    prunable: bool
    granularity: str  # "channel" | "head" | "none"
    size: int  # channels in the shared index space (0 for composed spans)
    n_units: int
    unit_width: int
    members: list[Member]
    through: tuple[str, ...] = ()
    links: dict[str, str] = field(default_factory=dict)  # composed: side -> basic id

    def member_nodes(self) -> set[str]:
        return {m.node_id for m in self.members}


@dataclass
class NodeGroups:
    basic: list[NodeGroup]
    composed: list[NodeGroup]

    def prunable_families(self) -> list[NodeGroup]:
        """The probe-able units of knowledge analysis: prunable basic classes."""
        return [g for g in self.basic if g.prunable]

    def all_groups(self) -> list[NodeGroup]:
        return self.basic + self.composed

    def by_id(self) -> dict[str, NodeGroup]:
        return {g.id: g for g in self.all_groups()}


@dataclass(frozen=True)
class Slice:
    """One (tensor, axis, indices) triple of a minimally removal structure."""

    param: str
    axis: int
    indices: tuple[int, ...]
    role: str  # "host" | "lora_a" | "lora_b"


@dataclass
class StructureGroup:
    id: str
    node_group: str
    kind: str  # "mlp_channel" | "attn_head"
    unit_index: int
    slices: tuple[Slice, ...]

    def host_slices(self) -> tuple[Slice, ...]:
        return tuple(s for s in self.slices if s.role == "host")

    def lora_slices(self) -> tuple[Slice, ...]:
        return tuple(s for s in self.slices if s.role != "host")


STATUSES = ("prunable", "unprunable", "redundant", "important")


@dataclass
class GroupSet:
    groups: list[StructureGroup]
    status: dict[str, str]

    def __post_init__(self):
        self.by_id = {g.id: g for g in self.groups}

    def ids_with_status(self, *statuses: str) -> list[str]:
        return [g.id for g in self.groups if self.status[g.id] in statuses]

    def prunable_ids(self) -> list[str]:
        return self.ids_with_status("prunable")

    def set_status(self, group_id: str, status: str) -> None:
        if status not in STATUSES:
            raise AnalysisError(f"unknown group status {status!r}")
        self.status[group_id] = status


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def make(self, key: str) -> str:
        self.parent.setdefault(key, key)
        return key

    def find(self, key: str) -> str:
        root = key
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def union(self, a: str, b: str) -> str:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the lexicographically smaller root for determinism
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra
        return ra


def discover_node_groups(graph: TraceGraph, spans: list[ComposedSpan]) -> NodeGroups:
    """Build basic dependency classes and composed span groups (with links)."""
    uf = _UnionFind()
    out_space: dict[str, str] = {}
    bindings: dict[str, list[Member]] = {}
    through: dict[str, list[str]] = {}
    head_tag: dict[str, tuple[int, int]] = {}
    rank_spaces: set[str] = set()

    def bind(space: str, member: Member) -> None:
        bindings.setdefault(uf.find(space), []).append(member)

    def fresh(node_id: str) -> str:
        return uf.make(f"space:{node_id}")

    for nid in graph.topological_order():
        node = graph.nodes[nid]
        preds = graph.inputs[nid]
        if node.kind == "embedding":
            space = fresh(nid)
            bind(space, Member(nid, node.param, 1))
            out_space[nid] = space
        elif node.kind in ("linear", "head"):
            in_space = uf.find(out_space[preds[0]])
            bind(in_space, Member(nid, node.param, 1))
            space = fresh(nid)
            bind(space, Member(nid, node.param, 0))
            out_space[nid] = space
        elif node.kind == "lora_A":
            in_space = uf.find(out_space[preds[0]])
            bind(in_space, Member(nid, node.param, 1))
            space = fresh(nid)
            rank_spaces.add(space)
            bind(space, Member(nid, node.param, 0))
            out_space[nid] = space
        elif node.kind == "lora_B":
            rank_space = uf.find(out_space[preds[0]])
            bind(rank_space, Member(nid, node.param, 1))
            space = fresh(nid)
            bind(space, Member(nid, node.param, 0))
            out_space[nid] = space
        elif node.kind in ("add", "mul"):
            space = uf.union(uf.find(out_space[preds[0]]), uf.find(out_space[preds[1]]))
            through.setdefault(space, []).append(nid)
            out_space[nid] = space
        elif node.kind == "silu":
            space = uf.find(out_space[preds[0]])
            through.setdefault(space, []).append(nid)
            out_space[nid] = space
        elif node.kind == "rmsnorm":
            space = uf.find(out_space[preds[0]])
            bind(space, Member(nid, node.param, 0))
            through.setdefault(space, []).append(nid)
            out_space[nid] = space
        elif node.kind == "reshape":
            space = uf.find(out_space[preds[0]])
            tag = (node.attr("heads"), node.attr("head_dim"))
            prev = head_tag.get(space)
            if prev is not None and prev != tag:
                raise AnalysisError(f"conflicting head tags on one dependency class at {nid}")
            head_tag[space] = tag
            through.setdefault(space, []).append(nid)
            out_space[nid] = space
        elif node.kind == "softmax":
            space = uf.find(out_space[preds[0]])
            for p in preds[1:]:
                space = uf.union(space, uf.find(out_space[p]))
            through.setdefault(space, []).append(nid)
            out_space[nid] = space
        else:
            raise AnalysisError(f"unclassifiable op kind {node.kind!r} at node {nid}")

    # regroup per final union-find roots
    classes: dict[str, list[Member]] = {}
    for space, members in bindings.items():
        classes.setdefault(uf.find(space), []).extend(members)
    class_through: dict[str, list[str]] = {}
    for space, nids in through.items():
        class_through.setdefault(uf.find(space), []).extend(nids)
    class_heads: dict[str, tuple[int, int]] = {}
    for space, tag in head_tag.items():
        root = uf.find(space)
        if root in class_heads and class_heads[root] != tag:
            raise AnalysisError("conflicting head tags on one dependency class")
        class_heads[root] = tag
    rank_roots = {uf.find(s) for s in rank_spaces}

    basic: list[NodeGroup] = []
    for root in sorted(classes):
        if root in rank_roots:
            continue
        members = sorted(classes[root], key=lambda m: (m.param, m.axis))
        unpr = any(
            graph.nodes[m.node_id].kind in ("embedding", "rmsnorm", "head") for m in members
        )
        gran = "head" if root in class_heads else "channel"
        basic.append(
            NodeGroup(
                id=_class_name(graph, members),
                kind="basic",
                prunable=not unpr,
                granularity=gran if not unpr else "none",
                size=-1,  # filled by size_node_groups
                n_units=(class_heads[root][0] if root in class_heads else 0) if not unpr else 0,
                unit_width=(class_heads[root][1] if root in class_heads else 1) if not unpr else 0,
                members=members,
                through=tuple(sorted(set(class_through.get(root, [])))),
            )
        )
    basic.sort(key=lambda g: g.id)

    composed: list[NodeGroup] = []
    member_class: dict[tuple[str, int], str] = {}
    for g in basic:
        for m in g.members:
            member_class[(m.node_id, m.axis)] = g.id
    for span in spans:
        a_id, b_id = span.node_ids
        a_node, b_node = graph.nodes[a_id], graph.nodes[b_id]
        members = [Member(a_id, a_node.param, 1), Member(b_id, b_node.param, 0)]
        composed.append(
            NodeGroup(
                id=span.id,
                kind="composed",
                prunable=False,
                granularity="none",
                size=0,
                n_units=0,
                unit_width=0,
                members=members,
                links={
                    "secondary": member_class[(a_id, 1)],
                    "primary": member_class[(b_id, 0)],
                },
            )
        )
    return NodeGroups(basic=basic, composed=composed)


def _class_name(graph: TraceGraph, members: list[Member]) -> str:
    kinds = {graph.nodes[m.node_id].kind for m in members}
    if "embedding" in kinds:
        return "residual"
    hosts = sorted(
        {graph.nodes[m.node_id].module for m in members if graph.nodes[m.node_id].kind == "linear"}
    )
    if not hosts:
        return "logits"
    prefix = hosts[0].split(".")
    for other in hosts[1:]:
        parts = other.split(".")
        keep = 0
        for a, b in zip(prefix, parts):
            if a != b:
                break
            keep += 1
        prefix = prefix[:keep]
    return ".".join(prefix) if prefix else "shared"


def size_node_groups(node_groups: NodeGroups, model: LoraModel) -> None:
    """Resolve class sizes and channel unit counts against model shapes."""
    params = model.parameters()
    for g in node_groups.basic:
        sizes = {params[m.param].data.shape[m.axis] for m in g.members}
        if len(sizes) != 1:
            raise AnalysisError(f"node group {g.id}: inconsistent member sizes {sorted(sizes)}")
        g.size = sizes.pop()
        if g.granularity == "head":
            if g.n_units * g.unit_width != g.size:
                raise AnalysisError(f"node group {g.id}: head tiling does not cover {g.size} channels")
        elif g.granularity == "channel":
            g.n_units = g.size
            g.unit_width = 1


def partition_variables(node_groups: NodeGroups, model: LoraModel) -> GroupSet:
    """Form the minimally removal structure groups from prunable classes."""
    size_node_groups(node_groups, model)
    groups: list[StructureGroup] = []
    for family in node_groups.prunable_families():
        kind = "attn_head" if family.granularity == "head" else "mlp_channel"
        unit_name = "head" if kind == "attn_head" else "ch"
        for u in range(family.n_units):
            indices = tuple(range(u * family.unit_width, (u + 1) * family.unit_width))
            slices = []
            for m in sorted(family.members, key=lambda m: (m.param, m.axis)):
                role = "lora_a" if m.param.endswith(".lora_A") else (
                    "lora_b" if m.param.endswith(".lora_B") else "host"
                )
                slices.append(Slice(m.param, m.axis, indices, role))
            groups.append(
                StructureGroup(
                    id=f"{family.id}:{unit_name}:{u:03d}",
                    node_group=family.id,
                    kind=kind,
                    unit_index=u,
                    slices=tuple(slices),
                )
            )
    groups.sort(key=lambda g: g.id)
    group_set = GroupSet(groups=groups, status={g.id: "prunable" for g in groups})
    verify_group_set(group_set, node_groups, model)
    return group_set


def verify_group_set(group_set: GroupSet, node_groups: NodeGroups, model: LoraModel) -> None:
    """Disjointness per (tensor, axis, index) and coverage of prunable axes."""
    params = model.parameters()
    seen: dict[tuple[str, int], list[int]] = {}
    for g in group_set.groups:
        for s in g.slices:
            seen.setdefault((s.param, s.axis), []).extend(s.indices)
    for (param, axis), indices in seen.items():
        if len(indices) != len(set(indices)):
            dupes = sorted({i for i in indices if indices.count(i) > 1})
            raise AnalysisError(f"duplicate coverage of {param} axis {axis} indices {dupes[:8]}")
    for family in node_groups.prunable_families():
        for m in family.members:
            covered = set(seen.get((m.param, m.axis), []))
            expected = set(range(params[m.param].data.shape[m.axis]))
            if covered != expected:
                missing = sorted(expected - covered)
                raise AnalysisError(
                    f"coverage gap on {m.param} axis {m.axis}: missing indices {missing[:8]}"
                )


# ---- slice arithmetic used by probing, pruning, and compression ---------------


def _module_of(param: str) -> str:
    return param.rsplit(".", 1)[0]


def _index(s: Slice) -> tuple:
    """Index of the slice's rows (axis 0) or columns (axis 1) in its tensor."""
    idx = list(s.indices)
    return (idx, slice(None)) if s.axis == 0 else (slice(None), idx)


def _zero_slices(model: LoraModel, slices: tuple[Slice, ...]) -> None:
    params = model.parameters()
    for s in slices:
        params[s.param].data[_index(s)] = 0.0


def zero_structure(model: LoraModel, group: StructureGroup) -> None:
    """Zero every slice of the group (host rows/cols plus matching LoRA slices)."""
    _zero_slices(model, group.slices)


def zero_lora_slices(model: LoraModel, group: StructureGroup) -> None:
    _zero_slices(model, group.lora_slices())


def frozen_slice_vector(model: LoraModel, group: StructureGroup) -> np.ndarray:
    """Concatenated host-weight slices of the group, in slice order."""
    params = model.parameters()
    parts = []
    for s in group.host_slices():
        parts.append(params[s.param].data[_index(s)].ravel())
    return np.concatenate(parts)


def effective_slice_vector(model: LoraModel, group: StructureGroup) -> np.ndarray:
    """Same as frozen_slice_vector but on host + gamma*B@A effective weights."""
    modules = model.lora_linears()
    params = model.parameters()
    parts = []
    for s in group.host_slices():
        mod = modules[_module_of(s.param)]
        w = params[s.param].data
        idx = list(s.indices)
        if s.axis == 0:
            part = w[idx, :].copy()
            if mod.has_lora:
                part += mod.gamma * (mod.lora_b.data[idx, :] @ mod.lora_a.data)
        else:
            part = w[:, idx].copy()
            if mod.has_lora:
                part += mod.gamma * (mod.lora_b.data @ mod.lora_a.data[:, idx])
        parts.append(part.ravel())
    return np.concatenate(parts)


def write_frozen_slices(model: LoraModel, group: StructureGroup, vector: np.ndarray) -> None:
    """Scatter a flat vector back into the group's host slices (slice order)."""
    params = model.parameters()
    pos = 0
    for s in group.host_slices():
        arr = params[s.param].data
        shape = list(arr.shape)
        shape[s.axis] = len(s.indices)
        n = shape[0] * shape[1]
        arr[_index(s)] = vector[pos : pos + n].reshape(shape)
        pos += n
    if pos != vector.size:
        raise AnalysisError(f"group {group.id}: vector size {vector.size} does not match slices")


def group_is_zero(model: LoraModel, group: StructureGroup) -> bool:
    return not np.any(frozen_slice_vector(model, group))


# ---- serialization -------------------------------------------------------------


def node_groups_to_json(node_groups: NodeGroups) -> dict:
    def enc(g: NodeGroup) -> dict:
        return {
            "id": g.id,
            "kind": g.kind,
            "prunable": g.prunable,
            "granularity": g.granularity,
            "size": g.size,
            "n_units": g.n_units,
            "unit_width": g.unit_width,
            "members": [{"node": m.node_id, "param": m.param, "axis": m.axis} for m in g.members],
            "through": list(g.through),
            "links": dict(g.links),
        }

    return {
        "schema_version": 1,
        "basic": [enc(g) for g in node_groups.basic],
        "composed": [enc(g) for g in node_groups.composed],
    }


def group_set_to_json(group_set: GroupSet) -> dict:
    return {
        "schema_version": 1,
        "groups": [
            {
                "id": g.id,
                "node_group": g.node_group,
                "kind": g.kind,
                "unit_index": g.unit_index,
                "status": group_set.status[g.id],
                "slices": [
                    {"param": s.param, "axis": s.axis, "indices": list(s.indices), "role": s.role}
                    for s in g.slices
                ],
            }
            for g in group_set.groups
        ],
    }


def dump_groups(node_groups: NodeGroups, group_set: GroupSet, path) -> None:
    # unindented: the slice index lists are most of the bytes
    write_json(
        path,
        {"node_groups": node_groups_to_json(node_groups), "group_set": group_set_to_json(group_set)},
        indent=None,
    )
