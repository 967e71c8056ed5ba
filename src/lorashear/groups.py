"""Minimally removal structure discovery over the trace graph.

The graph is the recorded forward (``graph.build_trace_graph``). Each tape-op
name has one coupling row below saying which channel spaces the op ties
together: the output channels of every op, and the axes of the parameters
it reads. One union-find over those spaces gives the dependency classes:
- ``lora_linear`` ties W's and B's rows to its output channels, and W's and
  A's columns to its input channels; the rank space (A's rows, B's columns)
  is never tied, so it is never a group. ``linear`` is the same without the
  adaptor.
- ``add``, ``mul`` and ``silu`` tie channels elementwise.
- ``causal_attention`` ties the channels of q, k, v and its output, and
  makes the class head-granular with the recorded ``n_heads``.
- ``embedding_lookup`` and ``rmsnorm`` tie their output channels to the
  table's columns or the gain, and mark the class unprunable, as does the
  forward's output (the residual stream and the vocabulary are never
  pruned).
Any other op raises ``AnalysisError``.

Each class holding a parameter axis is one basic *node group*. Each adapted
``lora_linear`` op adds a composed group of its A columns and B rows, linked
to the two basic classes those sit in, so a B factor is in two groups at
once. Prunable classes partition into structure groups: one per MLP channel
or attention head, each a set of (tensor, axis, indices) slices that must be
removed together.

A ``GroupSet`` indexes its groups once per tensor axis: for each (param,
axis) a structure slice lies on, ``GroupSet.index`` holds the covered
indices and the ordinal of the group owning each. Building it is the
disjointness check, and ``verify_group_set`` reads it for coverage. Readers
that touch every group (zero counts, saliency, LoRA re-zeroing, compression)
then work per tensor: one reduction or masked assignment per (param, axis),
scattered to the groups by ordinal, instead of a loop over each group's
slices.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .artifacts import write_json
from .errors import AnalysisError
from .graph import TraceGraph
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
    links: dict[str, str] = field(default_factory=dict)  # composed: side -> basic id


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


@dataclass(frozen=True)
class AxisIndex:
    """The indices of one (param, axis) that structure slices cover, and the
    ordinal (position in ``GroupSet.groups``) of the group owning each."""

    role: str  # the role of every slice on this axis
    indices: np.ndarray
    owners: np.ndarray

    def owned_by(self, selected: np.ndarray) -> np.ndarray:
        """The covered indices whose owner is set in the per-ordinal mask ``selected``."""
        return self.indices[selected[self.owners]]


def build_index(groups: list[StructureGroup]) -> dict[tuple[str, int], AxisIndex]:
    """One ``AxisIndex`` per (param, axis), in order of first appearance; an
    index two slices cover is a duplicate-coverage ``AnalysisError``."""
    covered: dict[tuple[str, int], tuple[str, list[int], list[int]]] = {}
    for ordinal, g in enumerate(groups):
        for s in g.slices:
            _, indices, owners = covered.setdefault((s.param, s.axis), (s.role, [], []))
            indices.extend(s.indices)
            owners.extend([ordinal] * len(s.indices))
    index = {}
    for (param, axis), (role, indices, owners) in covered.items():
        if len(set(indices)) != len(indices):
            dupes = sorted(i for i, n in Counter(indices).items() if n > 1)
            raise AnalysisError(f"duplicate coverage of {param} axis {axis} indices {dupes[:8]}")
        index[(param, axis)] = AxisIndex(
            role, np.array(indices, dtype=np.intp), np.array(owners, dtype=np.intp)
        )
    return index


@dataclass
class GroupSet:
    groups: list[StructureGroup]
    status: dict[str, str]

    def __post_init__(self):
        self.by_id = {g.id: g for g in self.groups}
        self.ordinal = {g.id: i for i, g in enumerate(self.groups)}

    @cached_property
    def index(self) -> dict[tuple[str, int], AxisIndex]:
        """The per-(param, axis) index of the groups, built on first use."""
        return build_index(self.groups)

    def mask(self, ids) -> np.ndarray:
        """A per-ordinal boolean mask, set for the groups in ``ids``."""
        selected = np.zeros(len(self.groups), dtype=bool)
        selected[[self.ordinal[gid] for gid in ids]] = True
        return selected

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
        self.parent: dict = {}

    def find(self, key):
        root = self.parent.setdefault(key, key)
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def union(self, *keys) -> None:
        root = self.find(keys[0])
        for key in keys[1:]:
            self.parent[self.find(key)] = root


@dataclass(frozen=True)
class _Coupling:
    """How one tape op couples channels: ``ties(out, *inputs, *params)`` lists the
    spaces it ties together, an activation being its channels' space and a
    parameter axis ``(name, axis)``; ``mark`` is what the op says of its
    output's class."""

    n_inputs: int
    n_params: int
    ties: Callable[..., tuple[tuple, ...]]
    mark: str = ""  # "" | "unprunable" | "heads"


def _elementwise(n_inputs: int) -> _Coupling:
    return _Coupling(n_inputs, 0, lambda out, *xs: ((out, *xs),))


COUPLING = {
    "lora_linear": _Coupling(
        1, 3, lambda out, x, w, a, b: ((out, (w, 0), (b, 0)), (x, (w, 1), (a, 1)))
    ),
    "linear": _Coupling(1, 1, lambda out, x, w: ((out, (w, 0)), (x, (w, 1)))),
    "add": _elementwise(2),
    "mul": _elementwise(2),
    "silu": _elementwise(1),
    "causal_attention": _Coupling(3, 0, lambda out, q, k, v: ((out, q, k, v),), "heads"),
    "embedding_lookup": _Coupling(0, 1, lambda out, table: ((out, (table, 1)),), "unprunable"),
    "rmsnorm": _Coupling(1, 1, lambda out, x, gain: ((out, x, (gain, 0)),), "unprunable"),
}


def discover_node_groups(graph: TraceGraph) -> NodeGroups:
    """Basic dependency classes and composed adaptor groups (with links)."""
    uf = _UnionFind()
    members: list[Member] = []
    unprunable = [graph.output]
    heads: list[tuple[str, int]] = []
    for node in graph.nodes:
        rule = COUPLING.get(node.kind)
        if rule is None:
            raise AnalysisError(f"no coupling rule for op {node.kind!r} (node {node.id})")
        if (len(node.inputs), len(node.params)) != (rule.n_inputs, rule.n_params):
            raise AnalysisError(
                f"op {node.id} reads {len(node.inputs)} activations and {len(node.params)} "
                f"parameters, not {rule.n_inputs} and {rule.n_params}"
            )
        for tie in rule.ties(node.id, *node.inputs, *node.params):
            uf.union(*tie)
            members += [Member(node.id, *key) for key in tie if isinstance(key, tuple)]
        if rule.mark == "unprunable":
            unprunable.append(node.id)
        elif rule.mark == "heads":
            heads.append((node.id, node.attrs["n_heads"]))

    classes: dict = {}
    for m in members:
        classes.setdefault(uf.find((m.param, m.axis)), []).append(m)
    pinned = {uf.find(key) for key in unprunable}
    n_heads: dict = {}
    for key, n in heads:
        if n_heads.setdefault(uf.find(key), n) != n:
            raise AnalysisError(f"conflicting head counts on one dependency class at {key}")
    output_class = uf.find(graph.output)

    basic: list[NodeGroup] = []
    class_of: dict[tuple[str, int], str] = {}
    for root, ms in classes.items():
        ms.sort(key=lambda m: (m.param, m.axis))
        prunable = root not in pinned
        if prunable:
            name = _common_module(m.param for m in ms if m.param.endswith(".weight"))
        else:  # the vocabulary, or the residual stream the embeddings and norms read
            name = "logits" if root == output_class else "residual"
        head = prunable and root in n_heads
        basic.append(
            NodeGroup(
                id=name,
                kind="basic",
                prunable=prunable,
                granularity=("head" if head else "channel") if prunable else "none",
                size=-1,  # size, and the units of a prunable class, filled by size_node_groups
                n_units=n_heads[root] if head else 0,
                unit_width=0,
                members=ms,
            )
        )
        class_of.update(((m.param, m.axis), name) for m in ms)
    basic.sort(key=lambda g: g.id)

    composed = []
    for node in graph.nodes:
        if node.kind != "lora_linear":
            continue
        _, a, b = node.params
        composed.append(
            NodeGroup(
                id=f"span:{a.removesuffix('.lora_A')}",
                kind="composed",
                prunable=False,
                granularity="none",
                size=0,
                n_units=0,
                unit_width=0,
                members=[Member(node.id, a, 1), Member(node.id, b, 0)],
                links={"secondary": class_of[(a, 1)], "primary": class_of[(b, 0)]},
            )
        )
    composed.sort(key=lambda g: g.id)
    return NodeGroups(basic=basic, composed=composed)


def _common_module(weights) -> str:
    """The longest dotted prefix shared by the modules owning ``weights``."""
    prefix = os.path.commonprefix([w.split(".")[:-1] for w in weights])
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
            if g.size % g.n_units:
                raise AnalysisError(f"node group {g.id}: {g.n_units} heads do not tile {g.size} channels")
            g.unit_width = g.size // g.n_units
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
    """Disjointness per (tensor, axis, index), from building the index, and
    coverage of every prunable axis by it."""
    params = model.parameters()
    index = group_set.index
    for family in node_groups.prunable_families():
        for m in family.members:
            size = params[m.param].data.shape[m.axis]
            entry = index.get((m.param, m.axis))
            covered = entry.indices if entry is not None else np.zeros(0, dtype=np.intp)
            seen = np.zeros(size, dtype=bool)
            seen[covered[covered < size]] = True
            missing = np.flatnonzero(~seen).tolist()
            if missing or covered.size != size:  # the indices are distinct
                raise AnalysisError(
                    f"coverage gap on {m.param} axis {m.axis}: missing indices {missing[:8]}"
                )


# ---- slice arithmetic used by probing, pruning, and compression ---------------
#
# One group's slices are rows (axis 0) or columns (axis 1) of their tensors,
# read and written slice by slice. ``nonzero_groups`` and ``zero_lora_slices``
# serve every group at once from the group set's index: one reduction or one
# masked assignment per (param, axis), whatever the number of groups.


def _at(axis: int, idx) -> tuple:
    """Index of the rows (axis 0) or columns (axis 1) ``idx`` of a matrix."""
    return (idx, slice(None)) if axis == 0 else (slice(None), idx)


def _index(s: Slice) -> tuple:
    return _at(s.axis, list(s.indices))


def _zero_slices(model: LoraModel, slices: tuple[Slice, ...]) -> None:
    params = model.parameters()
    for s in slices:
        params[s.param].data[_index(s)] = 0.0


def zero_structure(model: LoraModel, group: StructureGroup) -> None:
    """Zero every slice of the group (host rows/cols plus matching LoRA slices)."""
    _zero_slices(model, group.slices)


def zero_lora_slices(model: LoraModel, group_set: GroupSet, ids) -> None:
    """Zero the LoRA slices of the groups in ``ids``, one assignment per factor axis."""
    selected = group_set.mask(ids)
    params = model.parameters()
    for (param, axis), entry in group_set.index.items():
        if entry.role != "host":
            params[param].data[_at(axis, entry.owned_by(selected))] = 0.0


def nonzero_groups(model: LoraModel, group_set: GroupSet) -> np.ndarray:
    """Per ordinal, whether any host entry of the group is nonzero: the
    negation of ``group_is_zero``, from one any-nonzero mask per host axis."""
    params = model.parameters()
    nonzero = np.zeros(len(group_set.groups), dtype=bool)
    for (param, axis), entry in group_set.index.items():
        if entry.role == "host":
            hit = params[param].data.any(axis=1 - axis)[entry.indices]
            nonzero[entry.owners[hit]] = True
    return nonzero


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
    return np.concatenate(
        [modules[s.param.removesuffix(".weight")].effective_weight(*_index(s)).ravel()
         for s in group.host_slices()]
    )


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
            "links": dict(g.links),
        }

    return {
        "schema_version": 2,
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
