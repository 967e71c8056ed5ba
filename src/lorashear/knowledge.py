"""Knowledge distribution analysis.

Each prunable node group is probed in isolation: its lowest-saliency
structures are zeroed at every ratio in the probe set, the perplexity
deviation against the intact model is measured on a held-out evaluation
set, and the model is restored bit-identically (enforced by hashing all
tensors before and after). The node groups with the largest mean deviation
are marked unprunable, which flags every structure group they own.

Probes are independent, so they may run in parallel on model clones; the
profile is merged by node-group id and is deterministic either way.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .artifacts import write_atomic, write_json
from .errors import ConfigError, CorruptionError
from .evaluate import perplexity
from .groups import GroupSet, NodeGroups, StructureGroup, zero_structure
from .model import LoraModel
from .saliency import SaliencyFn, get_saliency
from .util import eval_parallelism, model_hash


@dataclass
class NodeGroupDeviation:
    node_group: str
    deviation: float
    rank: int = -1
    unprunable: bool = False


@dataclass
class KnowledgeProfile:
    entries: list[NodeGroupDeviation]
    ratios: tuple[float, ...]
    unprunable_fraction: float

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "ratios": list(self.ratios),
            "unprunable_fraction": self.unprunable_fraction,
            "entries": [
                {
                    "node_group": e.node_group,
                    "deviation": e.deviation,
                    "rank": e.rank,
                    "unprunable": e.unprunable,
                }
                for e in self.entries
            ],
        }


def _probe_selection(
    model: LoraModel, groups: list[StructureGroup], ratio: float, saliency_fn: SaliencyFn
) -> list[StructureGroup]:
    """Lowest-saliency fraction ``ratio`` of the node group's structures."""
    k = math.ceil(ratio * len(groups))
    if k == 0:
        return []
    scored = sorted(groups, key=lambda g: (saliency_fn(model, g), g.id))
    return scored[:k]


def probe_deviation(
    model: LoraModel,
    group_set: GroupSet,
    node_group_id: str,
    ratios: tuple[float, ...],
    eval_seqs: np.ndarray,
    saliency_fn: SaliencyFn,
    base_ppl: float | None = None,
) -> float:
    """Mean over ratios of ppl(partially zeroed) - ppl(intact).

    The model is restored bit-identically after every ratio; a full-tensor
    hash mismatch is a hard corruption failure.
    """
    groups = [g for g in group_set.groups if g.node_group == node_group_id]
    pre_hash = model_hash(model)
    if base_ppl is None:
        base_ppl = perplexity(model, eval_seqs)
    params = model.parameters()
    deviations = []
    for ratio in ratios:
        chosen = _probe_selection(model, groups, ratio, saliency_fn)
        if not chosen:
            deviations.append(perplexity(model, eval_seqs) - base_ppl)
            continue
        affected = sorted({s.param for g in chosen for s in g.slices})
        snapshot = {name: params[name].data.copy() for name in affected}
        for g in chosen:
            zero_structure(model, g)
        pruned_ppl = perplexity(model, eval_seqs)
        for name in affected:
            params[name].data[:] = snapshot[name]
        deviations.append(pruned_ppl - base_ppl)
    if model_hash(model) != pre_hash:
        raise CorruptionError(f"model not restored bit-identically after probing {node_group_id}")
    return float(np.mean(deviations))


def analyze(
    model: LoraModel,
    group_set: GroupSet,
    node_groups: NodeGroups,
    ratios: tuple[float, ...],
    eval_seqs: np.ndarray,
    unprunable_fraction: float,
    saliency: str = "effective_l2",
) -> KnowledgeProfile:
    """Probe every prunable node group and flag the top fraction unprunable.

    Mutates ``group_set`` statuses: structure groups of flagged node groups
    become "unprunable"; everything else stays "prunable".
    """
    if not (0.0 <= unprunable_fraction < 1.0):
        raise ConfigError(f"analysis.unprunable_fraction must be in [0, 1), got {unprunable_fraction}")
    if np.asarray(eval_seqs).size == 0:
        raise ConfigError("analysis evaluation set is empty")
    saliency_fn = get_saliency(saliency)
    families = node_groups.prunable_families()
    family_ids = [f.id for f in families]
    base_ppl = perplexity(model, eval_seqs)

    def probe(fid: str, target: LoraModel) -> float:
        return probe_deviation(target, group_set, fid, ratios, eval_seqs, saliency_fn, base_ppl)

    workers = min(eval_parallelism(), len(family_ids))
    if workers <= 1:
        deviations = {fid: probe(fid, model) for fid in family_ids}
    else:
        clones = {fid: model.clone() for fid in family_ids}
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = ex.map(lambda fid: (fid, probe(fid, clones[fid])), family_ids)
            deviations = dict(results)

    entries = [NodeGroupDeviation(fid, deviations[fid]) for fid in family_ids]
    n_flag = math.ceil(unprunable_fraction * len(entries))
    order = sorted(entries, key=lambda e: (-e.deviation, e.node_group))
    for rank, e in enumerate(order):
        e.rank = rank
        e.unprunable = rank < n_flag
    flagged = {e.node_group for e in entries if e.unprunable}
    for g in group_set.groups:
        group_set.set_status(g.id, "unprunable" if g.node_group in flagged else "prunable")
    return KnowledgeProfile(entries=entries, ratios=tuple(ratios), unprunable_fraction=unprunable_fraction)


def save_profile(profile: KnowledgeProfile, json_path, csv_path, extra: dict) -> None:
    """Write the profile as JSON and as a CSV table (``csv`` dialect, CRLF line ends)."""
    write_json(json_path, {**profile.to_json(), **extra})
    table = io.StringIO()
    w = csv.writer(table)
    w.writerow(["node_group", "deviation", "rank", "unprunable"])
    for e in profile.entries:
        w.writerow([e.node_group, repr(e.deviation), e.rank, e.unprunable])
    write_atomic(csv_path, table.getvalue())
