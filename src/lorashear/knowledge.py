"""Knowledge distribution analysis.

Each prunable node group is probed in isolation: its lowest-saliency
structures are zeroed at every ratio in the probe set, the perplexity
deviation against the intact model is measured on a held-out evaluation
set, and the model is restored bit-identically (enforced by hashing all
tensors before and after). The node groups with the largest mean deviation
are marked unprunable, which flags every structure group they own.

The intact model is scored once, and that pass keeps the residual stream
entering each sublayer a probe first changes. Every probe forward resumes
there instead of re-running the embedding and the blocks it left intact;
the same ops run on the same inputs, so every number is unchanged.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_atomic, write_json
from .errors import ConfigError, CorruptionError
from .evaluate import empty_residuals, mean_cross_entropy, perplexity
from .groups import GroupSet, NodeGroups, zero_structure
from .model import LoraModel
from .saliency import least_salient
from .util import model_hash


@dataclass
class NodeGroupDeviation:
    node_group: str
    deviation: float
    rank: int = -1
    unprunable: bool = False


@dataclass
class KnowledgeProfile:
    entries: list[NodeGroupDeviation]

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
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


def _resume_point(model: LoraModel, written, residuals) -> int:
    """Latest sublayer ``residuals`` holds at or before the first that reads a ``written`` tensor."""
    if not residuals:
        return 0
    first = model.first_reader(written)
    return max((s for s in residuals[0] if s <= first), default=0)


def probe_deviation(
    model: LoraModel,
    group_set: GroupSet,
    node_group_id: str,
    ratios: tuple[float, ...],
    eval_seqs: np.ndarray,
    base_ppl: float | None = None,
    residuals: list[dict] | None = None,
) -> float:
    """Mean over ratios of ppl(partially zeroed) - ppl(intact).

    The node group's structures are ranked by ``least_salient`` once; each ratio
    zeroes the first ``ceil(ratio * n)`` of them. ``residuals`` holds the
    intact model's residual streams per evaluation chunk, as ``analyze``
    records them; each ratio's forward then resumes at the latest recorded
    sublayer at or before the first one that reads a zeroed tensor, where
    the streams are still the intact model's. The model is restored
    bit-identically after every ratio; a full-tensor hash mismatch is a
    hard corruption failure.
    """
    pre_hash = model_hash(model)
    if base_ppl is None:
        base_ppl = perplexity(model, eval_seqs)
    params = model.parameters()
    family = [g for g in group_set.groups if g.node_group == node_group_id]
    ranked = least_salient(model, group_set, family)
    deviations = []
    for ratio in ratios:
        chosen = ranked[: math.ceil(ratio * len(ranked))]
        affected = sorted({s.param for g in chosen for s in g.slices})
        snapshot = {name: params[name].data.copy() for name in affected}
        for g in chosen:
            zero_structure(model, g)
        start = _resume_point(model, [params[name] for name in affected], residuals)
        pruned_ppl = math.exp(mean_cross_entropy(model, eval_seqs, start=start, residuals=residuals))
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
) -> KnowledgeProfile:
    """Probe every prunable node group and flag the top fraction unprunable.

    Mutates ``group_set`` statuses: structure groups of flagged node groups
    become "unprunable"; everything else stays "prunable".
    """
    if not (0.0 <= unprunable_fraction < 1.0):
        raise ConfigError(f"analysis.unprunable_fraction must be in [0, 1), got {unprunable_fraction}")
    if np.asarray(eval_seqs).size == 0:
        raise ConfigError("analysis evaluation set is empty")
    families = node_groups.prunable_families()
    family_ids = [f.id for f in families]
    # keep the intact residual stream only where some probe resumes
    params = model.parameters()
    written: dict[str, set[str]] = {}
    for g in group_set.groups:
        written.setdefault(g.node_group, set()).update(s.param for s in g.slices)
    starts = {model.first_reader(params[n] for n in written.get(fid, ())) for fid in family_ids}
    residuals = empty_residuals(eval_seqs, starts - {0})
    base_ppl = math.exp(mean_cross_entropy(model, eval_seqs, keep=residuals))

    deviations = {
        fid: probe_deviation(model, group_set, fid, ratios, eval_seqs, base_ppl, residuals)
        for fid in family_ids
    }

    entries = [NodeGroupDeviation(fid, deviations[fid]) for fid in family_ids]
    n_flag = math.ceil(unprunable_fraction * len(entries))
    order = sorted(entries, key=lambda e: (-e.deviation, e.node_group))
    for rank, e in enumerate(order):
        e.rank = rank
        e.unprunable = rank < n_flag
    flagged = {e.node_group for e in entries if e.unprunable}
    for g in group_set.groups:
        group_set.set_status(g.id, "unprunable" if g.node_group in flagged else "prunable")
    return KnowledgeProfile(entries=entries)


def save_profile(profile: KnowledgeProfile, json_path, csv_path, extra: dict) -> None:
    """Write the profile as JSON and as a CSV table (``csv`` dialect, CRLF line ends)."""
    write_json(json_path, {**profile.to_json(), **extra})
    table = io.StringIO()
    w = csv.writer(table)
    w.writerow(["node_group", "deviation", "rank", "unprunable"])
    for e in profile.entries:
        w.writerow([e.node_group, repr(e.deviation), e.rank, e.unprunable])
    write_atomic(csv_path, table.getvalue())
