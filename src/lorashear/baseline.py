"""One-shot magnitude pruning baseline.

Starting from the same warmed-up model the progressive optimizer starts
from, fold the adaptor into the host weights and zero the K lowest-saliency
groups outright, with no decay period and no further training. The held-out
loss gap between this and the progressive run is the knowledge-transfer
headline of the final report.
"""

from __future__ import annotations

from .groups import GroupSet, zero_structure
from .model import LoraModel
from .saliency import effective_l2


def one_shot_prune(
    model: LoraModel,
    group_set: GroupSet,
    k: int,
    candidates: list[str],
) -> tuple[LoraModel, list[str]]:
    """Return a pruned clone and the ``k`` of ``candidates`` it zeroed (input untouched).

    Callers comparing against a finished progressive run pass the prunable
    set as it was before that run reassigned statuses.
    """
    pruned = model.clone()
    scores = {gid: effective_l2(pruned, group_set.by_id[gid]) for gid in candidates}
    chosen = sorted(scores, key=lambda gid: (scores[gid], gid))[:k]
    pruned.merge_all_lora()
    for gid in chosen:
        zero_structure(pruned, group_set.by_id[gid])
    return pruned, chosen
