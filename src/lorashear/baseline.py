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
from .saliency import least_salient


def one_shot_prune(model: LoraModel, group_set: GroupSet, k: int) -> tuple[LoraModel, list[str]]:
    """Return a pruned clone and the ids of the ``k`` prunable groups it zeroed (input untouched)."""
    pruned = model.clone()
    pool = [group_set.by_id[gid] for gid in group_set.prunable_ids()]
    chosen = least_salient(pruned, group_set, pool, k)
    pruned.merge_all_lora()
    for group in chosen:
        zero_structure(pruned, group)
    return pruned, [group.id for group in chosen]
