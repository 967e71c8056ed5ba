"""Progressive structured pruning via half-space projected gradient over LoRA.

The frozen host weights never receive gradient. The group set holds the
run's state: each period marks the ``saliency.least_salient`` of the groups
still ``prunable`` as ``redundant``, assigns each a magnitude penalty sized
so the penalty alone drives the group norm to zero by period end, and then
runs plain SGD steps on the LoRA factors at the constant ``learning_rate``.
Per step, a redundant group's frozen slice moves to the trial iterate

    trial = [x + gamma*B@A]_g - penalty_g * [x]_g / ||[x]_g||

and is projected to exactly zero once the trial loses alignment with the
current iterate (<trial, x> < eps * ||x||^2). While the redundant slices
decay, the loss-driven LoRA updates on everything else absorb the function
they carried; that transfer is the point of pruning progressively instead of
one-shot. LoRA slices over redundant groups are re-zeroed every step so the
adaptor can never resurrect a pruned slice, and each period ends by folding
the adaptor into the host weights (output-preserving, idempotent).

Groups projected to zero stay zero: the final step of a period force-projects
any survivor of that period's redundant set, making the zero-group count hit
the target exactly. The groups never selected become ``important`` at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .artifacts import event_log
from .config import LhspgSection
from .groups import (
    GroupSet,
    StructureGroup,
    effective_slice_vector,
    frozen_slice_vector,
    group_is_zero,
    nonzero_groups,
    write_frozen_slices,
    zero_lora_slices,
    zero_structure,
)
from .model import LoraModel
from .optim import lora_optimizer, train_step
from .saliency import least_salient


def period_quotas(target: int, periods: int) -> list[int]:
    """ceil(target/periods) per period, the final period absorbing the remainder.

    ``periods`` is at least 1, as ``config.RULES`` requires of ``lhspg.periods``."""
    base = math.ceil(target / periods)
    quotas = []
    assigned = 0
    for p in range(periods):
        q = target - assigned if p == periods - 1 else min(base, target - assigned)
        quotas.append(q)
        assigned += q
    return quotas


def warmup(
    model: LoraModel,
    sample_batch: Callable[[], np.ndarray],
    steps: int,
    learning_rate: float,
    on_step: Optional[Callable[[int, float], None]] = None,
) -> list[float]:
    """LoRA-only SGD warm-up steps; frozen weights are untouched by construction."""
    opt = lora_optimizer(model, learning_rate)
    losses = []
    for step in range(steps):
        value = train_step(model, sample_batch(), opt, where=f"warmup step {step}")
        losses.append(value)
        if on_step is not None:
            on_step(step, value)
    return losses


def halfspace_project(model: LoraModel, group: StructureGroup, penalty: float, eps: float) -> bool:
    """One projection step on a redundant group's frozen slices.

    Returns True when the group was projected to exactly zero this call. A
    group whose frozen slice is already zero is left as it is and returns
    False: it was zeroed before, not by this call.
    """
    x = frozen_slice_vector(model, group)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return False
    trial = effective_slice_vector(model, group) - penalty * x / norm
    if float(trial @ x) < eps * norm * norm:
        write_frozen_slices(model, group, np.zeros_like(trial))
        return True
    write_frozen_slices(model, group, trial)
    return False


def lhspg_step(
    model: LoraModel,
    group_set: GroupSet,
    penalty: dict[str, float],
    batch: np.ndarray,
    opt,
    config: LhspgSection,
    final_step_of_period: bool,
) -> tuple[float, list[str]]:
    """One optimization step: LoRA update, trial iterates, half-space projection.

    ``penalty`` holds this period's groups. Important groups' frozen slices
    are untouched; every redundant group's LoRA slices end the step at zero.
    A group's trial iterate reads only its own LoRA slices, so zeroing the
    earlier periods' slices after the projection changes no value.
    """
    value = train_step(model, batch, opt, where="lhspg")
    projected = []
    for gid, p in penalty.items():
        if halfspace_project(model, group_set.by_id[gid], p, config.halfspace_eps):
            projected.append(gid)
    if final_step_of_period:
        # the penalty schedule lands the norm at epsilon scale by now; snap the
        # survivors so the zero-group cardinality is exact
        for gid in penalty:
            group = group_set.by_id[gid]
            if not group_is_zero(model, group):
                zero_structure(model, group)
                projected.append(gid)
    # the gradient step revived redundant LoRA slices; kill them before the next forward
    zero_lora_slices(model, group_set, group_set.ids_with_status("redundant"))
    return value, projected


def end_of_period_merge(model: LoraModel) -> None:
    """Fold gamma*B@A into the host weights and zero B (A kept). Idempotent.

    Redundant slices contribute exactly zero to the product, so the merge
    only moves important and unprunable slices and preserves the forward
    output identically.
    """
    model.merge_all_lora()


@dataclass
class LhspgResult:
    zero_groups: int


def count_zero_groups(model: LoraModel, group_set: GroupSet, ids: list[str]) -> int:
    """How many groups of ``ids`` have all-zero frozen slices, read per host tensor."""
    return int(np.count_nonzero(group_set.mask(ids) & ~nonzero_groups(model, group_set)))


def run_lhspg(
    model: LoraModel,
    group_set: GroupSet,
    config: LhspgSection,
    target: int,
    seed: int,
    sample_batch: Callable[[np.random.Generator, int], np.ndarray],
    log_path=None,
    inspect: Optional[Callable] = None,
    after_warmup: Optional[Callable[[LoraModel], None]] = None,
) -> LhspgResult:
    """Warm up, then run the periodized pruning loop to exactly ``target`` zero groups.

    ``config`` is the pipeline's ``lhspg`` section, checked when it loaded
    (its ``pruning_ratio`` gave the caller ``target``); ``seed`` seeds the
    batch draws.
    ``group_set`` statuses are the run's state: a group turns ``redundant``
    as its period starts and the other prunable groups ``important`` at the end.

    Writes a JSON-lines run log with one line per step (step, period, loss,
    zero-group count, groups projected this step) plus period_start / merge /
    done events; all run invariants are checkable from the log alone.
    """
    prunable = group_set.prunable_ids()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A5B]))
    with event_log(log_path) as log:

        def emit(event: dict) -> None:
            log(event)
            if inspect is not None:
                inspect(event, model)

        warmup(
            model,
            lambda: sample_batch(rng, config.batch_size),
            config.warmup_steps,
            config.learning_rate,
            on_step=lambda step, value: emit(
                {"event": "step", "step": step, "period": -1, "loss": value,
                 "zero_groups": None, "projected": []}
            ),
        )
        if after_warmup is not None:
            after_warmup(model)

        quotas = period_quotas(target, config.periods)
        opt = lora_optimizer(model, config.learning_rate)
        step = 0
        for period, quota in enumerate(quotas):
            pool = [group_set.by_id[gid] for gid in group_set.prunable_ids()]
            penalty = {}
            for group in least_salient(model, group_set, pool, quota):
                group_set.set_status(group.id, "redundant")
                norm = float(np.linalg.norm(frozen_slice_vector(model, group)))
                penalty[group.id] = norm / config.steps_per_period
            emit(
                {
                    "event": "period_start",
                    "period": period,
                    "quota": quota,
                    "selected": list(penalty),
                    "penalty": penalty,
                },
            )
            for t in range(config.steps_per_period):
                batch = sample_batch(rng, config.batch_size)
                value, projected = lhspg_step(
                    model,
                    group_set,
                    penalty,
                    batch,
                    opt,
                    config,
                    final_step_of_period=(t == config.steps_per_period - 1),
                )
                emit(
                    {
                        "event": "step",
                        "step": step,
                        "period": period,
                        "loss": value,
                        "zero_groups": count_zero_groups(model, group_set, prunable),
                        "projected": sorted(projected),
                    },
                )
                step += 1
            end_of_period_merge(model)
            emit({"event": "merge", "period": period})

        zero = count_zero_groups(model, group_set, prunable)
        for gid in group_set.prunable_ids():
            group_set.set_status(gid, "important")
        emit(
            {
                "event": "done",
                "target": target,
                "zero_groups": zero,
                "redundant": group_set.ids_with_status("redundant"),
            },
        )
        return LhspgResult(zero_groups=zero)
