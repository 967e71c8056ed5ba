"""Progressive structured pruning via half-space projected gradient over LoRA.

The frozen host weights never receive gradient. Each period selects the
still-important groups of least ``saliency.effective_l2`` as this period's
redundant set, assigns each a magnitude penalty sized so the penalty alone
drives the group norm to zero by period end, and then runs plain SGD steps
on the LoRA factors at the constant ``learning_rate``. Per step, a redundant
group's frozen slice moves to the trial iterate

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
the target exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .artifacts import event_log
from .config import LhspgSection
from .errors import ConfigError
from .groups import (
    GroupSet,
    StructureGroup,
    effective_slice_vector,
    frozen_slice_vector,
    group_is_zero,
    write_frozen_slices,
    zero_lora_slices,
)
from .model import LoraModel
from .optim import lora_optimizer, train_step
from .saliency import effective_l2


@dataclass
class LhspgState:
    redundant: list[str] = field(default_factory=list)
    important: list[str] = field(default_factory=list)
    current: list[str] = field(default_factory=list)  # this period's fresh redundant set
    penalty: dict[str, float] = field(default_factory=dict)


def period_quotas(target: int, periods: int) -> list[int]:
    """ceil(target/periods) per period, the final period absorbing the remainder."""
    base = math.ceil(target / periods) if periods else 0
    quotas = []
    assigned = 0
    for p in range(periods):
        q = target - assigned if p == periods - 1 else min(base, target - assigned)
        quotas.append(max(q, 0))
        assigned += quotas[-1]
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


def select_redundant(
    state: LhspgState, quota: int, scores: dict[str, float]
) -> list[str]:
    """Move the quota least-salient important groups into the redundant set."""
    if quota > len(state.important):
        raise ConfigError(
            f"redundant quota {quota} exceeds remaining important groups {len(state.important)}"
        )
    chosen = sorted(state.important, key=lambda gid: (scores[gid], gid))[:quota]
    state.important = [gid for gid in state.important if gid not in set(chosen)]
    state.redundant.extend(chosen)
    state.current = list(chosen)
    return chosen


def halfspace_project(model: LoraModel, group: StructureGroup, penalty: float, eps: float) -> bool:
    """One projection step on a redundant group's frozen slices.

    Returns True when the group was projected to exactly zero this call.
    A group whose frozen slice is already zero is treated as projected.
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
    state: LhspgState,
    group_set: GroupSet,
    batch: np.ndarray,
    opt,
    config: LhspgSection,
    final_step_of_period: bool,
) -> tuple[float, list[str]]:
    """One optimization step: LoRA update, trial iterates, half-space projection.

    Important groups' frozen slices are untouched; redundant LoRA slices end
    the step at zero.
    """
    value = train_step(model, batch, opt, where="lhspg")

    current = set(state.current)
    # earlier periods' groups: the gradient step transiently revived their LoRA
    # slices; kill them before anything can flow through
    for gid in state.redundant:
        if gid not in current:
            zero_lora_slices(model, group_set.by_id[gid])

    projected = []
    for gid in state.current:
        group = group_set.by_id[gid]
        if halfspace_project(model, group, state.penalty[gid], config.halfspace_eps):
            projected.append(gid)
    if final_step_of_period:
        # the penalty schedule lands the norm at epsilon scale by now; snap the
        # survivors so the zero-group cardinality is exact
        for gid in state.current:
            group = group_set.by_id[gid]
            if not group_is_zero(model, group):
                write_frozen_slices(model, group, np.zeros(frozen_slice_vector(model, group).size))
                projected.append(gid)
    for gid in state.current:
        zero_lora_slices(model, group_set.by_id[gid])
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
    state: LhspgState
    zero_groups: int
    losses: list[float]


def count_zero_groups(model: LoraModel, group_set: GroupSet, ids: list[str]) -> int:
    return sum(1 for gid in ids if group_is_zero(model, group_set.by_id[gid]))


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
    batch draws. A target above the prunable group count is a ConfigError.

    Writes a JSON-lines run log with one line per step (step, period, loss,
    zero-group count, groups projected this step) plus period_start / merge /
    done events; all run invariants are checkable from the log alone.
    """
    prunable = group_set.prunable_ids()
    if target > len(prunable):
        raise ConfigError(f"target of {target} zero groups exceeds {len(prunable)} prunable groups")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A5B]))
    losses: list[float] = []
    with event_log(log_path) as log:

        def emit(event: dict) -> None:
            log(event)
            if inspect is not None:
                inspect(event, model)

        warmup_losses = warmup(
            model,
            lambda: sample_batch(rng, config.batch_size),
            config.warmup_steps,
            config.learning_rate,
            on_step=lambda step, value: emit(
                {"event": "step", "step": step, "period": -1, "loss": value,
                 "zero_groups": None, "projected": []}
            ),
        )
        losses.extend(warmup_losses)
        if after_warmup is not None:
            after_warmup(model)

        state = LhspgState(important=list(prunable))
        quotas = period_quotas(target, config.periods)
        opt = lora_optimizer(model, config.learning_rate)
        step = 0
        for period, quota in enumerate(quotas):
            scores = {gid: effective_l2(model, group_set.by_id[gid]) for gid in state.important}
            selected = select_redundant(state, quota, scores)
            for gid in selected:
                norm = float(np.linalg.norm(frozen_slice_vector(model, group_set.by_id[gid])))
                state.penalty[gid] = norm / config.steps_per_period
            emit(
                {
                    "event": "period_start",
                    "period": period,
                    "quota": quota,
                    "selected": selected,
                    "penalty": {gid: state.penalty[gid] for gid in selected},
                },
            )
            for t in range(config.steps_per_period):
                batch = sample_batch(rng, config.batch_size)
                value, projected = lhspg_step(
                    model,
                    state,
                    group_set,
                    batch,
                    opt,
                    config,
                    final_step_of_period=(t == config.steps_per_period - 1),
                )
                losses.append(value)
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
        for gid in prunable:
            group_set.set_status(gid, "redundant" if gid in set(state.redundant) else "important")
        emit(
            {
                "event": "done",
                "target": target,
                "zero_groups": zero,
                "redundant": sorted(state.redundant),
            },
        )
        return LhspgResult(state=state, zero_groups=zero, losses=losses)
