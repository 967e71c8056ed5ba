"""Workload definitions: the config each workload hands to ``lorashear``.

A workload is a partial config (merged over the built-in defaults by
``config_from_dict``), the stages it times, and whether its run directory
starts from artifacts built once during set-up. The seed is the only input
the benchmark varies between runs; everything else here is fixed.

Recovery uses ``patience > max_rounds`` so it never stops early: every seed
then does the same number of training steps and evaluations, and timings
compare like with like.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_STAGES = ("gen-data", "pretrain", "analyze", "prune", "compress", "recover", "eval", "report")
TRAIN_STAGES = ("pretrain", "prune", "recover")
EVAL_STAGES = ("analyze", "eval")
EVAL_CHECKPOINTS = 4  # full, pruned, compact, recovered


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    timed_stages: tuple[str, ...]
    setup_stages: tuple[str, ...] = ()  # built in set-up, copied into each run
    setup_repeats: int = 7  # set-ups per invocation; setup_s is their median

    @property
    def trains(self) -> bool:
        return any(s in self.timed_stages for s in TRAIN_STAGES)


# built-in shape and data; step counts cut from 350/100/4x40/5x30 so one
# run-all takes seconds instead of half a minute
TOY = {
    "pretrain": {"steps": 80},
    "lhspg": {"warmup_steps": 20, "periods": 4, "steps_per_period": 10},
    "recovery": {"round_steps": 8, "max_rounds": 2, "patience": 3},
}

WIDE = {
    "model": {"dim": 128, "n_heads": 8, "mlp_dim": 256, "lora_rank": 8, "block_size": 96},
    "data": {"seq_len": 96, "val_sequences_per_source": 2},
    "pretrain": {"steps": 8, "batch_size": 4},
    "lhspg": {"warmup_steps": 2, "periods": 4, "steps_per_period": 2, "batch_size": 4},
    "recovery": {"round_steps": 3, "max_rounds": 1, "patience": 2, "batch_size": 4},
}

# the artifacts only need to exist; the timed part is the read side
PROBE = {
    "data": {"val_sequences_per_source": 16},
    "pretrain": {"steps": 30},
    "analysis": {"ratios": [0.2, 0.4, 0.6, 0.8], "eval_sequences": 32},
    "lhspg": {"warmup_steps": 5, "periods": 2, "steps_per_period": 3},
    "recovery": {"round_steps": 3, "max_rounds": 1, "patience": 2},
}

WORKLOADS = {
    "toy-run-all": Workload("toy-run-all", TOY, ALL_STAGES),
    "wide-run-all": Workload("wide-run-all", WIDE, ALL_STAGES),
    "probe-eval": Workload(
        "probe-eval",
        PROBE,
        timed_stages=("analyze", "eval"),
        setup_stages=("gen-data", "pretrain", "analyze", "prune", "compress", "recover"),
        setup_repeats=3,  # each builds the artifacts, about 3 s
    ),
}

# smoke sizes for the self-test: same stages and code paths, far fewer steps
_SMOKE = {
    "model": {"dim": 16, "n_heads": 2, "mlp_dim": 16, "lora_rank": 2, "block_size": 16},
    "data": {"seq_len": 12, "train_sequences_per_source": 12, "val_sequences_per_source": 4},
    "pretrain": {"steps": 3},
    "analysis": {"ratios": [0.25, 0.5], "eval_sequences": 8},
    "lhspg": {"warmup_steps": 1, "periods": 2, "steps_per_period": 2},
    "recovery": {"subset_size": 12, "round_steps": 2, "max_rounds": 1, "patience": 2},
}


def raw_config(workload: Workload, seed: int, smoke: bool = False) -> dict:
    raw = {section: dict(fields) for section, fields in workload.config.items()}
    if smoke:
        for section, fields in _SMOKE.items():
            raw.setdefault(section, {}).update(fields)
    raw["seed"] = int(seed)
    return raw
