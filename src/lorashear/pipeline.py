"""Pipeline stages and their on-disk artifacts.

Every stage reads its predecessors' artifacts from the output directory and
writes versioned, self-describing artifacts (schema version + producing
stage + config hash), so out-of-order invocation with a different
configuration is detected instead of silently mixing runs. Running stages
one at a time produces byte-identical output to ``run-all`` because each
stage derives its randomness from the single pipeline seed. ``STAGES`` maps
each stage name, in run order, to its function; every way into a stage goes
through ``run_stage``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import baseline, compress, knowledge, recovery
from .artifacts import event_log, read_json, write_atomic, write_json
from .checkpoint import checkpoint_extra, load_checkpoint, model_meta, save_checkpoint
from .config import PipelineConfig, write_config
from .data import SourceTaggedCorpus, corpora_from_json, generate_corpus, save_corpora
from .errors import ConfigError, FormatError, NumericError, StageError
from .evaluate import per_source_perplexity, pooled_loss, source_losses
from .graph import build_trace_graph, graph_to_json
from .groups import STATUSES, GroupSet, dump_groups, discover_node_groups, partition_variables
from .lhspg import run_lhspg
from .model import LoraModel, build_model
from .optim import AdamW, train_step
from .util import stage_rng

ARTIFACTS = {
    "gen-data": ("corpus.json",),
    "pretrain": ("model_full.lshr", "pretrain_log.jsonl"),
    "analyze": ("groups.json", "knowledge_profile.json", "knowledge_profile.csv"),
    "prune": ("model_pruned.lshr", "lhspg_log.jsonl", "groups_final.json", "prune_summary.json"),
    "compress": ("model_compact.lshr", "compression_plan.json"),
    "recover": ("model_recovered.lshr", "recovery_log.jsonl", "recovery_summary.json"),
    "eval": ("eval.json",),
    "report": ("report.md",),
}


def _stamp(cfg: PipelineConfig, stage: str) -> dict:
    return {"schema_version": 1, "stage": stage, "config_hash": cfg.config_hash(), "seed": cfg.seed}


def _require(out: Path, name: str, stage: str, cfg: PipelineConfig):
    """Read a prerequisite artifact once: a JSON object, or the model of a checkpoint.

    A missing, unreadable or foreign-configuration artifact raises StageError
    naming it; a checkpoint's stamp is read from its header alone.
    """
    path = out / name
    if not path.exists():
        raise StageError(f"stage {stage}: missing prerequisite artifact {name}")
    checkpoint = name.endswith(".lshr")
    try:
        stamp = checkpoint_extra(path) if checkpoint else read_json(path, FormatError)
    except (FormatError, OSError) as e:
        raise StageError(f"stage {stage}: prerequisite artifact {name} is unreadable: {e}") from e
    if "config_hash" in stamp and stamp["config_hash"] != cfg.config_hash():
        raise StageError(
            f"stage {stage}: artifact {name} was produced under a different configuration"
        )
    return _load_model(path, f"stage {stage}") if checkpoint else stamp


def _load_model(path: Path, where: str) -> LoraModel:
    """The model of a checkpoint; StageError naming it when missing or corrupt."""
    if not path.is_file():
        raise StageError(f"{where}: checkpoint not found: {path}")
    try:
        return load_checkpoint(path)
    except FormatError as e:
        raise StageError(f"{where}: checkpoint {path.name} is corrupt: {e}") from e


def corpus_sources(cfg: PipelineConfig) -> dict[str, tuple[str, ...]]:
    """Each corpus the pipeline uses and its source names, in generation order."""
    return {
        "pretraining": tuple(cfg.data.pretraining_sources),
        "instruct": tuple(cfg.data.instruct_sources),
    }


def _corpora(out: Path, stage: str, cfg: PipelineConfig) -> dict[str, SourceTaggedCorpus]:
    payload = _require(out, "corpus.json", stage, cfg)
    try:
        return corpora_from_json(payload, cfg.model.vocab_size, corpus_sources(cfg))
    except FormatError as e:
        raise StageError(f"stage {stage}: prerequisite artifact corpus.json: {e}") from e


def _analysis_structures(model):
    node_groups = discover_node_groups(build_trace_graph(model))
    return node_groups, partition_variables(node_groups, model)


@contextmanager
def _fields_of(name: str, stage: str, what: str = "a missing or mistyped field"):
    """A missing or mistyped field read from artifact ``name`` is a StageError naming it."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as e:
        raise StageError(
            f"stage {stage}: prerequisite artifact {name} has {what}: {type(e).__name__}: {e}"
        ) from e


def _apply_statuses(
    group_set: GroupSet, payload: dict, name: str, stage: str, known: tuple[str, ...] = STATUSES
) -> None:
    """Set ``group_set`` statuses from a groups file; a status not in ``known`` is a StageError."""
    with _fields_of(name, stage, "no valid group_set"):
        statuses = {g["id"]: g["status"] for g in payload["group_set"]["groups"]}
    if set(statuses) != set(group_set.by_id):
        raise StageError(f"stage {stage}: {name} does not match the model's structure groups")
    unknown = sorted({str(v) for v in statuses.values() if v not in known})
    if unknown:
        raise StageError(f"stage {stage}: {name} has unknown group statuses {unknown}")
    for gid, status in statuses.items():
        group_set.set_status(gid, status)


# ---- stages ---------------------------------------------------------------------


def stage_gen_data(cfg: PipelineConfig, out: Path) -> None:
    rng = stage_rng(cfg.seed, "gen-data")
    corpora = {
        name: generate_corpus(
            name,
            kinds,
            cfg.data.train_sequences_per_source,
            cfg.data.val_sequences_per_source,
            cfg.data.seq_len,
            cfg.model.vocab_size,
            rng,
        )
        for name, kinds in corpus_sources(cfg).items()
    }
    save_corpora(corpora, cfg.data.seq_len, out / "corpus.json", _stamp(cfg, "gen-data"))


def stage_pretrain(cfg: PipelineConfig, out: Path) -> None:
    corpus = _corpora(out, "pretrain", cfg)["pretraining"]
    model = build_model(cfg.model_config())
    model.set_trainable("all")
    opt = AdamW(list(model.parameters().values()), cfg.pretrain.learning_rate)
    rng = stage_rng(cfg.seed, "pretrain")
    with event_log(out / "pretrain_log.jsonl") as emit:
        for step in range(cfg.pretrain.steps):
            batch = corpus.sample_batch(rng, cfg.pretrain.batch_size)
            value = train_step(model, batch, opt, where=f"pretrain step {step}")
            emit({"step": step, "loss": value})
    model.set_trainable("none")
    save_checkpoint(model, out / "model_full.lshr", extra=_stamp(cfg, "pretrain"))


def stage_analyze(cfg: PipelineConfig, out: Path) -> None:
    model = _require(out, "model_full.lshr", "analyze", cfg)
    corpora = _corpora(out, "analyze", cfg)
    eval_seqs = corpora["pretraining"].val_pool()[: cfg.analysis.eval_sequences]
    node_groups, group_set = _analysis_structures(model)
    profile = knowledge.analyze(
        model,
        group_set,
        node_groups,
        tuple(cfg.analysis.ratios),
        eval_seqs,
        cfg.analysis.unprunable_fraction,
    )
    knowledge.save_profile(
        profile,
        out / "knowledge_profile.json",
        out / "knowledge_profile.csv",
        {
            **_stamp(cfg, "analyze"),
            "ratios": cfg.analysis.ratios,
            "unprunable_fraction": cfg.analysis.unprunable_fraction,
        },
    )
    dump_groups(node_groups, group_set, out / "groups.json")


def stage_prune(cfg: PipelineConfig, out: Path) -> None:
    model = _require(out, "model_full.lshr", "prune", cfg)
    corpus = _corpora(out, "prune", cfg)["pretraining"]
    groups_payload = _require(out, "groups.json", "prune", cfg)
    node_groups, group_set = _analysis_structures(model)
    # LHSPG's state is the statuses, so it starts from analyze's two alone
    _apply_statuses(group_set, groups_payload, "groups.json", "prune", ("prunable", "unprunable"))

    n_prunable = len(group_set.prunable_ids())
    target = int(round(cfg.lhspg.pruning_ratio * n_prunable))
    if target == len(group_set.groups):
        # the one config check that needs analyze's group count
        raise ConfigError(
            f"config.lhspg.pruning_ratio {cfg.lhspg.pruning_ratio} with config.analysis.unprunable_fraction "
            f"{cfg.analysis.unprunable_fraction} removes all {target} structure groups, every head and "
            "MLP channel, which leaves recovery nothing to train"
        )
    lh = cfg.lhspg
    oneshot: list = []  # (pruned clone, zeroed ids) of the warm model, before any status changes
    result = run_lhspg(
        model,
        group_set,
        lh,
        target,
        cfg.seed,
        corpus.sample_batch,
        log_path=out / "lhspg_log.jsonl",
        after_warmup=lambda m: oneshot.extend(baseline.one_shot_prune(m, group_set, target)),
    )
    oneshot_model, oneshot_ids = oneshot
    summary = {
        **_stamp(cfg, "prune"),
        "target_zero_groups": target,
        "zero_groups": result.zero_groups,
        "pruning_ratio": lh.pruning_ratio,
        "prunable_groups": n_prunable,
        "redundant_groups": group_set.ids_with_status("redundant"),
        "lhspg_heldout_loss": pooled_loss(source_losses(model, corpus), corpus),
        "oneshot_heldout_loss": pooled_loss(source_losses(oneshot_model, corpus), corpus),
        "oneshot_groups": sorted(oneshot_ids),
    }
    write_json(out / "prune_summary.json", summary)
    dump_groups(node_groups, group_set, out / "groups_final.json")
    save_checkpoint(model, out / "model_pruned.lshr", extra=_stamp(cfg, "prune"))


def stage_compress(cfg: PipelineConfig, out: Path) -> None:
    model = _require(out, "model_pruned.lshr", "compress", cfg)
    groups_payload = _require(out, "groups_final.json", "compress", cfg)
    _, group_set = _analysis_structures(model)
    _apply_statuses(group_set, groups_payload, "groups_final.json", "compress")
    plan = compress.plan_compression(group_set, model)
    compact = compress.apply_compression(model, plan)
    # structural erasure must preserve the zeroed model's function exactly
    rng = stage_rng(cfg.seed, "compress-check")
    probe = rng.integers(0, cfg.model.vocab_size, size=(4, cfg.data.seq_len))
    diff = float(np.max(np.abs(model.forward(probe).data - compact.forward(probe).data)))
    if diff >= 1e-9:
        raise NumericError(f"compression equivalence violated: max |diff| = {diff:g}")
    write_json(
        out / "compression_plan.json",
        {**plan.to_json(), "block_dims": model_meta(compact)["blocks"], **_stamp(cfg, "compress")},
    )
    save_checkpoint(
        compact,
        out / "model_compact.lshr",
        extra={**_stamp(cfg, "compress"), "provenance": plan.to_json()["kept"]},
    )


def stage_recover(cfg: PipelineConfig, out: Path) -> None:
    compact = _require(out, "model_compact.lshr", "recover", cfg)
    full = _require(out, "model_full.lshr", "recover", cfg)
    corpora = _corpora(out, "recover", cfg)
    # the full model never changes; compute its reference scores once
    full_scores = {phase: per_source_perplexity(full, corpora[phase]) for phase in corpora}
    summary = recovery.run_recovery(
        compact, corpora, full_scores, cfg.recovery, cfg.seed, log_path=out / "recovery_log.jsonl"
    )
    write_json(
        out / "recovery_summary.json",
        {
            **_stamp(cfg, "recover"),
            "pre_ppl": summary.pre_ppl,
            "post_ppl": summary.post_ppl,
            "pre_mean_ppl": summary.pre_mean_ppl,
            "post_mean_ppl": summary.post_mean_ppl,
        },
    )
    save_checkpoint(compact, out / "model_recovered.lshr", extra=_stamp(cfg, "recover"))


def eval_model_paths(models: list[str] | None) -> list[Path]:
    """The checkpoints ``eval --model`` names, checked before anything is written.

    ConfigError when two share a file name (eval.json keys each model by
    it); StageError when one is not a file.
    """
    paths = [Path(m) for m in models or ()]
    first: dict[str, Path] = {}
    for path in paths:
        if first.setdefault(path.name, path) is not path:
            raise ConfigError(f"eval --model: {first[path.name]} and {path} share the file name {path.name}")
    for path in paths:
        if not path.is_file():
            raise StageError(f"stage eval: checkpoint not found: {path}")
    return paths


def stage_eval(cfg: PipelineConfig, out: Path, paths: list[Path] | None = None) -> None:
    """Score ``paths`` (checked by ``eval_model_paths``), or else every model checkpoint in ``out``."""
    corpora = _corpora(out, "eval", cfg)
    if not paths:
        names = [n for made in ARTIFACTS.values() for n in made if n.endswith(".lshr")]
        paths = [out / n for n in names if (out / n).exists()]
        if not paths:
            raise StageError("stage eval: no model checkpoints found; run pretrain first")
    results = {}
    for path in paths:
        model = _load_model(path, "stage eval")
        per_corpus = {}
        for phase, corpus in corpora.items():
            losses = source_losses(model, corpus)
            scores = {name: math.exp(loss) for name, loss in losses.items()}
            per_corpus[phase] = {
                "per_source": scores,
                "mean_ppl": float(np.mean(list(scores.values()))),
                "val_loss": pooled_loss(losses, corpus),
            }
        results[path.name] = {"parameters": model.parameter_count(), "corpora": per_corpus}
    write_json(out / "eval.json", {**_stamp(cfg, "eval"), "models": results})


def stage_report(cfg: PipelineConfig, out: Path) -> None:
    eval_payload = _require(out, "eval.json", "report", cfg)
    prune_summary = _require(out, "prune_summary.json", "report", cfg)
    profile = _require(out, "knowledge_profile.json", "report", cfg)
    lines = ["# Pruning pipeline report", ""]
    lines += [
        f"- configuration hash: `{cfg.config_hash()}`",
        f"- seed: {cfg.seed}",
    ]
    with _fields_of("prune_summary.json", "report"):
        lines += [
            f"- pruning ratio: {prune_summary['pruning_ratio']} "
            f"({prune_summary['target_zero_groups']} of {prune_summary['prunable_groups']} prunable groups)",
            f"- zero groups after pruning: {prune_summary['zero_groups']} "
            f"(target {prune_summary['target_zero_groups']})",
            "",
            "## Progressive pruning vs one-shot baseline (held-out loss)",
            "",
            "| Ratio | Method | Held-out loss |",
            "|---|---|---|",
            f"| {prune_summary['pruning_ratio']} | progressive half-space (this run) | "
            f"{prune_summary['lhspg_heldout_loss']:.6f} |",
            f"| {prune_summary['pruning_ratio']} | one-shot magnitude | "
            f"{prune_summary['oneshot_heldout_loss']:.6f} |",
            "",
            f"Held-out loss delta (one-shot minus progressive): "
            f"{prune_summary['oneshot_heldout_loss'] - prune_summary['lhspg_heldout_loss']:.6f}",
        ]
    lines += [
        "",
        "## Per-stage perplexities (validation)",
        "",
        "| Model | Parameters | Corpus | Mean ppl |",
        "|---|---|---|---|",
    ]
    with _fields_of("eval.json", "report"):
        for name, entry in sorted(eval_payload["models"].items()):
            for phase, stats in sorted(entry["corpora"].items()):
                lines.append(f"| {name} | {entry['parameters']} | {phase} | {stats['mean_ppl']:.4f} |")
    lines += [
        "",
        "## Knowledge distribution",
        "",
        "Per node group perplexity deviation (full table: `knowledge_profile.csv`):",
        "",
        "| Node group | Deviation | Unprunable |",
        "|---|---|---|",
    ]
    with _fields_of("knowledge_profile.json", "report"):
        for e in sorted(profile["entries"], key=lambda e: e["rank"]):
            lines.append(f"| {e['node_group']} | {e['deviation']:.6f} | {e['unprunable']} |")
    if (out / "recovery_summary.json").exists():
        rec = _require(out, "recovery_summary.json", "report", cfg)
        with _fields_of("recovery_summary.json", "report"):
            lines += [
                "",
                "## Recovery",
                "",
                f"- pre-recovery mean validation ppl: {rec['pre_mean_ppl']:.4f}",
                f"- post-recovery mean validation ppl: {rec['post_mean_ppl']:.4f}",
                f"- improvement: {rec['pre_mean_ppl'] - rec['post_mean_ppl']:.4f}",
            ]
    write_atomic(out / "report.md", "\n".join(lines) + "\n")


STAGES = {
    "gen-data": stage_gen_data,
    "pretrain": stage_pretrain,
    "analyze": stage_analyze,
    "prune": stage_prune,
    "compress": stage_compress,
    "recover": stage_recover,
    "eval": stage_eval,
    "report": stage_report,
}


def run_stage(stage: str, cfg: PipelineConfig, out: Path, models: list[str] | None = None) -> None:
    """Run ``stage`` into ``out``, which it makes, writing config.json first.

    ``models`` are the checkpoints ``eval --model`` names; they are checked
    before ``out`` is made, so a bad one leaves nothing behind.
    """
    options = {"paths": eval_model_paths(models)} if models else {}
    out.mkdir(parents=True, exist_ok=True)
    write_config(cfg, out / "config.json")
    STAGES[stage](cfg, out, **options)


def run_all(cfg: PipelineConfig, out: Path) -> None:
    for stage in STAGES:
        run_stage(stage, cfg, out)


def dump_graph_artifact(model_path: Path, out_path: Path) -> None:
    model = _load_model(model_path, "graph dump")
    write_json(out_path, graph_to_json(build_trace_graph(model)))


def dump_groups_artifact(model_path: Path, out_path: Path) -> None:
    model = _load_model(model_path, "groups dump")
    node_groups, group_set = _analysis_structures(model)
    dump_groups(node_groups, group_set, out_path)
