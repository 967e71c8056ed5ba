"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The five-seed pipeline
battery is shared by the knowledge-transfer and recovery criteria; its
summed wall time is the pipeline-runtime budget check.
"""

import hashlib
import json
import time

import numpy as np
import pytest

import lorashear.tensor as T
from lorashear import pipeline
from lorashear.artifacts import read_json
from lorashear.checkpoint import load_checkpoint
from lorashear.compress import apply_compression, plan_compression
from lorashear.config import LhspgSection, PipelineConfig
from lorashear.data import corpora_from_json
from lorashear.errors import FormatError
from lorashear.graph import build_trace_graph
from lorashear.groups import (
    discover_node_groups,
    frozen_slice_vector,
    partition_variables,
    zero_structure,
)
from lorashear.knowledge import probe_deviation
from lorashear.lhspg import run_lhspg
from lorashear.model import ModelConfig, build_model, next_token_loss
from lorashear.recovery import allocate_subset
from lorashear.tensor import Tape, Tensor
from lorashear.util import model_hash

from conftest import TINY, central_difference, max_relative_error
from test_groups import enumerate_expected_groups

SEEDS = (101, 102, 103, 104, 105)


def ok(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:02d} {status}: {description}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {criterion}: {description} ({detail})"


def structures(model):
    graph = build_trace_graph(model)
    node_groups = discover_node_groups(graph)
    return graph, node_groups, partition_variables(node_groups, model)


@pytest.fixture(scope="module")
def seed_battery(tmp_path_factory):
    """Full pipeline for five seeds at the 20% default operating point."""
    runs = {}
    started = time.perf_counter()
    for seed in SEEDS:
        cfg = PipelineConfig()
        cfg.seed = seed
        out = tmp_path_factory.mktemp(f"seed{seed}")
        pipeline.run_all(cfg, out)
        runs[seed] = out
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def pruned_state(seed_battery):
    """Trained model + analysis structures reloaded from the first seed run."""
    runs, _ = seed_battery
    out = runs[SEEDS[0]]
    model = load_checkpoint(out / "model_full.lshr")
    payload = read_json(out / "corpus.json", FormatError)
    corpora = corpora_from_json(payload, model.config.vocab_size, pipeline.corpus_sources(PipelineConfig()))
    return model, corpora["pretraining"]


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()

    # every op, randomized O(1) inputs
    rng = np.random.default_rng(0)
    worst = 0.0

    def check(build, arrays, probe_shape=None):
        nonlocal worst
        probe = rng.normal(size=probe_shape) if probe_shape else None

        def scalar(arrs) -> float:
            out = build({k: Tensor(v) for k, v in arrs.items()})
            val = out.data if probe is None else out.data * probe
            return float(np.sum(val))

        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        with Tape() as tape:
            out = build(tensors)
            weighted = out if probe is None else T.mul(out, Tensor(probe))
            flat = T.reshape(weighted, (1, weighted.data.size))
            loss = T.reshape(T.matmul(flat, Tensor(np.ones((flat.data.size, 1)))), ())
        tape.backward(loss)
        fd = central_difference(scalar, arrays)
        for name in arrays:
            worst = max(worst, max_relative_error(tensors[name].grad, fd[name]))

    r = lambda *s: rng.normal(size=s)
    check(lambda a: T.add(a["x"], a["y"]), {"x": r(3, 4), "y": r(3, 4)}, (3, 4))
    check(lambda a: T.mul(a["x"], a["y"]), {"x": r(3, 4), "y": r(3, 4)}, (3, 4))
    check(lambda a: T.scale(a["x"], 1.3), {"x": r(3, 4)}, (3, 4))
    check(lambda a: T.matmul(a["x"], a["y"]), {"x": r(3, 4), "y": r(4, 2)}, (3, 2))
    check(lambda a: T.linear(a["x"], a["w"]), {"x": r(3, 4), "w": r(5, 4)}, (3, 5))
    check(lambda a: T.silu(a["x"]), {"x": r(4, 4)}, (4, 4))
    check(lambda a: T.softmax(a["x"]), {"x": r(3, 5)}, (3, 5))
    check(lambda a: T.causal_attention(a["q"], a["k"], a["v"], 2),
          {"q": r(2, 4, 6), "k": r(2, 4, 6), "v": r(2, 4, 6)}, (2, 4, 6))
    q, v = Tensor(r(2, 4, 6)), Tensor(r(2, 4, 6))
    check(lambda a: T.causal_attention(q, a["k"], v, 2), {"k": r(2, 4, 6)}, (2, 4, 6))
    check(lambda a: T.rmsnorm(a["x"], a["g"]), {"x": r(3, 6), "g": r(6)}, (3, 6))
    check(lambda a: T.transpose(T.reshape(a["x"], (2, 6)), (1, 0)), {"x": r(3, 4)}, (6, 2))
    ids = np.array([[0, 2], [1, 1]])
    check(lambda a: T.embedding_lookup(a["t"], ids), {"t": r(3, 4)}, (2, 2, 4))
    targets = np.array([1, 0, 2])
    check(lambda a: T.cross_entropy(a["l"], targets), {"l": r(3, 4)})

    # the full model loss, every parameter coordinate
    model = build_model(ModelConfig(seed=5, **TINY))
    model.set_trainable("all")
    seqs = rng.integers(0, TINY["vocab_size"], size=(2, 13))
    arrays = {n: t.data for n, t in model.parameters().items()}

    def model_loss(arrs) -> float:
        return next_token_loss(model, seqs).item()

    with Tape() as tape:
        loss = next_token_loss(model, seqs)
    tape.backward(loss)
    fd = central_difference(model_loss, arrays)
    for name, t in model.parameters().items():
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        worst = max(worst, max_relative_error(grad, fd[name]))

    # the fused LoRA linear, drawn last so the model check keeps its inputs
    check(lambda a: T.lora_linear(a["x"], a["w"], a["a"], a["b"], 1.7),
          {"x": r(2, 3, 4), "w": r(5, 4), "a": r(2, 4), "b": r(5, 2)}, (2, 3, 5))

    elapsed = time.perf_counter() - started
    ok(1, "autodiff matches central differences on every op and the full model loss",
       worst < 1e-4 and elapsed < 60.0, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_dependency_oracle():
    config = ModelConfig(vocab_size=64, dim=32, n_layers=2, n_heads=4, mlp_dim=64,
                         lora_rank=4, block_size=48, seed=3)
    model = build_model(config)
    _, node_groups, group_set = structures(model)
    expected = enumerate_expected_groups(config)
    exact = (
        [g.id for g in group_set.groups] == [g.id for g in expected]
        and all(
            got.slices == want.slices and got.node_group == want.node_group
            for got, want in zip(group_set.groups, expected)
        )
    )
    count = len(group_set.prunable_ids())
    target = config.n_layers * (config.mlp_dim + config.n_heads)
    ok(2, "node groups and GroupSet equal the hand-enumerated fixture",
       exact and count == target, f"{count} prunable groups, expected {target}")


def test_criterion_3_removal_soundness(pruned_state):
    model, _ = pruned_state
    rng = np.random.default_rng(7)
    graph, node_groups, group_set = structures(model)
    chosen = rng.choice(group_set.prunable_ids(), size=20, replace=False)
    worst = 0.0
    for gid in chosen:
        zeroed = model.clone()
        zero_structure(zeroed, group_set.by_id[gid])
        gs = structures(model)[2]
        gs.set_status(gid, "redundant")
        erased = apply_compression(zeroed, plan_compression(gs, zeroed))
        tokens = rng.integers(0, 64, size=(2, 17))
        diff = float(np.max(np.abs(zeroed.forward(tokens).data - erased.forward(tokens).data)))
        worst = max(worst, diff)
    ok(3, "zeroed-group forward equals structurally erased forward for 20 random groups",
       worst < 1e-9, f"max |diff| {worst:.2e}")


def test_criterion_4_knowledge_analysis_restore(pruned_state):
    model, corpus = pruned_state
    _, node_groups, group_set = structures(model)
    eval_seqs = corpus.val_pool()[:8]
    before = model_hash(model)
    clean = True
    for family in node_groups.prunable_families():
        probe_deviation(model, group_set, family.id, (0.25, 0.5), eval_seqs)
        clean = clean and model_hash(model) == before
    ok(4, "tensor hash identical before and after every probe, over all node groups", clean)


@pytest.mark.parametrize("ratio", [0.2, 0.5])
def test_criterion_5_lhspg_cardinality(pruned_state, ratio):
    model, corpus = pruned_state
    model = model.clone()
    _, node_groups, group_set = structures(model)
    for g in group_set.groups:  # one family unprunable, as knowledge analysis would flag
        if g.node_group == "blocks.0.attn":
            group_set.set_status(g.id, "unprunable")
    unprunable = group_set.ids_with_status("unprunable")
    k = int(round(ratio * len(group_set.prunable_ids())))
    config = LhspgSection(learning_rate=0.3, warmup_steps=20, periods=3, steps_per_period=12,
                          batch_size=8)

    snapshots = {}
    violations = []

    def snap(m):
        return {gid: frozen_slice_vector(m, group_set.by_id[gid]).copy() for gid in unprunable}

    def inspect(event, m):
        if event["event"] == "step" and event["period"] >= 0:
            now = snap(m)
            if snapshots:
                for gid in unprunable:
                    if not np.array_equal(now[gid], snapshots[gid]):
                        violations.append((event["step"], gid))
            snapshots.update(now)
        elif event["event"] == "merge":
            snapshots.update(snap(m))  # merges may move unprunable slices

    result = run_lhspg(model, group_set, config, k, 17, corpus.sample_batch, inspect=inspect)
    ok(5, f"zero-group count exactly K at ratio {ratio}, unprunable slices touched only by merges",
       result.zero_groups == k and not violations,
       f"K={k}, zero={result.zero_groups}, violations={len(violations)}")


def test_criterion_6_merge_identity(pruned_state):
    from lorashear.lhspg import end_of_period_merge, warmup

    model, corpus = pruned_state
    model = model.clone()
    rng = np.random.default_rng(3)
    warmup(model, lambda: corpus.sample_batch(rng, 8), steps=15, learning_rate=0.3)
    tokens = rng.integers(0, 64, size=(4, 20))
    before = model.forward(tokens).data
    end_of_period_merge(model)
    diff = float(np.max(np.abs(model.forward(tokens).data - before)))
    ok(6, "end-of-period merge changes forward logits by < 1e-9", diff < 1e-9, f"max {diff:.2e}")


def test_criterion_7_compression_equivalence(seed_battery):
    runs, _ = seed_battery
    out = runs[SEEDS[0]]
    pruned = load_checkpoint(out / "model_pruned.lshr")
    compact = load_checkpoint(out / "model_compact.lshr")
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(2, 49))
        tokens = rng.integers(0, 64, size=(1, t))
        diff = np.max(np.abs(pruned.forward(tokens).data - compact.forward(tokens).data))
        worst = max(worst, float(diff))

    plan = json.loads((out / "compression_plan.json").read_text())
    counted = 0
    for name, tensor in compact.parameters().items():
        counted += tensor.data.size
    expected = 0
    for name, tensor in pruned.parameters().items():
        dims = list(tensor.data.shape)
        for axis_str, kept in plan["kept"].get(name, {}).items():
            dims[int(axis_str)] = len(kept)
        expected += int(np.prod(dims))
    ok(7, "compact logits equal zeroed-full logits over 100 random sequences; parameter count matches",
       worst < 1e-9 and counted == expected and counted < pruned.parameter_count(),
       f"max |diff| {worst:.2e}, params {counted} vs closed-form {expected}")


def test_criterion_8_knowledge_transfer(seed_battery):
    runs, elapsed = seed_battery
    wins = 0
    details = []
    for seed in SEEDS:
        summary = json.loads((runs[seed] / "prune_summary.json").read_text())
        lhspg, oneshot = summary["lhspg_heldout_loss"], summary["oneshot_heldout_loss"]
        wins += lhspg <= oneshot
        details.append(f"{seed}: {oneshot - lhspg:+.4f}")
    ok(8, "progressive pruning beats one-shot on held-out loss on >= 4 of 5 seeds, under 30 min",
       wins >= 4 and elapsed < 1800.0,
       f"wins {wins}/5 [{', '.join(details)}], 5-seed pipeline time {elapsed:.0f}s")


def test_criterion_9_recovery_efficacy(seed_battery):
    runs, _ = seed_battery
    wins = 0
    allocations_exact = True
    details = []
    for seed in SEEDS:
        summary = json.loads((runs[seed] / "recovery_summary.json").read_text())
        wins += summary["post_mean_ppl"] < summary["pre_mean_ppl"]
        details.append(f"{seed}: {summary['pre_mean_ppl']:.1f}->{summary['post_mean_ppl']:.1f}")
        cfg = json.loads((runs[seed] / "config.json").read_text())
        for line in (runs[seed] / "recovery_log.jsonl").read_text().splitlines():
            event = json.loads(line)
            if event["event"] != "round":
                continue
            expected = allocate_subset(
                sorted(event["degradation"]), event["degradation"],
                cfg["recovery"]["subset_size"], cfg["recovery"]["source_floor"],
            )
            allocations_exact = allocations_exact and event["allocations"] == expected
    ok(9, "recovery lowers mean validation perplexity on >= 4 of 5 seeds; allocations exact",
       wins >= 4 and allocations_exact, f"wins {wins}/5 [{', '.join(details)}]")


def test_criterion_10_determinism(tmp_path):
    cfg = PipelineConfig()
    cfg.seed = 7
    digests = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        pipeline.run_all(cfg, run_dir)
        digests.append({
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.iterdir()) if p.is_file()
        })
    ok(10, "run-all with a fixed seed is byte-reproducible end to end",
       digests[0] == digests[1], f"{len(digests[0])} artifacts compared")
