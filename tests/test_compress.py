import ast
from pathlib import Path

import numpy as np
import pytest

from lorashear import compress
from lorashear.checkpoint import load_checkpoint, save_checkpoint
from lorashear.compress import apply_compression, plan_compression
from lorashear.errors import PlanError
from lorashear.graph import build_trace_graph
from lorashear.groups import (
    GroupSet,
    Slice,
    StructureGroup,
    discover_node_groups,
    partition_variables,
    zero_structure,
)
from lorashear.model import ModelConfig, build_model
from lorashear.util import model_hash


def setup(model):
    graph = build_trace_graph(model)
    node_groups = discover_node_groups(graph)
    group_set = partition_variables(node_groups, model)
    return graph, node_groups, group_set


def mark_and_zero(model, group_set, ids):
    for gid in ids:
        zero_structure(model, group_set.by_id[gid])
        group_set.set_status(gid, "redundant")


def compact_parameter_count(model, removed_mlp_per_block, removed_heads_per_block):
    """Closed-form count after removing channels/heads, from the plan arithmetic.

    A sublayer left with no head or channel counts 0: norm and factors go too."""
    c = model.config
    d, r = c.dim, c.lora_rank
    dh = c.dim // c.n_heads
    total = c.vocab_size * d + c.block_size * d + d + c.vocab_size * d
    for b in range(c.n_layers):
        rows = d - removed_heads_per_block[b] * dh
        m = c.mlp_dim - removed_mlp_per_block[b]
        if rows:
            total += d  # attn norm
            total += 3 * (rows * d + r * d + rows * r)  # q, k, v
            total += d * rows + r * rows + d * r  # o
        if m:
            total += d  # mlp norm
            total += 2 * (m * d + r * d + m * r)  # gate, up
            total += d * m + r * m + d * r  # down
    return total


class TestPlan:
    def test_no_redundant_groups_gives_identity_plan(self, toy_model):
        graph, node_groups, group_set = setup(toy_model)
        plan = plan_compression(group_set, toy_model)
        assert plan.is_identity()
        compact = apply_compression(toy_model, plan)
        assert model_hash(compact) == model_hash(toy_model)

    def test_one_mlp_channel_hand_traced(self, toy_model):
        # removing MLP channel j drops one output row of gate and up (and of
        # their B factors) and one input column of down (and of its A factor)
        graph, node_groups, group_set = setup(toy_model)
        mark_and_zero(toy_model, group_set, ["blocks.0.mlp:ch:009"])
        plan = plan_compression(group_set, toy_model)
        kept63 = [i for i in range(64) if i != 9]
        assert plan.kept["blocks.0.mlp.gate.weight"][0] == kept63
        assert plan.kept["blocks.0.mlp.up.weight"][0] == kept63
        assert plan.kept["blocks.0.mlp.gate.lora_B"][0] == kept63
        assert plan.kept["blocks.0.mlp.up.lora_B"][0] == kept63
        assert plan.kept["blocks.0.mlp.down.weight"][1] == kept63
        assert plan.kept["blocks.0.mlp.down.lora_A"][1] == kept63
        assert set(plan.kept) == {
            "blocks.0.mlp.gate.weight", "blocks.0.mlp.up.weight",
            "blocks.0.mlp.gate.lora_B", "blocks.0.mlp.up.lora_B",
            "blocks.0.mlp.down.weight", "blocks.0.mlp.down.lora_A",
        }
        compact = apply_compression(toy_model, plan)
        assert compact.blocks[0].gate.weight.shape == (63, 32)
        assert compact.blocks[0].down.weight.shape == (32, 63)
        assert compact.blocks[0].down.lora_a.shape == (4, 63)
        assert compact.blocks[0].mlp_dim == 63

    def test_one_attention_head_hand_traced(self, toy_model):
        # removing head h drops head_dim rows of q/k/v and head_dim columns of o
        graph, node_groups, group_set = setup(toy_model)
        mark_and_zero(toy_model, group_set, ["blocks.1.attn:head:002"])
        plan = plan_compression(group_set, toy_model)
        kept = [i for i in range(32) if not 16 <= i < 24]
        for proj in ("q", "k", "v"):
            assert plan.kept[f"blocks.1.attn.{proj}.weight"][0] == kept
            assert plan.kept[f"blocks.1.attn.{proj}.lora_B"][0] == kept
        assert plan.kept["blocks.1.attn.o.weight"][1] == kept
        assert plan.kept["blocks.1.attn.o.lora_A"][1] == kept
        compact = apply_compression(toy_model, plan)
        assert compact.blocks[1].q.weight.shape == (24, 32)
        assert compact.blocks[1].o.weight.shape == (32, 24)
        assert compact.blocks[1].n_heads == 3

    def test_kept_indices_strictly_increasing(self, trained_toy):
        model, _ = trained_toy
        graph, node_groups, group_set = setup(model)
        mark_and_zero(model, group_set, [
            "blocks.0.mlp:ch:001", "blocks.0.mlp:ch:030", "blocks.1.attn:head:000",
        ])
        plan = plan_compression(group_set, model)
        for axes in plan.kept.values():
            for kept in axes.values():
                assert kept == sorted(set(kept))

    def test_inconsistent_propagation_is_a_plan_error(self, toy_model):
        # tamper one structure group so gate and up disagree about which row
        # to remove; the second pass must refuse to build a plan
        graph, node_groups, group_set = setup(toy_model)
        victim = group_set.by_id["blocks.0.mlp:ch:002"]
        tampered = StructureGroup(
            victim.id, victim.node_group, victim.kind, victim.unit_index,
            tuple(
                Slice(s.param, s.axis, (3,) if "gate" in s.param else s.indices, s.role)
                for s in victim.slices
            ),
        )
        groups = [tampered if g.id == victim.id else g for g in group_set.groups]
        bad = GroupSet(groups=groups, status=dict(group_set.status))
        bad.set_status(victim.id, "redundant")
        with pytest.raises(PlanError, match="inconsistent|expects removed"):
            plan_compression(bad, toy_model)


class TestApply:
    def test_parameter_count_matches_closed_form_at_twenty_percent(self, trained_toy):
        model, _ = trained_toy
        graph, node_groups, group_set = setup(model)
        victims = (
            [f"blocks.0.mlp:ch:{j:03d}" for j in range(10)]
            + [f"blocks.1.mlp:ch:{j:03d}" for j in range(5, 19)]
            + ["blocks.0.attn:head:001", "blocks.1.attn:head:000", "blocks.1.attn:head:003"]
        )
        mark_and_zero(model, group_set, victims)
        plan = plan_compression(group_set, model)
        compact = apply_compression(model, plan)
        expected = compact_parameter_count(model, [10, 14], [1, 2])
        assert compact.parameter_count() == expected
        assert compact.parameter_count() < model.parameter_count()

    def test_compact_logits_equal_zeroed_full_on_100_random_sequences(self, trained_toy):
        model, _ = trained_toy
        graph, node_groups, group_set = setup(model)
        rng = np.random.default_rng(17)
        victims = rng.choice(group_set.prunable_ids(), size=27, replace=False)
        mark_and_zero(model, group_set, victims)
        plan = plan_compression(group_set, model)
        compact = apply_compression(model, plan)
        worst = 0.0
        for _ in range(100):
            t = int(rng.integers(2, 33))
            tokens = rng.integers(0, 64, size=(1, t))
            diff = np.max(np.abs(model.forward(tokens).data - compact.forward(tokens).data))
            worst = max(worst, float(diff))
        assert worst < 1e-9

    def test_compact_forward_shape_consistent_for_any_length(self, trained_toy):
        model, _ = trained_toy
        graph, node_groups, group_set = setup(model)
        mark_and_zero(model, group_set, [f"blocks.0.mlp:ch:{j:03d}" for j in range(20)])
        compact = apply_compression(model, plan_compression(group_set, model))
        for t in (1, 2, 7, 48):
            out = compact.forward(np.zeros(t, dtype=np.int64))
            assert out.shape == (t, 64)

    def test_whole_family_removal_still_equivalent(self, trained_toy):
        # boundary: every head of one block removed; attention degenerates to
        # a zero contribution in both the zeroed and the erased model
        model, _ = trained_toy
        graph, node_groups, group_set = setup(model)
        mark_and_zero(model, group_set, [f"blocks.0.attn:head:{h:03d}" for h in range(4)])
        compact = apply_compression(model, plan_compression(group_set, model))
        assert compact.blocks[0].n_heads == 0
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, 64, size=(2, 12))
        assert np.max(np.abs(model.forward(tokens).data - compact.forward(tokens).data)) < 1e-9

    def test_plan_provenance_maps_new_to_old_indices(self, toy_model):
        graph, node_groups, group_set = setup(toy_model)
        mark_and_zero(toy_model, group_set, ["blocks.0.mlp:ch:000", "blocks.0.mlp:ch:063"])
        plan = plan_compression(group_set, toy_model)
        kept = plan.kept["blocks.0.mlp.gate.weight"][0]
        assert kept[0] == 1 and kept[-1] == 62 and len(kept) == 62
        payload = plan.to_json()
        assert payload["removed_units"]["blocks.0.mlp"] == [0, 63]


# (config, removed MLP channels and removed heads, per block): a model without
# adaptors, and three blocks that each lose something different, one of them
# every head and another every MLP channel
SHAPES = {
    "rank-0": (
        dict(vocab_size=64, dim=32, n_layers=2, n_heads=4, mlp_dim=64, lora_rank=0, block_size=48),
        [(range(5), [2]), (range(10, 20), [0, 1])],
    ),
    "three-blocks": (
        dict(vocab_size=64, dim=32, n_layers=3, n_heads=4, mlp_dim=16, lora_rank=2, block_size=24),
        [([0, 5, 9], []), ([7], range(4)), (range(16), [1, 3])],
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestShapes:
    @pytest.fixture
    def erased(self, shape):
        fields, removals = SHAPES[shape]
        model = build_model(ModelConfig(seed=11, **fields))
        rng = np.random.default_rng(5)
        for name, t in model.parameters().items():
            if name.endswith(".lora_B"):  # live adaptors, so their slices matter
                t.data = rng.normal(0.0, 0.1, size=t.data.shape)
        *_, group_set = setup(model)
        mark_and_zero(model, group_set, [
            gid
            for b, (channels, heads) in enumerate(removals)
            for gid in [f"blocks.{b}.mlp:ch:{j:03d}" for j in channels]
            + [f"blocks.{b}.attn:head:{h:03d}" for h in heads]
        ])
        return model, apply_compression(model, plan_compression(group_set, model)), removals

    def test_compact_logits_equal_the_zeroed_models(self, erased):
        model, compact, _ = erased
        tokens = np.random.default_rng(8).integers(0, 64, size=(3, model.config.block_size))
        assert np.max(np.abs(model.forward(tokens).data - compact.forward(tokens).data)) < 1e-9

    def test_parameter_count_matches_closed_form(self, erased):
        model, compact, removals = erased
        expected = compact_parameter_count(
            model, [len(c) for c, _ in removals], [len(h) for _, h in removals]
        )
        assert compact.parameter_count() == expected

    def test_checkpoint_round_trip_keeps_each_blocks_sizes(self, erased, tmp_path):
        model, compact, removals = erased
        save_checkpoint(compact, tmp_path / "compact.lshr")
        loaded = load_checkpoint(tmp_path / "compact.lshr")
        c = model.config
        expected = [(c.n_heads - len(h), c.mlp_dim - len(ch)) for ch, h in removals]
        for blocks in (compact.blocks, loaded.blocks):
            assert [(b.n_heads, b.mlp_dim) for b in blocks] == expected
        assert model_hash(loaded) == model_hash(compact)


def _graph_imports(source: str) -> list[str]:
    """The imports of ``source`` that name a ``graph`` module, as written."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if any("graph" in name.replace(".", " ").split() for name in names):
            found.append(ast.unparse(node))
    return found


def test_compression_reads_no_trace_graph():
    # the structure groups alone say what a removal touches
    assert _graph_imports(Path(compress.__file__).read_text(encoding="utf-8")) == []


def test_graph_import_guard_sees_each_form():
    source = (
        "from .graph import TraceGraph\nfrom . import graph\nimport lorashear.graph\n"
        "from lorashear.graph import x\nfrom lorashear import graph as g\n"
        "from .groups import GroupSet\nimport graphlib\nfrom .model import graph_size\n"
    )
    assert _graph_imports(source) == [
        "from .graph import TraceGraph", "from . import graph", "import lorashear.graph",
        "from lorashear.graph import x", "from lorashear import graph as g",
    ]
