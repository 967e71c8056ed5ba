"""Minimally removal structure discovery against an independent enumeration.

The oracle below builds the expected GroupSet by straight closed-form loops
over the block diagram (per MLP channel: gate/up rows + down column + the
matching adaptor slices; per attention head: q/k/v row slices + o column
slice + adaptor slices). The implementation under test derives the same
thing from the ops of a recorded forward and their coupling rules; the two
must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorashear.errors import AnalysisError
from lorashear.graph import TraceGraph, TraceNode, build_trace_graph
from lorashear.groups import (
    GroupSet,
    Slice,
    StructureGroup,
    discover_node_groups,
    effective_slice_vector,
    frozen_slice_vector,
    group_set_to_json,
    partition_variables,
    verify_group_set,
    write_frozen_slices,
    zero_structure,
)
from lorashear.model import ModelConfig, build_model

from conftest import TOY


def analysis(model):
    graph = build_trace_graph(model)
    node_groups = discover_node_groups(graph)
    group_set = partition_variables(node_groups, model)
    return graph, node_groups, group_set


def enumerate_expected_groups(config: ModelConfig) -> list[StructureGroup]:
    """Independent oracle: closed-form enumeration of the block diagram.

    At ``lora_rank`` 0 there are no adaptors, so no adaptor slices.
    """
    adapted = config.lora_rank > 0
    groups = []
    dh = config.dim // config.n_heads
    for b in range(config.n_layers):
        attn, mlp = f"blocks.{b}.attn", f"blocks.{b}.mlp"
        for h in range(config.n_heads):
            idx = tuple(range(h * dh, (h + 1) * dh))
            slices = [
                Slice(f"{attn}.k.lora_B", 0, idx, "lora_b"),
                Slice(f"{attn}.k.weight", 0, idx, "host"),
                Slice(f"{attn}.o.lora_A", 1, idx, "lora_a"),
                Slice(f"{attn}.o.weight", 1, idx, "host"),
                Slice(f"{attn}.q.lora_B", 0, idx, "lora_b"),
                Slice(f"{attn}.q.weight", 0, idx, "host"),
                Slice(f"{attn}.v.lora_B", 0, idx, "lora_b"),
                Slice(f"{attn}.v.weight", 0, idx, "host"),
            ]
            slices = tuple(s for s in slices if adapted or s.role == "host")
            groups.append(StructureGroup(f"{attn}:head:{h:03d}", attn, "attn_head", h, slices))
        for j in range(config.mlp_dim):
            idx = (j,)
            slices = [
                Slice(f"{mlp}.down.lora_A", 1, idx, "lora_a"),
                Slice(f"{mlp}.down.weight", 1, idx, "host"),
                Slice(f"{mlp}.gate.lora_B", 0, idx, "lora_b"),
                Slice(f"{mlp}.gate.weight", 0, idx, "host"),
                Slice(f"{mlp}.up.lora_B", 0, idx, "lora_b"),
                Slice(f"{mlp}.up.weight", 0, idx, "host"),
            ]
            slices = tuple(s for s in slices if adapted or s.role == "host")
            groups.append(StructureGroup(f"{mlp}:ch:{j:03d}", mlp, "mlp_channel", j, slices))
    return sorted(groups, key=lambda g: g.id)


def assert_equals_oracle(group_set: GroupSet, config: ModelConfig) -> None:
    expected = enumerate_expected_groups(config)
    assert [g.id for g in group_set.groups] == [g.id for g in expected]
    for got, want in zip(group_set.groups, expected):
        assert got.node_group == want.node_group
        assert got.kind == want.kind
        assert got.unit_index == want.unit_index
        assert got.slices == want.slices


class TestPartition:
    def test_group_set_equals_hand_enumerated_fixture(self, toy_model, toy_config):
        _, _, group_set = analysis(toy_model)
        assert_equals_oracle(group_set, toy_config)

    def test_prunable_group_count_closed_form(self, toy_model, toy_config):
        _, _, group_set = analysis(toy_model)
        expected = toy_config.n_layers * (toy_config.mlp_dim + toy_config.n_heads)
        assert len(group_set.prunable_ids()) == expected == 136

    def test_disjointness_no_duplicate_triples(self, toy_model):
        _, _, group_set = analysis(toy_model)
        triples = [
            (s.param, s.axis, i) for g in group_set.groups for s in g.slices for i in s.indices
        ]
        assert len(triples) == len(set(triples))

    def test_coverage_gap_is_detected(self, toy_model):
        _, node_groups, group_set = analysis(toy_model)
        crippled = GroupSet(groups=group_set.groups[1:], status=dict(group_set.status))
        with pytest.raises(AnalysisError, match="coverage gap"):
            verify_group_set(crippled, node_groups, toy_model)

    def test_deterministic_ordering(self, toy_model):
        _, _, a = analysis(toy_model)
        _, _, b = analysis(toy_model)
        assert group_set_to_json(a) == group_set_to_json(b)
        assert [g.id for g in a.groups] == sorted(g.id for g in a.groups)


class TestNodeGroups:
    def test_prunable_families_one_per_block_side(self, toy_model, toy_config):
        _, node_groups, _ = analysis(toy_model)
        families = [g.id for g in node_groups.prunable_families()]
        assert families == sorted(
            f"blocks.{b}.{side}" for b in range(toy_config.n_layers) for side in ("attn", "mlp")
        )

    def test_residual_and_logits_classes_unprunable(self, toy_model):
        _, node_groups, _ = analysis(toy_model)
        by_id = {g.id: g for g in node_groups.basic}
        assert not by_id["residual"].prunable
        assert not by_id["logits"].prunable
        members = {(m.param, m.axis) for m in by_id["residual"].members}
        assert ("tok_embedding", 1) in members
        assert ("head.weight", 1) in members
        assert ("blocks.0.attn_norm.gain", 0) in members

    def test_composed_group_per_span_with_boundary_overlap(self, toy_model):
        # a lora_B factor belongs to its composed span and to the downstream
        # basic dependency class at the same time
        graph, node_groups, _ = analysis(toy_model)
        spans = [n for n in graph.nodes if n.kind == "lora_linear"]
        assert len(node_groups.composed) == len(spans) == 14
        span = node_groups.by_id()["span:blocks.0.mlp.gate"]
        assert span.links == {"secondary": "residual", "primary": "blocks.0.mlp"}
        b_factor = ("blocks.0.mlp.gate.lora_B", 0)
        (op,) = [n.id for n in spans if b_factor[0] in n.params]
        assert {(m.node_id, m.param, m.axis) for m in span.members} == {
            (op, "blocks.0.mlp.gate.lora_A", 1), (op, *b_factor),
        }
        containing = [
            g.id for g in node_groups.all_groups()
            if any((m.node_id, m.param, m.axis) == (op, *b_factor) for m in g.members)
        ]
        assert sorted(containing) == ["blocks.0.mlp", "span:blocks.0.mlp.gate"]

    def test_mlp_family_matches_block_diagram(self, toy_model):
        graph, node_groups, _ = analysis(toy_model)
        fam = node_groups.by_id()["blocks.0.mlp"]
        got = {(m.param, m.axis) for m in fam.members}
        assert got == {
            ("blocks.0.mlp.gate.weight", 0),
            ("blocks.0.mlp.up.weight", 0),
            ("blocks.0.mlp.down.weight", 1),
            ("blocks.0.mlp.gate.lora_B", 0),
            ("blocks.0.mlp.up.lora_B", 0),
            ("blocks.0.mlp.down.lora_A", 1),
        }
        # each member names the op that reads it
        readers = {p: n for n in graph.nodes for p in n.params}
        assert all(readers[m.param].id == m.node_id for m in fam.members)
        assert {readers[m.param].kind for m in fam.members} == {"lora_linear"}

    def test_attention_family_grouped_per_head(self, toy_model, toy_config):
        _, node_groups, _ = analysis(toy_model)
        fam = node_groups.by_id()["blocks.1.attn"]
        assert fam.granularity == "head"
        assert fam.n_units == toy_config.n_heads
        assert fam.unit_width == toy_config.dim // toy_config.n_heads
        got = {(m.param, m.axis) for m in fam.members}
        assert ("blocks.1.attn.o.weight", 1) in got
        assert ("blocks.1.attn.o.lora_A", 1) in got
        assert ("blocks.1.attn.q.weight", 0) in got


class TestCouplingRules:
    def test_an_op_without_a_coupling_row_is_named(self):
        graph = TraceGraph([TraceNode("0:softmax", "softmax", (), (), {})], "0:softmax")
        with pytest.raises(AnalysisError, match="no coupling rule for op 'softmax'"):
            discover_node_groups(graph)

    def test_an_op_read_with_the_wrong_operands_is_named(self):
        node = TraceNode("0:linear", "linear", (), ("w",), {})
        with pytest.raises(AnalysisError, match="op 0:linear reads 0 activations and 1"):
            discover_node_groups(TraceGraph([node], node.id))

    def test_a_block_emptied_of_heads_records_no_attention_or_family(self, toy_model):
        from lorashear.compress import apply_compression, plan_compression

        _, _, group_set = analysis(toy_model)
        for h in range(4):
            group_set.set_status(f"blocks.1.attn:head:{h:03d}", "redundant")
        compact = apply_compression(toy_model, plan_compression(group_set, toy_model))
        graph, node_groups, compact_set = analysis(compact)
        assert "scale" not in {n.kind for n in graph.nodes}
        assert not any(p.startswith("blocks.1.attn") for n in graph.nodes for p in n.params)
        assert not any(p.startswith("blocks.1.attn") for p in compact.parameters())
        # block 0's attention and both MLPs: one norm each, plus the final norm
        assert [n.kind for n in graph.nodes].count("rmsnorm") == 4
        assert "blocks.1.attn" not in node_groups.by_id()
        assert len(compact_set.groups) == 132


class TestRemovalSemantics:
    def test_zeroing_a_group_confines_the_change_to_that_group(self, toy_model):
        # two models differing only inside group g agree exactly once g is zeroed
        _, _, group_set = analysis(toy_model)
        rng = np.random.default_rng(8)
        tokens = rng.integers(0, 64, size=(2, 11))
        for gid in ("blocks.0.mlp:ch:007", "blocks.1.attn:head:001"):
            g = group_set.by_id[gid]
            a = toy_model.clone()
            b = toy_model.clone()
            write_frozen_slices(b, g, rng.normal(size=frozen_slice_vector(b, g).size))
            assert not np.array_equal(a.forward(tokens).data, b.forward(tokens).data)
            zero_structure(a, g)
            zero_structure(b, g)
            assert np.array_equal(a.forward(tokens).data, b.forward(tokens).data)

    def test_zeroed_group_has_zero_effective_weight(self, toy_model, toy_corpus):
        from lorashear.lhspg import warmup

        rng = np.random.default_rng(9)
        warmup(toy_model, lambda: toy_corpus.sample_batch(rng, 4), steps=6, learning_rate=0.3)
        _, _, group_set = analysis(toy_model)
        g = group_set.by_id["blocks.0.mlp:ch:003"]
        assert np.any(effective_slice_vector(toy_model, g))
        zero_structure(toy_model, g)
        assert not np.any(effective_slice_vector(toy_model, g))
        assert not np.any(frozen_slice_vector(toy_model, g))

    def test_slice_vector_round_trip(self, toy_model):
        _, _, group_set = analysis(toy_model)
        g = group_set.by_id["blocks.0.attn:head:002"]
        v = frozen_slice_vector(toy_model, g)
        write_frozen_slices(toy_model, g, v * 2.0)
        assert np.array_equal(frozen_slice_vector(toy_model, g), v * 2.0)


class TestAcrossConfigs:
    @settings(max_examples=6)
    @given(
        n_layers=st.integers(1, 3),
        n_heads=st.sampled_from([1, 2, 4]),
        mlp_dim=st.integers(2, 10),
        lora_rank=st.sampled_from([0, 2]),
    )
    def test_invariants_hold_for_random_architectures(self, n_layers, n_heads, mlp_dim, lora_rank):
        config = ModelConfig(
            vocab_size=16, dim=8, n_layers=n_layers, n_heads=n_heads, mlp_dim=mlp_dim,
            lora_rank=lora_rank, block_size=12, seed=1,
        )
        model = build_model(config)
        _, node_groups, group_set = analysis(model)
        assert len(group_set.prunable_ids()) == n_layers * (mlp_dim + n_heads)
        families = node_groups.prunable_families()
        assert len(families) == 2 * n_layers
        assert_equals_oracle(group_set, config)

    @pytest.mark.parametrize("lora_rank", [0, 2])
    def test_oracle_holds_at_each_rank(self, lora_rank):
        # both ranks every run, whatever the draws above
        config = ModelConfig(vocab_size=16, dim=8, n_layers=2, n_heads=2, mlp_dim=3,
                             lora_rank=lora_rank, block_size=12, seed=1)
        _, node_groups, group_set = analysis(build_model(config))
        assert_equals_oracle(group_set, config)
        assert len(node_groups.composed) == (14 if lora_rank else 0)
