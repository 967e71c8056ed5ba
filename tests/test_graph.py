"""Trace graph construction, spans, faithfulness.

The committed counts fixture is a hand enumeration of the block diagram:
per adapted linear 4 nodes (host, lora_A, lora_B, add); per block one
attention norm, 4 projections, 3 head splits + mix + merge, a residual add,
one MLP norm, 3 projections, silu, mul, and a residual add; plus 2
embeddings with their add, the final norm, and the head. For the toy model
(2 blocks, 7 adapted linears each) that is 83 nodes, 106 edges, 14 spans.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lorashear.errors import AnalysisError
from lorashear.graph import (
    TraceGraph,
    TraceNode,
    build_trace_graph,
    execute,
    graph_to_json,
    mark_composed_spans,
)
from lorashear.model import ModelConfig, build_model

from conftest import TOY

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "toy_graph_counts.json").read_text())


class TestBuild:
    def test_counts_match_hand_enumerated_fixture(self, toy_model):
        graph = build_trace_graph(toy_model)
        assert len(graph.nodes) == FIXTURE["nodes_total"]
        assert len(graph.edges) == FIXTURE["edges_total"]
        by_kind = Counter(n.kind for n in graph.nodes.values())
        assert dict(by_kind) == FIXTURE["nodes_by_kind"]

    def test_each_adapted_linear_contributes_three_parameterized_nodes(self, toy_model):
        graph = build_trace_graph(toy_model)
        module = "blocks.0.attn.q"
        kinds = {
            graph.nodes[nid].kind: nid
            for nid in graph.module_tree[module]
            if graph.nodes[nid].param is not None
        }
        assert set(kinds) == {"linear", "lora_A", "lora_B"}
        add_id = f"{module}.add"
        assert graph.inputs[add_id] == [kinds["linear"], kinds["lora_B"]]
        assert graph.inputs[kinds["lora_B"]] == [kinds["lora_A"]]

    def test_acyclic_single_sink_all_reachable(self, toy_model):
        graph = build_trace_graph(toy_model)
        order = graph.topological_order()
        assert len(order) == len(graph.nodes)
        assert graph.sinks() == ["head"]

    def test_every_parameter_referenced_exactly_once(self, toy_model):
        graph = build_trace_graph(toy_model)
        referenced = [n.param for n in graph.nodes.values() if n.param]
        assert sorted(referenced) == sorted(toy_model.parameters())
        assert len(referenced) == len(set(referenced))


class TestSpans:
    def test_one_span_per_adapted_linear(self, toy_model):
        graph = build_trace_graph(toy_model)
        spans = mark_composed_spans(graph)
        assert len(spans) == FIXTURE["spans"]
        for span in spans:
            a, b = span.node_ids
            assert graph.nodes[a].kind == "lora_A"
            assert graph.nodes[b].kind == "lora_B"
            assert a in graph.inputs[b]  # lora_A precedes lora_B along edges

    def test_lora_disabled_gives_empty_span_list(self):
        bare = build_model(ModelConfig(**{**TOY, "lora_rank": 0}, seed=1))
        graph = build_trace_graph(bare)
        assert mark_composed_spans(graph) == []

    def test_orphan_lora_node_rejected(self, toy_model):
        graph = build_trace_graph(toy_model)
        broken = TraceGraph()
        for nid in graph.topological_order():
            node = graph.nodes[nid]
            if node.id == "blocks.0.attn.q.lora_B":
                node = TraceNode(node.id, "add", node.module)  # orphan the A factor
            broken.add(node, [p for p in graph.inputs[nid]])
        with pytest.raises(AnalysisError, match="orphan"):
            mark_composed_spans(broken)


class TestFaithfulness:
    def test_topological_execution_reproduces_forward_bit_identically(self, toy_model):
        graph = build_trace_graph(toy_model)
        rng = np.random.default_rng(0)
        for shape in ((7,), (3, 12)):
            tokens = rng.integers(0, 64, size=shape)
            assert np.array_equal(
                toy_model.forward(tokens).data, execute(graph, toy_model, tokens).data
            )

    def test_faithful_after_training(self, toy_model, toy_corpus):
        from lorashear.lhspg import warmup

        rng = np.random.default_rng(1)
        warmup(toy_model, lambda: toy_corpus.sample_batch(rng, 4), steps=5, learning_rate=0.3)
        graph = build_trace_graph(toy_model)
        tokens = rng.integers(0, 64, size=(2, 10))
        assert np.array_equal(
            toy_model.forward(tokens).data, execute(graph, toy_model, tokens).data
        )

    def test_frozen_trained_model_agrees_to_rounding(self, toy_model, toy_corpus):
        # a grad-free forward folds each nonzero adaptor into its host weight,
        # while execute replays the unfolded spans
        from lorashear.lhspg import warmup

        rng = np.random.default_rng(2)
        warmup(toy_model, lambda: toy_corpus.sample_batch(rng, 4), steps=5, learning_rate=0.3)
        toy_model.set_trainable("none")
        assert any(np.any(m.lora_b.data) for m in toy_model.lora_linears().values())
        graph = build_trace_graph(toy_model)
        tokens = rng.integers(0, 64, size=(2, 10))
        expected = execute(graph, toy_model, tokens).data
        got = toy_model.forward(tokens).data
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestDump:
    def test_json_schema_shape(self, toy_model):
        graph = build_trace_graph(toy_model)
        payload = graph_to_json(graph, mark_composed_spans(graph))
        assert payload["schema_version"] == 1
        assert len(payload["nodes"]) == FIXTURE["nodes_total"]
        assert len(payload["edges"]) == FIXTURE["edges_total"]
        assert len(payload["spans"]) == FIXTURE["spans"]
        assert all(set(n) == {"id", "kind", "module", "param", "attrs"} for n in payload["nodes"])
        assert "blocks.0" in payload["module_tree"]
        # deterministic: same model, same dump
        assert payload == graph_to_json(build_trace_graph(toy_model), mark_composed_spans(graph))
