"""Trace graph of a recorded forward: counts, operands, dump.

The committed counts fixture is a hand enumeration of the ops one forward
records. Nodes: 2 embedding lookups and their add; per block an attention
rmsnorm, 4 ``lora_linear`` projections (q, k, v, o), one
``causal_attention``, a residual add, an MLP rmsnorm, 3 ``lora_linear``
projections (gate, up, down), silu, mul and a residual add; then the final
rmsnorm and the head ``linear``. For the toy model (2 blocks) that is
3 + 2 * 15 + 2 = 33 nodes. Edges, one per activation operand: the embedding
add reads 2; per block the attention norm reads 1, q/k/v 1 each, attention
3, o 1, the residual add 2, the MLP norm 1, gate and up 1 each, silu 1,
mul 2, down 1 and the residual add 2, so 19; the final norm and the head
read 1 each. That is 2 + 2 * 19 + 2 = 42 edges. Spans, one per adapted
linear, i.e. per ``lora_linear`` op: 2 * 7 = 14.
"""

import json
from collections import Counter
from pathlib import Path

from lorashear.graph import build_trace_graph, graph_to_json
from lorashear.model import ModelConfig, build_model

from conftest import TOY

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "toy_graph_counts.json").read_text())


class TestBuild:
    def test_counts_match_hand_enumerated_fixture(self, toy_model):
        graph = build_trace_graph(toy_model)
        assert len(graph.nodes) == FIXTURE["nodes_total"]
        assert len(graph.edges) == FIXTURE["edges_total"]
        by_kind = Counter(n.kind for n in graph.nodes)
        assert dict(by_kind) == FIXTURE["nodes_by_kind"]

    def test_each_adapted_linear_contributes_three_parameterized_nodes(self, toy_model):
        # the host weight and both adaptor factors are the operands of one op
        graph = build_trace_graph(toy_model)
        by_id = {n.id: n for n in graph.nodes}
        module = "blocks.0.attn.q"
        (node,) = [n for n in graph.nodes if f"{module}.weight" in n.params]
        assert node.kind == "lora_linear"
        assert node.params == (f"{module}.weight", f"{module}.lora_A", f"{module}.lora_B")
        (src,) = node.inputs
        assert by_id[src].params == ("blocks.0.attn_norm.gain",)

    def test_acyclic_single_sink_all_reachable(self, toy_model):
        graph = build_trace_graph(toy_model)
        position = {n.id: i for i, n in enumerate(graph.nodes)}
        assert all(position[src] < position[dst] for src, dst in graph.edges)
        read = {src for src, _ in graph.edges}
        assert [n.id for n in graph.nodes if n.id not in read] == [graph.output]
        reachable = set()
        for n in graph.nodes:
            if not n.inputs or any(src in reachable for src in n.inputs):
                reachable.add(n.id)
        assert reachable == set(position)
        assert {n.kind for n in graph.nodes if not n.inputs} == {"embedding_lookup"}

    def test_every_parameter_referenced_exactly_once(self, toy_model):
        graph = build_trace_graph(toy_model)
        referenced = [p for n in graph.nodes for p in n.params]
        assert sorted(referenced) == sorted(toy_model.parameters())
        assert len(referenced) == len(set(referenced))

    def test_causal_attention_records_its_head_count(self, toy_model):
        graph = build_trace_graph(toy_model)
        attention = [n for n in graph.nodes if n.kind == "causal_attention"]
        assert [n.attrs for n in attention] == [{"n_heads": TOY["n_heads"]}] * TOY["n_layers"]
        assert all(n.attrs == {} for n in graph.nodes if n.kind != "causal_attention")

    def test_recording_leaves_the_model_untouched(self, toy_model):
        before = {name: (t.requires_grad, t.grad) for name, t in toy_model.parameters().items()}
        build_trace_graph(toy_model)
        after = {name: (t.requires_grad, t.grad) for name, t in toy_model.parameters().items()}
        assert after == before


class TestSpans:
    def test_one_span_per_adapted_linear(self, toy_model):
        graph = build_trace_graph(toy_model)
        spans = [n for n in graph.nodes if n.kind == "lora_linear"]
        assert len(spans) == FIXTURE["spans"]
        for node in spans:
            weight, a, b = node.params
            module = weight.removesuffix(".weight")
            assert (a, b) == (f"{module}.lora_A", f"{module}.lora_B")

    def test_lora_disabled_gives_empty_span_list(self):
        bare = build_model(ModelConfig(**{**TOY, "lora_rank": 0}, seed=1))
        graph = build_trace_graph(bare)
        assert not [n for n in graph.nodes if n.kind == "lora_linear"]
        assert Counter(n.kind for n in graph.nodes)["linear"] == 2 * 7 + 1


class TestDump:
    def test_json_schema_shape(self, toy_model):
        graph = build_trace_graph(toy_model)
        payload = graph_to_json(graph)
        assert payload["schema_version"] == 2
        assert set(payload) == {"schema_version", "nodes", "edges"}
        assert len(payload["nodes"]) == FIXTURE["nodes_total"]
        assert len(payload["edges"]) == FIXTURE["edges_total"]
        assert all(set(n) == {"id", "kind", "params", "attrs"} for n in payload["nodes"])
        ids = {n["id"] for n in payload["nodes"]}
        assert all(src in ids and dst in ids for src, dst in payload["edges"])
        # deterministic: same model, same dump
        assert payload == graph_to_json(build_trace_graph(toy_model))
