"""Operator-level trace graph of a model, with composed low-rank spans.

The graph is built from the model's static structure (the toy model has no
data-dependent control flow, so static construction is faithful). Node kinds:

    embedding | linear | lora_A | lora_B | add | mul | rmsnorm | softmax
    | silu | head | reshape

A ``lora_B`` node realizes ``gamma * (B @ .)`` (the adaptor scaling lives with
the B factor); an ``add`` node merges host and adaptor outputs or residual
branches. The ``softmax`` node is the per-head causal mixing step (scaled
queries, softmax, value contraction); the surrounding ``reshape`` nodes make
head structure explicit so head grouping is derivable from the graph alone.

``execute`` replays the graph in topological order through the same engine
ops the model's own forward uses: a ``softmax`` node runs
``tensor.causal_attention``, which splits and merges the heads itself, so
its ``reshape`` nodes pass their input through. The result is bit-identical to
``model.forward`` whenever the graph is faithful, and the adaptors require
grad or have zero B factors. (Without grad, ``lora_linear`` folds each adaptor
into its host weight, which agrees with the unfolded spans to rounding.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import AnalysisError
from .model import LoraModel
from .tensor import Tensor


@dataclass(frozen=True)
class TraceNode:
    id: str
    kind: str
    module: str
    param: str | None = None
    attrs: tuple[tuple[str, int], ...] = ()

    def attr(self, key: str) -> int:
        return dict(self.attrs)[key]


@dataclass(frozen=True)
class ComposedSpan:
    """One composed operator: the lora_A node followed by its lora_B node."""

    id: str
    module: str
    node_ids: tuple[str, str]


@dataclass
class TraceGraph:
    nodes: dict[str, TraceNode] = field(default_factory=dict)
    inputs: dict[str, list[str]] = field(default_factory=dict)  # ordered predecessors
    module_tree: dict[str, list[str]] = field(default_factory=dict)

    @property
    def edges(self) -> list[tuple[str, str]]:
        return [(src, dst) for dst, preds in self.inputs.items() for src in preds]

    def add(self, node: TraceNode, preds: list[str]) -> str:
        if node.id in self.nodes:
            raise AnalysisError(f"duplicate node id {node.id}")
        for p in preds:
            if p not in self.nodes:
                raise AnalysisError(f"edge from unknown node {p} to {node.id}")
        self.nodes[node.id] = node
        self.inputs[node.id] = list(preds)
        path = node.module
        while True:
            self.module_tree.setdefault(path, []).append(node.id)
            if not path:
                break
            path = path.rsplit(".", 1)[0] if "." in path else ""
        return node.id

    def topological_order(self) -> list[str]:
        """Kahn topological sort in insertion order; raises on cycles."""
        remaining = {nid: len(preds) for nid, preds in self.inputs.items()}
        ready = [nid for nid in self.nodes if remaining[nid] == 0]
        order = []
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for succ in self.nodes:
                if nid in self.inputs[succ]:
                    remaining[succ] -= 1
                    if remaining[succ] == 0:
                        ready.append(succ)
        if len(order) != len(self.nodes):
            raise AnalysisError("trace graph contains a cycle")
        return order

    def sinks(self) -> list[str]:
        with_succ = {src for preds in self.inputs.values() for src in preds}
        return [nid for nid in self.nodes if nid not in with_succ]


def build_trace_graph(model: LoraModel) -> TraceGraph:
    g = TraceGraph()
    for blk in model.blocks:
        if blk.n_heads < 1 or blk.mlp_dim < 1:
            raise AnalysisError("trace graph requires at least one head and one MLP channel per block")

    g.add(TraceNode("tok_embedding", "embedding", "embed", "tok_embedding"), [])
    g.add(TraceNode("pos_embedding", "embedding", "embed", "pos_embedding"), [])
    stream = g.add(TraceNode("embed.add", "add", "embed"), ["tok_embedding", "pos_embedding"])

    def lora_linear_nodes(module: str, mod) -> str:
        """Host linear, optional adaptor pair, and the merging add; returns output node."""
        host = g.add(TraceNode(f"{module}.linear", "linear", module, f"{module}.weight"), [cursor[module]])
        if not mod.has_lora:
            return host
        a = g.add(TraceNode(f"{module}.lora_A", "lora_A", module, f"{module}.lora_A"), [cursor[module]])
        b = g.add(TraceNode(f"{module}.lora_B", "lora_B", module, f"{module}.lora_B"), [a])
        return g.add(TraceNode(f"{module}.add", "add", module), [host, b])

    cursor: dict[str, str] = {}
    for i, blk in enumerate(model.blocks):
        p = f"blocks.{i}"
        heads = (("heads", blk.n_heads), ("head_dim", blk.head_dim))
        normed = g.add(TraceNode(f"{p}.attn_norm", "rmsnorm", p, f"{p}.attn_norm.gain"), [stream])
        outs = {}
        for proj in ("q", "k", "v"):
            cursor[f"{p}.attn.{proj}"] = normed
            outs[proj] = lora_linear_nodes(f"{p}.attn.{proj}", getattr(blk, proj))
        splits = [
            g.add(TraceNode(f"{p}.attn.split_{proj}", "reshape", f"{p}.attn", attrs=heads), [outs[proj]])
            for proj in ("q", "k", "v")
        ]
        mix = g.add(TraceNode(f"{p}.attn.mix", "softmax", f"{p}.attn", attrs=heads), splits)
        merge = g.add(TraceNode(f"{p}.attn.merge", "reshape", f"{p}.attn", attrs=heads), [mix])
        cursor[f"{p}.attn.o"] = merge
        o_out = lora_linear_nodes(f"{p}.attn.o", blk.o)
        stream = g.add(TraceNode(f"{p}.add_attn", "add", p), [stream, o_out])

        normed = g.add(TraceNode(f"{p}.mlp_norm", "rmsnorm", p, f"{p}.mlp_norm.gain"), [stream])
        cursor[f"{p}.mlp.gate"] = normed
        cursor[f"{p}.mlp.up"] = normed
        gate_out = lora_linear_nodes(f"{p}.mlp.gate", blk.gate)
        up_out = lora_linear_nodes(f"{p}.mlp.up", blk.up)
        act = g.add(TraceNode(f"{p}.mlp.silu", "silu", f"{p}.mlp"), [gate_out])
        gated = g.add(TraceNode(f"{p}.mlp.mul", "mul", f"{p}.mlp"), [act, up_out])
        cursor[f"{p}.mlp.down"] = gated
        down_out = lora_linear_nodes(f"{p}.mlp.down", blk.down)
        stream = g.add(TraceNode(f"{p}.add_mlp", "add", p), [stream, down_out])

    final = g.add(TraceNode("final_norm", "rmsnorm", "final", "final_norm.gain"), [stream])
    g.add(TraceNode("head", "head", "final", "head.weight"), [final])
    _validate(g, model)
    return g


def _validate(g: TraceGraph, model: LoraModel) -> None:
    order = g.topological_order()
    sinks = g.sinks()
    if sinks != ["head"]:
        raise AnalysisError(f"expected single sink 'head', found {sinks}")
    # every node reachable from an input (embeddings are the only sources)
    reachable = {"tok_embedding", "pos_embedding"}
    for nid in order:
        if g.inputs[nid] and any(p in reachable for p in g.inputs[nid]):
            reachable.add(nid)
    unreachable = set(g.nodes) - reachable
    if unreachable:
        raise AnalysisError(f"nodes unreachable from inputs: {sorted(unreachable)}")
    referenced = [n.param for n in g.nodes.values() if n.param is not None]
    if sorted(referenced) != sorted(model.parameters()):
        raise AnalysisError("graph parameter references do not match the model inventory")


def mark_composed_spans(graph: TraceGraph) -> list[ComposedSpan]:
    """One span per adapted linear: its lora_A node followed by its lora_B node."""
    by_module: dict[str, dict[str, str]] = {}
    for node in graph.nodes.values():
        if node.kind in ("lora_A", "lora_B"):
            by_module.setdefault(node.module, {})[node.kind] = node.id
    spans = []
    for module in sorted(by_module):
        pair = by_module[module]
        if set(pair) != {"lora_A", "lora_B"}:
            raise AnalysisError(f"orphan LoRA factor in module {module}: {sorted(pair)}")
        a, b = pair["lora_A"], pair["lora_B"]
        if a not in graph.inputs[b]:
            raise AnalysisError(f"span {module}: lora_A does not feed lora_B")
        spans.append(ComposedSpan(id=f"span:{module}", module=module, node_ids=(a, b)))
    return spans


def execute(graph: TraceGraph, model: LoraModel, tokens: np.ndarray) -> Tensor:
    """Run the graph in topological order through the model's own ops.

    Bit-identical to ``model.forward`` when the graph is faithful and the
    adaptors require grad or have zero B factors. A grad-free model with
    nonzero B (after ``set_trainable("none")``) folds each adaptor into its
    host weight in ``lora_linear``, while this replays the unfolded spans, so
    the two then agree to rounding only.
    """
    tokens = np.asarray(tokens)
    squeeze = tokens.ndim == 1
    if squeeze:
        tokens = tokens[None, :]
    b, t = tokens.shape
    positions = np.broadcast_to(np.arange(t), (b, t))
    modules = model.lora_linears()
    params = model.parameters()
    env: dict[str, Tensor] = {}
    for nid in graph.topological_order():
        node = graph.nodes[nid]
        preds = [env[p] for p in graph.inputs[nid]]
        if node.kind == "embedding":
            ids = tokens if node.param == "tok_embedding" else positions
            env[nid] = T.embedding_lookup(params[node.param], ids)
        elif node.kind == "linear":
            env[nid] = T.linear(preds[0], modules[node.module].weight)
        elif node.kind == "lora_A":
            env[nid] = T.linear(preds[0], modules[node.module].lora_a)
        elif node.kind == "lora_B":
            mod = modules[node.module]
            env[nid] = T.scale(T.linear(preds[0], mod.lora_b), mod.gamma)
        elif node.kind == "add":
            env[nid] = T.add(preds[0], preds[1])
        elif node.kind == "mul":
            env[nid] = T.mul(preds[0], preds[1])
        elif node.kind == "silu":
            env[nid] = T.silu(preds[0])
        elif node.kind == "rmsnorm":
            env[nid] = T.rmsnorm(preds[0], params[node.param])
        elif node.kind == "reshape":
            # head split and merge happen inside causal_attention
            env[nid] = preds[0]
        elif node.kind == "softmax":
            env[nid] = T.causal_attention(*preds, node.attr("heads"))
        elif node.kind == "head":
            env[nid] = T.linear(preds[0], params[node.param])
        else:
            raise AnalysisError(f"no executor for node kind {node.kind}")
    out = env["head"]
    return T.reshape(out, out.shape[1:]) if squeeze else out


def graph_to_json(graph: TraceGraph, spans: list[ComposedSpan]) -> dict:
    """Documented JSON form used by ``graph dump`` and analysis fixtures."""
    return {
        "schema_version": 1,
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "module": n.module,
                "param": n.param,
                "attrs": dict(n.attrs),
            }
            for n in (graph.nodes[i] for i in graph.topological_order())
        ],
        "edges": sorted(graph.edges),
        "spans": [{"id": s.id, "module": s.module, "nodes": list(s.node_ids)} for s in spans],
        "module_tree": {k: sorted(v) for k, v in sorted(graph.module_tree.items())},
    }

