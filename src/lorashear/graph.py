"""Operator-level trace graph of a model: the ops of one recorded forward.

``build_trace_graph`` runs ``model.forward`` once, on one token, over an
all-trainable clone inside a ``Tape``, so every op the forward takes is
recorded, in execution order. Each recorded op becomes one node whose kind
is the tape-op name (``embedding_lookup``, ``lora_linear``, ``linear``,
``rmsnorm``, ``causal_attention``, ``add``, ...). An operand is matched to
what made it by its gradient cell: the cell of a parameter, or the output
cell of an earlier op. So the graph states no structure of its own; a change
to the forward is a change to the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import AnalysisError
from .model import LoraModel


@dataclass(frozen=True)
class TraceNode:
    """One recorded op: the nodes and the parameters it reads, each in operand order."""

    id: str
    kind: str
    inputs: tuple[str, ...]  # ids of the nodes whose outputs it reads
    params: tuple[str, ...]  # names of the parameters it reads
    attrs: dict[str, int]


@dataclass(frozen=True)
class TraceGraph:
    nodes: list[TraceNode]  # in execution order
    output: str  # the node whose output the forward returns

    @property
    def edges(self) -> list[tuple[str, str]]:
        return [(src, node.id) for node in self.nodes for src in node.inputs]


def build_trace_graph(model: LoraModel) -> TraceGraph:
    """The graph of the ops one 1-token forward of ``model`` records."""
    clone = model.clone()
    clone.set_trainable("all")
    param_of = {t._grad_cell(): name for name, t in clone.parameters().items()}
    with T.Tape() as tape:
        logits = clone.forward(np.zeros((1, 1), dtype=np.int64))
    node_of = {}  # output cell -> id of the op that made it
    nodes = []
    for i, op in enumerate(tape.ops):
        node_id = f"{i}:{op.name}"
        inputs, params = [], []
        for cell in op.inputs:
            if cell in param_of:
                params.append(param_of[cell])
            elif cell in node_of:
                inputs.append(node_of[cell])
            else:
                raise AnalysisError(f"op {node_id} reads a tensor no parameter or earlier op made")
        nodes.append(TraceNode(node_id, op.name, tuple(inputs), tuple(params), op.attrs))
        node_of[op.output] = node_id
    return TraceGraph(nodes, node_of[logits._grad_cell()])


def graph_to_json(graph: TraceGraph) -> dict:
    """Documented JSON form written by ``graph dump``."""
    return {
        "schema_version": 2,
        "nodes": [
            {"id": n.id, "kind": n.kind, "params": list(n.params), "attrs": n.attrs}
            for n in graph.nodes
        ],
        "edges": [list(e) for e in graph.edges],
    }
