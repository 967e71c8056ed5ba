"""Metric names and units, read from ``BENCHMARK.json``, and the reduction of
spans to per-layer metrics.

``BENCHMARK.json`` at the root of the checkout is the only list of metrics:
the benchmark emits exactly the names it declares, in its order.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracing import TENSOR_OPS

DECLARATION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _declared() -> dict:
    doc = json.loads(DECLARATION.read_text(encoding="utf-8"))
    return {key: [(m["name"], m["unit"]) for m in doc[key]] for key in ("end_to_end", "per_layer")}


_DECLARED = _declared()
END_TO_END = [name for name, _ in _DECLARED["end_to_end"]]
PER_LAYER = [name for name, _ in _DECLARED["per_layer"]]
UNITS = dict(_DECLARED["end_to_end"] + _DECLARED["per_layer"])


def layer_metrics(totals: dict, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run from its span totals and counters.

    Span names map onto metric names: ``<span>.calls`` and ``<span>.s``, with
    ``tensor.<op>.fwd``/``.bwd`` and ``model.forward.grad``/``.nograd`` spans
    giving the ``fwd_s``/``bwd_s`` and ``grad_*``/``nograd_*`` splits.
    """

    def calls(span: str) -> float:
        return float(totals.get(span, {}).get("calls", 0))

    def secs(span: str) -> float:
        return float(totals.get(span, {}).get("s", 0.0))

    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name in counters:
            out[name] = float(counters[name])
        elif name.startswith("tensor.") and name.split(".")[1] in TENSOR_OPS:
            _, op, field = name.split(".")
            out[name] = {
                "calls": calls(f"tensor.{op}.fwd"),
                "fwd_s": secs(f"tensor.{op}.fwd"),
                "bwd_s": secs(f"tensor.{op}.bwd"),
            }[field]
        elif name == "tensor.tape.backward_s":
            out[name] = secs("tensor.tape.backward")
        elif name.startswith("model.forward."):
            mode, field = name.rsplit(".", 1)[1].split("_")
            out[name] = calls(f"model.forward.{mode}") if field == "calls" else secs(f"model.forward.{mode}")
        elif name.endswith(".calls"):
            out[name] = calls(name[: -len(".calls")])
        elif name.endswith(".s"):
            out[name] = secs(name[: -len(".s")])
        else:
            out[name] = 0.0  # filled in by the caller (counts and ratios not read from spans)
    return out
