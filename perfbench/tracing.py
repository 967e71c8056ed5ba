"""Span tracing of ``lorashear`` from outside the package.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` for the
length of one traced run and ``Tracer.restore`` puts every original back. A
function imported with ``from .x import f`` is bound in the importing
module too, so each target is replaced wherever a ``lorashear`` module binds
that very object, not only in the module that defines it. Methods are
replaced on their class.

A span is (run id, span id, parent span id, name, start ns, end ns). Spans
stay in memory until the benchmark ends and are then written out. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

MARK = "_perfbench_wrapper"

TENSOR_OPS = (
    "add", "mul", "scale", "matmul", "linear", "embedding_lookup",
    "rmsnorm", "softmax", "silu", "reshape", "transpose", "cross_entropy",
)

# (module, attribute or Class.method, span name)
TARGETS = (
    *[("tensor", op, f"tensor.{op}.fwd") for op in TENSOR_OPS],
    ("tensor", "Tape.backward", "tensor.tape.backward"),
    ("model", "LoraModel.clone", "model.clone"),
    ("optim", "Sgd.step", "optim.step"),
    ("optim", "AdamW.step", "optim.step"),
    ("optim", "Sgd.zero_grad", "optim.zero_grad"),
    ("optim", "AdamW.zero_grad", "optim.zero_grad"),
    ("data", "SourceTaggedCorpus.sample_batch", "data.sample_batch"),
    ("data", "generate_corpus", "data.generate_corpus"),
    ("evaluate", "per_source_perplexity", "evaluate.per_source_perplexity"),
    ("knowledge", "probe_deviation", "knowledge.probe_deviation"),
    ("util", "model_hash", "util.model_hash"),
    ("graph", "build_trace_graph", "graph.build_trace_graph"),
    ("groups", "discover_node_groups", "groups.discover_node_groups"),
    ("groups", "partition_variables", "groups.partition_variables"),
    ("groups", "frozen_slice_vector", "groups.frozen_slice_vector"),
    ("groups", "effective_slice_vector", "groups.effective_slice_vector"),
    ("groups", "write_frozen_slices", "groups.write_frozen_slices"),
    ("groups", "zero_lora_slices", "groups.zero_lora_slices"),
    ("groups", "group_is_zero", "groups.group_is_zero"),
    ("lhspg", "lhspg_step", "lhspg.lhspg_step"),
    ("lhspg", "count_zero_groups", "lhspg.count_zero_groups"),
    ("lhspg", "end_of_period_merge", "lhspg.end_of_period_merge"),
    ("baseline", "one_shot_prune", "baseline.one_shot_prune"),
    ("compress", "plan_compression", "compress.plan_compression"),
    ("compress", "apply_compression", "compress.apply_compression"),
    ("recovery", "recovery_round", "recovery.recovery_round"),
    ("recovery", "measure_degradation", "recovery.measure_degradation"),
    ("recovery", "build_subset", "recovery.build_subset"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
)
# LoraModel.forward, Tape.record, evaluate.mean_cross_entropy,
# lhspg.halfspace_project and checkpoint.save_checkpoint also count something
# or split by mode; Tracer._install_special wraps them.


def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"lorashear.{module}")
    owner = mod
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def lorashear_modules() -> list[tuple[str, object]]:
    """Every loaded ``lorashear`` module, by name."""
    return [
        (name, mod) for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "lorashear" or name.startswith("lorashear."))
    ]


def _bindings(owner, name: str) -> list[tuple[object, str]]:
    """Every place a ``lorashear`` module or the owning class binds ``owner.name``."""
    if isinstance(owner, type):
        return [(owner, name)]
    original = getattr(owner, name)
    return [(mod, key) for _, mod in lorashear_modules() for key, value in vars(mod).items()
            if value is original]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [run_id, parent_index, name, start_ns, end_ns]
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._run_start: dict[int, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # ---- spans ----------------------------------------------------------------

    def start_run(self) -> int:
        """Begin a new run id; later spans belong to it."""
        self.run_id += 1
        self._run_start[self.run_id] = len(self.spans)
        self._stack[:] = [-1]
        return self.run_id

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(result, args)`` may count."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([tracer.run_id, stack[-1], name, clock(), 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = clock()
            if after is not None:
                after(result, args)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # ---- patching -------------------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        for target, key in _bindings(owner, name):
            self._patched.append((target, key, vars(target)[key]))
            setattr(target, key, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for module, attr, span in TARGETS:
                owner, name = _resolve(module, attr)
                self._patch(owner, name, self.wrap(span, getattr(owner, name)))
            self._install_special()
        except BaseException:
            self.restore()
            raise

    def _install_special(self) -> None:
        counters = self.counters
        tensor = importlib.import_module("lorashear.tensor")

        owner, name = _resolve("model", "LoraModel.forward")
        forward = getattr(owner, name)
        grad = self.wrap("model.forward.grad", forward)
        nograd = self.wrap("model.forward.nograd", forward)

        def traced_forward(*args, **kwargs):
            fn = grad if tensor.active_tape() is not None else nograd
            return fn(*args, **kwargs)

        setattr(traced_forward, MARK, True)
        self._patch(owner, name, traced_forward)

        owner, name = _resolve("tensor", "Tape.record")
        record = getattr(owner, name)

        def traced_record(tape, op):
            counters["tensor.tape.ops"] += 1
            op.backward = self.wrap(f"tensor.{op.name}.bwd", op.backward)
            return record(tape, op)

        setattr(traced_record, MARK, True)
        self._patch(owner, name, traced_record)

        def count_tokens(_result, args):
            seqs = np.asarray(args[1])
            counters["evaluate.mean_cross_entropy.tokens"] += (
                seqs.size - 1 if seqs.ndim == 1 else seqs.shape[0] * (seqs.shape[1] - 1)
            )

        def count_zeroed(result, _args):
            counters["lhspg.halfspace_zeroed"] += bool(result)

        def count_bytes(_result, args):
            counters["checkpoint.save.bytes"] += os.path.getsize(args[1])

        for module, attr, span, after in (
            ("evaluate", "mean_cross_entropy", "evaluate.mean_cross_entropy", count_tokens),
            ("lhspg", "halfspace_project", "lhspg.halfspace_project", count_zeroed),
            ("checkpoint", "save_checkpoint", "checkpoint.save", count_bytes),
        ):
            owner, name = _resolve(module, attr)
            self._patch(owner, name, self.wrap(span, getattr(owner, name), after))

    def restore(self) -> None:
        while self._patched:
            target, key, original = self._patched.pop()
            setattr(target, key, original)

    # ---- reduction ------------------------------------------------------------

    def totals(self, run_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds for one run."""
        first = self._run_start[run_id]
        rows = self.spans[first : self._run_start.get(run_id + 1, len(self.spans))]
        child = defaultdict(int)
        for s in rows:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, s in enumerate(rows, start=first):
            dur = s[4] - s[3]
            entry = out[s[2]]
            entry["calls"] += 1
            entry["s"] += dur / 1e9
            entry["self_s"] += (dur - child.get(i, 0)) / 1e9
        return dict(out)

    def write(self, path) -> None:
        """All spans as gzip CSV: run_id, span_id, parent_id, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            for i, (run, parent, name, start, end) in enumerate(self.spans):
                f.write(f"{run},{i},{parent},{name},{start},{end}\n")


def patched_leftovers() -> list[str]:
    """Names of ``lorashear`` attributes that still hold a tracing wrapper."""
    left = []
    for mod_name, mod in lorashear_modules():
        for key, value in vars(mod).items():
            if getattr(value, MARK, False):
                left.append(f"{mod_name}.{key}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        left.append(f"{mod_name}.{key}.{attr}")
    return left
