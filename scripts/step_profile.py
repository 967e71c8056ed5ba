#!/usr/bin/env python3
"""Time and size one training step and one no-grad forward at a fixed shape.

Usage: PYTHONPATH=src python scripts/step_profile.py {toy,wide,tiny} [--steps N] [--warmup N]

Prints one JSON line per case: a LoRA-only ``train_step``, an all-trainable
``train_step`` (both SGD) and a no-grad forward of the next-token loss. Each
line gives the median wall time in ms over ``--steps`` calls after
``--warmup`` untimed ones, the tracemalloc peak in MiB of one further
call, counted from the memory traced just before it, ``saved_mib``: the
traced MiB a forward of the same batch on a ``Tape`` still holds before
backward, which is what the recorded backward rules keep, and ``tape_ops``:
the ops that forward records (0 without grad). ``toy`` is the built-in
model at 8x48 tokens; ``wide`` is perfbench's wide-run-all model (dim 128,
8 heads, 256 MLP channels) at 4x96 tokens; ``tiny`` is a seconds-long smoke
shape. An ``ops`` line gives the median forward and backward microseconds
of one ``lora_linear``, ``causal_attention`` and ``rmsnorm`` call at the
shape, each on its own tape with a LoRA-only step's flags: the input
requires grad, a host weight or gain does not, the adaptor factors do.
The forward time includes recording the op; the backward time is its rule
alone, given an output gradient of ones. A last line gives the median ms of
``count_zero_groups`` and of ``least_salient`` over all prunable structure
groups of the same model, the two LHSPG readers of every group. Timings
depend on the host and its BLAS; peaks do not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc

import numpy as np

from lorashear.graph import build_trace_graph
from lorashear.groups import discover_node_groups, partition_variables
from lorashear.lhspg import count_zero_groups
from lorashear.model import ModelConfig, build_model, next_token_loss
from lorashear.optim import Sgd, train_step
from lorashear.saliency import least_salient
from lorashear import tensor as T
from lorashear.tensor import Tape, Tensor

# name -> (model fields, batch size); sequences are block_size + 1 tokens
SHAPES = {
    "toy": (dict(vocab_size=64, dim=32, n_layers=2, n_heads=4, mlp_dim=64, lora_rank=4,
                 block_size=48), 8),
    "wide": (dict(vocab_size=64, dim=128, n_layers=2, n_heads=8, mlp_dim=256, lora_rank=8,
                  block_size=96), 4),
    "tiny": (dict(vocab_size=16, dim=8, n_layers=1, n_heads=2, mlp_dim=8, lora_rank=2,
                  block_size=16), 2),
}
CASES = ("lora_step", "all_step", "nograd_forward")


def _case_fn(model, case: str):
    if case == "nograd_forward":
        model.set_trainable("none")
        return lambda batch: next_token_loss(model, batch)
    model.set_trainable("lora" if case == "lora_step" else "all")
    params = [t for t in model.parameters().values() if t.requires_grad]
    opt = Sgd(params, 1e-3)
    return lambda batch: train_step(model, batch, opt, where=case)


def taped_forward(model, batch) -> tuple[int, int]:
    """Traced bytes a forward on a tape holds until backward, the loss included,
    and the number of ops it records."""
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = next_token_loss(model, batch)
        return tracemalloc.get_traced_memory()[0], len(tape.ops)
    finally:
        tracemalloc.stop()


def _median_ms(fn, steps: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(steps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 3)


def profile(shape: str, steps: int, warmup: int, seed: int = 0) -> list[dict]:
    fields, batch_size = SHAPES[shape]
    rng = np.random.default_rng(seed)
    batches = rng.integers(0, fields["vocab_size"], size=(warmup + steps + 1, batch_size,
                                                          fields["block_size"] + 1))
    rows = []
    for case in CASES:
        model = build_model(ModelConfig(seed=seed, **fields))
        fn = _case_fn(model, case)
        draws = iter(batches)
        median_ms = _median_ms(lambda: fn(next(draws)), steps, warmup)
        tracemalloc.start()
        try:
            fn(batches[-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        saved, ops = taped_forward(model, batches[-1])
        rows.append({"shape": shape, "case": case, "steps": steps,
                     "median_ms": median_ms,
                     "peak_mib": round(peak / 2**20, 3),
                     "saved_mib": round(saved / 2**20, 3), "tape_ops": ops})
    return rows


def _op_calls(shape: str, seed: int) -> dict:
    """Op name -> (a call of it at the shape's sizes, the tensors it reads)."""
    fields, batch_size = SHAPES[shape]
    rng = np.random.default_rng(seed)
    dim, rank = fields["dim"], fields["lora_rank"]

    def draw(*dims: int, grad: bool) -> Tensor:
        return Tensor(rng.normal(size=dims) / np.sqrt(dims[-1]), requires_grad=grad)

    def activation() -> Tensor:
        return draw(batch_size, fields["block_size"], dim, grad=True)

    x, q, k, v = activation(), activation(), activation(), activation()
    w, a, b = draw(dim, dim, grad=False), draw(rank, dim, grad=True), draw(dim, rank, grad=True)
    gain = Tensor(np.ones(dim))
    return {
        "lora_linear": (lambda: T.lora_linear(x, w, a, b, 2.0), (x, w, a, b)),
        "causal_attention": (lambda: T.causal_attention(q, k, v, fields["n_heads"]), (q, k, v)),
        "rmsnorm": (lambda: T.rmsnorm(x, gain), (x, gain)),
    }


def profile_ops(shape: str, steps: int, warmup: int, seed: int = 0) -> dict:
    """Median forward and backward microseconds of each fused op at the shape."""
    row = {"shape": shape, "case": "ops", "steps": steps}
    for name, (call, inputs) in _op_calls(shape, seed).items():
        fwd, bwd = [], []
        for i in range(warmup + steps):
            for t in inputs:
                t.zero_grad()
            with Tape() as tape:
                start = time.perf_counter()
                out = call()
                fwd_s = time.perf_counter() - start
            out.accumulate_grad(np.ones(out.shape))
            (op,) = tape.ops
            start = time.perf_counter()
            op.backward()
            bwd_s = time.perf_counter() - start
            if i >= warmup:
                fwd.append(fwd_s)
                bwd.append(bwd_s)
        row[f"{name}_fwd_us"] = round(statistics.median(fwd) * 1e6, 1)
        row[f"{name}_bwd_us"] = round(statistics.median(bwd) * 1e6, 1)
    return row


def profile_group_readers(shape: str, steps: int, warmup: int, seed: int = 0) -> dict:
    """Median ms of the zero count and the saliency ranking over every prunable group."""
    fields, _ = SHAPES[shape]
    model = build_model(ModelConfig(seed=seed, **fields))
    group_set = partition_variables(discover_node_groups(build_trace_graph(model)), model)
    ids = group_set.prunable_ids()
    pool = [group_set.by_id[gid] for gid in ids]
    return {"shape": shape, "case": "group_readers", "steps": steps, "groups": len(ids),
            "count_zero_groups_ms": _median_ms(lambda: count_zero_groups(model, group_set, ids),
                                               steps, warmup),
            "least_salient_ms": _median_ms(lambda: least_salient(model, group_set, pool),
                                           steps, warmup)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shape", choices=sorted(SHAPES))
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--warmup", type=int, default=3)
    args = parser.parse_args(argv)
    if args.steps < 1 or args.warmup < 0:
        parser.error("--steps must be >= 1 and --warmup >= 0")
    for row in profile(args.shape, args.steps, args.warmup):
        print(json.dumps(row))
    print(json.dumps(profile_ops(args.shape, args.steps, args.warmup)))
    print(json.dumps(profile_group_readers(args.shape, args.steps, args.warmup)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
