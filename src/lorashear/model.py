"""Toy decoder-only transformer with low-rank adaptors on every projection.

The block wiring is the usual pre-norm decoder: rmsnorm -> attention
(q/k/v projections into ``tensor.causal_attention``, one op for the per-head
causal mixing, then o) -> residual add -> rmsnorm ->
gated MLP (silu(gate) * up into down) -> residual add. Positions use a
learned absolute embedding. Every projection except the output head is a
``LoraLinear``: a frozen host weight plus trainable factors A (rank x in)
and B (out x r), applied as ``x @ W.T + gamma * (x @ A.T) @ B.T``. B starts
at zero so a fresh model is exactly the frozen model.

``parameter_shapes`` states every parameter's name and shape, in model
order, once: building, cloning, compressing and loading a model all go
through it. A block's head count and MLP width are read off its tensors (0
for a sublayer emptied of tensors, which the forward skips), so compressed
models, which may differ per block, reuse the same forward path.

The forward is a run of sublayers over one residual stream: sublayer ``2*i``
is block i's attention, ``2*i + 1`` its MLP, and ``2*n_layers`` the final
norm and head. It can start at any sublayer from a residual stream a
previous forward handed back, so a caller that changed only later tensors
skips the unchanged prefix.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import tensor as T
from .errors import ConfigError, InputError
from .tensor import Tensor


# the config fields that count something a model must have at least one of
SIZE_FIELDS = ("vocab_size", "dim", "n_layers", "n_heads", "mlp_dim", "block_size")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    dim: int
    n_layers: int
    n_heads: int
    mlp_dim: int
    lora_rank: int
    lora_gamma: float = 2.0
    block_size: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in SIZE_FIELDS:
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name}: must be >= 1, got {getattr(self, name)}")
        if self.dim % self.n_heads != 0:
            raise ConfigError(
                f"model.dim: must be divisible by model.n_heads {self.n_heads}, got {self.dim}"
            )
        if not (0 <= self.lora_rank < self.dim):
            raise ConfigError(f"model.lora_rank: must be in [0, model.dim), got {self.lora_rank}")
        try:
            finite = math.isfinite(self.lora_gamma)
        except OverflowError:  # an integer past float range
            finite = False
        if not (finite and self.lora_gamma > 0):
            raise ConfigError(f"model.lora_gamma: must be positive and finite, got {self.lora_gamma}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.n_heads


class LoraLinear:
    """Frozen host weight with trainable low-rank delta ``gamma * B @ A``."""

    def __init__(self, weight: Tensor, lora_a: Tensor | None, lora_b: Tensor | None, gamma: float):
        self.weight = weight
        self.lora_a = lora_a
        self.lora_b = lora_b
        self.gamma = gamma

    @property
    def has_lora(self) -> bool:
        return self.lora_a is not None

    def tensors(self) -> list[Tensor]:
        return [self.weight] if not self.has_lora else [self.weight, self.lora_a, self.lora_b]

    def apply(self, h: Tensor) -> Tensor:
        if not self.has_lora:
            return T.linear(h, self.weight)
        return T.lora_linear(h, self.weight, self.lora_a, self.lora_b, self.gamma)

    def merge_lora(self) -> None:
        """Fold the adaptor into the host (x += gamma*B@A; B <- 0). Idempotent."""
        if not self.has_lora:
            return
        self.weight.data += self.gamma * (self.lora_b.data @ self.lora_a.data)
        self.lora_b.data[:] = 0.0


class Block:
    """One decoder block, its tensors wired by name from ``params`` under ``prefix``."""

    def __init__(self, params: Mapping[str, Tensor], prefix: str, config: ModelConfig):
        def proj(p: str) -> LoraLinear:
            return LoraLinear(
                params[f"{p}.weight"], params.get(f"{p}.lora_A"), params.get(f"{p}.lora_B"), config.lora_gamma
            )

        # every projection present, in model order: each "<prefix>.<name>.weight"
        own = f"{prefix}."
        stems = [n.removesuffix(".weight") for n in params if n.startswith(own) and n.endswith(".weight")]
        self.modules = {p.removeprefix(own): proj(p) for p in stems}
        self.attn_norm = params.get(f"{prefix}.attn_norm.gain")
        self.q, self.k, self.v, self.o = (self.modules.get(f"attn.{n}") for n in "qkvo")
        self.mlp_norm = params.get(f"{prefix}.mlp_norm.gain")
        self.gate, self.up, self.down = (self.modules.get(f"mlp.{n}") for n in ("gate", "up", "down"))
        self.head_dim = config.head_dim

    @property
    def n_heads(self) -> int:
        return 0 if self.q is None else self.q.weight.shape[0] // self.head_dim

    @property
    def mlp_dim(self) -> int:
        return 0 if self.gate is None else self.gate.weight.shape[0]

    def lora_linears(self) -> dict[str, LoraLinear]:
        return dict(self.modules)


class LoraModel:
    def __init__(self, config: ModelConfig, params: Mapping[str, Tensor]):
        """Wire the tensors of ``params``, named and ordered as ``parameter_shapes`` lists them."""
        self.config = config
        self.tok_embedding = params["tok_embedding"]
        self.pos_embedding = params["pos_embedding"]
        self.blocks = [Block(params, f"blocks.{i}", config) for i in range(config.n_layers)]
        self.final_norm = params["final_norm.gain"]
        self.head = params["head.weight"]
        # built once: code writes a parameter's .data, never the tensor itself
        self._modules = MappingProxyType({
            f"blocks.{i}.{name}": mod
            for i, blk in enumerate(self.blocks)
            for name, mod in blk.lora_linears().items()
        })
        self._params = MappingProxyType(dict(params))

    # ---- parameter bookkeeping -------------------------------------------------

    def lora_linears(self) -> Mapping[str, LoraLinear]:
        """Every LoraLinear under its dotted module name, in model order (read-only)."""
        return self._modules

    def parameters(self) -> Mapping[str, Tensor]:
        """All parameter tensors under canonical dotted names, in model order (read-only)."""
        return self._params

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.parameters().values())

    def lora_parameters(self) -> dict[str, Tensor]:
        return {n: t for n, t in self.parameters().items() if ".lora_" in n}

    def set_trainable(self, which: str) -> None:
        """'all' for pretraining, 'lora' for pruning/recovery, 'none' to freeze."""
        if which not in ("all", "lora", "none"):
            raise ConfigError(f"unknown trainable selector {which!r}")
        for name, t in self.parameters().items():
            if which == "all":
                t.requires_grad = True
            elif which == "lora":
                t.requires_grad = ".lora_" in name
            else:
                t.requires_grad = False
            t.zero_grad()

    def clone(self) -> "LoraModel":
        return LoraModel(self.config, {name: t.copy() for name, t in self.parameters().items()})

    def merge_all_lora(self) -> None:
        for mod in self.lora_linears().values():
            mod.merge_lora()

    def first_reader(self, tensors) -> int:
        """First sublayer of ``forward`` that reads any of ``tensors``, matched by identity.

        A name says its reader: ``blocks.i.attn*`` is ``2*i``, ``blocks.i.mlp*``
        ``2*i + 1``, and the embeddings 0, the only start that recomputes
        them; 0 also when no sublayer reads any of them.
        """
        written = {id(t) for t in tensors}
        reads = []
        for name, t in self.parameters().items():
            if id(t) not in written:
                continue
            if name.startswith("blocks."):
                _, i, rest = name.split(".", 2)
                reads.append(2 * int(i) + rest.startswith("mlp"))
            else:
                reads.append(0 if name.endswith("_embedding") else 2 * len(self.blocks))
        return min(reads, default=0)

    # ---- forward ---------------------------------------------------------------

    def forward(
        self,
        tokens: np.ndarray,
        *,
        start: int = 0,
        residual: Tensor | None = None,
        keep: dict[int, Tensor | None] | None = None,
    ) -> Tensor:
        """Causal logits for ids of shape (T,) or (B, T).

        With ``start`` > 0 the forward begins at that sublayer from
        ``residual``, the (B, T, dim) stream entering it, and skips the
        embedding and every earlier sublayer. Each sublayer named in ``keep``
        that the forward passes gets the residual stream entering it stored
        there.
        """
        tokens = np.asarray(tokens)
        squeeze = tokens.ndim == 1
        if squeeze:
            tokens = tokens[None, :]
        if tokens.ndim != 2:
            raise InputError(f"forward: tokens must be 1-D or 2-D, got shape {tokens.shape}")
        b, t = tokens.shape
        if t > self.config.block_size:
            raise InputError(f"forward: sequence length {t} exceeds block size {self.config.block_size}")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab_size):
            raise InputError(f"forward: token id out of range for vocab {self.config.vocab_size}")

        n_sublayers = 2 * len(self.blocks)
        if start == 0:
            positions = np.broadcast_to(np.arange(t), (b, t))
            h = T.add(
                T.embedding_lookup(self.tok_embedding, tokens),
                T.embedding_lookup(self.pos_embedding, positions),
            )
        elif 0 < start <= n_sublayers and residual is not None and residual.shape == (b, t, self.config.dim):
            h = residual
        else:
            raise InputError(
                f"forward: starting at sublayer {start} of {n_sublayers} needs a "
                f"({b}, {t}, {self.config.dim}) residual"
            )
        for s in range(start, n_sublayers + 1):
            if keep is not None and s in keep:
                keep[s] = h
            if s == n_sublayers:
                break
            blk = self.blocks[s // 2]
            if s % 2 == 0 and blk.n_heads:
                h = T.add(h, self._attention(blk, T.rmsnorm(h, blk.attn_norm)))
            elif s % 2 == 1 and blk.mlp_dim:
                h = T.add(h, self._mlp(blk, T.rmsnorm(h, blk.mlp_norm)))
        logits = T.linear(T.rmsnorm(h, self.final_norm), self.head)
        return T.reshape(logits, logits.shape[1:]) if squeeze else logits

    def _attention(self, blk: Block, h: Tensor) -> Tensor:
        ctx = T.causal_attention(blk.q.apply(h), blk.k.apply(h), blk.v.apply(h), blk.n_heads)
        return blk.o.apply(ctx)

    def _mlp(self, blk: Block, h: Tensor) -> Tensor:
        gated = T.mul(T.silu(blk.gate.apply(h)), blk.up.apply(h))
        return blk.down.apply(gated)

    @property
    def vocab_size(self) -> int:
        return self.config.vocab_size


def parameter_shapes(config: ModelConfig, block_dims) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in model order, for blocks of the
    given ``(n_heads, head_dim, mlp_dim)``; a sublayer of 0 heads or channels
    has none, norm included. Each projection carries both LoRA factors
    exactly when ``config.lora_rank`` > 0."""
    d, r = config.dim, config.lora_rank
    shapes = {"tok_embedding": (config.vocab_size, d), "pos_embedding": (config.block_size, d)}
    for i, (n_heads, head_dim, mlp_dim) in enumerate(block_dims):
        inner, prefix = n_heads * head_dim, f"blocks.{i}"
        sublayers = {
            "attn": {"q": (inner, d), "k": (inner, d), "v": (inner, d), "o": (d, inner)} if n_heads else {},
            "mlp": {"gate": (mlp_dim, d), "up": (mlp_dim, d), "down": (d, mlp_dim)} if mlp_dim else {},
        }
        for sub, projections in sublayers.items():
            if projections:
                shapes[f"{prefix}.{sub}_norm.gain"] = (d,)
            for name, (out_dim, in_dim) in projections.items():
                shapes[f"{prefix}.{sub}.{name}.weight"] = (out_dim, in_dim)
                if r:
                    shapes[f"{prefix}.{sub}.{name}.lora_A"] = (r, in_dim)
                    shapes[f"{prefix}.{sub}.{name}.lora_B"] = (out_dim, r)
    shapes["final_norm.gain"] = (d,)
    shapes["head.weight"] = (config.vocab_size, d)
    return shapes


def build_model(config: ModelConfig) -> LoraModel:
    """Deterministic init from the config seed, drawn in model order: gains
    one, lora_B zero, embeddings N(0, 0.02), every other matrix N(0, 1/sqrt(in))."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x10DE]))
    params = {}
    dims = [(config.n_heads, config.head_dim, config.mlp_dim)] * config.n_layers
    for name, shape in parameter_shapes(config, dims).items():
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif name.endswith(".lora_B"):
            data = np.zeros(shape)
        elif name.endswith("_embedding"):
            data = rng.normal(0.0, 0.02, size=shape)
        else:
            data = rng.normal(0.0, 1.0 / math.sqrt(shape[1]), size=shape)
        params[name] = Tensor(data)
    model = LoraModel(config, params)
    model.set_trainable("none")
    return model


def next_token_loss(model: LoraModel, sequences: np.ndarray) -> Tensor:
    """Mean cross entropy of predicting sequences[:, 1:] from sequences[:, :-1]."""
    sequences = np.asarray(sequences)
    if sequences.ndim == 1:
        sequences = sequences[None, :]
    logits = model.forward(sequences[:, :-1])
    return T.cross_entropy(logits, sequences[:, 1:])
