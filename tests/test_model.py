import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from lorashear.errors import ConfigError, InputError
from lorashear.model import ModelConfig, build_model, next_token_loss, parameter_shapes
from lorashear.util import model_hash

from conftest import TOY


def closed_form_parameter_count(c: ModelConfig) -> int:
    """Independent arithmetic over the declared tensor inventory."""
    d, r = c.dim, c.lora_rank
    per_attn_proj = d * d + r * d + d * r
    per_mlp = (
        2 * (c.mlp_dim * d + r * d + c.mlp_dim * r)  # gate, up
        + (d * c.mlp_dim + r * c.mlp_dim + d * r)  # down
    )
    per_block = d + 4 * per_attn_proj + d + per_mlp
    return (
        c.vocab_size * d  # token embedding
        + c.block_size * d  # position embedding
        + c.n_layers * per_block
        + d  # final norm
        + c.vocab_size * d  # head (no adaptor)
    )


class TestBuild:
    def test_parameter_count_matches_closed_form(self, toy_config, toy_model):
        assert toy_model.parameter_count() == closed_form_parameter_count(toy_config)

    def test_fresh_forward_equals_frozen_forward(self, toy_model, toy_config):
        # lora_B starts at zero, so the adaptor contributes exactly nothing
        bare = build_model(
            ModelConfig(**{**TOY, "lora_rank": 0}, seed=toy_config.seed)
        )
        # same init stream except the adaptor draws; compare against zeroing A instead
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, toy_config.vocab_size, size=(3, 12))
        with_a = toy_model.forward(tokens).data
        randomized = toy_model.clone()
        for name, t in randomized.parameters().items():
            if name.endswith(".lora_A"):
                t.data = rng.normal(size=t.data.shape)
        assert np.array_equal(with_a, randomized.forward(tokens).data)
        assert bare.parameter_count() < toy_model.parameter_count()

    def test_same_seed_builds_bit_identical(self, toy_config):
        assert model_hash(build_model(toy_config)) == model_hash(build_model(toy_config))

    def test_different_seed_differs(self, toy_config):
        other = ModelConfig(**TOY, seed=toy_config.seed + 1)
        assert model_hash(build_model(other)) != model_hash(build_model(toy_config))

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(vocab_size=8, dim=30, n_layers=1, n_heads=4, mlp_dim=8, lora_rank=2)

    def test_lora_b_initialized_to_zero(self, toy_model):
        for name, t in toy_model.parameters().items():
            if name.endswith(".lora_B"):
                assert not np.any(t.data)


class TestForward:
    def test_causality(self, toy_model):
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, 64, size=14)
        base = toy_model.forward(tokens).data
        for t in (0, 5, 13):
            perturbed = tokens.copy()
            perturbed[t] = (perturbed[t] + 1) % 64
            out = toy_model.forward(perturbed).data
            if t > 0:
                assert np.array_equal(out[:t], base[:t])
            assert not np.array_equal(out[t:], base[t:])

    def test_identical_batch_rows_give_identical_logits(self, toy_model):
        seq = np.arange(10) % 64
        batch = np.stack([seq, seq, seq])
        out = toy_model.forward(batch).data
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])

    def test_logits_finite_after_init(self, toy_model):
        rng = np.random.default_rng(5)
        out = toy_model.forward(rng.integers(0, 64, size=(4, 20)))
        assert np.isfinite(out.data).all()

    def test_out_of_range_token_rejected(self, toy_model):
        with pytest.raises(InputError, match="range"):
            toy_model.forward(np.array([0, 64]))

    def test_overlong_sequence_rejected(self, toy_model):
        with pytest.raises(InputError, match="block size"):
            toy_model.forward(np.zeros(49, dtype=np.int64))


class TestLoraAlgebra:
    def test_output_independent_of_lora_a_when_b_zero(self, toy_model):
        rng = np.random.default_rng(6)
        tokens = rng.integers(0, 64, size=(2, 9))
        base = toy_model.forward(tokens).data
        clone = toy_model.clone()
        for name, t in clone.parameters().items():
            if name.endswith(".lora_A"):
                t.data = rng.normal(size=t.data.shape)
        assert np.array_equal(base, clone.forward(tokens).data)

    def test_merge_preserves_forward_within_1e9(self, toy_model, toy_corpus):
        # train the adaptor a little so B is nonzero, then merge
        from lorashear.lhspg import warmup

        rng = np.random.default_rng(7)
        warmup(toy_model, lambda: toy_corpus.sample_batch(rng, 4), steps=8, learning_rate=0.3)
        tokens = rng.integers(0, 64, size=(3, 16))
        before = toy_model.forward(tokens).data
        toy_model.merge_all_lora()
        after = toy_model.forward(tokens).data
        assert np.max(np.abs(before - after)) < 1e-9
        for name, t in toy_model.parameters().items():
            if name.endswith(".lora_B"):
                assert not np.any(t.data)

    def test_merge_leaves_nograd_forward_bitwise_unchanged(self, toy_model, toy_corpus):
        from lorashear.lhspg import warmup

        rng = np.random.default_rng(8)
        warmup(toy_model, lambda: toy_corpus.sample_batch(rng, 4), steps=4, learning_rate=0.3)
        toy_model.set_trainable("none")
        assert any(np.any(t.data) for n, t in toy_model.parameters().items() if n.endswith(".lora_B"))
        tokens = rng.integers(0, 64, size=(3, 16))
        merged = toy_model.clone()
        merged.merge_all_lora()
        assert np.array_equal(toy_model.forward(tokens).data, merged.forward(tokens).data)

    def test_clone_is_independent(self, toy_model):
        clone = toy_model.clone()
        clone.parameters()["head.weight"].data[:] = 0.0
        assert np.any(toy_model.parameters()["head.weight"].data)

    def test_parameters_is_one_read_only_map_of_the_models_own_tensors(self, toy_model, tmp_path):
        from lorashear.checkpoint import load_checkpoint, save_checkpoint
        from lorashear.compress import CompressionPlan, apply_compression

        params = toy_model.parameters()
        assert params is toy_model.parameters()
        with pytest.raises(TypeError):
            params["head.weight"] = params["tok_embedding"]
        plan = CompressionPlan(kept={"blocks.0.mlp.gate.weight": {0: list(range(1, 64))},
                                     "blocks.0.mlp.up.weight": {0: list(range(1, 64))}})
        compact = apply_compression(toy_model, plan)
        save_checkpoint(toy_model, tmp_path / "m.lshr")
        original = {id(t) for t in params.values()}
        for other in (toy_model, toy_model.clone(), compact, load_checkpoint(tmp_path / "m.lshr")):
            own = [other.tok_embedding, other.pos_embedding]
            for blk in other.blocks:
                for norm, sublayer in ((blk.attn_norm, "attn."), (blk.mlp_norm, "mlp.")):
                    # an emptied sublayer has neither its norm nor its modules
                    own += [] if norm is None else [norm]
                    for name, mod in blk.lora_linears().items():
                        own += mod.tensors() if name.startswith(sublayer) else []
            own += [other.final_norm, other.head]
            assert [id(t) for t in other.parameters().values()] == [id(t) for t in own]
            if other is not toy_model:
                assert not original & {id(t) for t in own}
        assert compact.parameters()["blocks.0.mlp.gate.weight"].shape == (63, 32)

    def test_lora_linears_is_one_read_only_map_of_the_models_own_modules(self, toy_model, tmp_path):
        from lorashear.checkpoint import load_checkpoint, save_checkpoint
        from lorashear.compress import CompressionPlan, apply_compression

        modules = toy_model.lora_linears()
        assert modules is toy_model.lora_linears()
        with pytest.raises(TypeError):
            modules["blocks.0.attn.q"] = modules["blocks.0.attn.k"]
        plan = CompressionPlan(kept={"blocks.0.mlp.gate.weight": {0: list(range(1, 64))},
                                     "blocks.0.mlp.up.weight": {0: list(range(1, 64))}})
        compact = apply_compression(toy_model, plan)
        save_checkpoint(toy_model, tmp_path / "m.lshr")
        original = {id(m) for m in modules.values()}
        for other in (toy_model, toy_model.clone(), compact, load_checkpoint(tmp_path / "m.lshr")):
            own = {
                f"blocks.{i}.{name}": mod
                for i, blk in enumerate(other.blocks)
                for name, mod in blk.lora_linears().items()
            }
            assert list(other.lora_linears()) == list(own)
            assert all(other.lora_linears()[name] is mod for name, mod in own.items())
            if other is not toy_model:
                assert not original & {id(m) for m in own.values()}
        assert compact.lora_linears()["blocks.0.mlp.gate"].weight.shape == (63, 32)


class TestTrainability:
    def test_set_trainable_lora_only(self, toy_model):
        toy_model.set_trainable("lora")
        for name, t in toy_model.parameters().items():
            assert t.requires_grad == (".lora_" in name)

    def test_loss_is_finite_and_positive(self, toy_model, toy_corpus):
        loss = next_token_loss(toy_model, toy_corpus.sources["markov"].train[:4])
        assert np.isfinite(loss.item()) and loss.item() > 0


class TestResume:
    @pytest.fixture
    def trained_tokens(self, trained_toy):
        model, corpus = trained_toy
        return model, corpus.val_pool()[:5, :-1]

    def test_resumed_forward_is_bitwise_the_full_forward(self, trained_tokens):
        model, tokens = trained_tokens
        n = 2 * len(model.blocks)
        kept = dict.fromkeys(range(n + 1))
        full = model.forward(tokens, keep=kept).data
        assert all(kept[s] is not None for s in kept)
        for s in range(1, n + 1):
            resumed = model.forward(tokens, start=s, residual=kept[s]).data
            assert np.array_equal(resumed, full), s

    def test_keep_records_only_the_named_sublayers(self, trained_tokens):
        model, tokens = trained_tokens
        kept = {2: None}
        model.forward(tokens, keep=kept)
        assert list(kept) == [2] and kept[2].shape == (*tokens.shape, model.config.dim)

    def test_resume_skips_every_earlier_sublayer(self, trained_tokens):
        # zeroing block 0 changes a full forward but not one resumed after it
        model, tokens = trained_tokens
        kept = {2: None}
        intact = model.forward(tokens, keep=kept).data
        for mod in model.blocks[0].lora_linears().values():
            mod.weight.data[:] = 0.0
        assert not np.array_equal(model.forward(tokens).data, intact)
        assert np.array_equal(model.forward(tokens, start=2, residual=kept[2]).data, intact)

    def test_bad_start_or_residual_rejected(self, toy_model):
        tokens = np.zeros((2, 6), dtype=np.int64)
        kept = {1: None}
        toy_model.forward(tokens[:, :5], keep=kept)  # a residual one position short
        for start, residual in ((-1, None), (1, None), (5, kept[1]), (1, kept[1])):
            with pytest.raises(InputError, match="residual"):
                toy_model.forward(tokens, start=start, residual=residual)

    def test_first_reader_matches_tensors_by_identity(self, toy_model):
        blk0, blk1 = toy_model.blocks
        assert toy_model.first_reader([toy_model.tok_embedding]) == 0
        assert toy_model.first_reader([blk0.q.lora_b]) == 0
        assert toy_model.first_reader([blk0.mlp_norm, blk1.o.weight]) == 1
        assert toy_model.first_reader([blk1.k.weight]) == 2
        assert toy_model.first_reader([blk1.down.lora_a]) == 3
        assert toy_model.first_reader([toy_model.head]) == 4
        assert toy_model.first_reader([]) == 0
        # an equal tensor that is not the model's own is read by no sublayer
        assert toy_model.first_reader([blk1.down.weight.copy()]) == 0


class TestLayout:
    @seed(21)
    @settings(max_examples=10)
    @given(
        n_layers=st.integers(1, 3), n_heads=st.integers(1, 4), head_dim=st.integers(1, 4),
        mlp_dim=st.integers(1, 8), data=st.data(),
    )
    def test_every_model_has_the_tables_names_and_shapes(self, n_layers, n_heads, head_dim, mlp_dim, data):
        from lorashear.checkpoint import checkpoint_extra, load_checkpoint, save_checkpoint
        from lorashear.compress import apply_compression, plan_compression
        from lorashear.graph import build_trace_graph
        from lorashear.groups import discover_node_groups, partition_variables, zero_structure
        from test_compress import compact_parameter_count

        dim = n_heads * head_dim
        lora_rank = data.draw(st.integers(0, min(3, dim - 1)), label="lora_rank")
        config = ModelConfig(vocab_size=8, dim=dim, n_layers=n_layers, n_heads=n_heads, mlp_dim=mlp_dim,
                             lora_rank=lora_rank, block_size=4, seed=2)
        model = build_model(config)
        group_set = partition_variables(discover_node_groups(build_trace_graph(model)), model)
        # any subset, so a block may lose every head or every channel
        removed = [g for g in group_set.groups if data.draw(st.booleans(), label=g.id)]
        for g in removed:
            group_set.set_status(g.id, "redundant")
        compact = apply_compression(model, plan_compression(group_set, model))
        with tempfile.TemporaryDirectory() as tmp:
            f, resaved = Path(tmp) / "f.lshr", Path(tmp) / "g.lshr"
            save_checkpoint(compact, f, extra={"stage": "test"})
            loaded = load_checkpoint(f)
            save_checkpoint(loaded, resaved, extra=checkpoint_extra(f))
            assert resaved.read_bytes() == f.read_bytes()

        def lost(i, kind):
            return sum(g.id.startswith(f"blocks.{i}.{kind}") for g in removed)

        full = [(n_heads, head_dim, mlp_dim)] * n_layers
        erased = [
            (n_heads - lost(i, "attn:head:"), head_dim, mlp_dim - lost(i, "mlp:ch:")) for i in range(n_layers)
        ]
        for m, dims in ((model, full), (model.clone(), full), (compact, erased), (loaded, erased)):
            table = list(parameter_shapes(config, dims).items())
            assert [(n, t.shape) for n, t in m.parameters().items()] == table

        # an emptied sublayer is absent: every tensor left is read, and counted at its size
        zeroed = model.clone()
        for g in removed:
            zero_structure(zeroed, g)
        tokens = np.arange(2 * config.block_size).reshape(2, -1) % config.vocab_size
        lost_channels, lost_heads = [mlp_dim - m for *_, m in erased], [n_heads - h for h, *_ in erased]
        count = compact_parameter_count(model, lost_channels, lost_heads)
        for m in (compact, loaded):
            graph = build_trace_graph(m)
            assert {p for node in graph.nodes for p in node.params} == set(m.parameters())
            assert "scale" not in {node.kind for node in graph.nodes}
            assert np.max(np.abs(m.forward(tokens).data - zeroed.forward(tokens).data)) < 1e-9
            assert m.parameter_count() == count
