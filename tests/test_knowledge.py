import math

import numpy as np
import pytest

from lorashear.errors import ConfigError, CorruptionError
from lorashear.evaluate import _CHUNK, empty_residuals, mean_cross_entropy, perplexity
from lorashear.graph import build_trace_graph
from lorashear.groups import discover_node_groups, partition_variables, zero_structure
from lorashear.knowledge import analyze, probe_deviation
from lorashear.model import ModelConfig, build_model
from lorashear.saliency import effective_l2
from lorashear.util import model_hash


def structures(model):
    graph = build_trace_graph(model)
    node_groups = discover_node_groups(graph)
    return node_groups, partition_variables(node_groups, model)


@pytest.fixture
def probed(trained_toy):
    model, corpus = trained_toy
    node_groups, group_set = structures(model)
    eval_seqs = corpus.val_pool()[:8]
    return model, corpus, node_groups, group_set, eval_seqs


class TestProbe:
    def test_zero_ratio_gives_exactly_zero_deviation(self, probed):
        model, _, _, group_set, eval_seqs = probed
        dev = probe_deviation(model, group_set, "blocks.0.mlp", (0.0,), eval_seqs)
        assert dev == 0.0

    def test_dead_downstream_path_gives_zero_deviation(self, toy_model, toy_corpus):
        # with down_proj zeroed (and lora_B already zero at init) the MLP
        # contributes nothing, so probing its structures cannot move the loss
        node_groups, group_set = structures(toy_model)
        down = toy_model.blocks[0].down
        down.weight.data[:] = 0.0
        eval_seqs = toy_corpus.val_pool()[:6]
        dev = probe_deviation(toy_model, group_set, "blocks.0.mlp", (0.25, 0.5), eval_seqs)
        assert dev == 0.0

    def test_model_restored_bit_identically(self, probed):
        model, _, node_groups, group_set, eval_seqs = probed
        before = model_hash(model)
        for family in node_groups.prunable_families():
            probe_deviation(model, group_set, family.id, (0.25, 0.5), eval_seqs)
            assert model_hash(model) == before

    def test_restore_corruption_is_a_hard_failure(self, probed, monkeypatch):
        model, _, _, group_set, eval_seqs = probed

        def corrupting_perplexity(m, seqs):
            m.parameters()["final_norm.gain"].data[0] += 1e-9
            return perplexity(m, seqs)

        monkeypatch.setattr("lorashear.knowledge.perplexity", corrupting_perplexity)
        with pytest.raises(CorruptionError, match="blocks.0.mlp"):
            probe_deviation(model, group_set, "blocks.0.mlp", (0.25,), eval_seqs)

    def test_deviation_matches_independent_zero_and_eval_oracle(self, probed):
        # brute-force oracle: re-zero the same slices on a fresh clone and
        # recompute both perplexities from scratch
        model, _, _, group_set, eval_seqs = probed
        family_id = "blocks.1.mlp"
        ratios = (0.25, 0.5)
        dev = probe_deviation(model, group_set, family_id, ratios, eval_seqs)

        groups = [g for g in group_set.groups if g.node_group == family_id]
        base = perplexity(model, eval_seqs)
        expected = []
        for p in ratios:
            k = math.ceil(p * len(groups))
            scored = sorted(groups, key=lambda g: (effective_l2(model, g), g.id))[:k]
            clone = model.clone()
            for g in scored:
                zero_structure(clone, group_set.by_id[g.id])
            expected.append(perplexity(clone, eval_seqs) - base)
        assert dev == pytest.approx(float(np.mean(expected)), abs=1e-12)

    def test_probe_order_independence(self, probed):
        model, _, node_groups, group_set, eval_seqs = probed
        fams = [f.id for f in node_groups.prunable_families()]
        forward_order = [
            probe_deviation(model, group_set, f, (0.5,), eval_seqs) for f in fams
        ]
        reverse_order = [
            probe_deviation(model, group_set, f, (0.5,), eval_seqs) for f in reversed(fams)
        ]
        assert forward_order == list(reversed(reverse_order))


def zeroed_clone_ppl(model, group_set, family_id, ratio, eval_seqs):
    """From-scratch reference: zero the probe's selection on a clone, full forward."""
    groups = [g for g in group_set.groups if g.node_group == family_id]
    ranked = sorted(groups, key=lambda g: (effective_l2(model, g), g.id))
    clone = model.clone()
    for g in ranked[: math.ceil(ratio * len(groups))]:
        zero_structure(clone, g)
    return perplexity(clone, eval_seqs)


RATIOS = (0.0, 0.25, 0.5, 0.75, 1.0)


class TestResume:
    """Probes resume from the intact model's residual stream; every number stays bitwise."""

    @pytest.fixture(params=[8, _CHUNK + 9], ids=["one-chunk", "two-chunks"])
    def resumed(self, request, trained_toy):
        model, corpus = trained_toy
        node_groups, group_set = structures(model)
        eval_seqs = np.concatenate([corpus.val_pool(), corpus.train_pool()])[: request.param]
        # every sublayer kept, so each probe resumes exactly where it first reads a zeroed tensor
        residuals = empty_residuals(eval_seqs, range(1, 2 * len(model.blocks) + 1))
        base = math.exp(mean_cross_entropy(model, eval_seqs, keep=residuals))
        return model, node_groups, group_set, eval_seqs, residuals, base

    def test_resumed_probe_equals_zeroed_clone_for_every_family_and_ratio(self, resumed):
        model, node_groups, group_set, eval_seqs, residuals, base = resumed
        assert base == perplexity(model, eval_seqs)
        for family in node_groups.prunable_families():
            for ratio in RATIOS:
                dev = probe_deviation(model, group_set, family.id, (ratio,), eval_seqs, base, residuals)
                expected = zeroed_clone_ppl(model, group_set, family.id, ratio, eval_seqs) - base
                assert dev == expected, (family.id, ratio)

    def test_probes_leave_the_recorded_stream_untouched(self, resumed):
        model, node_groups, group_set, eval_seqs, residuals, base = resumed
        before = [{s: h.data.copy() for s, h in chunk.items()} for chunk in residuals]
        for family in node_groups.prunable_families():
            probe_deviation(model, group_set, family.id, (0.5, 1.0), eval_seqs, base, residuals)
        for chunk, saved in zip(residuals, before):
            assert all(np.array_equal(chunk[s].data, saved[s]) for s in saved)

    def test_analyze_equals_zeroed_clone_reference(self, resumed):
        model, node_groups, group_set, eval_seqs, _, base = resumed
        ratios = (0.25, 0.5, 0.75)
        profile = analyze(model, group_set, node_groups, ratios, eval_seqs, 0.25)
        for e in profile.entries:
            expected = [
                zeroed_clone_ppl(model, group_set, e.node_group, r, eval_seqs) - base for r in ratios
            ]
            assert e.deviation == float(np.mean(expected)), e.node_group

    def test_analyze_keeps_only_the_sublayers_probes_resume_from(self, probed, monkeypatch):
        model, _, node_groups, group_set, eval_seqs = probed
        kept = []

        def spy(seqs, sublayers):
            kept.append(set(sublayers))
            return empty_residuals(seqs, sublayers)

        monkeypatch.setattr("lorashear.knowledge.empty_residuals", spy)
        analyze(model, group_set, node_groups, (0.25,), eval_seqs, 0.1)
        # blocks.0.attn starts from the tokens; the other three families resume
        assert kept == [{1, 2, 3}]


class TestAnalyze:
    def test_zero_fraction_flags_nothing(self, probed):
        model, _, node_groups, group_set, eval_seqs = probed
        profile = analyze(model, group_set, node_groups, (0.25,), eval_seqs, 0.0)
        assert not any(e.unprunable for e in profile.entries)
        assert group_set.prunable_ids() == [g.id for g in group_set.groups]

    def test_quarter_fraction_on_sixteen_node_groups_flags_exactly_four(self):
        config = ModelConfig(
            vocab_size=16, dim=8, n_layers=8, n_heads=2, mlp_dim=4, lora_rank=2,
            block_size=12, seed=2,
        )
        model = build_model(config)
        node_groups, group_set = structures(model)
        assert len(node_groups.prunable_families()) == 16
        rng = np.random.default_rng(0)
        eval_seqs = rng.integers(0, 16, size=(4, 13))
        profile = analyze(model, group_set, node_groups, (0.5,), eval_seqs, 0.25)
        flagged = [e for e in profile.entries if e.unprunable]
        assert len(flagged) == 4
        ranked = sorted(profile.entries, key=lambda e: -e.deviation)
        assert {e.node_group for e in flagged} == {e.node_group for e in ranked[:4]}

    def test_flagged_families_mark_their_groups_unprunable(self, probed):
        model, _, node_groups, group_set, eval_seqs = probed
        profile = analyze(model, group_set, node_groups, (0.25, 0.5), eval_seqs, 0.1)
        flagged = {e.node_group for e in profile.entries if e.unprunable}
        assert len(flagged) == math.ceil(0.1 * 4) == 1
        for g in group_set.groups:
            expected = "unprunable" if g.node_group in flagged else "prunable"
            assert group_set.status[g.id] == expected

    def test_profile_deterministic(self, probed):
        model, _, node_groups, group_set, eval_seqs = probed
        a = analyze(model, group_set, node_groups, (0.25,), eval_seqs, 0.1)
        b = analyze(model, group_set, node_groups, (0.25,), eval_seqs, 0.1)
        assert a.to_json() == b.to_json()

    def test_empty_eval_set_rejected(self, probed):
        model, _, node_groups, group_set, _ = probed
        with pytest.raises(ConfigError, match="empty"):
            analyze(model, group_set, node_groups, (0.25,), np.empty((0, 10), dtype=int), 0.1)

    def test_profile_emits_plot_data(self, probed, tmp_path):
        from lorashear.knowledge import save_profile

        model, _, node_groups, group_set, eval_seqs = probed
        profile = analyze(model, group_set, node_groups, (0.25, 0.5), eval_seqs, 0.1)
        save_profile(profile, tmp_path / "p.json", tmp_path / "p.csv", {"stage": "analyze"})
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[0] == "node_group,deviation,rank,unprunable"
        assert len(lines) == 1 + 4
