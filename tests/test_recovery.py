import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lorashear.config import RecoverySection
from lorashear.data import SourcePool, SourceTaggedCorpus, generate_corpus
from lorashear.errors import ConfigError, NumericError
from lorashear.evaluate import per_source_perplexity, source_losses
from lorashear.recovery import (
    ConvergenceTracker,
    allocate_subset,
    build_subset,
    measure_degradation,
    recovery_round,
    run_recovery,
)


def constant_corpus(counts: dict[str, int], seq_len: int = 10, n_val: int = 2):
    """Pools where every sequence of source k is filled with a distinct token,
    so subset histograms are exactly recoverable from the sampled rows."""
    sources = {}
    for i, (name, n) in enumerate(sorted(counts.items())):
        token = i + 1
        train = np.full((n, seq_len + 1), token, dtype=np.int64)
        val = np.full((n_val, seq_len + 1), token, dtype=np.int64)
        sources[name] = SourcePool(name, train, val)
    return SourceTaggedCorpus("t", sources)


class TestAllocation:
    def test_stated_formula_on_the_worked_example(self):
        # independent recompute of the allocation formula: floor(0.1*100)=10
        # each, remainder 70 split 3:1:0 -> 52.5/17.5/0, largest remainder
        # gives the extra unit to the alphabetically first tied source
        degradation = {"a": 3.0, "b": 1.0, "c": 0.0}
        base = math.floor(0.1 * 100)
        remainder = 100 - 3 * base
        quotas = {"a": remainder * 3 / 4, "b": remainder * 1 / 4, "c": 0.0}
        expected = {n: base + math.floor(q) for n, q in quotas.items()}
        leftover = 100 - sum(expected.values())
        for n, _ in sorted(quotas.items(), key=lambda nq: (-(nq[1] % 1), nq[0]))[:leftover]:
            expected[n] += 1
        assert sum(expected.values()) == 100

        got = allocate_subset(["a", "b", "c"], degradation, 100, 0.1)
        assert got == expected == {"a": 63, "b": 27, "c": 10}

    def test_equal_degradations_allocate_uniformly(self):
        got = allocate_subset(["a", "b", "c", "d"], {s: 2.0 for s in "abcd"}, 80, 0.1)
        assert got == {s: 20 for s in "abcd"}

    def test_zero_floor_single_positive_source_takes_all(self):
        got = allocate_subset(["a", "b", "c"], {"a": 0.5, "b": -1.0, "c": 0.0}, 50, 0.0)
        assert got == {"a": 50, "b": 0, "c": 0}

    def test_all_nonpositive_degradations_fall_back_to_uniform(self):
        got = allocate_subset(["a", "b"], {"a": -2.0, "b": 0.0}, 10, 0.0)
        assert got == {"a": 5, "b": 5}

    def test_floor_with_too_small_budget_rejected(self):
        with pytest.raises(ConfigError, match="smaller than"):
            allocate_subset(["a", "b", "c"], {s: 1.0 for s in "abc"}, 2, 0.1)

    def test_excessive_floor_rejected(self):
        with pytest.raises(ConfigError, match="must be < 1"):
            allocate_subset(["a", "b", "c"], {s: 1.0 for s in "abc"}, 30, 0.4)

    @given(
        n_sources=st.integers(1, 6),
        total=st.integers(6, 200),
        floor=st.sampled_from([0.0, 0.05, 0.1]),
        seed=st.integers(0, 10**6),
    )
    def test_counts_sum_exactly_and_respect_floor(self, n_sources, total, floor, seed):
        if floor * n_sources >= 1.0 or (floor > 0 and total < n_sources):
            return
        names = [f"s{i}" for i in range(n_sources)]
        rng = np.random.default_rng(seed)
        degradation = {n: float(rng.normal()) for n in names}
        counts = allocate_subset(names, degradation, total, floor)
        assert sum(counts.values()) == total
        assert all(c >= math.floor(floor * total) for c in counts.values())


class TestBuildSubset:
    def test_histogram_matches_allocation_exactly(self):
        corpus = constant_corpus({"a": 80, "b": 80, "c": 80})
        degradation = {"a": 3.0, "b": 1.0, "c": 0.0}
        subset, allocations = build_subset(corpus, degradation, 60, 0.1, np.random.default_rng(0))
        histogram = {
            name: int(np.sum(subset[:, 0] == i + 1))
            for i, name in enumerate(sorted(corpus.source_names))
        }
        assert histogram == allocations
        assert len(subset) == 60

    def test_reproducible_for_same_seed_and_degradations(self):
        corpus = constant_corpus({"a": 40, "b": 40})
        degradation = {"a": 1.0, "b": 0.5}
        s1, a1 = build_subset(corpus, degradation, 30, 0.1, np.random.default_rng(7))
        s2, a2 = build_subset(corpus, degradation, 30, 0.1, np.random.default_rng(7))
        assert a1 == a2 and np.array_equal(s1, s2)

    def test_sampling_without_replacement(self):
        corpus = SourceTaggedCorpus(
            "t",
            {
                "a": SourcePool(
                    "a",
                    np.arange(20 * 6, dtype=np.int64).reshape(20, 6) % 64,
                    np.zeros((2, 6), dtype=np.int64),
                )
            },
        )
        subset, _ = build_subset(corpus, {"a": 1.0}, 20, 0.0, np.random.default_rng(1))
        assert len({tuple(r) for r in subset}) == 20

    def test_overdrawn_source_rejected(self):
        corpus = constant_corpus({"a": 5, "b": 80})
        with pytest.raises(ConfigError, match="training sequences") as err:
            build_subset(corpus, {"a": 9.0, "b": 0.0}, 40, 0.0, np.random.default_rng(2))
        assert "config.recovery.subset_size" in str(err.value)
        assert "config.data.train_sequences_per_source" in str(err.value)


class TestDegradation:
    def test_identical_models_have_zero_degradation(self, toy_model, toy_corpus):
        full_scores = per_source_perplexity(toy_model, toy_corpus)
        deg = measure_degradation(source_losses(toy_model.clone(), toy_corpus), full_scores)
        assert all(v == 0.0 for v in deg.values())

    def test_unseen_source_still_measured(self, trained_toy):
        # the model never trained on instruction data; degradation is still a
        # finite number for every source, never skipped
        model, _ = trained_toy
        instruct = generate_corpus("instruct", ("qa_copy", "qa_lookup"), 8, 4, 48, 64,
                                   np.random.default_rng(5))
        full_scores = per_source_perplexity(model, instruct)
        worse = model.clone()
        worse.parameters()["head.weight"].data *= 0.5
        deg = measure_degradation(source_losses(worse, instruct), full_scores)
        assert sorted(deg) == ["qa_copy", "qa_lookup"]
        assert all(np.isfinite(v) for v in deg.values())

    def test_empty_validation_split_rejected(self, toy_model):
        corpus = SourceTaggedCorpus(
            "t", {"a": SourcePool("a", np.zeros((3, 6), dtype=np.int64), np.zeros((0, 6), dtype=np.int64))}
        )
        with pytest.raises(ConfigError, match="source 'a' has an empty validation split"):
            source_losses(toy_model, corpus)


class TestTracker:
    def test_patience_one_infinite_tol_stops_after_one_round(self):
        tracker = ConvergenceTracker(tol=math.inf, patience=1)
        assert tracker.update(1.0) is True

    def test_running_best_is_non_increasing(self):
        tracker = ConvergenceTracker(tol=1e-3, patience=3)
        bests = []
        for v in [5.0, 4.0, 4.5, 3.9, 4.2, 4.3]:
            tracker.update(v)
            bests.append(tracker.best)
        assert bests == sorted(bests, reverse=True)

    def test_patience_counts_consecutive_stale_rounds(self):
        tracker = ConvergenceTracker(tol=0.0, patience=2)
        assert tracker.update(2.0) is False
        assert tracker.update(2.5) is False
        assert tracker.update(1.0) is False  # improvement resets the counter
        assert tracker.update(1.5) is False
        assert tracker.update(1.4) is True


class TestRecoveryRound:
    def test_nan_poisoned_lora_factor_raises_numeric_error(self, trained_toy):
        model, corpus = trained_toy
        model.blocks[1].down.lora_b.data[:] = np.nan
        config = RecoverySection(subset_size=8, source_floor=0.0, round_steps=3, learning_rate=0.1)
        with pytest.raises(NumericError):
            recovery_round(model, corpus.train_pool()[:8], config, np.random.default_rng(0))


class TestRunRecovery:
    def _setup(self, trained_toy, tmp_path):
        from lorashear.compress import apply_compression, plan_compression
        from lorashear.graph import build_trace_graph
        from lorashear.groups import discover_node_groups, partition_variables, zero_structure

        model, pre_corpus = trained_toy
        instruct = generate_corpus("instruct", ("qa_copy", "qa_lookup"), 48, 8, 48, 64,
                                   np.random.default_rng(11))
        graph = build_trace_graph(model)
        node_groups = discover_node_groups(graph)
        group_set = partition_variables(node_groups, model)
        compactee = model.clone()
        rng = np.random.default_rng(0)
        for gid in rng.choice(group_set.prunable_ids(), size=27, replace=False):
            zero_structure(compactee, group_set.by_id[gid])
            group_set.set_status(gid, "redundant")
        compact = apply_compression(compactee, plan_compression(group_set, compactee))
        corpora = {"pretraining": pre_corpus, "instruct": instruct}
        full_scores = {p: per_source_perplexity(model, c) for p, c in corpora.items()}
        return compact, corpora, full_scores

    def test_round_and_phase_protocol_from_log(self, trained_toy, tmp_path):
        compact, corpora, full_scores = self._setup(trained_toy, tmp_path)
        config = RecoverySection(
            subset_size=24, source_floor=0.05, round_steps=4, learning_rate=0.15,
            tol=math.inf, patience=1, max_rounds=4, batch_size=4,
        )
        log = tmp_path / "rec.jsonl"
        shapes_before = {n: t.data.shape for n, t in compact.parameters().items()}
        run_recovery(compact, corpora, full_scores, config, 3, log_path=log)
        events = [json.loads(line) for line in log.read_text().splitlines()]
        rounds = [e for e in events if e["event"] == "round"]
        # patience=1 with infinite tol: exactly one round per phase
        assert [r["phase"] for r in rounds] == ["pretraining", "instruct"]
        phases = [e["phase"] for e in events if e["event"] == "phase_end"]
        assert phases == ["pretraining", "instruct"]
        # no instruct round may precede pretraining convergence
        first_instruct = next(i for i, e in enumerate(events)
                              if e["event"] == "round" and e["phase"] == "instruct")
        pre_end = next(i for i, e in enumerate(events)
                       if e["event"] == "phase_end" and e["phase"] == "pretraining")
        assert pre_end < first_instruct
        # allocations in every round match the stated formula exactly
        for r in rounds:
            expected = allocate_subset(
                sorted(r["degradation"]), r["degradation"], config.subset_size, config.source_floor
            )
            assert r["allocations"] == expected
        assert {n: t.data.shape for n, t in compact.parameters().items()} == shapes_before
        # adaptor merged at phase end
        assert all(not np.any(t.data) for n, t in compact.parameters().items()
                   if n.endswith(".lora_B"))

    def test_recovery_improves_mean_validation_perplexity(self, trained_toy, tmp_path):
        compact, corpora, full_scores = self._setup(trained_toy, tmp_path)
        config = RecoverySection(
            subset_size=48, source_floor=0.05, round_steps=25, learning_rate=0.15,
            tol=1e-3, patience=2, max_rounds=4, batch_size=8,
        )
        summary = run_recovery(compact, corpora, full_scores, config, 4)
        assert summary.post_mean_ppl < summary.pre_mean_ppl

    def test_first_round_reuses_the_starting_scores(self, trained_toy, tmp_path, monkeypatch):
        import lorashear.recovery as recovery

        compact, corpora, full_scores = self._setup(trained_toy, tmp_path)
        start = compact.clone()
        config = RecoverySection(
            subset_size=24, source_floor=0.05, round_steps=2, learning_rate=0.15,
            tol=math.inf, patience=2, max_rounds=3, batch_size=4,
        )
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].name)
            return source_losses(*args, **kwargs)

        monkeypatch.setattr(recovery, "source_losses", counted)
        log = tmp_path / "rec.jsonl"
        run_recovery(compact, corpora, full_scores, config, 3, log_path=log)
        rounds = [e for e in map(json.loads, log.read_text().splitlines()) if e["event"] == "round"]
        # start and done score every phase, each later phase's start scores its merged
        # model, and each round scores the model it trained; nothing else scores
        assert len(calls) == 3 * len(corpora) - 1 + len(rounds)
        fresh = measure_degradation(source_losses(start, corpora["pretraining"]), full_scores["pretraining"])
        assert rounds[0]["phase"] == "pretraining"
        # bit for bit (JSON round-trips floats exactly)
        assert {k: v.hex() for k, v in rounds[0]["degradation"].items()} == {
            k: v.hex() for k, v in fresh.items()
        }
