import math

import numpy as np
import pytest

from lorashear.artifacts import read_json
from lorashear.data import (
    INSTRUCT_KINDS,
    PRETRAIN_KINDS,
    SourcePool,
    SourceTaggedCorpus,
    _gen_brackets,
    _gen_markov,
    corpora_from_json,
    generate_corpus,
    save_corpora,
)
from lorashear.errors import ConfigError, FormatError
from lorashear.evaluate import (
    mean_cross_entropy,
    per_source_perplexity,
    perplexity,
    pooled_loss,
    source_losses,
)
from lorashear.model import next_token_loss


def markov_per_token(rng, length, vocab):
    """Reference Markov source: one ``rng.choice`` per transition."""
    states = np.arange(1, min(vocab, 40))
    n = len(states)
    nexts = np.stack([rng.permutation(n)[:4] for _ in range(n)])
    probs = np.array([0.55, 0.25, 0.15, 0.05])
    out = np.empty(length, dtype=np.int64)
    s = int(rng.integers(0, n))
    for i in range(length):
        out[i] = states[s]
        s = int(nexts[s][rng.choice(4, p=probs)])
    return out


def brackets_with_choice(rng, length, vocab):
    """Reference bracket source: each filler drawn by ``rng.choice``."""
    pairs = [(2, 3), (4, 5), (6, 7)]
    fillers = np.arange(8, 16)
    out = []
    stack: list[int] = []
    while len(out) < length:
        r = rng.random()
        if stack and (r < 0.35 or len(stack) > 4):
            out.append(stack.pop())
        elif r < 0.7:
            o, c = pairs[int(rng.integers(0, len(pairs)))]
            out.append(o)
            stack.append(c)
        else:
            out.append(int(rng.choice(fillers)))
    return np.array(out[:length], dtype=np.int64)


class TestGeneration:
    @pytest.mark.parametrize("length", [1, 2, 49, 97])
    @pytest.mark.parametrize("vocab", [16, 64])
    def test_markov_equals_per_token_reference(self, length, vocab):
        for seed in range(50):
            fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _gen_markov(fast, length, vocab)
            want = markov_per_token(ref, length, vocab)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert fast.random() == ref.random()  # the generator is left in the same state

    @pytest.mark.parametrize("length", [1, 49, 97])
    def test_brackets_equal_choice_reference(self, length):
        for seed in range(200):
            fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _gen_brackets(fast, length, 64)
            want = brackets_with_choice(ref, length, 64)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert fast.random() == ref.random()  # the generator is left in the same state

    def test_deterministic_given_rng_seed(self):
        a = generate_corpus("p", PRETRAIN_KINDS, 8, 2, 20, 64, np.random.default_rng(5))
        b = generate_corpus("p", PRETRAIN_KINDS, 8, 2, 20, 64, np.random.default_rng(5))
        for name in a.source_names:
            assert np.array_equal(a.sources[name].train, b.sources[name].train)
            assert np.array_equal(a.sources[name].val, b.sources[name].val)

    def test_every_sequence_tagged_by_exactly_one_source(self):
        corpus = generate_corpus("p", PRETRAIN_KINDS, 6, 2, 16, 64, np.random.default_rng(1))
        assert corpus.source_names == sorted(PRETRAIN_KINDS)
        for name in corpus.source_names:
            pool = corpus.sources[name]
            assert pool.train.shape == (6, 17)
            assert pool.val.shape == (2, 17)
            assert pool.train.min() >= 0 and pool.train.max() < 64

    def test_validation_split_disjoint_from_training(self):
        corpus = generate_corpus("p", ("markov",), 10, 4, 24, 64, np.random.default_rng(2))
        train = {tuple(s) for s in corpus.sources["markov"].train}
        val = {tuple(s) for s in corpus.sources["markov"].val}
        assert not train & val

    def test_instruct_sources_have_prompt_structure(self):
        corpus = generate_corpus("i", INSTRUCT_KINDS, 4, 1, 30, 64, np.random.default_rng(3))
        seq = corpus.sources["qa_copy"].train[0]
        assert 40 in seq and 41 in seq  # prompt and answer markers

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown corpus source"):
            generate_corpus("p", ("nope",), 2, 1, 8, 64, np.random.default_rng(0))

    def test_empty_kinds_rejected(self):
        with pytest.raises(ConfigError, match="no sources"):
            generate_corpus("p", (), 2, 1, 8, 64, np.random.default_rng(0))

    def test_json_round_trip(self, tmp_path):
        corpus = generate_corpus("pretraining", ("markov", "copy"), 4, 2, 12, 64,
                                 np.random.default_rng(4))
        path = tmp_path / "corpus.json"
        save_corpora({"pretraining": corpus}, 12, path, {"stage": "gen-data"})
        payload = read_json(path, FormatError)
        loaded = corpora_from_json(payload, 64, {"pretraining": ("markov", "copy")})
        assert payload["stage"] == "gen-data"
        for name in corpus.source_names:
            assert np.array_equal(loaded["pretraining"].sources[name].train,
                                  corpus.sources[name].train)

    @pytest.mark.parametrize("row", [[1.5, 2.9, True], [1, 2, True], [1, 2.0, 3], [1, "2", 3]])
    def test_token_ids_that_are_not_json_integers_are_rejected(self, row):
        payload = {"schema_version": 1, "corpora": {"pretraining": {"markov": {"train": [row], "val": []}}}}
        with pytest.raises(FormatError, match="token ids must be JSON integers"):
            corpora_from_json(payload, 64, {"pretraining": ("markov",)})

    def test_sample_batch_reproducible(self):
        corpus = generate_corpus("p", ("markov", "runs"), 8, 2, 16, 64, np.random.default_rng(6))
        a = corpus.sample_batch(np.random.default_rng(9), 4)
        b = corpus.sample_batch(np.random.default_rng(9), 4)
        assert np.array_equal(a, b)


class TestEvaluate:
    def test_uniform_logits_give_vocab_perplexity(self, toy_model, toy_corpus):
        # zeroing the head makes every logit zero, so ppl is exactly the vocab size
        toy_model.parameters()["head.weight"].data[:] = 0.0
        ppl = perplexity(toy_model, toy_corpus.val_pool())
        assert ppl == pytest.approx(64.0, rel=1e-12)

    def test_mean_ce_matches_single_batch_oracle(self, toy_model, toy_corpus):
        seqs = toy_corpus.sources["markov"].val[:5]
        expected = next_token_loss(toy_model, seqs).item()
        assert mean_cross_entropy(toy_model, seqs) == pytest.approx(expected, rel=1e-12)

    def test_chunked_evaluation_equals_weighted_mean(self, toy_model, toy_corpus):
        pool = toy_corpus.val_pool()
        whole = mean_cross_entropy(toy_model, pool)
        manual = np.mean([next_token_loss(toy_model, pool[i:i + 1]).item() for i in range(len(pool))])
        assert whole == pytest.approx(manual, rel=1e-10)

    def test_pooled_loss_equals_scoring_the_pooled_split(self, trained_toy):
        # splits of unequal length, so the token weighting matters
        model, trained = trained_toy
        corpus = SourceTaggedCorpus("uneven", {
            name: SourcePool(name, src.train, src.train[:n])
            for (name, src), n in zip(sorted(trained.sources.items()), (3, 9, 26, 40))
        })
        pooled = pooled_loss(source_losses(model, corpus), corpus)
        assert pooled == pytest.approx(mean_cross_entropy(model, corpus.val_pool()), rel=1e-12, abs=0)

    def test_per_source_perplexity_is_exp_of_source_losses(self, toy_model, toy_corpus):
        losses = source_losses(toy_model, toy_corpus)
        assert per_source_perplexity(toy_model, toy_corpus) == {n: math.exp(v) for n, v in losses.items()}

    def test_per_source_keys_and_determinism(self, toy_model, toy_corpus):
        a = per_source_perplexity(toy_model, toy_corpus)
        b = per_source_perplexity(toy_model, toy_corpus)
        assert sorted(a) == toy_corpus.source_names
        assert a == b

    def test_empty_eval_rejected(self, toy_model):
        with pytest.raises(ConfigError, match="empty"):
            mean_cross_entropy(toy_model, np.empty((0, 10), dtype=int))

    def test_perplexity_is_exp_of_mean_ce(self, toy_model, toy_corpus):
        seqs = toy_corpus.sources["runs"].val
        assert perplexity(toy_model, seqs) == pytest.approx(
            math.exp(mean_cross_entropy(toy_model, seqs)), rel=1e-14
        )
