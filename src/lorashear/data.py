"""Procedurally generated source-tagged corpora.

Stand-ins for web-scale pretraining and instruction data: several distinct
character-level languages (differing Markov structure, bracket grammar,
copy patterns, ascending runs) plus two prompt/answer-shaped instruction
sources. Per-source validation splits are disjoint from training, which is
what makes per-source degradation measurement meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .artifacts import write_json
from .errors import ConfigError, FormatError

PRETRAIN_KINDS = ("markov", "brackets", "copy", "runs")
INSTRUCT_KINDS = ("qa_copy", "qa_lookup")

_Q, _A, _EOS = 40, 41, 42


@dataclass
class SourcePool:
    name: str
    train: np.ndarray  # (n, seq_len + 1) int64
    val: np.ndarray


@dataclass
class SourceTaggedCorpus:
    name: str
    sources: dict[str, SourcePool]

    @property
    def source_names(self) -> list[str]:
        return sorted(self.sources)

    def train_pool(self) -> np.ndarray:
        return np.concatenate([self.sources[n].train for n in self.source_names])

    def val_pool(self) -> np.ndarray:
        return np.concatenate([self.sources[n].val for n in self.source_names])

    def sample_batch(self, rng: np.random.Generator, batch_size: int) -> np.ndarray:
        pool = self.train_pool()
        idx = rng.integers(0, len(pool), size=batch_size)
        return pool[idx]


def _gen_markov(rng: np.random.Generator, length: int, vocab: int) -> np.ndarray:
    states = np.arange(1, min(vocab, 40))
    n = len(states)
    nexts = np.stack([rng.permutation(n)[:4] for _ in range(n)])
    # rng.choice(4, p=probs) draws one rng.random() per pick and searches the
    # normalised CDF; drawing all of them at once gives the same picks
    cdf = np.array([0.55, 0.25, 0.15, 0.05]).cumsum()
    cdf /= cdf[-1]
    s = int(rng.integers(0, n))
    picks = cdf.searchsorted(rng.random(length), side="right")
    table = nexts.tolist()
    walk = np.empty(length, dtype=np.int64)
    for i, pick in enumerate(picks.tolist()):
        walk[i] = s
        s = table[s][pick]
    return states[walk]


def _gen_brackets(rng: np.random.Generator, length: int, vocab: int) -> np.ndarray:
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
            # the draw rng.choice(fillers) makes, without its argument checks
            out.append(int(fillers[rng.integers(0, len(fillers))]))
    return np.array(out[:length], dtype=np.int64)


def _gen_copy(rng: np.random.Generator, length: int, vocab: int) -> np.ndarray:
    sep = 32
    out: list[int] = []
    while len(out) < length:
        motif = rng.integers(16, 32, size=int(rng.integers(4, 9))).tolist()
        reps = int(rng.integers(3, 6))
        for _ in range(reps):
            out.extend(motif)
            out.append(sep)
    return np.array(out[:length], dtype=np.int64)


def _gen_runs(rng: np.random.Generator, length: int, vocab: int) -> np.ndarray:
    sep = 33
    out: list[int] = []
    while len(out) < length:
        start = int(rng.integers(1, vocab - 9))
        for j in range(int(rng.integers(3, 9))):
            out.append(start + j)
        out.append(sep)
    return np.array(out[:length], dtype=np.int64)


def _gen_qa_copy(rng: np.random.Generator, length: int, vocab: int) -> np.ndarray:
    out: list[int] = []
    while len(out) < length:
        prompt = rng.integers(1, 17, size=6).tolist()
        out.extend([_Q] + prompt + [_A] + prompt + [_EOS])
    return np.array(out[:length], dtype=np.int64)


def _gen_qa_lookup(rng: np.random.Generator, length: int, vocab: int, table: np.ndarray) -> np.ndarray:
    out: list[int] = []
    while len(out) < length:
        key = int(rng.integers(0, len(table)))
        out.extend([_Q, key + 1, _A] + table[key].tolist() + [_EOS])
    return np.array(out[:length], dtype=np.int64)


# sequence generators by source kind; qa_lookup also takes its source's key table
GENERATORS = {
    "markov": _gen_markov,
    "brackets": _gen_brackets,
    "copy": _gen_copy,
    "runs": _gen_runs,
    "qa_copy": _gen_qa_copy,
    "qa_lookup": _gen_qa_lookup,
}


def generate_source(
    kind: str, n_sequences: int, seq_len: int, vocab: int, rng: np.random.Generator
) -> np.ndarray:
    if kind not in GENERATORS:
        raise ConfigError(f"unknown corpus source kind {kind!r}")
    gen = GENERATORS[kind]
    if kind == "qa_lookup":
        gen = partial(gen, table=rng.integers(20, 37, size=(12, 3)))
    return np.stack([gen(rng, seq_len + 1, vocab) for _ in range(n_sequences)])


def generate_corpus(
    name: str,
    kinds: tuple[str, ...],
    n_train: int,
    n_val: int,
    seq_len: int,
    vocab: int,
    rng: np.random.Generator,
) -> SourceTaggedCorpus:
    if not kinds:
        raise ConfigError(f"corpus {name!r} has no sources")
    sources = {}
    for kind in kinds:
        seqs = generate_source(kind, n_train + n_val, seq_len, vocab, rng)
        sources[kind] = SourcePool(kind, train=seqs[:n_train], val=seqs[n_train:])
    return SourceTaggedCorpus(name=name, sources=sources)


def corpora_to_json(corpora: dict[str, SourceTaggedCorpus], seq_len: int, extra: dict) -> dict:
    return {
        "schema_version": 1,
        "seq_len": seq_len,
        "corpora": {
            name: {
                src: {
                    "train": corpus.sources[src].train.tolist(),
                    "val": corpus.sources[src].val.tolist(),
                }
                for src in corpus.source_names
            }
            for name, corpus in sorted(corpora.items())
        },
        **extra,
    }


def save_corpora(corpora: dict[str, SourceTaggedCorpus], seq_len: int, path, extra: dict) -> None:
    # unindented: the integer matrices are most of the bytes
    write_json(path, corpora_to_json(corpora, seq_len, extra), indent=None)


def corpora_from_json(
    payload: dict, vocab_size: int, expected: dict[str, tuple[str, ...]]
) -> dict[str, SourceTaggedCorpus]:
    """Corpora of a ``corpus.json`` payload; FormatError for any other schema,
    for a token id that is not a JSON integer (``true`` included), for one
    outside ``[0, vocab_size)``, for a split that is not a non-empty matrix
    of the payload's ``seq_len + 1`` ids per row, and unless the corpus names
    and each corpus's source names are exactly those of ``expected``."""
    if payload.get("schema_version") != 1:
        raise FormatError("unsupported corpus schema")

    def ids(rows, where: str) -> np.ndarray:
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            raise ValueError("token ids must be JSON integers")
        out = np.asarray(rows, dtype=np.int64)
        if out.size and (out.min() < 0 or out.max() >= vocab_size):
            raise ValueError(f"token id outside [0, {vocab_size})")
        if out.ndim != 2 or not len(out) or out.shape[1] != payload["seq_len"] + 1:
            raise ValueError(f"{where} of shape {out.shape} is not a non-empty matrix of seq_len + 1 ids")
        return out

    try:
        corpora = {}
        for name, sources in payload["corpora"].items():
            pools = {
                src: SourcePool(src, *(ids(d[split], f"{name}.{src}.{split}") for split in ("train", "val")))
                for src, d in sources.items()
            }
            corpora[name] = SourceTaggedCorpus(name=name, sources=pools)
        found = {name: corpus.source_names for name, corpus in corpora.items()}
        want = {name: sorted(kinds) for name, kinds in expected.items()}
        if found != want:
            raise ValueError(f"corpora and sources {found} are not the configuration's {want}")
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as e:
        raise FormatError(f"corpus schema violated: {type(e).__name__}: {e}") from e
    return corpora
