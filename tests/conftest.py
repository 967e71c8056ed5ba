import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from lorashear.data import generate_corpus
from lorashear.model import ModelConfig, build_model

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=25
)
settings.load_profile("default")


TOY = dict(vocab_size=64, dim=32, n_layers=2, n_heads=4, mlp_dim=64, lora_rank=4,
           lora_gamma=2.0, block_size=48)
TINY = dict(vocab_size=16, dim=8, n_layers=1, n_heads=2, mlp_dim=8, lora_rank=2,
            lora_gamma=2.0, block_size=16)


@pytest.fixture
def toy_config():
    return ModelConfig(seed=3, **TOY)


@pytest.fixture
def toy_model(toy_config):
    return build_model(toy_config)


@pytest.fixture
def tiny_config():
    return ModelConfig(seed=5, **TINY)


@pytest.fixture
def tiny_model(tiny_config):
    return build_model(tiny_config)


@pytest.fixture
def toy_corpus():
    rng = np.random.default_rng(123)
    return generate_corpus(
        "pretraining", ("markov", "brackets", "copy", "runs"),
        n_train=48, n_val=8, seq_len=48, vocab=64, rng=rng,
    )


@pytest.fixture
def tiny_corpus():
    rng = np.random.default_rng(77)
    return generate_corpus("pretraining", ("markov", "runs"), n_train=24, n_val=6,
                           seq_len=16, vocab=16, rng=rng)


@pytest.fixture(scope="session")
def _trained_toy_state():
    """One short pretraining run shared by the whole session (clone to use)."""
    from lorashear.model import next_token_loss
    from lorashear.optim import AdamW
    from lorashear.tensor import Tape

    rng = np.random.default_rng(123)
    corpus = generate_corpus(
        "pretraining", ("markov", "brackets", "copy", "runs"),
        n_train=48, n_val=8, seq_len=48, vocab=64, rng=rng,
    )
    model = build_model(ModelConfig(seed=3, **TOY))
    model.set_trainable("all")
    opt = AdamW(list(model.parameters().values()), 3e-3)
    for _ in range(150):
        opt.zero_grad()
        with Tape() as tape:
            loss = next_token_loss(model, corpus.sample_batch(rng, 8))
        tape.backward(loss)
        opt.step()
    model.set_trainable("none")
    return model, corpus


@pytest.fixture
def trained_toy(_trained_toy_state):
    model, corpus = _trained_toy_state
    return model.clone(), corpus


def central_difference(fn, arrays: dict[str, np.ndarray], h: float = 1e-5) -> dict[str, np.ndarray]:
    """Independent gradient oracle: central finite differences per coordinate."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = fn(arrays)
            flat[i] = orig - h
            down = fn(arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
