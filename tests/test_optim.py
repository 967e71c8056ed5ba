"""AdamW and SGD pinned bitwise against their updates written out in numpy."""

import numpy as np
import pytest

from lorashear.optim import AdamW, Sgd
from lorashear.tensor import Tensor

STEPS = 3


def params_and_grads(seed: int):
    """Two trainable tensors, one that never gets a gradient, and 3 steps of gradients.

    Gradient magnitudes span 1e-10 to 1, so eps matters for the smallest entries.
    """
    rng = np.random.default_rng(seed)
    shapes = [(3, 4), (5,)]
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    frozen = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    grads = [
        [rng.standard_normal(s) * 10.0 ** rng.uniform(-10, 0, size=s) for s in shapes]
        for _ in range(STEPS)
    ]
    return params, frozen, grads


def run(opt, params, frozen, grads) -> None:
    for step_grads in grads:
        opt.zero_grad()
        for p, g in zip(params, step_grads):
            p.accumulate_grad(g)
        opt.step()


@pytest.mark.parametrize("seed", [0, 1])
def test_adamw_matches_its_update_in_numpy(seed):
    params, frozen, grads = params_and_grads(seed)
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    xs = [p.data.copy() for p in params]
    ms = [np.zeros_like(x) for x in xs]
    vs = [np.zeros_like(x) for x in xs]
    for t, step_grads in enumerate(grads, start=1):
        for i, g in enumerate(step_grads):
            ms[i] = b1 * ms[i] + (1 - b1) * g
            vs[i] = b2 * vs[i] + (1 - b2) * (g * g)
            m_hat = ms[i] / (1 - b1**t)
            v_hat = vs[i] / (1 - b2**t)
            xs[i] = xs[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    frozen_before = frozen.data.copy()

    opt = AdamW([*params, frozen], lr)
    run(opt, params, frozen, grads)

    assert opt.t == STEPS
    for p, x in zip(params, xs):
        assert np.array_equal(p.data, x)
    assert np.array_equal(frozen.data, frozen_before)


@pytest.mark.parametrize("seed", [0, 1])
def test_sgd_matches_its_update_in_numpy(seed):
    params, frozen, grads = params_and_grads(seed)
    lr = 0.3
    xs = [p.data.copy() for p in params]
    for step_grads in grads:
        xs = [x - lr * g for x, g in zip(xs, step_grads)]
    frozen_before = frozen.data.copy()

    run(Sgd([*params, frozen], lr), params, frozen, grads)

    for p, x in zip(params, xs):
        assert np.array_equal(p.data, x)
    assert np.array_equal(frozen.data, frozen_before)
