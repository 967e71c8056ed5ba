"""Plain SGD and AdamW over lists of tensors, and the one training step every
fine-tuning phase takes. Pretraining uses AdamW; the pruner and recovery use
SGD over the LoRA factors."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .model import LoraModel, next_token_loss
from .tensor import Tape, Tensor


class Sgd:
    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr

    def step(self) -> None:
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class AdamW:
    """Adam with betas (0.9, 0.999), eps 1e-8 and no weight decay."""

    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        b1, b2 = self.B1, self.B2
        self.t += 1
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad**2
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def lora_optimizer(model: LoraModel, lr: float) -> Sgd:
    """Make only the LoRA factors trainable and return SGD over them."""
    model.set_trainable("lora")
    return Sgd(list(model.lora_parameters().values()), lr)


def train_step(model: LoraModel, batch: np.ndarray, opt, *, where: str) -> float:
    """One optimizer step on the next-token loss of ``batch``; returns the loss.

    A non-finite loss raises NumericError naming ``where`` before any update.
    """
    opt.zero_grad()
    with Tape() as tape:
        loss = next_token_loss(model, batch)
    value = loss.item()
    if not math.isfinite(value):
        raise NumericError(f"{where}: divergent loss")
    tape.backward(loss)
    opt.step()
    return value
