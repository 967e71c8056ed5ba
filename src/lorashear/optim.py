"""Plain SGD and AdamW over lists of tensors, an optional cosine schedule, and
the one training step every fine-tuning phase takes."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .model import LoraModel, next_token_loss
from .tensor import Tape, Tensor


def _cosine(base_lr: float, step: int, total_steps: int) -> float:
    if total_steps <= 1:
        return base_lr
    frac = min(step, total_steps - 1) / (total_steps - 1)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


# learning-rate schedules by config name
LR_SCHEDULES = {"constant": lambda base_lr, step, total_steps: base_lr, "cosine": _cosine}


def lr_at(base_lr: float, schedule: str, step: int, total_steps: int) -> float:
    return LR_SCHEDULES[schedule](base_lr, step, total_steps)


class Sgd:
    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        for p in self.params:
            if p.grad is not None:
                p.data -= lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class AdamW:
    def __init__(
        self,
        params: list[Tensor],
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        b1, b2 = self.betas
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
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


# optimizers by config name
OPTIMIZERS = {"sgd": Sgd, "adamw": AdamW}


def make_optimizer(name: str, params: list[Tensor], lr: float):
    return OPTIMIZERS[name](params, lr)


def lora_optimizer(model: LoraModel, name: str, lr: float):
    """Make only the LoRA factors trainable and return an optimizer over them."""
    model.set_trainable("lora")
    return make_optimizer(name, list(model.lora_parameters().values()), lr)


def train_step(
    model: LoraModel, batch: np.ndarray, opt, lr: float | None = None, *, where: str
) -> float:
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
    opt.step(lr)
    return value
