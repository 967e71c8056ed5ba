"""Dense f64 tensors with reverse-mode automatic differentiation.

Just enough machinery to train and evaluate the toy transformer: row-major
contiguous float64 arrays, a recording tape, and backward rules for the
handful of ops the model needs. No views, no strides, no broadcasting beyond
what the ops below define internally.

Ops record onto the innermost active ``Tape`` only when the result requires
grad; evaluation without a tape is plain numpy and allocates nothing extra.
``Tape.backward`` consumes the tape: it pops each op before running its
backward rule, so the activations and intermediate gradients that only that
op's closure held are freed while the pass goes on, and a step never holds
all of them at once. An intermediate tensor the caller still references
keeps its ``.grad``.

Importing the module keeps freed tensor memory in the process. glibc's
malloc starts out giving every array above 128 KiB its own mmap and
trimming the heap top above 128 KiB, so each training step hands its
activations and gradients back to the kernel and the next step faults them
in again as fresh zero-filled pages. ``_keep_freed_memory`` raises the mmap
threshold to glibc's 32 MiB ceiling and the trim threshold to 1 GiB, so
freed arrays are reused from the heap. Measured at the toy shape (8x48
tokens), 20 train steps after a warm-up took 17-31k minor page faults under
the defaults and fewer than 40 with these settings, LoRA-only and
all-trainable alike; one toy run-all went from about 290k to 6k. Resident
memory therefore stays at the run's high-water mark. Where ``mallopt`` is
missing (other C libraries, macOS, Windows) or refuses a value, nothing
changes. No result depends on it.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, NumericError, ShapeError, TapeStateError

_RMSNORM_EPS = 1e-12

# (glibc mallopt parameter, value): M_MMAP_THRESHOLD (-3) at its 32 MiB
# ceiling, M_TRIM_THRESHOLD (-1) at 1 GiB; the codes are malloc.h's
_MALLOC_SETTINGS = ((-3, 32 << 20), (-1, 1 << 30))


def _keep_freed_memory() -> None:
    """Let glibc keep freed arrays in the heap for reuse (idempotent; see module doc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no process handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOC_SETTINGS:
        mallopt(param, value)  # returns 0 when refused; the default then stays


_keep_freed_memory()


class Tensor:
    """A contiguous row-major float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {g.shape} for tensor of shape {self.shape}")
        if self.grad is None:
            # bitwise equal to zeros + g (-0.0 becomes +0.0); a fresh C-ordered
            # buffer keeps later BLAS calls on the gradient summing in one order
            self.grad = np.add(g, 0.0, out=np.empty(self.data.shape))
        else:
            self.grad += g

    def copy(self) -> "Tensor":
        t = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        return t

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class TapeOp:
    """One recorded operation: identity bookkeeping plus its backward rule."""

    name: str
    input_ids: tuple[int, ...]
    output_id: int
    backward: Callable[[], None]


@dataclass
class Tape:
    """Ordered record of operations, consumed in reverse for gradients.

    Ops append in execution order, so every op's inputs were recorded (or
    existed as leaves) before it; reverse iteration is a valid topological
    ordering for backpropagation.
    """

    ops: list[TapeOp] = field(default_factory=list)

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPES.pop()

    def record(self, op: TapeOp) -> None:
        self.ops.append(op)

    def backward(self, loss: Tensor) -> None:
        """Accumulate gradients of ``loss`` into every reachable tensor.

        Gradients add across fan-out; the caller clears them between steps.
        The tape is consumed: each op is popped before its backward runs, so
        whatever only its closure referenced (its activations, and its
        output with that output's gradient) is freed as the pass goes on.
        Intermediates the caller still holds keep their gradients. The tape
        is empty afterwards, and a second call raises.
        """
        if not self.ops:
            raise TapeStateError("backward on an empty tape (never recorded, or already consumed)")
        if loss.data.size != 1:
            raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
        if not loss.requires_grad:
            raise TapeStateError("loss does not require grad; nothing to differentiate")
        loss.accumulate_grad(np.ones_like(loss.data))
        ops = self.ops
        while ops:
            ops.pop().backward()


_TAPES: list[Tape] = []  # entered tapes, innermost last


def active_tape() -> Optional[Tape]:
    return _TAPES[-1] if _TAPES else None


def _check_finite(op: str, *tensors: Tensor) -> None:
    for t in tensors:
        if not np.isfinite(t.data).all():
            raise NumericError(f"{op}: non-finite values in input")


def _record(name: str, inputs: Sequence[Tensor], out: Tensor, backward: Callable[[], None]) -> Tensor:
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(TapeOp(name, tuple(id(t) for t in inputs), id(out), backward))
    return out


def _needs(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    _check_finite("add", a, b)
    out = Tensor(a.data + b.data, requires_grad=_needs(a, b))

    def backward():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)

    return _record("add", (a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    _check_finite("mul", a, b)
    out = Tensor(a.data * b.data, requires_grad=_needs(a, b))

    def backward():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return _record("mul", (a, b), out, backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant (never differentiated w.r.t. c)."""
    _check_finite("scale", a)
    c = float(c)
    out = Tensor(a.data * c, requires_grad=a.requires_grad)

    def backward():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _record("scale", (a,), out, backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked (batched) operands must share leading dims."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    _check_finite("matmul", a, b)
    out = Tensor(a.data @ b.data, requires_grad=_needs(a, b))

    def backward():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            b.accumulate_grad(a.data.swapaxes(-1, -2) @ g)

    return _record("matmul", (a, b), out, backward)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """y = x @ w.T for x of shape (..., in) and weight of shape (out, in)."""
    if w.data.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-D, got {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} incompatible with weight {w.shape}")
    _check_finite("linear", x, w)
    out = Tensor(x.data @ w.data.T, requires_grad=_needs(x, w))

    def backward():
        g = out.grad
        if g is None:
            return
        if x.requires_grad:
            x.accumulate_grad(g @ w.data)
        if w.requires_grad:
            g2 = g.reshape(-1, w.shape[0])
            x2 = x.data.reshape(-1, w.shape[1])
            w.accumulate_grad(g2.T @ x2)

    return _record("linear", (x, w), out, backward)


def lora_linear(x: Tensor, w: Tensor, a: Tensor, b: Tensor, gamma: float) -> Tensor:
    """y = x @ w.T + (x @ a.T @ b.T) * gamma: a host weight plus a low-rank adaptor.

    One tape op with the arithmetic, and the order of gradient accumulation
    into ``x``, of ``add(linear(x, w), scale(linear(linear(x, a), b), gamma))``.
    When no operand requires grad it computes ``x @ (w + gamma * (b @ a)).T``
    instead, the merged weight of ``LoraLinear.merge_lora``: one matmul, and
    merging leaves the result bitwise unchanged.
    """
    if w.data.ndim != 2 or a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"lora_linear: weights must be 2-D, got {w.shape}, {a.shape}, {b.shape}")
    if x.shape[-1] != w.shape[1] or a.shape[1] != w.shape[1] or b.shape != (w.shape[0], a.shape[0]):
        raise ShapeError(
            f"lora_linear: input {x.shape} incompatible with weight {w.shape}, "
            f"A {a.shape} and B {b.shape}"
        )
    _check_finite("lora_linear", x, w, a, b)
    gamma = float(gamma)
    if not _needs(x, w, a, b):
        # no-grad read: fold the adaptor into the host exactly as
        # LoraLinear.merge_lora does, then one matmul; never cached, since
        # callers mutate weights in place between reads
        return Tensor(x.data @ (w.data + gamma * (b.data @ a.data)).T)
    low = x.data @ a.data.T
    out = Tensor(x.data @ w.data.T + (low @ b.data.T) * gamma, requires_grad=True)

    def backward():
        g = out.grad
        if g is None:
            return
        x2 = x.data.reshape(-1, w.shape[1])
        g_low_out = g * gamma
        if b.requires_grad:
            b.accumulate_grad(g_low_out.reshape(-1, b.shape[0]).T @ low.reshape(-1, b.shape[1]))
        if x.requires_grad or a.requires_grad:
            g_low = g_low_out @ b.data
            if x.requires_grad:
                x.accumulate_grad(g_low @ a.data)
            if a.requires_grad:
                a.accumulate_grad(g_low.reshape(-1, a.shape[0]).T @ x2)
        if x.requires_grad:
            x.accumulate_grad(g @ w.data)
        if w.requires_grad:
            w.accumulate_grad(g.reshape(-1, w.shape[0]).T @ x2)

    return _record("lora_linear", (x, w, a, b), out, backward)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather from an (entries, dim) table; backward scatter-adds."""
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise InputError("embedding_lookup: ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise InputError(
            f"embedding_lookup: id out of range for table with {table.shape[0]} entries"
        )
    _check_finite("embedding_lookup", table)
    out = Tensor(table.data[ids], requires_grad=table.requires_grad)

    def backward():
        g = out.grad
        if g is None:
            return
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, table.shape[1]))

    return _record("embedding_lookup", (table,), out, backward)


def rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    """x / rms(x) * gain over the last axis, rms = sqrt(mean(x^2) + eps)."""
    if gain.data.ndim != 1 or gain.shape[0] != x.shape[-1]:
        raise ShapeError(f"rmsnorm: gain {gain.shape} does not match input {x.shape}")
    _check_finite("rmsnorm", x, gain)
    dim = x.shape[-1]
    mean_sq = np.mean(x.data**2, axis=-1, keepdims=True)
    inv_rms = 1.0 / np.sqrt(mean_sq + _RMSNORM_EPS)
    normed = x.data * inv_rms
    out = Tensor(normed * gain.data, requires_grad=_needs(x, gain))

    def backward():
        g = out.grad
        if g is None:
            return
        if x.requires_grad:
            gg = g * gain.data
            inner = np.sum(gg * x.data, axis=-1, keepdims=True)
            x.accumulate_grad(gg * inv_rms - x.data * inner * inv_rms**3 / dim)
        if gain.requires_grad:
            gain.accumulate_grad(np.sum(g * normed, axis=tuple(range(g.ndim - 1))))

    return _record("rmsnorm", (x, gain), out, backward)


@functools.lru_cache(maxsize=8)
def _causal_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, n) masks of the kept positions j <= i and the masked j > i."""
    keep = np.tri(n, dtype=bool)
    masked = ~keep
    keep.flags.writeable = False
    masked.flags.writeable = False
    return keep, masked


def softmax(x: Tensor, causal: bool = False) -> Tensor:
    """Softmax over the last axis; ``causal`` masks j > i over the last two axes.

    Masked positions are never read: the row maximum, the shift and the exp
    see only the kept entries, and the masked ones are then set to exactly
    +0.0. That is bitwise the result of exponentiating -inf there, but exp
    never takes its slow path for infinities, and no masked value can
    overflow.
    """
    _check_finite("softmax", x)
    probs = np.empty_like(x.data)
    if causal:
        if x.data.ndim < 2 or x.shape[-1] != x.shape[-2]:
            raise ShapeError(f"softmax: causal mask needs square last axes, got {x.shape}")
        keep, masked = _causal_masks(x.shape[-1])
        row_max = np.maximum.reduce(x.data, axis=-1, keepdims=True, where=keep, initial=-np.inf)
        np.subtract(x.data, row_max, out=probs, where=keep)
        np.exp(probs, out=probs, where=keep)
        np.copyto(probs, 0.0, where=masked)
    else:
        np.subtract(x.data, x.data.max(axis=-1, keepdims=True), out=probs)
        np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = Tensor(probs, requires_grad=x.requires_grad)

    def backward():
        g = out.grad
        if g is None:
            return
        if x.requires_grad:
            inner = np.sum(g * probs, axis=-1, keepdims=True)
            x.accumulate_grad(probs * (g - inner))

    return _record("softmax", (x,), out, backward)


def silu(x: Tensor) -> Tensor:
    _check_finite("silu", x)
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(x.data * sig, requires_grad=x.requires_grad)

    def backward():
        g = out.grad
        if g is None:
            return
        if x.requires_grad:
            x.accumulate_grad(g * sig * (1.0 + x.data * (1.0 - sig)))

    return _record("silu", (x,), out, backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = Tensor(x.data.reshape(shape), requires_grad=x.requires_grad)

    def backward():
        g = out.grad
        if g is None:
            return
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.shape))

    return _record("reshape", (x,), out, backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {x.shape}")
    out = Tensor(x.data.transpose(axes), requires_grad=x.requires_grad)
    inverse = tuple(np.argsort(axes))

    def backward():
        g = out.grad
        if g is None:
            return
        if x.requires_grad:
            x.accumulate_grad(g.transpose(inverse))

    return _record("transpose", (x,), out, backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross entropy; logits (..., V), integer targets (...)."""
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"cross_entropy: targets {targets.shape} do not match logits {logits.shape}"
        )
    vocab = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise InputError(f"cross_entropy: target id out of range for vocab {vocab}")
    _check_finite("cross_entropy", logits)
    m = logits.data.max(axis=-1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(logits.data - m), axis=-1, keepdims=True))
    picked = np.take_along_axis(logits.data, targets[..., None], axis=-1)
    nll = lse - picked
    count = max(targets.size, 1)
    out = Tensor(nll.sum() / count, requires_grad=logits.requires_grad)

    def backward():
        g = out.grad
        if g is None:
            return
        if logits.requires_grad:
            probs = np.exp(logits.data - lse)
            onehot = np.zeros_like(probs)
            np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
            logits.accumulate_grad((probs - onehot) * (float(g.reshape(())) / count))

    return _record("cross_entropy", (logits,), out, backward)
