"""Dense f64 tensors with reverse-mode automatic differentiation.

Just enough machinery to train and evaluate the toy transformer: row-major
contiguous float64 arrays, a recording tape, and backward rules for the
handful of ops the model needs. No views, no strides, no broadcasting beyond
what the ops below define internally. Two ops fuse what would otherwise be
several: ``lora_linear`` (a host weight plus its adaptor, folded into one
merged weight and one GEMM) and ``causal_attention`` (head split, query
scale, scores, causal softmax, value mixing and head merge, one tape op where
the separate ops recorded 13).

Ops record onto the innermost active ``Tape`` only when the result requires
grad; evaluation without a tape is plain numpy and allocates nothing extra.
Every op computes its result by one formula, so a forward gives the same bits
with or without a tape and whatever ``requires_grad`` says. The causal
softmax reads the masked scores too (a plain subtract and exp over whole
rows), but sets them to +0.0 before anything sums them: whatever a masked
entry holds changes no output bit.

A tensor's gradient lives in a small ``Grad`` cell of its own, and a recorded
backward closure may hold only two kinds of thing: the gradient cells of its
output and of the inputs that require grad, and the arrays its own rule
reads (``probs`` for softmax; ``probs``, the scaled queries ``sq``, the
transposed keys ``kt`` and the per-head values ``vh`` for causal attention;
``sig`` and ``x`` for silu; the input and ``x @ A.T`` for lora_linear;
never the scores, the merged weight or a projection's output). It
never holds a whole ``Tensor``, so add, scale, reshape, transpose and
embedding lookup pin no activation at all. Each ``TapeOp`` names its
operands and its result by those same cells, so a recorded forward is also
the model's operator graph (``graph.build_trace_graph``).
``Tape.backward`` consumes the tape: it pops each op before running its
backward rule, so what only that op's closure held is freed while the pass
goes on, and a step never holds all of it at once. An intermediate tensor
the caller still references keeps its ``.grad``.

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
import math
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


class Grad:
    """A tensor's gradient, kept apart from its data.

    Backward rules hold these cells, never whole tensors, so recording an op
    pins no activation its rule does not read. ``shape`` is the owner's data
    shape when the cell was last handed out; it is refreshed each time, so a
    parameter whose array is replaced (compression, loading) takes gradients
    of its new shape.
    """

    __slots__ = ("shape", "grad")

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        self.grad: Optional[np.ndarray] = None

    def accumulate(self, g: np.ndarray) -> None:
        if g.shape != self.shape:
            raise ShapeError(f"gradient of shape {g.shape} for tensor of shape {self.shape}")
        if self.grad is None:
            # bitwise equal to zeros + g (-0.0 becomes +0.0); a fresh C-ordered
            # buffer keeps later BLAS calls on the gradient summing in one order
            self.grad = np.add(g, 0.0, out=np.empty(self.shape))
        else:
            self.grad += g


class Tensor:
    """A contiguous row-major float64 array with an optional gradient cell.

    The cell is made on first need (a recorded op, ``accumulate_grad``), so
    tensors of a no-grad forward never get one.
    """

    __slots__ = ("data", "requires_grad", "_cell")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._cell: Optional[Grad] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self._cell is None else self._cell.grad

    def _grad_cell(self) -> Grad:
        """This tensor's gradient cell, made on first call, shaped like ``data`` now."""
        cell = self._cell
        if cell is None:
            cell = self._cell = Grad(self.data.shape)
        else:
            cell.shape = self.data.shape
        return cell

    def zero_grad(self) -> None:
        if self._cell is not None:
            self._cell.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        self._grad_cell().accumulate(g)

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
    """One recorded operation: its operands' gradient cells, its own, and its backward rule.

    ``inputs`` holds one ``Grad`` per operand, None for an operand that does
    not require grad; ``output`` is the result's cell. The cells are the
    ones the backward closure already keeps alive, so they identify a
    tensor for as long as the tape holds the op, where an ``id()`` of a
    tensor that died during the forward may be reused. ``attrs`` keeps the
    op's structural arguments (``n_heads`` for ``causal_attention``).
    """

    name: str
    inputs: tuple[Optional[Grad], ...]
    output: Grad
    backward: Callable[[], None]
    attrs: dict[str, int]


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
        whatever only its closure referenced (the arrays its rule reads,
        and its output's gradient cell) is freed as the pass goes on.
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


def _record(
    name: str, inputs: Sequence[Tensor], out: Tensor, rule: Callable[..., None], **attrs: int
) -> Tensor:
    """Put ``out``'s op on the innermost tape when there is one and ``out`` requires grad.

    ``rule(g, *cells)`` gets ``out``'s gradient and one ``Grad`` per input,
    None for an input that does not require grad. Cells are made here, so a
    no-grad forward allocates none, and the recorded closure holds the cells
    and ``rule`` only: never ``out`` or an input tensor. ``attrs`` go on the
    ``TapeOp`` as they are.
    """
    tape = active_tape()
    if tape is not None and out.requires_grad:
        out_cell = out._grad_cell()
        cells = tuple(t._grad_cell() if t.requires_grad else None for t in inputs)

        def backward():
            g = out_cell.grad
            if g is not None:
                rule(g, *cells)

        tape.record(TapeOp(name, cells, out_cell, backward, attrs))
    return out


def _needs(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    _check_finite("add", a, b)
    out = Tensor(a.data + b.data, requires_grad=_needs(a, b))

    def rule(g, ca, cb):
        if ca is not None:
            ca.accumulate(g)
        if cb is not None:
            cb.accumulate(g)

    return _record("add", (a, b), out, rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    _check_finite("mul", a, b)
    out = Tensor(a.data * b.data, requires_grad=_needs(a, b))
    a_kept = a.data if b.requires_grad else None
    b_kept = b.data if a.requires_grad else None

    def rule(g, ca, cb):
        if ca is not None:
            ca.accumulate(g * b_kept)
        if cb is not None:
            cb.accumulate(g * a_kept)

    return _record("mul", (a, b), out, rule)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant (never differentiated w.r.t. c)."""
    _check_finite("scale", a)
    c = float(c)
    out = Tensor(a.data * c, requires_grad=a.requires_grad)

    def rule(g, ca):
        ca.accumulate(g * c)

    return _record("scale", (a,), out, rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked (batched) operands must share leading dims."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    _check_finite("matmul", a, b)
    out = Tensor(a.data @ b.data, requires_grad=_needs(a, b))
    a_kept = a.data if b.requires_grad else None
    b_kept = b.data if a.requires_grad else None

    def rule(g, ca, cb):
        if ca is not None:
            ca.accumulate(g @ b_kept.swapaxes(-1, -2))
        if cb is not None:
            cb.accumulate(a_kept.swapaxes(-1, -2) @ g)

    return _record("matmul", (a, b), out, rule)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """y = x @ w.T for x of shape (..., in) and weight of shape (out, in), as one 2-D GEMM."""
    if w.data.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-D, got {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} incompatible with weight {w.shape}")
    _check_finite("linear", x, w)
    wd = w.data
    x2 = x.data.reshape(-1, wd.shape[1])
    out = Tensor((x2 @ wd.T).reshape(*x.shape[:-1], wd.shape[0]), requires_grad=_needs(x, w))
    x2 = x2 if w.requires_grad else None

    def rule(g, cx, cw):
        g2 = g.reshape(-1, wd.shape[0])
        if cx is not None:
            cx.accumulate((g2 @ wd).reshape(cx.shape))
        if cw is not None:
            cw.accumulate(g2.T @ x2)

    return _record("linear", (x, w), out, rule)


def merged_weight(wd: np.ndarray, ad: np.ndarray, bd: np.ndarray, gamma: float) -> np.ndarray:
    """``w + gamma * (b @ a)``: the weight ``LoraLinear.merge_lora`` leaves in the host."""
    return wd + gamma * (bd @ ad)


def lora_linear(x: Tensor, w: Tensor, a: Tensor, b: Tensor, gamma: float) -> Tensor:
    """y = x @ (w + gamma * (b @ a)).T: a host weight plus a low-rank adaptor, one GEMM.

    The adaptor folds into the host weight as ``LoraLinear.merge_lora`` folds
    it, and the input, flattened to 2-D, takes one GEMM with that merged
    weight. There is one formula with or without a tape and whatever
    ``requires_grad`` says, so a forward gives the same bits in every mode
    and merging leaves it unchanged. The merged weight is rebuilt on every
    call and never cached, because probes and zeroing write weights in place.

    Backward: dx = g @ merged as one GEMM (the merged weight is rebuilt from
    the parameter arrays, so it is never kept), dW = g.T @ x,
    dA = ((gamma g) @ B).T @ x and dB = (gamma g).T @ (x @ A.T). The input is
    kept only when W or A needs a gradient, and ``x @ A.T`` is computed and
    kept only when B does.
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
    wd, ad, bd = w.data, a.data, b.data
    x2 = x.data.reshape(-1, wd.shape[1])
    out = Tensor(
        (x2 @ merged_weight(wd, ad, bd, gamma).T).reshape(*x.shape[:-1], wd.shape[0]),
        requires_grad=_needs(x, w, a, b),
    )
    # the activations are kept only for the gradients that read them
    low = x2 @ ad.T if b.requires_grad else None
    x2 = x2 if w.requires_grad or a.requires_grad else None

    def rule(g, cx, cw, ca, cb):
        g2 = g.reshape(-1, wd.shape[0])
        if cx is not None:
            cx.accumulate((g2 @ merged_weight(wd, ad, bd, gamma)).reshape(cx.shape))
        if cw is not None:
            cw.accumulate(g2.T @ x2)
        if ca is not None or cb is not None:
            g_low = g2 * gamma
            if ca is not None:
                ca.accumulate((g_low @ bd).T @ x2)
            if cb is not None:
                cb.accumulate(g_low.T @ low)

    return _record("lora_linear", (x, w, a, b), out, rule)


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

    def rule(g, ct):
        if ct.grad is None:
            ct.grad = np.zeros(ct.shape)
        np.add.at(ct.grad, ids.reshape(-1), g.reshape(-1, ct.shape[1]))

    return _record("embedding_lookup", (table,), out, rule)


def rmsnorm(x: Tensor, gain: Tensor) -> Tensor:
    """x / rms(x) * gain over the last axis, rms = sqrt(sum(x^2) / dim + eps).

    The sum of squares and the backward's sum(g * gain * x) are ``einsum``
    row dots, with no squared or product temporary. Backward keeps ``x`` and
    ``inv_rms``, not the normalised activations: the gain gradient
    recomputes ``x * inv_rms``, the forward's own expression, and the x
    gradient, (g * gain) * inv_rms - x * (rowdot * inv_rms^3 / dim), is
    formed in the buffer of g * gain.
    """
    if gain.data.ndim != 1 or gain.shape[0] != x.shape[-1]:
        raise ShapeError(f"rmsnorm: gain {gain.shape} does not match input {x.shape}")
    _check_finite("rmsnorm", x, gain)
    xd, gd = x.data, gain.data
    dim = xd.shape[-1]
    sum_sq = np.einsum("...i,...i->...", xd, xd)[..., None]
    inv_rms = 1.0 / np.sqrt(sum_sq / dim + _RMSNORM_EPS)
    out = Tensor(xd * inv_rms * gd, requires_grad=_needs(x, gain))

    def rule(g, cx, cg):
        if cx is not None:
            gx = g * gd
            inner = np.einsum("...i,...i->...", gx, xd)[..., None]
            gx *= inv_rms
            gx -= xd * (inner * inv_rms**3 / dim)
            cx.accumulate(gx)
        if cg is not None:
            cg.accumulate(np.sum(g * (xd * inv_rms), axis=tuple(range(g.ndim - 1))))

    return _record("rmsnorm", (x, gain), out, rule)


@functools.lru_cache(maxsize=8)
def _causal_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, n) masks of the kept positions j <= i and the masked j > i."""
    keep = np.tri(n, dtype=bool)
    masked = ~keep
    keep.flags.writeable = False
    masked.flags.writeable = False
    return keep, masked


def _causal_probs(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of (..., n, n) scores with j > i masked, in place.

    Each row is shifted by the exact maximum of its kept entries, the only
    reduction that looks at the mask, so position i's bits never depend on
    a later token. The shift and the exp then run over whole rows, masked
    entries included, under a local ``errstate`` that ignores what those
    entries may raise (overflow, underflow, NaN); they are set to exactly
    +0.0 before the row sums, so a masked value, however extreme, changes
    no output bit. Kept entries get the -inf formulation's values up to
    the order of the row sum, an ``einsum``. A row whose largest kept
    score is not finite (finite queries and keys whose product overflowed,
    or a NaN) raises here rather than surfacing later as a NaN in some
    other op.
    """
    keep, masked = _causal_masks(scores.shape[-1])
    row_max = np.maximum.reduce(scores, axis=-1, keepdims=True, where=keep, initial=-np.inf)
    if not np.isfinite(row_max).all():
        raise NumericError("causal_attention: non-finite attention scores")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        scores -= row_max
        np.exp(scores, out=scores)
    np.copyto(scores, 0.0, where=masked)
    scores /= np.einsum("...ij->...i", scores)[..., None]
    return scores


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis; backward keeps the probabilities, not the scores."""
    _check_finite("softmax", x)
    probs = np.subtract(x.data, x.data.max(axis=-1, keepdims=True))
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = Tensor(probs, requires_grad=x.requires_grad)

    def rule(g, cx):
        inner = np.sum(g * probs, axis=-1, keepdims=True)
        cx.accumulate(probs * (g - inner))

    return _record("softmax", (x,), out, rule)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal self-attention of (B, T, dim) projections, as one tape op.

    Each projection splits into ``n_heads`` heads of ``dim // n_heads``
    channels. The 1/sqrt(head_dim) scale goes on the queries, not on the
    (T, T) scores, which are larger whenever T > head_dim; the scores take
    the causal softmax, mix the values, and the heads merge back into a
    (B, T, dim) context. The operand layouts are those of the separate
    reshape, transpose, scale and matmul ops; the softmax is
    ``_causal_probs``, and both row sums (the softmax's and the backward's
    rowsum(dP * P)) are ``einsum`` reductions.

    Backward keeps the probabilities P, the scaled queries, the transposed
    keys and the per-head values, each only for the gradients that read it,
    and forms dS = P * (dP - rowsum(dP * P)) in dP's own buffer.
    """
    if q.data.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(
            f"causal_attention: q, k and v must share one (B, T, dim) shape, "
            f"got {q.shape}, {k.shape} and {v.shape}"
        )
    b, t, dim = q.shape
    if n_heads < 1 or dim % n_heads:
        raise ShapeError(f"causal_attention: dim {dim} does not split into {n_heads} heads")
    _check_finite("causal_attention", q, k, v)
    dh = dim // n_heads
    c = 1.0 / math.sqrt(dh)

    def split(x: np.ndarray, axes: tuple[int, ...] = (0, 2, 1, 3)) -> np.ndarray:
        return x.reshape(b, t, n_heads, dh).transpose(axes)

    def heads(x: np.ndarray, axes: tuple[int, ...] = (0, 2, 1, 3)) -> np.ndarray:
        # a view of x itself when that is already contiguous: never written to
        return np.ascontiguousarray(split(x, axes))

    def merged(x: np.ndarray) -> np.ndarray:
        return x.transpose(0, 2, 1, 3).reshape(b, t, dim)

    sq = np.multiply(split(q.data), c, order="C")
    kt = heads(k.data, (0, 2, 3, 1))
    vh = heads(v.data)
    probs = _causal_probs(sq @ kt)
    out = Tensor(merged(probs @ vh), requires_grad=_needs(q, k, v))
    # each array is kept only for the gradients that read it
    sq = sq if k.requires_grad else None
    kt = kt if q.requires_grad else None
    vh = vh if q.requires_grad or k.requires_grad else None

    def rule(g, cq, ck, cv):
        g_ctx = heads(g)
        if cv is not None:
            cv.accumulate(merged(probs.swapaxes(-1, -2) @ g_ctx))
        if cq is None and ck is None:
            return
        ds = g_ctx @ vh.swapaxes(-1, -2)
        ds -= np.einsum("...ij,...ij->...i", ds, probs)[..., None]
        ds *= probs
        if cq is not None:
            cq.accumulate(merged((ds @ kt.swapaxes(-1, -2)) * c))
        if ck is not None:
            ck.accumulate((sq.swapaxes(-1, -2) @ ds).transpose(0, 3, 1, 2).reshape(b, t, dim))

    return _record("causal_attention", (q, k, v), out, rule, n_heads=n_heads)


def silu(x: Tensor) -> Tensor:
    _check_finite("silu", x)
    xd = x.data
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-xd))
    out = Tensor(xd * sig, requires_grad=x.requires_grad)

    def rule(g, cx):
        cx.accumulate(g * sig * (1.0 + xd * (1.0 - sig)))

    return _record("silu", (x,), out, rule)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = Tensor(x.data.reshape(shape), requires_grad=x.requires_grad)

    def rule(g, cx):
        cx.accumulate(g.reshape(cx.shape))

    return _record("reshape", (x,), out, rule)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {x.shape}")
    out = Tensor(x.data.transpose(axes), requires_grad=x.requires_grad)
    inverse = tuple(np.argsort(axes))

    def rule(g, cx):
        cx.accumulate(g.transpose(inverse))

    return _record("transpose", (x,), out, rule)


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
    ld = logits.data

    def rule(g, cl):
        probs = np.exp(ld - lse)
        onehot = np.zeros_like(probs)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        cl.accumulate((probs - onehot) * (float(g.reshape(())) / count))

    return _record("cross_entropy", (logits,), out, rule)
