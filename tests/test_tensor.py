import ctypes
import math
import tracemalloc
import weakref
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lorashear.tensor as T
from lorashear.errors import NumericError, ShapeError, TapeStateError
from lorashear.tensor import Tape, Tensor

from conftest import central_difference, max_relative_error


def rand(rng, *shape):
    return rng.normal(0.0, 1.0, size=shape)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_hand_arithmetic(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 4, 3), rand(rng, 3, 5)
        expected = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                for k in range(3):
                    expected[i, j] += a[i, k] * b[k, j]
        out = T.matmul(Tensor(a), Tensor(b))
        assert np.allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestForwardOps:
    def test_softmax_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)

    def test_softmax_causal_mask(self):
        # equal scores: position i averages the values at 0..i, never a later one
        v = np.arange(6.0).reshape(1, 3, 2)
        zeros = Tensor(np.zeros((1, 3, 2)))
        out = T.causal_attention(zeros, zeros, Tensor(v), 1).data
        assert np.array_equal(out[0, 0], v[0, 0])
        assert np.allclose(out[0, 2], v[0].mean(axis=0), rtol=0, atol=1e-15)

    def test_rmsnorm_all_equal_vector(self):
        for c in (1.0, 3.0, 0.5):
            out = T.rmsnorm(Tensor([c, c, c]), Tensor(np.ones(3)))
            assert np.max(np.abs(out.data - 1.0)) < 1e-9

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 7)))
        out = T.cross_entropy(logits, np.array([0, 3, 6, 2]))
        assert abs(out.item() - math.log(7)) < 1e-12

    def test_nan_input_rejected_with_op_name(self):
        bad = Tensor([np.nan, 1.0])
        with pytest.raises(NumericError, match="silu"):
            T.silu(bad)
        with pytest.raises(NumericError, match="add"):
            T.add(bad, Tensor([1.0, 2.0]))

    def test_inf_input_rejected(self):
        with pytest.raises(NumericError, match="softmax"):
            T.softmax(Tensor([np.inf, 0.0]))

    def test_forward_deterministic(self):
        rng = np.random.default_rng(9)
        x = rand(rng, 5, 6)
        a = T.silu(T.softmax(Tensor(x))).data
        b = T.silu(T.softmax(Tensor(x))).data
        assert np.array_equal(a, b)


class TestBackward:
    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            s = T.reshape(T.mul(x, x), ())
        tape.backward(s)
        assert np.allclose(x.grad, [6.0], atol=0)

    def test_constant_branch_gets_no_grad(self):
        x = Tensor([2.0], requires_grad=True)
        dead = Tensor([4.0], requires_grad=True)
        with Tape() as tape:
            _ = T.mul(dead, dead)  # recorded but not reaching the loss
            s = T.reshape(T.mul(x, x), ())
        tape.backward(s)
        assert dead.grad is None

    def test_double_backward_raises(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            s = T.reshape(T.mul(x, x), ())
        tape.backward(s)
        with pytest.raises(TapeStateError, match="consumed"):
            tape.backward(s)

    def test_backward_empty_tape(self):
        with pytest.raises(TapeStateError, match="empty"):
            Tape().backward(Tensor(1.0, requires_grad=True))

    def test_backward_non_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ShapeError, match="scalar"):
            tape.backward(y)

    def test_two_tapes_give_identical_gradients(self):
        rng = np.random.default_rng(3)
        arrays = rand(rng, 4, 3), rand(rng, 2, 3)
        grads = []
        for _ in range(2):
            x, w = (Tensor(a, requires_grad=True) for a in arrays)
            with Tape() as tape:
                loss = T.cross_entropy(T.linear(x, w), np.array([0, 1, 0, 1]))
            tape.backward(loss)
            grads.append((x.grad, w.grad))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])

    def test_backward_consumes_the_tape_and_frees_dropped_intermediates(self):
        rng = np.random.default_rng(4)
        x = Tensor(rand(rng, 4, 3), requires_grad=True)
        w = Tensor(rand(rng, 2, 3), requires_grad=True)
        with Tape() as tape:
            h = T.silu(T.linear(x, w))
            loss = T.cross_entropy(h, np.array([0, 1, 0, 1]))
        activation = weakref.ref(h.data)
        del h
        assert activation() is not None  # only the tape holds it now
        tape.backward(loss)
        assert activation() is None
        assert tape.ops == []
        assert x.grad is not None and w.grad is not None

    def test_gradients_accumulate_across_fanout(self):
        x = Tensor([1.5], requires_grad=True)
        with Tape() as tape:
            s = T.reshape(T.add(T.mul(x, x), T.mul(x, x)), ())
        tape.backward(s)
        assert np.allclose(x.grad, [6.0], atol=1e-12)

    def test_two_layer_mlp_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        arrays = {
            "x": rand(rng, 3, 4),
            "w1": rand(rng, 5, 4),
            "w2": rand(rng, 2, 5),
        }
        targets = np.array([0, 1, 1])

        def forward(arrs) -> float:
            h = T.silu(T.linear(Tensor(arrs["x"]), Tensor(arrs["w1"])))
            return T.cross_entropy(T.linear(h, Tensor(arrs["w2"])), targets).item()

        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        with Tape() as tape:
            h = T.silu(T.linear(tensors["x"], tensors["w1"]))
            loss = T.cross_entropy(T.linear(h, tensors["w2"]), targets)
        tape.backward(loss)
        fd = central_difference(forward, arrays)
        for name in arrays:
            assert max_relative_error(tensors[name].grad, fd[name]) < 1e-4


def _gradcheck(build, arrays):
    """Analytic grads of sum(probe * op(inputs)) vs central differences."""
    rng = np.random.default_rng(0xC0FFEE)
    probe = rng.normal(size=build(_wrap(arrays)).shape)

    def scalar(arrs) -> float:
        return float(np.sum(build(_wrap(arrs)).data * probe))

    tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    with Tape() as tape:
        out = build(tensors)
        s = _sum_all(T.mul(out, Tensor(probe)))
    tape.backward(s)
    fd = central_difference(scalar, arrays)
    for name in arrays:
        assert max_relative_error(tensors[name].grad, fd[name]) < 1e-4, name


def _sum_all(t: Tensor) -> Tensor:
    ones = Tensor(np.ones((t.data.size, 1)))
    return T.reshape(T.matmul(T.reshape(t, (1, t.data.size)), ones), ())


def _wrap(arrs):
    return {k: (v if isinstance(v, Tensor) else Tensor(v)) for k, v in arrs.items()}


def _wrap(arrs):
    return {k: (v if isinstance(v, Tensor) else Tensor(v)) for k, v in arrs.items()}


class TestGradcheckEveryOp:
    def test_add(self):
        rng = np.random.default_rng(1)
        _gradcheck(lambda a: T.add(a["a"], a["b"]), {"a": rand(rng, 3, 4), "b": rand(rng, 3, 4)})

    def test_mul(self):
        rng = np.random.default_rng(2)
        _gradcheck(lambda a: T.mul(a["a"], a["b"]), {"a": rand(rng, 3, 4), "b": rand(rng, 3, 4)})

    def test_scale(self):
        rng = np.random.default_rng(3)
        _gradcheck(lambda a: T.scale(a["a"], 1.7), {"a": rand(rng, 4, 2)})

    def test_matmul(self):
        rng = np.random.default_rng(4)
        _gradcheck(lambda a: T.matmul(a["a"], a["b"]), {"a": rand(rng, 3, 4), "b": rand(rng, 4, 2)})

    def test_matmul_batched(self):
        rng = np.random.default_rng(5)
        _gradcheck(lambda a: T.matmul(a["a"], a["b"]),
                   {"a": rand(rng, 2, 3, 4), "b": rand(rng, 2, 4, 2)})

    def test_linear(self):
        rng = np.random.default_rng(6)
        _gradcheck(lambda a: T.linear(a["x"], a["w"]), {"x": rand(rng, 3, 4), "w": rand(rng, 5, 4)})

    def test_silu(self):
        rng = np.random.default_rng(7)
        _gradcheck(lambda a: T.silu(a["x"]), {"x": rand(rng, 3, 5)})

    def test_softmax(self):
        rng = np.random.default_rng(8)
        _gradcheck(lambda a: T.softmax(a["x"]), {"x": rand(rng, 3, 5)})

    def test_softmax_causal(self):
        # the causal softmax's gradient, through the attention op that holds it
        rng = np.random.default_rng(9)
        _gradcheck(lambda a: T.causal_attention(a["q"], a["k"], a["v"], 2),
                   {name: rand(rng, 2, 4, 6) for name in "qkv"})

    def test_rmsnorm(self):
        rng = np.random.default_rng(10)
        _gradcheck(lambda a: T.rmsnorm(a["x"], a["g"]), {"x": rand(rng, 3, 6), "g": rand(rng, 6)})

    def test_reshape_transpose(self):
        rng = np.random.default_rng(11)
        _gradcheck(lambda a: T.transpose(T.reshape(a["x"], (2, 3, 4)), (1, 0, 2)),
                   {"x": rand(rng, 6, 4)})

    def test_embedding_lookup(self):
        rng = np.random.default_rng(12)
        ids = np.array([[0, 2, 1], [2, 2, 0]])
        _gradcheck(lambda a: T.embedding_lookup(a["t"], ids), {"t": rand(rng, 3, 4)})

    def test_cross_entropy(self):
        rng = np.random.default_rng(13)
        targets = np.array([1, 0, 3])

        def scalar(arrs) -> float:
            return T.cross_entropy(Tensor(arrs["l"]), targets).item()

        arrays = {"l": rand(rng, 3, 4)}
        t = Tensor(arrays["l"], requires_grad=True)
        with Tape() as tape:
            loss = T.cross_entropy(t, targets)
        tape.backward(loss)
        fd = central_difference(scalar, arrays)
        assert max_relative_error(t.grad, fd["l"]) < 1e-4


def _within_1e12(got, want) -> bool:
    return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _composed_lora_linear(x, w, a, b, gamma):
    """The five-op composition lora_linear replaced: three GEMMs, a scale and an add."""
    return T.add(T.linear(x, w), T.scale(T.linear(T.linear(x, a), b), gamma))


def _lora_linear_reference(x, w, a, b, gamma, g):
    """The op's arithmetic: the output by one GEMM on the merged weight, then the
    x, w, a and b gradients for the output gradient g."""
    x2, g2 = x.reshape(-1, w.shape[1]), g.reshape(-1, w.shape[0])
    merged = w + gamma * (b @ a)
    g_low = g2 * gamma
    return ((x2 @ merged.T).reshape(g.shape), (g2 @ merged).reshape(x.shape), g2.T @ x2,
            (g_low @ b).T @ x2, g_low.T @ (x2 @ a.T))


class TestLoraLinear:
    # (x, w) trainable flags: pretraining, LoRA-only inside the network, and
    # LoRA-only on a layer whose input needs no gradient
    @pytest.mark.parametrize("x_grad,w_grad", [(True, True), (True, False), (False, False)])
    def test_equals_composed_reference_bitwise(self, x_grad, w_grad):
        rng = np.random.default_rng(21)
        arrays = {"x": rand(rng, 2, 5, 6), "w": rand(rng, 7, 6), "a": rand(rng, 3, 6),
                  "b": rand(rng, 7, 3)}
        probe = Tensor(rand(rng, 2, 5, 7))
        other = Tensor(rand(rng, 2, 5, 6))
        trainable = {"x": x_grad, "w": w_grad, "a": True, "b": True}

        def side(x):
            # a later consumer of x: its gradient term lands before the op's one term
            return _sum_all(T.mul(T.silu(x), other))

        results = []
        for op in (T.lora_linear, _composed_lora_linear):
            t = {k: Tensor(v, requires_grad=trainable[k]) for k, v in arrays.items()}
            with Tape() as tape:
                out = op(t["x"], t["w"], t["a"], t["b"], 0.7)
                loss = T.add(_sum_all(T.mul(out, probe)), side(t["x"]))
            tape.backward(loss)
            results.append((out.data, {k: v.grad for k, v in t.items()}))
        (out, grads), (old_out, old_grads) = results
        ref_out, ref_dx, *ref_grads = _lora_linear_reference(*arrays.values(), 0.7, probe.data)
        x = Tensor(arrays["x"], requires_grad=True)
        with Tape() as tape:
            loss = side(x)
        tape.backward(loss)
        expected_dx = x.grad
        expected_dx += ref_dx
        ref_grads.insert(0, expected_dx)
        assert np.array_equal(out, ref_out)
        assert _within_1e12(out, old_out)
        for name, ref in zip(arrays, ref_grads):
            assert (grads[name] is None) == (old_grads[name] is None) == (not trainable[name]), name
            if trainable[name]:
                assert np.array_equal(grads[name], ref), name
                assert _within_1e12(grads[name], old_grads[name]), name

    def test_nan_input_rejected_with_op_name(self):
        x = Tensor([[np.nan, 1.0]])
        w, a, b = Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))), Tensor(np.ones((3, 1)))
        with pytest.raises(NumericError, match="lora_linear"):
            T.lora_linear(x, w, a, b, 2.0)

    def test_gradcheck(self):
        rng = np.random.default_rng(22)
        _gradcheck(lambda t: T.lora_linear(t["x"], t["w"], t["a"], t["b"], 1.5),
                   {"x": rand(rng, 2, 3, 4), "w": rand(rng, 5, 4), "a": rand(rng, 2, 4),
                    "b": rand(rng, 5, 2)})


class TestLoraLinearNoGrad:
    """Nothing requires grad: the same one GEMM on the merged weight of merge_lora."""

    @staticmethod
    def _operands(seed):
        rng = np.random.default_rng(seed)
        return rand(rng, 2, 5, 6), rand(rng, 7, 6), rand(rng, 3, 6), rand(rng, 7, 3)

    def test_equals_linear_on_merged_weight_bitwise(self):
        x, w, a, b = self._operands(31)
        out = T.lora_linear(Tensor(x), Tensor(w), Tensor(a), Tensor(b), 0.7)
        assert not out.requires_grad
        assert np.array_equal(out.data, T.linear(Tensor(x), Tensor(w + 0.7 * (b @ a))).data)

    def test_zero_b_equals_host_linear_bitwise(self):
        x, w, a, b = self._operands(32)
        out = T.lora_linear(Tensor(x), Tensor(w), Tensor(a), Tensor(np.zeros_like(b)), 0.7)
        assert np.array_equal(out.data, T.linear(Tensor(x), Tensor(w)).data)

    def test_within_1e12_of_grad_path(self):
        # one formula: the taped forward gives the same bits, and the previous
        # three-GEMM arithmetic is within 1e-12
        x, w, a, b = self._operands(33)
        nograd = T.lora_linear(Tensor(x), Tensor(w), Tensor(a), Tensor(b), 0.7).data
        with Tape() as tape:
            taped = T.lora_linear(Tensor(x), Tensor(w), Tensor(a, requires_grad=True),
                                  Tensor(b, requires_grad=True), 0.7)
        assert len(tape.ops) == 1
        assert np.array_equal(nograd, taped.data)
        composed = _composed_lora_linear(Tensor(x), Tensor(w), Tensor(a), Tensor(b), 0.7).data
        assert not np.array_equal(nograd, composed)  # the two arithmetics really differ
        assert _within_1e12(nograd, composed)

    def test_records_nothing_on_an_active_tape(self):
        x, w, a, b = self._operands(34)
        with Tape() as tape:
            T.lora_linear(Tensor(x), Tensor(w), Tensor(a), Tensor(b), 0.7)
        assert tape.ops == []

    @pytest.mark.parametrize("bad", range(4))
    def test_nan_operand_rejected_with_op_name(self, bad):
        operands = [Tensor(v) for v in self._operands(35)]
        operands[bad].data.reshape(-1)[0] = np.nan
        with pytest.raises(NumericError, match="lora_linear"):
            T.lora_linear(*operands, 0.7)


def _row_sums(x, einsum):
    """Row sums of the last axis: einsum's, or numpy's pairwise ``sum`` (the previous arithmetic)."""
    return np.einsum("...ij->...i", x)[..., None] if einsum else x.sum(axis=-1, keepdims=True)


def _causal_softmax_reference(x, einsum=True):
    """The -inf formulation: exp(-inf) is exactly +0.0 above the diagonal."""
    n = x.shape[-1]
    probs = np.where(np.triu(np.ones((n, n), dtype=bool), k=1), -np.inf, x)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= _row_sums(probs, einsum)
    return probs


class TestCausalSoftmax:
    @staticmethod
    def _check(x):
        ref = _causal_softmax_reference(x)
        above = np.triu(np.ones(x.shape[-2:], dtype=bool), k=1)
        with np.errstate(all="raise"):
            out = T._causal_probs(x.copy())
        assert np.array_equal(out, ref)
        assert _within_1e12(out, _causal_softmax_reference(x, einsum=False))
        masked = out[..., above]
        assert np.array_equal(masked, np.zeros_like(masked)) and not np.signbit(masked).any()

    @given(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_equals_neg_inf_reference_bitwise(self, lead, n, seed):
        rng = np.random.default_rng(seed)
        self._check(rng.normal(0.0, 3.0, size=(*lead, n, n)))

    @given(st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_extreme_masked_entries_change_no_bit(self, n, seed):
        # the shift and exp read masked entries, under the op's own errstate
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, n, n))
        above = np.triu(np.ones((n, n), dtype=bool), k=1)
        x[:, above] = rng.choice([-1e308, 1e308, -np.inf, np.inf, np.nan],
                                 size=(2, int(above.sum())))
        self._check(x)

    def test_one_by_one(self):
        self._check(np.array([[-4.5]]))
        assert T._causal_probs(np.array([[[7.0]]])).tolist() == [[[1.0]]]

    def test_masked_positions_get_zero_gradient(self):
        # the outputs before position t never read the keys or values at t or later
        rng = np.random.default_rng(36)
        for t in (1, 2, 3):
            q, k, v = (Tensor(rand(rng, 2, 4, 6), requires_grad=True) for _ in range(3))
            weights = rand(rng, 2, 4, 6)
            weights[:, t:] = 0.0
            with Tape() as tape:
                loss = _sum_all(T.mul(T.causal_attention(q, k, v, 2), Tensor(weights)))
            tape.backward(loss)
            assert np.all(np.any(v.grad[:, :t], axis=-1))
            assert not np.any(k.grad[:, t:]) and not np.any(v.grad[:, t:])


def _attention_reference(q, k, v, n_heads, g, einsum=True):
    """Separate-op attention arithmetic: the output, then the q, k, v gradients for g.

    Both row sums (the softmax's and rowsum(dP * P)) are einsum's, as the op's
    are; ``einsum=False`` gives the previous arithmetic, numpy's pairwise sums.
    """
    b, t, dim = q.shape
    dh = dim // n_heads
    c = 1.0 / math.sqrt(dh)

    def split(x):
        return np.ascontiguousarray(x.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3))

    def merge(x):
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b, t, dim)

    qh, kh, vh = split(q), split(k), split(v)
    sq = qh * c
    kt = np.ascontiguousarray(kh.transpose(0, 1, 3, 2))
    probs = _causal_softmax_reference(sq @ kt, einsum)
    g_ctx = split(g)
    dp = g_ctx @ vh.swapaxes(-1, -2)
    ds = probs * (dp - _row_sums(dp * probs, einsum))
    dkh = np.ascontiguousarray((sq.swapaxes(-1, -2) @ ds).transpose(0, 1, 3, 2))
    return (merge(probs @ vh), merge((ds @ kt.swapaxes(-1, -2)) * c), merge(dkh),
            merge(probs.swapaxes(-1, -2) @ g_ctx))


class TestCausalAttention:
    @pytest.mark.parametrize("b,t,dim,n_heads", [(2, 5, 6, 2), (1, 1, 4, 4), (3, 7, 8, 1)])
    def test_equals_separate_op_arithmetic_bitwise(self, b, t, dim, n_heads):
        rng = np.random.default_rng(dim * t)
        q, k, v = (Tensor(rand(rng, b, t, dim), requires_grad=True) for _ in range(3))
        g = rand(rng, b, t, dim)
        with Tape() as tape:
            out = T.causal_attention(q, k, v, n_heads)
            loss = _sum_all(T.mul(out, Tensor(g)))
        ref = _attention_reference(q.data, k.data, v.data, n_heads, g)
        old = _attention_reference(q.data, k.data, v.data, n_heads, g, einsum=False)
        assert np.array_equal(out.data, ref[0])
        tape.backward(loss)
        for got, want, previous in zip((out.data, q.grad, k.grad, v.grad), ref, old):
            assert np.array_equal(got, want)
            assert _within_1e12(got, previous)
        assert np.array_equal(T.causal_attention(Tensor(q.data), Tensor(k.data), Tensor(v.data),
                                                 n_heads).data, ref[0])

    @pytest.mark.parametrize("shapes,n_heads", [
        (((2, 3, 6),) * 3, 4),
        (((2, 3, 6),) * 3, 0),
        (((2, 3, 6), (2, 3, 6), (2, 4, 6)), 2),
        (((2, 3, 6), (2, 3, 4), (2, 3, 6)), 2),
        (((3, 6),) * 3, 2),
    ], ids=["dim-not-divisible", "zero-heads", "k-length-differs", "k-dim-differs", "2-d"])
    def test_bad_shapes_raise_shape_error(self, shapes, n_heads):
        with pytest.raises(ShapeError, match="causal_attention"):
            T.causal_attention(*(Tensor(np.zeros(s)) for s in shapes), n_heads)

    def test_nan_query_rejected_with_op_name(self):
        q = np.zeros((1, 3, 4))
        q[0, 1, 2] = np.nan
        with pytest.raises(NumericError, match="causal_attention"):
            T.causal_attention(Tensor(q), Tensor(np.ones((1, 3, 4))), Tensor(np.ones((1, 3, 4))), 2)

    @given(st.integers(1, 2), st.integers(2, 7), st.sampled_from([(4, 1), (4, 2), (6, 3)]),
           st.data())
    def test_positions_before_t_never_read_later_inputs(self, b, t_len, shape, data):
        # a loss on positions before t: the output there and every gradient
        # before t keep their bits when q, k and v at t or later change
        dim, n_heads = shape
        t = data.draw(st.integers(1, t_len - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        arrays = [rand(rng, b, t_len, dim) for _ in range(4)]
        arrays[3][:, t:] = 0.0
        results = []
        for _ in range(2):
            q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays[:3])
            with Tape() as tape:
                out = T.causal_attention(q, k, v, n_heads)
                loss = _sum_all(T.mul(out, Tensor(arrays[3])))
            tape.backward(loss)
            results.append([x[:, :t] for x in (out.data, q.grad, k.grad, v.grad)])
            for a in arrays[:3]:
                a[:, t:] = rng.normal(0.0, 10.0, size=a[:, t:].shape)
        for before, after in zip(*results):
            assert np.array_equal(before, after)

    def test_overflowing_scores_rejected_with_op_name(self):
        # finite queries and keys whose scores overflow fail here, not in a later op
        big = Tensor(np.full((1, 3, 4), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="causal_attention"):
            T.causal_attention(big, big, Tensor(np.ones((1, 3, 4))), 2)


class TestFirstTouchGrad:
    def test_grad_through_transpose_is_fresh_and_c_ordered(self):
        rng = np.random.default_rng(23)
        x = Tensor(rand(rng, 3, 4), requires_grad=True)
        y = Tensor(rand(rng, 4, 3), requires_grad=True)
        with Tape() as tape:
            xt = T.transpose(x, (1, 0))
            s = T.add(xt, y)
            loss = _sum_all(T.mul(s, Tensor(rand(rng, 4, 3))))
        tape.backward(loss)
        assert x.grad.flags.c_contiguous
        assert np.array_equal(x.grad, xt.grad.T)
        grads = [x.grad, y.grad, xt.grad, s.grad]
        for i, g in enumerate(grads):
            for h in grads[i + 1:]:
                assert not np.shares_memory(g, h)

    def test_negative_zero_becomes_positive_zero(self):
        t = Tensor([1.0, 2.0])
        t.accumulate_grad(np.array([-0.0, 3.0]))
        assert np.array_equal(t.grad, [0.0, 3.0]) and not np.signbit(t.grad[0])

    def test_shape_mismatch_raises_and_keeps_grad(self):
        t = Tensor(np.zeros(3))
        with pytest.raises(ShapeError, match=r"\(1,\).*\(3,\)"):
            t.accumulate_grad(np.ones(1))
        assert t.grad is None
        t.accumulate_grad(np.ones(3))
        with pytest.raises(ShapeError):
            t.accumulate_grad(np.ones((2, 3)))
        assert np.array_equal(t.grad, np.ones(3))


class TestProperties:
    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_softmax_rows_sum_to_one(self, n, m, seed):
        x = np.random.default_rng(seed).normal(size=(n, m))
        out = T.softmax(Tensor(x))
        assert np.allclose(out.data.sum(-1), 1.0, atol=1e-12)
        assert (out.data >= 0).all()

    @given(st.integers(1, 4), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_rmsnorm_unit_gain_has_unit_rms(self, n, d, seed):
        x = np.random.default_rng(seed).normal(size=(n, d)) + 0.1
        out = T.rmsnorm(Tensor(x), Tensor(np.ones(d)))
        rms = np.sqrt(np.mean(out.data**2, axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-5)

    @given(st.integers(0, 2**32 - 1))
    def test_random_op_chain_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        arrays = {"x": rand(rng, 2, 3), "w": rand(rng, 3, 3)}
        targets = rng.integers(0, 3, size=2)

        def scalar(arrs) -> float:
            h = T.silu(T.linear(Tensor(arrs["x"]), Tensor(arrs["w"])))
            return T.cross_entropy(h, targets).item()

        tensors = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        with Tape() as tape:
            loss = T.cross_entropy(T.silu(T.linear(tensors["x"], tensors["w"])), targets)
        tape.backward(loss)
        fd = central_difference(scalar, arrays)
        for name in arrays:
            assert max_relative_error(tensors[name].grad, fd[name]) < 1e-4

    def test_tape_records_in_topological_order(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.silu(x)
            z = T.add(y, x)
            _ = T.mul(z, y)
        seen = {x._grad_cell()}
        for op in tape.ops:
            assert all(cell in seen for cell in op.inputs)
            seen.add(op.output)
        assert [op.inputs for op in tape.ops] == [
            (x._grad_cell(),), (y._grad_cell(), x._grad_cell()), (z._grad_cell(), y._grad_cell()),
        ]

    def test_recorded_forward_names_each_operand_by_its_cell(self, toy_model):
        # every output cell is new, and every input cell is a parameter's or an
        # earlier op's output: ids of tensors that died mid-forward get reused,
        # cells the tape holds cannot be
        from lorashear.model import next_token_loss

        toy_model.set_trainable("all")
        params = {t._grad_cell() for t in toy_model.parameters().values()}
        with Tape() as tape:
            next_token_loss(toy_model, np.arange(9)[None, :])
        made = set()
        for op in tape.ops:
            assert op.output not in made | params
            assert all(cell in made or cell in params for cell in op.inputs)
            made.add(op.output)
        assert len(made) == len(tape.ops) == 34

    def test_causal_attention_records_its_head_count(self):
        x = Tensor(np.ones((1, 2, 6)), requires_grad=True)
        with Tape() as tape:
            T.causal_attention(x, x, x, 3)
            T.add(x, x)
        assert [op.attrs for op in tape.ops] == [{"n_heads": 3}, {}]


def _rule_arrays(op) -> dict:
    """The arrays a recorded op's backward rule holds, by the names it reads them under."""

    def free(fn) -> dict:
        return {n: c.cell_contents for n, c in zip(fn.__code__.co_freevars, fn.__closure__)}

    return {n: x for n, x in free(free(op.backward)["rule"]).items() if isinstance(x, np.ndarray)}


class TestSavedForBackward:
    def test_block_forward_pins_only_what_backward_reads(self, tiny_config, monkeypatch):
        from lorashear.model import build_model, next_token_loss

        # op name -> weakrefs to the arrays owning its outputs' memory, in call order
        made = defaultdict(list)
        for name in ("lora_linear", "causal_attention"):
            def spy(*args, _op=getattr(T, name), _name=name, **kwargs):
                out = _op(*args, **kwargs)
                base = out.data.base
                made[_name].append(weakref.ref(out.data if base is None else base))
                return out
            monkeypatch.setattr(T, name, spy)
        model = build_model(tiny_config)
        assert model.config.n_layers == 1
        model.set_trainable("lora")
        batch = np.random.default_rng(0).integers(0, 16, size=(2, 17))
        with Tape() as tape:
            loss = next_token_loss(model, batch)
        q, k, v, o, gate, up, down = made["lora_linear"]
        (context,) = made["causal_attention"]
        (attention,) = [op for op in tape.ops if op.name == "causal_attention"]
        kept = {name: weakref.ref(a) for name, a in _rule_arrays(attention).items()}
        del attention
        assert sorted(kept) == ["kt", "probs", "sq", "vh"]
        for ref in (q, k, v, o, down):
            assert ref() is None
        # read by silu, mul, o's adaptor (its input, the merged context) and the attention rule
        for ref in (gate, up, context, *kept.values()):
            assert ref() is not None
        tape.backward(loss)
        refs = [*kept.values(), *(ref for refs in made.values() for ref in refs)]
        assert all(ref() is None for ref in refs)

    def test_resized_parameter_takes_gradients_of_its_new_shape(self):
        rng = np.random.default_rng(31)
        x = Tensor(rand(rng, 5, 4))
        w = Tensor(rand(rng, 3, 4), requires_grad=True)
        for rows in (3, 2):
            w.data = w.data[:rows].copy()  # as compression and loading replace arrays
            w.zero_grad()
            with Tape() as tape:
                loss = _sum_all(T.linear(x, w))
            tape.backward(loss)
            assert w.grad.shape == (rows, 4)
            assert np.allclose(w.grad, np.tile(x.data.sum(axis=0), (rows, 1)), atol=1e-12)

    def test_intermediate_held_by_the_caller_gets_its_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            h = T.scale(x, 3.0)
            loss = _sum_all(T.mul(h, h))
        tape.backward(loss)
        assert np.array_equal(h.grad, [6.0, 12.0])
        assert np.array_equal(x.grad, [18.0, 36.0])

    def test_mul_of_a_tensor_with_itself_accumulates_both_terms_in_order(self):
        rng = np.random.default_rng(37)
        x = Tensor(rand(rng, 64), requires_grad=True)
        c = Tensor(rand(rng, 64))
        with Tape() as tape:
            loss = _sum_all(T.mul(T.add(T.mul(x, x), x), c))
        tape.backward(loss)
        # backward reaches x first through add's g = c, then mul(x, x) adds c * x twice
        expected = np.add(c.data, 0.0)
        expected += c.data * x.data
        expected += c.data * x.data
        assert np.array_equal(x.grad, expected)

    def test_a_forward_without_a_tape_makes_no_gradient_cell(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = T.silu(T.scale(x, 2.0))
        assert x._cell is None and out._cell is None


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestFreedMemoryStaysInProcess:
    @pytest.mark.skipif(not _has_mallopt(), reason="C library without mallopt")
    @pytest.mark.parametrize("trainable", ["lora", "all"])
    def test_train_steps_reuse_freed_memory(self, toy_model, toy_corpus, trainable):
        # under glibc's malloc defaults these 20 steps fault in over 10 000 fresh pages
        resource = pytest.importorskip("resource")
        from lorashear.optim import Sgd, train_step

        toy_model.set_trainable(trainable)
        params = [t for t in toy_model.parameters().values() if t.requires_grad]
        opt = Sgd(params, 1e-3)
        rng = np.random.default_rng(0)
        batches = [toy_corpus.sample_batch(rng, 8) for _ in range(23)]
        assert batches[0].shape == (8, 49)  # 8x48 input tokens
        for batch in batches[:3]:
            train_step(toy_model, batch, opt, where="warm-up")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for batch in batches[3:]:
            train_step(toy_model, batch, opt, where="measured")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 200

    def test_silent_no_op_without_a_usable_mallopt(self, monkeypatch):
        def refusing(param, value):
            return 0

        def no_process_handle(name):
            raise TypeError("no handle for the running process")

        for cdll in (lambda name: object(), lambda name: SimpleNamespace(mallopt=refusing),
                     no_process_handle):
            monkeypatch.setattr(T.ctypes, "CDLL", cdll)
            T._keep_freed_memory()


class TestStepPeakMemory:
    def test_lora_only_step_peaks_below_7_mib(self, toy_model, toy_corpus):
        # backward rules hold gradient cells and the arrays they read: about
        # 5.7 MiB; closures holding whole input and output tensors peak at 8.9
        from lorashear.optim import lora_optimizer, train_step

        toy_model.set_trainable("lora")
        opt = lora_optimizer(toy_model, 1e-3)
        rng = np.random.default_rng(0)
        batches = [toy_corpus.sample_batch(rng, 8) for _ in range(4)]
        assert batches[0].shape == (8, 49)  # 8x48 input tokens
        for batch in batches[:3]:
            train_step(toy_model, batch, opt, where="warm-up")
        tracemalloc.start()
        try:
            train_step(toy_model, batches[3], opt, where="measured")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20

    def test_all_trainable_step_peaks_below_12_mib(self, toy_model, toy_corpus):
        # backward frees each op's activations once it has run: about 9.1 MiB;
        # a tape kept whole until the step ends peaks at about 16.9 MiB
        from lorashear.optim import Sgd, train_step

        toy_model.set_trainable("all")
        params = [t for t in toy_model.parameters().values() if t.requires_grad]
        opt = Sgd(params, 1e-3)
        rng = np.random.default_rng(0)
        batches = [toy_corpus.sample_batch(rng, 8) for _ in range(4)]
        assert batches[0].shape == (8, 49)  # 8x48 input tokens
        for batch in batches[:3]:
            train_step(toy_model, batch, opt, where="warm-up")
        tracemalloc.start()
        try:
            train_step(toy_model, batches[3], opt, where="measured")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
