import ast
import functools
import gc
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chdzdt import tensor as T
from chdzdt.chartok import default_vocab
from chdzdt.encoder import EncoderState, ModelConfig
from chdzdt.errors import NumericalError
from chdzdt.evalsuite import compose
from chdzdt.pretrain import _encode_lexicon, batch_loss, mask_batch
from chdzdt.tensor import (
    Adam,
    ParamSet,
    Tensor,
    bce_multilabel,
    cat,
    dropout,
    embedding,
    fit,
    gelu,
    gru_cell,
    gru_params,
    gru_sequence,
    layer_norm,
    linear,
    softmax,
    softmax_ce,
)

from gcprobe import tensors_left_to_cyclic_gc
from oracles import (
    brute_gru_states,
    composite_attention,
    composite_dropout,
    composite_gelu,
    composite_layer_norm,
    composite_linear,
    composite_mean,
    composite_rsub,
    composite_softmax,
    composite_sub,
    finite_diff_max_rel_err,
    formula_softmax_ce,
    full_walk_order,
    per_tensor_adam_step,
)
from universe import make_universe


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


def one_param(data):
    """A parameter set holding data as its one param "p"; (set, param)."""
    ps = ParamSet.of({"p": np.asarray(data, dtype=np.float64)})
    return ps, ps.params["p"]


def gru_tensors(d_in, d_h, rng):
    """gru_params as the Tensors of a parameter set."""
    return ParamSet.of(gru_params(d_in, d_h, rng)).params


class TestMatmul:
    def test_identity(self):
        out = Tensor([[1.0, 0.0], [0.0, 1.0]]) @ Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.allclose(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_value(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        assert np.allclose(out.data, [[11.0]])

    def test_zero(self):
        out = Tensor(np.zeros((2, 3))) @ Tensor(np.ones((3, 4)))
        assert not out.data.any()

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    @pytest.mark.parametrize("op", ["mul", "matmul"])
    @pytest.mark.parametrize("constant_first", [True, False])
    def test_constant_operand_gets_no_gradient_product(self, op,
                                                       constant_first):
        # the product a constant's gradient would need overflows here, so
        # computing it at all raises
        x = t(np.full((2, 2), 1e300))
        c = t(np.full((2, 2), 1e-300), grad=False)
        pair = (c, x) if constant_first else (x, c)
        out = pair[0] * pair[1] if op == "mul" else pair[0] @ pair[1]
        with np.errstate(over="raise"):
            (out * 1e10).sum().backward()
        assert c.grad is None
        g = np.full((2, 2), 1e10)
        want = g * c.data if op == "mul" else \
            (c.data.T @ g if constant_first else g @ c.data.T)
        np.testing.assert_array_equal(x.grad, want)


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = Tensor(np.full((2, 4), 7.0))
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.allclose(out.data, 0.0)

    def test_hand_row(self):
        x = Tensor(np.array([[1.0, -1.0]]))
        out = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_zero_gain_broadcasts_bias(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        bias = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        out = layer_norm(x, Tensor(np.zeros(4)), bias)
        assert np.allclose(out.data, np.broadcast_to(bias.data, (3, 4)))

    def test_empty_dim_rejected(self):
        with pytest.raises(ValueError):
            layer_norm(Tensor(np.ones((2, 0))), Tensor(np.ones(0)), Tensor(np.zeros(0)))


class TestSoftmaxCE:
    def test_uniform_logits(self):
        loss = softmax_ce(Tensor(np.zeros((1, 30))), [7])
        assert math.isclose(float(loss.data), math.log(30), rel_tol=1e-9)

    def test_confident_spike(self):
        logits = np.zeros((1, 10))
        logits[0, 3] = 100.0
        loss = softmax_ce(Tensor(logits), [3])
        assert float(loss.data) < 1e-6

    def test_mean_reduction(self):
        loss = softmax_ce(Tensor(np.zeros((2, 10))), [1, 2])
        assert math.isclose(float(loss.data), math.log(10), rel_tol=1e-9)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_ce(Tensor(np.zeros((1, 5))), [5])

    def test_gradient_is_softmax_minus_onehot(self):
        logits = t(np.random.default_rng(1).normal(size=(3, 6)))
        loss = softmax_ce(logits, [0, 2, 5]) * 3.0
        loss.backward()
        p = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(3), [0, 2, 5]] -= 1.0
        assert np.allclose(logits.grad, p, atol=1e-12)

    @pytest.mark.parametrize("upstream", [1.0, 0.37])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_fresh_array_formulas(self, dtype, upstream):
        # about the MLM head's shape at d16: ~32 masked slots over 2722
        # symbols; 31 rows, so the 1/n scale is not a power of two
        rng = np.random.default_rng(7)
        raw = (rng.normal(size=(31, 2722)) * 4.0).astype(dtype)
        targets = rng.integers(0, 2722, size=31)
        logits = Tensor(raw.copy(), requires_grad=True)
        loss = softmax_ce(logits, targets)
        (loss * upstream).backward()
        want_loss, want_grad = formula_softmax_ce(raw, targets, loss.grad)
        assert loss.data.dtype == logits.grad.dtype == dtype
        assert loss.data.tobytes() == want_loss.tobytes()
        assert logits.grad.tobytes() == want_grad.tobytes()


class TestBCE:
    def test_all_half(self):
        loss = bce_multilabel(Tensor(np.full(5, 0.5)), [1, 0, 1, 0, 1])
        assert math.isclose(float(loss.data), 5 * math.log(2), rel_tol=1e-9)

    def test_perfect_after_clamp(self):
        loss = bce_multilabel(Tensor(np.array([1.0, 0.0, 1.0])), [1, 0, 1])
        assert float(loss.data) < 1e-5

    def test_single_label_exp_minus_one(self):
        loss = bce_multilabel(Tensor(np.array([math.exp(-1)])), [1])
        assert math.isclose(float(loss.data), 1.0, rel_tol=1e-9)

    def test_batch_mean_of_row_sums(self):
        probs = Tensor(np.full((4, 5), 0.5))
        loss = bce_multilabel(probs, np.zeros((4, 5)))
        assert math.isclose(float(loss.data), 5 * math.log(2), rel_tol=1e-9)

    def test_extreme_probs_never_nan(self):
        x = t(np.array([0.0, 1.0, 0.5]))
        loss = bce_multilabel(x, [1, 0, 1])
        loss.backward()
        assert np.isfinite(float(loss.data))
        assert np.isfinite(x.grad).all()


class TestGelu:
    def test_zero(self):
        assert float(gelu(Tensor(np.array(0.0))).data) == 0.0

    def test_large_positive_asymptote(self):
        out = gelu(Tensor(np.array(10.0)))
        assert math.isclose(float(out.data), 10.0, rel_tol=1e-6)

    def test_at_one(self):
        expected = 0.5 * (1 + math.tanh(math.sqrt(2 / math.pi) * 1.044715))
        out = gelu(Tensor(np.array(1.0)))
        assert math.isclose(float(out.data), expected, rel_tol=1e-9)
        assert math.isclose(float(out.data), 0.8412, abs_tol=5e-5)


class TestGRU:
    def _zero_params(self, d_in, d_h):
        rng = np.random.default_rng(0)
        params = gru_tensors(d_in, d_h, rng)
        for p in params.values():
            p.data[...] = 0.0
        return params

    def test_all_zero(self):
        params = self._zero_params(3, 4)
        out = gru_cell(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))), params)
        assert np.allclose(out.data, 0.0)

    def test_update_gate_keeps_previous_state(self):
        params = self._zero_params(3, 4)
        params["b"].data[:4] = 50.0  # force z -> 1
        h_prev = Tensor(np.array([[1.0, -2.0, 3.0, 0.5]]))
        out = gru_cell(Tensor(np.ones((1, 3))), h_prev, params)
        assert np.allclose(out.data, h_prev.data, atol=1e-6)

    def test_finite_difference_jacobian(self):
        with T.precision("float64"):
            rng = np.random.default_rng(7)
            params = gru_tensors(3, 4, rng)
            x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
            h = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
            weights = Tensor(rng.normal(size=(2, 4)))

            def build():
                return (gru_cell(x, h, params) * weights).sum()

            err, _ = finite_diff_max_rel_err(
                build, [x, h] + list(params.values()), np.random.default_rng(3), n_samples=25)
        assert err < 1e-3


RAGGED_MASK = np.array([[1, 1, 1, 1, 1],
                        [1, 1, 1, 0, 0],
                        [1, 0, 0, 0, 0]])


class TestGRUSequence:
    @staticmethod
    def _inputs(seed):
        rng = np.random.default_rng(seed)
        params = gru_tensors(3, 4, rng)
        params["b"].data[...] = rng.normal(size=12)
        x = Tensor(rng.normal(size=(3, 5, 3)), requires_grad=True)
        return rng, params, x

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "rev"])
    def test_matches_stepped_cells_and_scalar_reference(self, reverse):
        with T.precision("float64"):
            _, params, x = self._inputs(11)
            out = gru_sequence(x, RAGGED_MASK, params, reverse=reverse).data
            h = Tensor(np.zeros((3, 4)))
            stepped = np.zeros_like(out)
            for step in (range(4, -1, -1) if reverse else range(5)):
                m = RAGGED_MASK[:, step][:, None].astype(np.float64)
                h = gru_cell(x[:, step, :], h, params) * m + h * (1.0 - m)
                stepped[:, step] = h.data
            brute = brute_gru_states(x.data, RAGGED_MASK, params["w"].data,
                                     params["u"].data, params["b"].data,
                                     reverse)
        assert np.abs(out - stepped).max() < 1e-12
        assert np.abs(out - brute).max() < 1e-12

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "rev"])
    def test_finite_difference_ragged_mask(self, reverse):
        with T.precision("float64"):
            rng, params, x = self._inputs(12)
            h0 = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            weights = Tensor(rng.normal(size=(3, 5, 4)))

            def build():
                return (gru_sequence(x, RAGGED_MASK, params, reverse=reverse,
                                     h0=h0) * weights).sum()

            for param in [x, h0, *params.values()]:
                err, _ = finite_diff_max_rel_err(
                    build, [param], np.random.default_rng(5), n_samples=20)
                assert err < 1e-3

    def test_no_grad_records_no_graph(self):
        _, params, x = self._inputs(13)
        with T.no_grad():
            out = gru_sequence(x, RAGGED_MASK, params)
        assert out._prev == () and out._backward is None
        assert not out.requires_grad

    def test_shape_errors(self):
        _, params, x = self._inputs(14)
        with pytest.raises(ValueError, match="mask"):
            gru_sequence(x, RAGGED_MASK[:, :4], params)
        with pytest.raises(ValueError, match="width"):
            gru_sequence(Tensor(np.ones((3, 5, 2))), RAGGED_MASK, params)
        with pytest.raises(ValueError, match=r"\[n, L, d\]"):
            gru_sequence(Tensor(np.ones((3, 5))), RAGGED_MASK, params)


def _sigmoid_three_exps(a):
    """The original out-of-place sigmoid: exp(-|a|) evaluated three times."""
    return np.where(a >= 0, 1.0 / (1.0 + np.exp(-np.abs(a))),
                    np.exp(-np.abs(a)) / (1.0 + np.exp(-np.abs(a)))
                    ).astype(a.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bytes_match_three_exp_formula(dtype):
    rng = np.random.default_rng(21)
    a = np.concatenate([rng.normal(scale=s, size=2000) for s in (1, 10, 100)]
                       + [[0.0, -0.0, 1e-30, -1e-30, 88.0, -88.0, 1e4, -1e4,
                           np.inf, -np.inf]]).astype(dtype)
    out = Tensor(a).sigmoid().data
    assert out.dtype == dtype
    assert out.tobytes() == _sigmoid_three_exps(a).tobytes()


class TestAdam:
    def test_zero_grad_is_fixed_point(self):
        ps, p = one_param([1.0, 2.0, 3.0])
        before = p.data.copy()
        opt = Adam([ps], lr=0.1)
        for _ in range(5):
            p.grad[...] = np.zeros(3)
            opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_delta(self):
        lr = 0.01
        g = np.array([0.3, -2.0, 0.0001])
        ps, p = one_param([1.0, 1.0, 1.0])
        opt = Adam([ps], lr=lr)
        p.grad[...] = g
        opt.step()
        expected = 1.0 - lr * g / (np.abs(g) + opt.eps)
        assert np.allclose(p.data, expected, atol=1e-12)
        assert np.allclose(p.data - 1.0, -lr * np.sign(g), atol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_out_of_place_formula(self, dtype):
        rng = np.random.default_rng(17)
        shapes = [(5, 7), (7,), (3, 2)]
        inits = [rng.normal(size=s).astype(dtype) for s in shapes]
        grads = [[rng.normal(scale=10.0 ** k, size=s).astype(dtype)
                  for k, s in enumerate(shapes)] for _ in range(6)]
        ps = ParamSet.of({str(i): x for i, x in enumerate(inits)})
        params = list(ps.params.values())
        opt = Adam([ps], lr=0.03)
        ref = [x.copy() for x in inits]
        m = [np.zeros_like(x) for x in inits]
        v = [np.zeros_like(x) for x in inits]
        b1, b2, eps = opt.beta1, opt.beta2, opt.eps
        for step, gs in enumerate(grads, start=1):
            # param 1 gets no gradient: a zero grad, whose step is zero
            for i, (p, g) in enumerate(zip(params, gs)):
                p.grad[...] = 0.0 if i == 1 else g
            opt.step()
            for i, g in enumerate(gs):
                if i == 1:
                    continue
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                m_hat = m[i] / (1.0 - b1 ** step)
                v_hat = v[i] / (1.0 - b2 ** step)
                ref[i] -= (0.03 * m_hat / (np.sqrt(v_hat) + eps)).astype(dtype)
        for p, r in zip(params, ref):
            assert p.data.dtype == dtype
            assert p.data.tobytes() == r.tobytes()
        assert params[1].data.tobytes() == inits[1].tobytes()

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            ps, p = one_param(rng.normal(size=(4, 4)))
            opt = Adam([ps], lr=1e-2)
            for _ in range(10):
                opt.zero_grad()
                loss = (p * p).sum()
                loss.backward()
                opt.step()
            return p.data.tobytes()

        assert run() == run()


def _random_grads(params, rng, frozen=()):
    """Write a normal draw, of its own scale, into each param's grad view;
    zeros into the grads of the params at the indices in frozen, which
    take no draw."""
    for i, p in enumerate(params):
        p.grad[...] = 0.0 if i in frozen else rng.normal(
            scale=10.0 ** (i % 5 - 2), size=p.shape).astype(p.data.dtype)


def _d16_state(seed):
    """An N2-H2-d16 encoder over the default vocabulary: 96,807 floats."""
    vocab = default_vocab()
    return EncoderState.init(ModelConfig(vocab_size=vocab.size, n_blocks=2,
                                         n_heads=2, hidden=16, seed=seed),
                             vocab)


def _tagger_set(rng, d_in, gru_hidden, dense_dim, n_out):
    """A BiGRU tagger's parameter set: both GRUs, the dense and output
    layers."""
    arrays = {f"{way}.{k}": a for way in ("fwd", "bwd")
              for k, a in gru_params(d_in, gru_hidden, rng).items()}
    arrays.update(zip(("dense.w", "dense.b", "out.w", "out.b"), [
        T.glorot(rng, 2 * gru_hidden, dense_dim),
        np.zeros(dense_dim, T.default_dtype()),
        T.glorot(rng, dense_dim, n_out),
        np.zeros(n_out, T.default_dtype())]))
    return ParamSet.of(arrays)


def _encoder_case():
    """A d16 encoder's set, its params and its real batch_loss
    gradients."""
    state = _d16_state(0)
    ids, targets = _encode_lexicon(make_universe()[0][:64], state.vocab,
                                   state.config.max_chars)
    rng = np.random.default_rng(3)

    def set_grads(step):
        rows = slice(16 * (step % 4), 16 * (step % 4 + 1))
        batch = mask_batch(ids[rows], targets[rows], 0.15, rng)
        total = batch_loss(state, batch, rng=rng)[0]
        state.param_set.zero_grad()
        total.backward()

    return [state.param_set], list(state.params.values()), set_grads


def _finetune_case():
    """A tagger's set, then a d16 encoder's, whose masked-prediction and
    label heads get no gradient."""
    state = _d16_state(1)
    rng = np.random.default_rng(4)
    tagger = _tagger_set(rng, 16, 24, 40, 6)
    params = [*tagger.params.values(), *state.params.values()]
    heads = {len(tagger.params) + i for i, name in enumerate(state.params)
             if name in ("mlm_w", "mlm_b", "label_w", "label_b")}
    assert len(heads) == 4
    return ([tagger, state.param_set], params,
            lambda step: _random_grads(params, rng, heads))


def _over_block_case():
    """A set with a param longer than a block, so a block ends inside
    it."""
    rng = np.random.default_rng(5)
    ps = ParamSet.of({str(i): rng.normal(size=s).astype(T.default_dtype())
                      for i, s in enumerate([(100,), (300, 200), (5000,),
                                             (7,)])})
    params = list(ps.params.values())
    assert params[1].size > T.BLOCK
    return [ps], params, lambda step: _random_grads(params, rng)


class TestFlatAdam:
    """Adam's blocked pass over flat moments against the tensor-by-tensor
    loop it replaced."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("case", [_encoder_case, _finetune_case,
                                      _over_block_case],
                             ids=["encoder", "finetune", "over_block"])
    def test_bytes_match_per_tensor_oracle(self, case, dtype):
        with T.precision(dtype):
            sets, params, set_grads = case()
            ref = [Tensor(p.data.copy(), requires_grad=True) for p in params]
            m = [np.zeros_like(p.data) for p in params]
            v = [np.zeros_like(p.data) for p in params]
            opt = Adam(sets, lr=1e-3)
            for step in range(1, 13):
                set_grads(step)
                for p, r in zip(params, ref):
                    r.grad = p.grad.copy()
                opt.step()
                per_tensor_adam_step(ref, m, v, step, lr=1e-3)
                for i, (p, r) in enumerate(zip(params, ref)):
                    assert p.data.dtype == np.dtype(dtype)
                    assert p.data.tobytes() == r.data.tobytes(), (step, i)
                assert opt.m.tobytes() == np.concatenate(
                    [x.reshape(-1) for x in m]).tobytes()
                assert opt.v.tobytes() == np.concatenate(
                    [x.reshape(-1) for x in v]).tobytes()

    def test_tagger_step_allocates_no_array(self):
        rng = np.random.default_rng(6)
        tagger = _tagger_set(rng, 16, 384, 768, 17)
        params = list(tagger.params.values())
        total = sum(p.size for p in params)
        itemsize = params[0].data.itemsize
        _random_grads(params, rng)
        tracemalloc.start()
        try:
            opt = Adam([tagger], lr=1e-3)
            opt.step()
            owned = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            opt.step()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert total > 1_500_000
        assert owned <= (2 * total + 2 * T.BLOCK) * itemsize + 64 * 1024
        assert peak < 64 * 1024

    def test_mixed_dtypes_rejected(self):
        sets = [ParamSet.of({"p": np.zeros(3, np.float32)}),
                ParamSet.of({"p": np.zeros(3, np.float64)})]
        with pytest.raises(ValueError, match="one dtype"):
            Adam(sets)

    def test_never_writes_a_grad(self):
        ps = _tagger_set(np.random.default_rng(7), 4, 6, 8, 3)
        _random_grads(list(ps.params.values()), np.random.default_rng(8))
        before = ps.grad.copy()
        opt = Adam([ps], lr=1e-3)
        for _ in range(3):
            opt.step()
        assert ps.grad.tobytes() == before.tobytes()

    def test_empty_list_steps_as_a_no_op(self):
        opt = Adam([])
        opt.step()
        opt.zero_grad()
        assert opt.t == 1


class TestParamSet:
    def test_params_view_data_and_grad(self):
        ps = ParamSet([("a", (2, 3)), ("b", (4,))], np.arange(10.0))
        a, b = ps.params.values()
        assert a.data.tolist() == [[0, 1, 2], [3, 4, 5]]
        assert b.data.tolist() == [6, 7, 8, 9]
        a.data[1, 2] = -1.0
        b.grad[0] = 2.0
        assert ps.data[5] == -1.0 and ps.grad[6] == 2.0
        for p in (a, b):
            assert p.requires_grad
            assert np.shares_memory(p.data, ps.data)
            assert np.shares_memory(p.grad, ps.grad)

    def test_backward_accumulates_into_the_grad_buffer(self):
        ps = ParamSet.of({"w": np.ones((2, 2)), "b": np.zeros(2)})
        w, b = ps.params.values()
        x = Tensor(np.array([[1.0, 2.0]]))
        (linear(x, w, b) + linear(x, w, b)).sum().backward()
        assert ps.grad.tolist() == [2, 2, 4, 4, 2, 2]
        assert np.shares_memory(w.grad, ps.grad)

    def test_check_finite(self):
        ps, p = one_param([1.0, 2.0])
        assert ps.check_finite()
        p.data[1] = math.nan
        assert not ps.check_finite()

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ValueError, match="one dtype"):
            ParamSet.of({"a": np.zeros(3, np.float32),
                         "b": np.zeros(3, np.float64)})

    @pytest.mark.parametrize("data", [np.zeros((4, 3)).T, np.zeros(8)[::2]],
                             ids=["transposed", "strided"])
    def test_non_contiguous_data_is_copied(self, data):
        data[...] = np.arange(data.size).reshape(data.shape)
        ps = ParamSet.of({"a": np.zeros(2), "b": data})
        b = ps.params["b"].data
        assert b.flags.c_contiguous and np.shares_memory(b, ps.data)
        assert b.tobytes() == np.ascontiguousarray(data).tobytes()

    def test_strided_buffer_is_copied_and_contiguous_is_kept(self):
        strided = ParamSet([("a", (4,))], np.arange(8.0)[::2])
        assert strided.data.flags.c_contiguous
        assert strided.data.tolist() == [0, 2, 4, 6]
        flat = np.arange(4.0)
        assert ParamSet([("a", (2, 2))], flat).data is flat

    @pytest.mark.parametrize("data", [np.zeros(5), np.zeros(7),
                                      np.zeros((2, 3))],
                             ids=["short", "long", "2-d"])
    def test_wrong_buffer_rejected_naming_both_sizes(self, data):
        with pytest.raises(ValueError, match=rf"buffer of 6 floats, got "
                                             rf"{data.size} in shape"):
            ParamSet([("a", (2, 3))], data)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dtype=st.sampled_from(["float32", "float64"]),
       shapes=st.lists(st.lists(st.integers(1, 5), min_size=0, max_size=2)
                       .map(tuple), min_size=1, max_size=5),
       steps=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_set_adam_bytes_match_per_tensor_oracle(monkeypatch, dtype, shapes,
                                                steps, seed):
    # blocks of 7 floats end inside params and span several of them
    monkeypatch.setattr(T, "BLOCK", 7)
    rng = np.random.default_rng(seed)
    ps = ParamSet.of({str(i): rng.normal(size=s).astype(dtype)
                      for i, s in enumerate(shapes)})
    params = list(ps.params.values())
    ref = [Tensor(p.data.copy(), requires_grad=True) for p in params]
    m = [np.zeros_like(p.data) for p in params]
    v = [np.zeros_like(p.data) for p in params]
    opt = Adam([ps], lr=0.01)
    for step in range(1, steps + 1):
        opt.zero_grad()
        for p, r in zip(params, ref):
            p.grad[...] = rng.normal(scale=10.0 ** rng.integers(-3, 3),
                                     size=p.shape)
            r.grad = p.grad.copy()
        opt.step()
        per_tensor_adam_step(ref, m, v, step, lr=0.01)
    assert ps.data.tobytes() == np.concatenate(
        [r.data.reshape(-1) for r in ref]).tobytes()
    assert opt.m.tobytes() == np.concatenate(
        [x.reshape(-1) for x in m]).tobytes()
    assert opt.v.tobytes() == np.concatenate(
        [x.reshape(-1) for x in v]).tobytes()


class TestFit:
    @staticmethod
    def quadratic():
        ps, p = one_param([2.0, -1.0])
        seen = []

        def loss_fn():
            seen.append(p.data.copy())
            return (p * p).sum()

        return ps, p, seen, loss_fn

    def test_runs_every_epoch_without_target(self):
        ps, p, seen, loss_fn = self.quadratic()
        losses = fit([ps], (loss_fn() for _ in range(7)), lr=0.1)
        qs, q = one_param([2.0, -1.0])
        opt = Adam([qs], lr=0.1)
        for _ in range(7):
            opt.zero_grad()
            (q * q).sum().backward()
            opt.step()
        assert len(seen) == 7
        assert p.data.tobytes() == q.data.tobytes()
        assert losses == [float((x * x).sum()) for x in seen]

    def test_stops_below_target_without_stepping(self):
        ps, _, _, loss_fn = self.quadratic()
        full = fit([ps], (loss_fn() for _ in range(6)), lr=0.1)
        assert all(a > b for a, b in zip(full, full[1:]))
        ps, p, seen, loss_fn = self.quadratic()
        losses = fit([ps], (loss_fn() for _ in range(6)), lr=0.1,
                     loss_target=(full[2] + full[3]) / 2)
        assert losses == full[:4]
        assert len(seen) == 4
        assert np.array_equal(p.data, seen[-1])

    def test_one_loss_per_epoch_run(self):
        ps, p, seen, loss_fn = self.quadratic()
        assert len(fit([ps], (loss_fn() for _ in range(3)), lr=0.1,
                       loss_target=-1.0)) == 3
        assert fit([ps], (loss_fn() for _ in range(0)), lr=0.1) == []
        assert len(fit([ps], (loss_fn() for _ in range(5)), lr=0.1,
                       loss_target=np.inf)) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_loss_stops_before_its_step(self, bad):
        ps, p, seen, loss_fn = self.quadratic()

        def loss_turning_bad():
            loss = loss_fn()
            return loss * bad if len(seen) == 3 else loss

        with pytest.raises(NumericalError, match=r"at step 3$"):
            fit([ps], (loss_turning_bad() for _ in range(5)), lr=0.1)
        assert len(seen) == 3
        assert np.array_equal(p.data, seen[-1])

    def test_non_finite_weights_after_last_step(self):
        ps, p = one_param([1.0])
        with pytest.raises(NumericalError,
                           match=r"non-finite weights after step 1$"):
            fit([ps], (p.sum() for _ in range(1)), lr=math.inf)

    @pytest.mark.parametrize("target", [None, 1e9], ids=["no_target", "early_stop"])
    def test_leaves_no_graph_for_the_cyclic_gc(self, target):
        ws, w = one_param(np.random.default_rng(0).normal(size=(3, 3)))
        x = Tensor(np.eye(3))
        losses, leaked = tensors_left_to_cyclic_gc(
            lambda: fit([ws], (((x @ w) * (x @ w)).sum() for _ in range(3)),
                        lr=0.1, loss_target=target))
        assert len(losses) == (3 if target is None else 1)
        assert leaked == 0


def _training_calls(tree, inside=None):
    """Line numbers of the Adam(...), .backward() and .step() calls in tree,
    leaving out those within the node inside."""
    skip = {id(n) for n in ast.walk(inside)} if inside is not None else set()
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "Adam" or (name in ("backward", "step")
                              and isinstance(node.func, ast.Attribute)):
            lines.append(node.lineno)
    return lines


def test_fit_is_the_only_training_loop():
    package = Path(T.__file__).parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fit_def = None
        if path == package / "tensor.py":
            [fit_def] = [n for n in tree.body if isinstance(
                n, ast.FunctionDef) and n.name == "fit"]
            assert len(_training_calls(fit_def)) == 3
        lines = _training_calls(tree, inside=fit_def)
        if lines:
            found[str(path.relative_to(package))] = lines
    assert found == {}, ("train through tensor.fit, not an Adam, backward "
                         f"or step of your own: {found}")


class TestBackward:
    def test_sum_gives_ones(self):
        x = t(np.random.default_rng(0).normal(size=(3, 4)))
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_product_of_scalars(self):
        x, y = t(np.array(3.0)), t(np.array(5.0))
        (x * y).backward()
        assert float(x.grad) == 5.0 and float(y.grad) == 3.0

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError):
            t(np.ones(3)).backward()

    def test_grad_accumulates_through_reuse(self):
        x = t(np.array(2.0))
        ((x * x) + x).backward()
        assert float(x.grad) == 5.0  # 2x + 1

    def test_graph_freed_by_refcount_after_backward(self):
        gc.disable()
        try:
            x = t(np.array([1.0, -2.0, 3.0]))
            h = (x * 2.0).tanh()
            node = weakref.ref(h)
            loss = (h * h).sum()
            del h
            loss.backward()
            del loss
            assert node() is None
            assert x.grad is not None and np.all(x.grad != 0)
        finally:
            gc.enable()


# op on a Tensor a with a Python number as the other operand
SCALAR_OPS = {
    "mul": lambda a: a * 2.0,
    "rmul": lambda a: 2.0 * a,
    "mul_int": lambda a: a * 2,
    "add": lambda a: a + 1.0,
    "radd": lambda a: 1.0 + a,
    "sub": lambda a: a - 1.0,
    "rsub": lambda a: 1.0 - a,
    "truediv": lambda a: a / 2.0,
    "neg": lambda a: -a,
    "mean": lambda a: a.mean(),
}


class TestScalarOperands:
    """A Python number takes the Tensor's dtype, as NumPy's weak scalars
    do; an array operand keeps its own."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(SCALAR_OPS))
    def test_result_and_gradients_keep_the_tensor_dtype(self, op, dtype):
        a = Tensor(np.arange(1.0, 4.0, dtype=dtype), requires_grad=True)
        y = SCALAR_OPS[op](a)
        assert y.data.dtype == dtype
        y.sum().backward()
        assert y.grad.dtype == dtype
        assert a.grad.dtype == dtype

    def test_values_equal_numpy_weak_scalars(self):
        x = np.arange(1.0, 4.0, dtype=np.float32)
        a = Tensor(x)
        for got, want in (((a * 0.1).data, x * 0.1),
                          ((1.0 - a).data, 1.0 - x),
                          ((a / 3.0).data, x / 3.0)):
            assert got.dtype == want.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    def test_array_operand_keeps_its_dtype(self):
        a = Tensor(np.ones(3, np.float32))
        assert (a * np.full(3, 2.0)).data.dtype == np.float64
        assert (a + np.float64(1.0)).data.dtype == np.float64


class TestNoGrad:
    def test_records_no_graph(self):
        x = t(np.array([1.0, 2.0]))
        with T.no_grad():
            y = (x * x).sum()
        assert y._prev == () and y._backward is None
        assert not y.requires_grad
        assert float(y.data) == 5.0

    def test_flag_restored_after_exception(self):
        x = t(np.array([1.0, 2.0]))
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("boom")
        y = (x * x).sum()
        assert y._prev and y._backward is not None
        y.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])


class TestProperties:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = Tensor(rng.normal(scale=5, size=(4, 9)))
            s = softmax(x).data.sum(axis=-1)
            assert np.allclose(s, 1.0, atol=1e-6)

    def test_forward_replay_bit_identical(self):
        def run():
            rng = np.random.default_rng(3)
            x = Tensor(rng.normal(size=(5, 8)).astype(np.float32))
            w = Tensor(rng.normal(size=(8, 8)).astype(np.float32))
            out = gelu(layer_norm(x @ w, Tensor(np.ones(8, np.float32)),
                                  Tensor(np.zeros(8, np.float32))))
            return out.data.tobytes()

        assert run() == run()

    def test_dropout_train_mode_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((1000,)))
        out = dropout(x, 0.25, rng)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 1 / 0.75)
        assert abs((out.data > 0).mean() - 0.75) < 0.05


class TestGradCheckAllOps:
    """Central finite differences vs autodiff on every differentiable op."""

    def _check(self, build, params, seed=0, n=20):
        err, _ = finite_diff_max_rel_err(build, params, np.random.default_rng(seed), n_samples=n)
        assert err < 1e-3, f"finite-difference mismatch: {err}"

    def test_elementwise_chain(self):
        with T.precision("float64"):
            rng = np.random.default_rng(2)
            x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            y = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

            def build():
                z = (x * y + x - 0.5 * y).tanh()
                z = z * z.sigmoid()
                return (z * z).mean()

            self._check(build, [x, y])

    def test_broadcast_add_mul(self):
        with T.precision("float64"):
            rng = np.random.default_rng(3)
            a = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
            b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
            self._check(lambda: ((a + b) * (a * b)).sum(), [a, b], n=7)

    def test_matmul_layer_norm_gelu(self):
        with T.precision("float64"):
            rng = np.random.default_rng(4)
            x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
            w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
            g = Tensor(rng.normal(size=6), requires_grad=True)
            bias = Tensor(rng.normal(size=6), requires_grad=True)

            def build():
                return (gelu(layer_norm(x @ w, g, bias)) ** 2).sum()

            self._check(build, [x, w, g, bias])

    def test_softmax_and_ce(self):
        with T.precision("float64"):
            rng = np.random.default_rng(5)
            logits = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
            mix = Tensor(rng.normal(size=(4, 7)))

            def build():
                return (softmax(logits) * mix).sum() + softmax_ce(logits, [1, 0, 6, 3])

            self._check(build, [logits])

    def test_bce(self):
        with T.precision("float64"):
            rng = np.random.default_rng(6)
            raw = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
            y = rng.integers(0, 2, size=(3, 5))
            self._check(lambda: bce_multilabel(raw.sigmoid(), y), [raw])

    def test_embedding_getitem_cat(self):
        with T.precision("float64"):
            rng = np.random.default_rng(8)
            table = Tensor(rng.normal(size=(10, 4)), requires_grad=True)
            ids = np.array([[1, 2, 2], [0, 9, 4]])

            def build():
                e = embedding(table, ids)
                joined = cat([e[:, 0], e[:, 1]], axis=-1)
                return (joined * joined).sum() + e[0, 0].sum()

            self._check(build, [table], n=15)

    def test_reductions(self):
        with T.precision("float64"):
            rng = np.random.default_rng(9)
            x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)

            def build():
                return ((x.mean(axis=1) * x.sum(axis=1)).sum()
                        + (x.mean(axis=0) * x.sum(axis=0)).sum()
                        + (x ** 3).mean())

            self._check(build, [x], n=15)


# per-row key lengths of a [2, 2, 5, 5] attention score block: ragged PAD
PAD_ADD = np.where(np.arange(5)[None, :] < np.array([[5], [2]]), 0.0,
                   -1e9)[:, None, None, :]


class TestFusedOps:
    """Each single-node op against finite differences for every input, and
    its forward against the composite formula it replaced."""

    @staticmethod
    def _fd(build, param, seed=0, n=20):
        err, _ = finite_diff_max_rel_err(build, [param],
                                         np.random.default_rng(seed),
                                         n_samples=n)
        assert err < 1e-5, f"finite-difference mismatch: {err}"

    @staticmethod
    def _inputs(seed, *shapes):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=s), requires_grad=True)
                for s in shapes]

    def test_layer_norm_grads_and_forward(self):
        with T.precision("float64"):
            x, gain, bias, mix = self._inputs(30, (2, 3, 6), (6,), (6,),
                                              (2, 3, 6))

            def build():
                return (layer_norm(x, gain, bias) * mix).sum()

            for param in (x, gain, bias):
                self._fd(build, param)
            out = layer_norm(x, gain, bias).data
        ref = composite_layer_norm(x.data, gain.data, bias.data, 1e-5)
        assert np.abs(out - ref).max() < 1e-12

    def test_softmax_ragged_mask_and_scale(self):
        with T.precision("float64"):
            x, mix = self._inputs(31, (2, 2, 5, 5), (2, 2, 5, 5))

            def build():
                return (softmax(x, scale=0.35, add=PAD_ADD) * mix).sum()

            self._fd(build, x, n=30)
            out = softmax(x, scale=0.35, add=PAD_ADD)
            out.sum().backward()
        ref = composite_softmax(x.data, 0.35, PAD_ADD)
        assert np.abs(out.data - ref).max() < 1e-12
        # PAD weights and their gradients are exactly zero
        pad = np.broadcast_to(PAD_ADD < 0, out.shape)
        assert not out.data[pad].any() and not x.grad[pad].any()

    def test_gelu(self):
        with T.precision("float64"):
            x, mix = self._inputs(33, (3, 7), (3, 7))
            x.data *= 3.0
            self._fd(lambda: (gelu(x) * mix).sum(), x)
            out = gelu(x).data
        assert np.abs(out - composite_gelu(x.data)).max() < 1e-12

    def test_linear_3d_input(self):
        with T.precision("float64"):
            x, w, b, mix = self._inputs(34, (2, 3, 4), (4, 5), (5,),
                                        (2, 3, 5))

            def build():
                return (linear(x, w, b) * mix).sum()

            for param in (x, w, b):
                self._fd(build, param)
            out = linear(x, w, b).data
        assert out.shape == (2, 3, 5)
        ref = composite_linear(x.data, w.data, b.data)
        assert np.abs(out - ref).max() < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_bytes_match_out_of_place_bias(self, dtype):
        rng = np.random.default_rng(36)
        x, w, b = (rng.normal(size=s).astype(dtype)
                   for s in ((2, 3, 4), (4, 5), (5,)))
        out = linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.tobytes() == (x.reshape(-1, 4) @ w + b).tobytes()

    def test_linear_shape_error(self):
        x, w, b = self._inputs(35, (2, 4), (3, 5), (5,))
        with pytest.raises(ValueError, match=r"\(2, 4\).*\(3, 5\)"):
            linear(x, w, b)

    def test_truediv_both_operands_broadcast(self):
        with T.precision("float64"):
            a, b, mix = self._inputs(36, (3, 4), (1, 4), (3, 4))
            b.data = np.abs(b.data) + 0.5

            def build():
                return (a / b * mix).sum()

            for param in (a, b):
                self._fd(build, param)
            out = (a / b).data
        assert np.array_equal(out, a.data / b.data)

    def test_fused_ops_are_one_node_each(self):
        x, gain, bias, w, b = self._inputs(37, (2, 4), (4,), (4,), (4, 4),
                                           (4,))
        outs = [layer_norm(x, gain, bias), softmax(x, scale=0.5, add=0.0),
                gelu(x), linear(x, w, b), x / gain]
        for out in outs:
            assert all(not child._prev for child in out._prev)

    def test_no_grad_records_no_graph(self):
        x, gain, bias, w, b = self._inputs(38, (2, 4), (4,), (4,), (4, 4),
                                           (4,))
        with T.no_grad():
            outs = [layer_norm(x, gain, bias), softmax(x), gelu(x),
                    linear(x, w, b), x / gain]
        assert all(o._prev == () and not o.requires_grad for o in outs)


class TestAttentionNodes:
    """attention_scores, attention_context and dropout against the former
    chain of one node per op (oracles.composite_attention), byte for byte,
    and against finite differences."""

    @staticmethod
    def _block(dtype, n_heads, seed=50):
        """x, the q/k/v/o (weight, bias) pairs, a ragged PAD mask and a
        loss mix, of width 8 over 3 words of 6 positions."""
        rng = np.random.default_rng(seed)

        def leaf(*shape):
            return Tensor(rng.normal(size=shape).astype(dtype),
                          requires_grad=True)

        x = leaf(3, 6, 8)
        w = {name: (leaf(8, 8), leaf(8)) for name in "qkvo"}
        lengths = np.array([6, 3, 1])
        add = np.where(np.arange(6)[None, :] < lengths[:, None], 0.0,
                       -1e9)[:, None, None, :].astype(dtype)
        return x, w, add, rng.normal(size=(3, 6, 8)).astype(dtype)

    @staticmethod
    def _fused(x, w, n_heads, add, p, rng):
        scores = T.attention_scores(x, *w["q"], *w["k"], n_heads)
        attn = softmax(scores, scale=1.0 / math.sqrt(x.shape[-1] // n_heads),
                       add=add)
        attn = dropout(attn, p, rng)
        v = linear(x, *w["v"])
        return dropout(T.attention_context(attn, v, *w["o"]), p, rng)

    @pytest.mark.parametrize("p", [0.0, 0.25], ids=["eval", "dropout"])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_composite_chain(self, dtype, n_heads, p):
        def run(attention):
            with T.precision(dtype):
                x, w, add, mix = self._block(dtype, n_heads)
                # the residual sum of a block, so x's gradient gathers
                # four shares as in the encoder
                out = x + attention(x, w, n_heads, add, p,
                                    np.random.default_rng(7))
                (out * mix).sum().backward()
            leaves = [x] + [t for name in "qkvo" for t in w[name]]
            return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]

        fused, composite = run(self._fused), run(composite_attention)
        names = ["out", "x"] + [f"{name}_{part}" for name in "qkvo"
                                for part in ("w", "b")]
        assert [n for n, a, b in zip(names, fused, composite) if a != b] == []

    def test_scores_finite_differences(self):
        with T.precision("float64"):
            x, w, _, _ = self._block(np.float64, 2, seed=51)
            mix = np.random.default_rng(52).normal(size=(3, 2, 6, 6))
            wq, bq = w["q"]
            wk, bk = w["k"]

            def build():
                return (T.attention_scores(x, wq, bq, wk, bk, 2) * mix).sum()

            for param in (x, wq, bq, wk, bk):
                TestFusedOps._fd(build, param)

    def test_context_finite_differences(self):
        with T.precision("float64"):
            rng = np.random.default_rng(53)
            attn = Tensor(rng.uniform(size=(3, 2, 6, 6)), requires_grad=True)
            v, w, _, mix = self._block(np.float64, 2, seed=54)
            wo, bo = w["o"]

            def build():
                return (T.attention_context(attn, v, wo, bo) * mix).sum()

            for param in (attn, v, wo, bo):
                TestFusedOps._fd(build, param)

    def test_dropout_finite_differences(self):
        with T.precision("float64"):
            x, mix = TestFusedOps._inputs(55, (4, 5), (4, 5))
            TestFusedOps._fd(lambda: (dropout(x, 0.3, np.random.default_rng(9))
                                      * mix).sum(), x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_bytes_match_keep_leaf(self, dtype):
        def run(drop):
            with T.precision(dtype):
                rng = np.random.default_rng(56)
                x = Tensor(rng.normal(size=(3, 4, 5)).astype(dtype),
                           requires_grad=True)
                mix = rng.normal(size=(3, 4, 5)).astype(dtype)
                out = drop(x, 0.4, np.random.default_rng(8))
                (out * mix).sum().backward()
            return out.data.tobytes(), x.grad.tobytes()

        assert run(dropout) == run(composite_dropout)

    def test_each_is_one_node(self):
        x, w, _, _ = self._block(np.float64, 2)
        scores = T.attention_scores(x, *w["q"], *w["k"], 2)
        context = T.attention_context(Tensor(np.ones((3, 2, 6, 6))), x,
                                      *w["o"])
        dropped = dropout(x, 0.5, np.random.default_rng(0))
        for out in (scores, context, dropped):
            assert all(not child._prev for child in out._prev)
        assert dropout(x, 0.0, np.random.default_rng(0)) is x
        assert dropout(x, 0.5, None) is x

    def test_no_grad_records_no_graph(self):
        x, w, _, _ = self._block(np.float64, 2)
        with T.no_grad():
            scores = T.attention_scores(x, *w["q"], *w["k"], 2)
            outs = [scores, T.attention_context(scores, x, *w["o"]),
                    dropout(x, 0.5, np.random.default_rng(0))]
        assert all(o._prev == () and not o.requires_grad for o in outs)

    def test_shape_errors(self):
        x, w, _, _ = self._block(np.float64, 2)
        with pytest.raises(ValueError, match="3 heads"):
            T.attention_scores(x, *w["q"], *w["k"], 3)
        with pytest.raises(ValueError, match="do not fit"):
            T.attention_scores(x, Tensor(np.ones((8, 4))), w["q"][1],
                               *w["k"], 2)
        attn = Tensor(np.ones((3, 2, 6, 6)))
        with pytest.raises(ValueError, match="do not fit"):
            T.attention_context(attn, x[:, :5], *w["o"])
        with pytest.raises(ValueError, match="expects"):
            T.attention_context(attn, x[0], *w["o"])


def _graph(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._prev)
    return nodes


def _assert_no_shared_grads(nodes):
    grads = [n.grad for n in nodes if n.grad is not None]
    assert grads
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


class TestGradientOwnership:
    """First gradients are adopted without a copy only when nothing else
    refers to them; no two tensors may end up sharing a gradient buffer."""

    def test_add_of_two_leaves(self):
        x, w = t(np.ones((2, 3))), t(np.full((2, 3), 2.0))
        loss = (x + w).sum()
        loss.backward()
        assert not np.shares_memory(x.grad, w.grad)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_reused_node_and_views(self):
        rng = np.random.default_rng(40)
        x, w, gain, bias = (t(rng.normal(size=s))
                            for s in ((2, 3, 4), (4, 4), (4,), (4,)))
        h = linear(x, w, bias)
        y = layer_norm(h + h, gain, bias)
        # cat hands each input a view of its gradient, indexing a fresh one
        z = softmax(y[1], scale=2.0) + gelu(h)[0]
        loss = cat([z, h[1], h[:, 0]], axis=0).sum() \
            + (x / (w.sum() + 10.0)).sum()
        nodes = _graph(loss)
        loss.backward()
        _assert_no_shared_grads(nodes)

    def test_layer_norm_bias_without_broadcast(self):
        # a 1-D input gives bias the output's own shape: its gradient is g
        x, gain, bias = (t(np.arange(4.0) + k) for k in range(3))
        y = layer_norm(x, gain, bias)
        loss = (y + y).sum()
        nodes = _graph(loss)
        loss.backward()
        _assert_no_shared_grads(nodes)
        np.testing.assert_array_equal(bias.grad, np.full(4, 2.0))


# float32-exact values, signed zeros among them
ELEMENTS = st.floats(-1e6, 1e6, width=32) | st.sampled_from([0.0, -0.0])


@st.composite
def _operands(draw):
    """Two arrays of one drawn shape and one drawn dtype."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=4))
    return [draw(hnp.arrays(dtype, shape, elements=ELEMENTS))
            for _ in range(2)]


def _outputs(ops, arrays, data, grad_of=(0, 1)):
    """For each op, (its output, the gradients of the inputs in grad_of)
    over Tensors of copies of arrays, after backpropagating one drawn
    upstream weight of the output's shape, zeros of either sign
    included."""
    runs = []
    for op in ops:
        ts = [Tensor(x.copy(), requires_grad=i in grad_of)
              for i, x in enumerate(arrays)]
        runs.append((ts, op(*ts)))
    y = runs[0][1]
    upstream = data.draw(hnp.arrays(y.data.dtype, y.shape,
                                    elements=ELEMENTS), label="upstream")
    results = []
    for ts, out in runs:
        (out * upstream).sum().backward()
        results.append((out.data, [ts[i].grad for i in grad_of]))
    return results


def _assert_same_bytes(results):
    (data, grads), (want_data, want_grads) = results
    assert data.dtype == want_data.dtype
    assert data.tobytes() == want_data.tobytes()
    for g, want in zip(grads, want_grads):
        assert g.dtype == want.dtype and g.tobytes() == want.tobytes()


class TestOneNodeOps:
    """a - b, c - a and mean are one node each; their bytes and their
    inputs' gradient bytes equal those of the composite forms they
    replaced (oracles.composite_sub, composite_rsub, composite_mean)."""

    @settings(max_examples=80, deadline=None)
    @given(arrays=_operands(), data=st.data())
    def test_sub(self, arrays, data):
        _assert_same_bytes(_outputs([lambda a, b: a - b, composite_sub],
                                    arrays, data))

    @settings(max_examples=40, deadline=None)
    @given(arrays=_operands(), data=st.data())
    def test_sub_of_a_broadcast_right_operand(self, arrays, data):
        # the node sums -g down to a broadcast right operand, where the
        # composite negated the sum of g: a gradient that sums to zero
        # may now be +0.0 where it was -0.0, and every value is equal
        a, b = arrays
        b = b.reshape(-1)[:1]
        (data_new, grads), (data_old, old_grads) = _outputs(
            [lambda x, y: x - y, composite_sub], [a, b], data)
        assert data_new.tobytes() == data_old.tobytes()
        for g, want in zip(grads, old_grads):
            assert g.shape == want.shape
            assert np.array_equal(g, want)

    @settings(max_examples=80, deadline=None)
    @given(arrays=_operands(), c=ELEMENTS, data=st.data())
    def test_rsub(self, arrays, c, data):
        a, array_c = arrays
        # a Python number takes a's dtype; an array keeps its own
        _assert_same_bytes(_outputs(
            [lambda x: c - x,
             lambda x: composite_rsub(np.asarray(c, x.data.dtype), x)],
            [a], data, (0,)))
        _assert_same_bytes(_outputs(
            [lambda x, k: x.__rsub__(k.data),
             lambda x, k: composite_rsub(k.data, x)],
            [a, array_c], data, (0,)))

    @settings(max_examples=80, deadline=None)
    @given(arrays=_operands(), data=st.data())
    def test_mean(self, arrays, data):
        a = arrays[0]
        axis = data.draw(st.sampled_from([None, *range(-a.ndim, a.ndim)]),
                         label="axis")
        _assert_same_bytes(_outputs(
            [lambda x: x.mean(axis), lambda x: composite_mean(x, axis)],
            [a], data, (0,)))

    def test_each_is_one_node(self):
        x = t(np.ones((3, 2)))
        for y in (x - np.zeros((3, 2)), 1.0 - x, x.mean(), x.mean(0)):
            assert x in y._prev
            assert all(not child._prev for child in y._prev)


def _closure_order(root):
    """The nodes whose closures root.backward() runs, in the order it
    runs them."""
    ran = []

    def record(node, closure):
        ran.append(node)
        closure()

    for node in _graph(root):
        if node._backward is not None:
            node._backward = functools.partial(record, node, node._backward)
    root.backward()
    return ran


def _batch_loss_graph():
    state = _d16_state(0)
    ids, targets = _encode_lexicon(make_universe()[0][:16], state.vocab,
                                   state.config.max_chars)
    rng = np.random.default_rng(3)
    return batch_loss(state, mask_batch(ids, targets, 0.15, rng),
                      rng=rng)[0]


def _compose_loss_graph(objective):
    rng = np.random.default_rng(4)
    P, R, S, target = rng.normal(size=(4, 6, 5))
    spec = compose._TABLE["MpCnc"]
    weights = ParamSet.of({"W": rng.normal(0, 0.01, (15, 5))})
    X = [Tensor(x) for x in spec.inputs(P, R, S)]
    return compose._fit_loss(spec.forward(weights.params, *X), target,
                             objective)


class TestWalkOrder:
    """backward pushes only nodes with inputs, and runs the closures in
    the order the walk over every node ran them
    (oracles.full_walk_order)."""

    @pytest.mark.parametrize("build", [
        _batch_loss_graph, lambda: _compose_loss_graph("mse"),
        lambda: _compose_loss_graph("cosine")],
        ids=["batch_loss", "compose_mse", "compose_cosine"])
    def test_closures_run_in_the_full_walk_order(self, build):
        loss = build()
        want = full_walk_order(loss)
        assert len(want) > 3
        assert [id(n) for n in _closure_order(loss)] == \
            [id(n) for n in want]
        assert all(n._prev == () and n._backward is None for n in want)
