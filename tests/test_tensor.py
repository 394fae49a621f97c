import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from chdzdt import tensor as T
from chdzdt.chartok import default_vocab, encode_word
from chdzdt.encoder import EncoderState, ModelConfig
from chdzdt.errors import NumericalError
from chdzdt.pretrain import batch_loss, mask_batch
from chdzdt.tensor import (
    Adam,
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

from oracles import (
    brute_gru_states,
    composite_gelu,
    composite_layer_norm,
    composite_linear,
    composite_softmax,
    finite_diff_max_rel_err,
    per_tensor_adam_step,
)
from universe import make_universe


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


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
        params = gru_params(d_in, d_h, rng)
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
            params = gru_params(3, 4, rng)
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
        params = gru_params(3, 4, rng)
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
        p = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        before = p.data.copy()
        opt = Adam([p], lr=0.1)
        for _ in range(5):
            p.grad = np.zeros(3)
            opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_delta(self):
        lr = 0.01
        g = np.array([0.3, -2.0, 0.0001])
        p = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
        opt = Adam([p], lr=lr)
        p.grad = g
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
        params = [Tensor(x.copy(), requires_grad=True) for x in inits]
        opt = Adam(params, lr=0.03)
        ref = [x.copy() for x in inits]
        m = [np.zeros_like(x) for x in inits]
        v = [np.zeros_like(x) for x in inits]
        b1, b2, eps = opt.beta1, opt.beta2, opt.eps
        for step, gs in enumerate(grads, start=1):
            for i, (p, g) in enumerate(zip(params, gs)):
                p.grad = None if i == 1 else g
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
            p = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            opt = Adam([p], lr=1e-2)
            for _ in range(10):
                opt.zero_grad()
                loss = (p * p).sum()
                loss.backward()
                opt.step()
            return p.data.tobytes()

        assert run() == run()


def _random_grads(params, rng, frozen=()):
    """Put a normal draw, of its own scale, on each param as its grad;
    None on the params at the indices in frozen."""
    for i, p in enumerate(params):
        p.grad = None if i in frozen else rng.normal(
            scale=10.0 ** (i % 5 - 2), size=p.shape).astype(p.data.dtype)


def _d16_state(seed):
    """An N2-H2-d16 encoder over the default vocabulary: 96,807 floats."""
    vocab = default_vocab()
    return EncoderState.init(ModelConfig(vocab_size=vocab.size, n_blocks=2,
                                         n_heads=2, hidden=16, seed=seed),
                             vocab)


def _tagger_params(rng, d_in, gru_hidden, dense_dim, n_out):
    """A BiGRU tagger's params: both GRUs, the dense and output layers."""
    grus = [*gru_params(d_in, gru_hidden, rng).values(),
            *gru_params(d_in, gru_hidden, rng).values()]
    dense = [T.glorot(rng, 2 * gru_hidden, dense_dim),
             np.zeros(dense_dim, T.default_dtype()),
             T.glorot(rng, dense_dim, n_out),
             np.zeros(n_out, T.default_dtype())]
    return grus + [Tensor(x, requires_grad=True) for x in dense]


def _encoder_case():
    """A d16 encoder's params and its real batch_loss gradients."""
    state = _d16_state(0)
    examples = [(encode_word(state.vocab, e.word, state.config.max_chars),
                 e.labels) for e in make_universe()[0][:64]]
    rng = np.random.default_rng(3)

    def set_grads(step):
        batch = mask_batch(examples[16 * (step % 4):16 * (step % 4 + 1)],
                           0.15, rng)
        total = batch_loss(state, batch, train_mode=True, rng=rng)[0]
        for p in state.parameters():
            p.grad = None
        total.backward()

    return state.parameters(), set_grads


def _finetune_case():
    """Tagger params, then a d16 encoder's, whose masked-prediction and
    label heads get no grad."""
    state = _d16_state(1)
    rng = np.random.default_rng(4)
    tagger = _tagger_params(rng, 16, 24, 40, 6)
    params = tagger + state.parameters()
    heads = {len(tagger) + i for i, name in enumerate(state.params)
             if name in ("mlm_w", "mlm_b", "label_w", "label_b")}
    assert len(heads) == 4
    return params, lambda step: _random_grads(params, rng, heads)


def _over_block_case():
    """A param longer than a block, so a block ends inside it, and one
    that has a grad on even steps only."""
    rng = np.random.default_rng(5)
    params = [Tensor(rng.normal(size=s).astype(T.default_dtype()),
                     requires_grad=True)
              for s in [(100,), (300, 200), (5000,), (7,)]]
    assert params[1].size > T.BLOCK
    return params, lambda step: _random_grads(params, rng,
                                              {2} if step % 2 else ())


class TestFlatAdam:
    """Adam's blocked pass over flat moments against the tensor-by-tensor
    loop it replaced."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("case", [_encoder_case, _finetune_case,
                                      _over_block_case],
                             ids=["encoder", "finetune", "over_block"])
    def test_bytes_match_per_tensor_oracle(self, case, dtype):
        with T.precision(dtype):
            params, set_grads = case()
            ref = [Tensor(p.data.copy(), requires_grad=True) for p in params]
            m = [np.zeros_like(p.data) for p in params]
            v = [np.zeros_like(p.data) for p in params]
            opt = Adam(params, lr=1e-3)
            for step in range(1, 13):
                set_grads(step)
                for p, r in zip(params, ref):
                    r.grad = None if p.grad is None else p.grad.copy()
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
        params = _tagger_params(rng, 16, 384, 768, 17)
        total = sum(p.size for p in params)
        itemsize = params[0].data.itemsize
        _random_grads(params, rng)
        tracemalloc.start()
        try:
            opt = Adam(params, lr=1e-3)
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
        params = [Tensor(np.zeros(3, np.float32), requires_grad=True),
                  Tensor(np.zeros(3, np.float64), requires_grad=True)]
        with pytest.raises(ValueError, match="one dtype"):
            Adam(params)

    @pytest.mark.parametrize("data", [np.zeros((4, 3)).T, np.zeros(8)[::2]],
                             ids=["transposed", "strided"])
    def test_non_contiguous_data_rejected(self, data):
        with pytest.raises(ValueError, match="not C-contiguous"):
            Adam([Tensor(np.zeros(2), requires_grad=True),
                  Tensor(data, requires_grad=True)])

    def test_empty_list_steps_as_a_no_op(self):
        opt = Adam([])
        opt.step()
        opt.zero_grad()
        assert opt.t == 1


class TestFit:
    @staticmethod
    def quadratic():
        p = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        seen = []

        def loss_fn():
            seen.append(p.data.copy())
            return (p * p).sum()

        return p, seen, loss_fn

    def test_runs_every_epoch_without_target(self):
        p, seen, loss_fn = self.quadratic()
        losses = fit([p], loss_fn, epochs=7, lr=0.1)
        q = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        opt = Adam([q], lr=0.1)
        for _ in range(7):
            opt.zero_grad()
            (q * q).sum().backward()
            opt.step()
        assert len(seen) == 7
        assert p.data.tobytes() == q.data.tobytes()
        assert losses == [float((x * x).sum()) for x in seen]

    def test_stops_below_target_without_stepping(self):
        p, _, loss_fn = self.quadratic()
        full = fit([p], loss_fn, epochs=6, lr=0.1)
        assert all(a > b for a, b in zip(full, full[1:]))
        p, seen, loss_fn = self.quadratic()
        losses = fit([p], loss_fn, epochs=6, lr=0.1,
                     loss_target=(full[2] + full[3]) / 2)
        assert losses == full[:4]
        assert len(seen) == 4
        assert np.array_equal(p.data, seen[-1])

    def test_one_loss_per_epoch_run(self):
        p, seen, loss_fn = self.quadratic()
        assert len(fit([p], loss_fn, epochs=3, lr=0.1,
                       loss_target=-1.0)) == 3
        assert fit([p], loss_fn, epochs=0, lr=0.1) == []
        assert len(fit([p], loss_fn, epochs=5, lr=0.1,
                       loss_target=np.inf)) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_loss_stops_before_its_step(self, bad):
        p, seen, loss_fn = self.quadratic()

        def loss_turning_bad():
            loss = loss_fn()
            return loss * bad if len(seen) == 3 else loss

        with pytest.raises(NumericalError, match="at epoch 3 of 5"):
            fit([p], loss_turning_bad, epochs=5, lr=0.1)
        assert len(seen) == 3
        assert np.array_equal(p.data, seen[-1])

    def test_non_finite_weights_after_last_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(NumericalError,
                           match="non-finite weights after step 1 of 1"):
            fit([p], lambda: p.sum(), epochs=1, lr=math.inf)

    @pytest.mark.parametrize("target", [None, 1e9], ids=["no_target", "early_stop"])
    def test_leaves_no_graph_for_the_cyclic_gc(self, target):
        w = t(np.random.default_rng(0).normal(size=(3, 3)))
        x = Tensor(np.eye(3))
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            losses = fit([w], lambda: ((x @ w) * (x @ w)).sum(), epochs=3,
                         lr=0.1, loss_target=target)
            gc.collect()
            leaked = sum(isinstance(obj, Tensor) for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert len(losses) == (3 if target is None else 1)
        assert leaked == 0


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
                z = z * z.sigmoid() + (x * x + 1.0).log()
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

    def test_reshape_transpose_reductions(self):
        with T.precision("float64"):
            rng = np.random.default_rng(9)
            x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

            def build():
                y = x.transpose(1, 0, 2).reshape(3, 8)
                return (y.mean(axis=1) * y.sum(axis=1)).sum() + (x ** 3).mean()

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
                return (softmax(x, axis=-1, scale=0.35, add=PAD_ADD)
                        * mix).sum()

            self._fd(build, x, n=30)
            out = softmax(x, axis=-1, scale=0.35, add=PAD_ADD)
            out.sum().backward()
        ref = composite_softmax(x.data, -1, 0.35, PAD_ADD)
        assert np.abs(out.data - ref).max() < 1e-12
        # PAD weights and their gradients are exactly zero
        pad = np.broadcast_to(PAD_ADD < 0, out.shape)
        assert not out.data[pad].any() and not x.grad[pad].any()

    def test_softmax_other_axis(self):
        with T.precision("float64"):
            x, mix = self._inputs(32, (4, 3), (4, 3))
            self._fd(lambda: (softmax(x, axis=0) * mix).sum(), x)
            out = softmax(x, axis=0).data
        assert np.abs(out - composite_softmax(x.data, 0)).max() < 1e-12

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

    def test_linear_shape_error(self):
        x, w, b = self._inputs(35, (2, 4), (3, 5), (5,))
        with pytest.raises(ValueError, match=r"\(2, 4\).*\(3, 5\)"):
            linear(x, w, b)

    def test_truediv_both_operands_broadcast(self):
        with T.precision("float64"):
            a, b, mix = self._inputs(36, (3, 4), (1, 4), (3, 4))
            b.data = np.abs(b.data) + 0.5

            def build():
                return (a / b * mix).sum() + (2.0 / b).sum()

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
        z = softmax(y.reshape(6, 4).transpose(1, 0), scale=2.0) + gelu(h).reshape(4, 6)
        loss = cat([z, h.reshape(4, 6)], axis=0).sum() + (x / (w.sum() + 10.0)).sum()
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
