import gc
import math
import weakref

import numpy as np
import pytest

from chdzdt import tensor as T
from chdzdt.tensor import (
    Adam,
    AdamState,
    Tensor,
    adam_step,
    bce_multilabel,
    cat,
    dropout,
    embedding,
    gelu,
    gru_cell,
    gru_params,
    layer_norm,
    softmax,
    softmax_ce,
)

from oracles import finite_diff_max_rel_err


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
        out = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
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

    def test_two_positions_sum(self):
        loss = softmax_ce(Tensor(np.zeros((2, 10))), [1, 2], reduction="sum")
        assert math.isclose(float(loss.data), 2 * math.log(10), rel_tol=1e-9)

    def test_mean_reduction(self):
        loss = softmax_ce(Tensor(np.zeros((2, 10))), [1, 2], reduction="mean")
        assert math.isclose(float(loss.data), math.log(10), rel_tol=1e-9)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_ce(Tensor(np.zeros((1, 5))), [5])

    def test_gradient_is_softmax_minus_onehot(self):
        logits = t(np.random.default_rng(1).normal(size=(3, 6)))
        loss = softmax_ce(logits, [0, 2, 5], reduction="sum")
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
        params["b_z"].data[...] = 50.0  # force z -> 1
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


class TestAdam:
    def test_zero_grad_is_fixed_point(self):
        p = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        before = p.data.copy()
        state = AdamState([p], lr=0.1)
        for _ in range(5):
            adam_step([p], [np.zeros(3)], state)
        assert np.array_equal(p.data, before)

    def test_first_step_delta(self):
        lr = 0.01
        g = np.array([0.3, -2.0, 0.0001])
        p = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
        state = AdamState([p], lr=lr)
        adam_step([p], [g], state)
        expected = 1.0 - lr * g / (np.abs(g) + state.eps)
        assert np.allclose(p.data, expected, atol=1e-12)
        assert np.allclose(p.data - 1.0, -lr * np.sign(g), atol=1e-4)

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

    def test_dropout_eval_mode_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        out = dropout(x, 0.5, np.random.default_rng(0), train=False)
        assert out is x

    def test_dropout_train_mode_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((1000,)))
        out = dropout(x, 0.25, rng, train=True)
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
