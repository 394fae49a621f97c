"""Composition functions: fitting, evaluation, and Frobenius reporting."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from chdzdt import tensor as T
from chdzdt.errors import DataError, NumericalError
from chdzdt.evalsuite import compose
from chdzdt.evalsuite.compose import (
    KINDS,
    CompositionModel,
    block_norms,
    compose_eval,
    compose_fit,
    shift_positive,
)

from oracles import full_walk_order

D = 16
N = 200


def make_triples(rng, weights=None, Wgen=None, positive=False, n=N):
    triples = []
    for _ in range(n):
        if positive:
            p, r, s = (rng.uniform(0.1, 1.0, D) for _ in range(3))
        else:
            p, r, s = (rng.normal(size=D) for _ in range(3))
        if Wgen is not None:
            w = Wgen @ np.concatenate([p, r, s])
        elif weights is not None:
            a, b, g = weights
            w = a * p + b * r + g * s
        else:
            w = p + r + s
        triples.append((p, r, s, w))
    return triples


class TestCompositionModel:
    def test_unknown_kind(self):
        with pytest.raises(DataError, match="kind"):
            CompositionModel("Cat", 4)

    def test_scalar_kinds_need_all_three(self):
        with pytest.raises(DataError, match="gamma"):
            CompositionModel("WAdd", 4, {"alpha": 1.0, "beta": 1.0})

    def test_matrix_shape_checked(self):
        with pytest.raises(DataError, match=r"\(4, 12\)"):
            CompositionModel("MpCnc", 4, {"W": np.zeros((4, 4))})
        with pytest.raises(DataError, match=r"\(4, 4\)"):
            CompositionModel("MpAdd", 4, {"W": np.zeros((4, 12))})

    def test_add_with_zero_prefix_suffix_returns_root(self):
        model = CompositionModel("Add", 3)
        r = np.array([0.3, -2.0, 5.0])
        out = model.compose_batch(np.zeros((1, 3)), r[None], np.zeros((1, 3)))[0]
        np.testing.assert_array_equal(out, r)

    def test_mul_elementwise(self):
        model = CompositionModel("Mul", 2)
        out = model.compose_batch([[2.0, 3.0]], [[4.0, 5.0]], [[0.5, 2.0]])[0]
        np.testing.assert_allclose(out, [4.0, 30.0])

    def test_wadd_weights_applied(self):
        model = CompositionModel("WAdd", 2, {"alpha": 2.0, "beta": 0.0,
                                             "gamma": 1.0})
        out = model.compose_batch(np.ones((1, 2)), np.full((1, 2), 9.0),
                                  np.full((1, 2), 3.0))[0]
        np.testing.assert_allclose(out, [5.0, 5.0])

    def test_wmul_requires_positive(self):
        model = CompositionModel("WMul", 2, {"alpha": 1.0, "beta": 1.0,
                                             "gamma": 1.0})
        with pytest.raises(DataError, match="shift_positive"):
            model.compose_batch([[-1.0, 1.0]], np.ones((1, 2)), np.ones((1, 2)))


class TestComposeFit:
    def test_wadd_recovers_unit_weights(self):
        triples = make_triples(np.random.default_rng(0), weights=(1, 1, 1))
        model = compose_fit("WAdd", triples[:150])
        assert model.fields["alpha"] == pytest.approx(1.0, abs=1e-3)
        assert model.fields["beta"] == pytest.approx(1.0, abs=1e-3)
        assert model.fields["gamma"] == pytest.approx(1.0, abs=1e-3)
        report = compose_eval(model, triples[150:])
        assert report["acs"] > 0.999
        assert report["aed"] < 1e-3

    def test_mpcnc_recovers_identity_block(self):
        Wgen = np.concatenate([np.eye(D), np.zeros((D, D)),
                               np.zeros((D, D))], axis=1)
        triples = make_triples(np.random.default_rng(1), Wgen=Wgen)
        model = compose_fit("MpCnc", triples[:150])
        report = compose_eval(model, triples[150:])
        assert report["acs"] > 0.99
        frob = report["frobenius"]
        assert frob["W_p"] == pytest.approx(math.sqrt(D), abs=0.05)
        assert frob["W_r"] < 0.05 and frob["W_s"] < 0.05

    def test_mpadd_recovers_generating_matrix(self):
        rng = np.random.default_rng(2)
        Wdd = rng.normal(size=(D, D)) / math.sqrt(D)
        base = make_triples(rng)
        triples = [(p, r, s, Wdd @ (p + r + s)) for p, r, s, _ in base]
        model = compose_fit("MpAdd", triples[:150])
        assert np.abs(model.fields["W"] - Wdd).max() < 0.01
        assert compose_eval(model, triples[150:])["acs"] > 0.999

    def test_wmul_recovers_exponents(self):
        rng = np.random.default_rng(4)
        triples = []
        for _ in range(N):
            p, r, s = (rng.uniform(0.2, 1.5, D) for _ in range(3))
            triples.append((p, r, s, p**2 * r * s**0.5))
        model = compose_fit("WMul", triples[:150])
        assert model.fields["alpha"] == pytest.approx(2.0, abs=1e-2)
        assert model.fields["beta"] == pytest.approx(1.0, abs=1e-2)
        assert model.fields["gamma"] == pytest.approx(0.5, abs=1e-2)
        assert compose_eval(model, triples[150:])["acs"] > 0.999

    def test_parameter_free_kinds(self):
        triples = make_triples(np.random.default_rng(5), n=4)
        for kind in ("Add", "Mul"):
            model = compose_fit(kind, triples)
            assert model.fields == {}

    def test_wmul_rejects_non_positive_then_shift_helps(self):
        triples = make_triples(np.random.default_rng(6), n=20)
        with pytest.raises(DataError, match="shift_positive"):
            compose_fit("WMul", triples)
        shifted, shift = shift_positive(triples)
        assert shift > 0
        assert min(float(v.min()) for t in shifted for v in t) >= 1e-3 - 1e-12
        compose_fit("WMul", shifted, epochs=5)

    def test_shift_noop_on_positive_data(self):
        triples = make_triples(np.random.default_rng(7), positive=True, n=5)
        shifted, shift = shift_positive(triples)
        assert shift == 0.0
        np.testing.assert_array_equal(shifted[0][0], triples[0][0])

    def test_cosine_objective_drops_zero_targets(self, caplog):
        rng = np.random.default_rng(8)
        triples = make_triples(rng, weights=(2, 1, 1), n=60)
        p, r, s, _ = triples[0]
        triples[0] = (p, r, s, np.zeros(D))
        with caplog.at_level(logging.WARNING):
            model = compose_fit("WAdd", triples, objective="cosine")
        assert any("zero-vector" in rec.message for rec in caplog.records)
        assert model.fields["alpha"] / model.fields["beta"] == \
            pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("tiny", [1e-170, 5e-324])
    def test_cosine_objective_keeps_a_tiny_target(self, tiny, caplog):
        # unscaled, the norm of a target below about 1e-162 is 0: it was
        # dropped as a zero vector
        v = np.array([1.0, 0.5])
        triples = [(v, v, v, np.array([tiny, 0.0]))]
        with caplog.at_level(logging.WARNING):
            model = compose_fit("MpAdd", triples, objective="cosine")
        assert not caplog.records
        assert compose_eval(model, triples)["acs"] == pytest.approx(1.0)

    def test_cosine_fit_of_ordinary_targets_keeps_its_bytes(self,
                                                            monkeypatch):
        triples = make_triples(np.random.default_rng(10), n=12)
        scaled = compose_fit("MpCnc", triples, objective="cosine", epochs=20)
        monkeypatch.setattr(compose, "_scaled_rows", lambda x: x)
        unscaled = compose_fit("MpCnc", triples, objective="cosine",
                               epochs=20)
        assert scaled.fields["W"].tobytes() == unscaled.fields["W"].tobytes()

    def test_bad_objective(self):
        with pytest.raises(DataError, match="objective"):
            compose_fit("Add", make_triples(np.random.default_rng(0), n=2),
                        objective="hinge")

    def test_empty_and_malformed_triples(self):
        with pytest.raises(DataError, match="no composition"):
            compose_fit("Add", [])
        with pytest.raises(DataError, match="prefix, root, suffix"):
            compose_fit("Add", [(np.ones(2), np.ones(2), np.ones(2))])
        with pytest.raises(DataError, match="dimension"):
            compose_fit("Add", [(np.ones(2), np.ones(3), np.ones(2),
                                 np.ones(2))])

    def test_fit_deterministic_per_seed(self):
        triples = make_triples(np.random.default_rng(9), n=40)
        a = compose_fit("MpAdd", triples, epochs=30, seed=5)
        b = compose_fit("MpAdd", triples, epochs=30, seed=5)
        np.testing.assert_array_equal(a.fields["W"], b.fields["W"])


class TestComposeEval:
    def test_perfect_reconstruction(self):
        triples = make_triples(np.random.default_rng(0), n=10)
        report = compose_eval(CompositionModel("Add", D), triples)
        assert report["acs"] == pytest.approx(1.0)
        assert report["aed"] == pytest.approx(0.0)
        assert report["n_evaluated"] == 10 and report["n_skipped"] == 0

    def test_identity_block_frobenius_d32(self):
        model = CompositionModel("MpAdd", 32, {"W": np.eye(32)})
        assert block_norms(model)["W"] == pytest.approx(math.sqrt(32),
                                                        rel=1e-12)

    def test_block_norms_decompose_whole_matrix(self):
        rng = np.random.default_rng(1)
        model = CompositionModel("MpCnc", 8, {"W": rng.normal(size=(8, 24))})
        frob = block_norms(model)
        total = frob["W_p"]**2 + frob["W_r"]**2 + frob["W_s"]**2
        assert frob["W"]**2 == pytest.approx(total, rel=1e-9)

    def test_scalar_kind_has_no_norms(self):
        with pytest.raises(DataError, match="no matrix"):
            block_norms(CompositionModel("Add", 4))

    def test_zero_norm_pair_skipped(self, caplog):
        zero = np.zeros(3)
        good = (np.ones(3), np.ones(3), np.ones(3), np.full(3, 3.0))
        with caplog.at_level(logging.WARNING):
            report = compose_eval(CompositionModel("Add", 3),
                                  [good, (zero, zero, zero, zero)])
        assert report["n_evaluated"] == 1 and report["n_skipped"] == 1
        assert any("zero-norm" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("tiny", [1.1365888111815853e-159, 1e-170])
    def test_tiny_vectors_score_a_cosine_of_one(self, tiny):
        # the squares of a tiny row underflow: its norm was off (an ACS of
        # 1.00000005 at 1.1e-159) or zero (the pair skipped at 1e-170)
        t = np.array([tiny])
        report = compose_eval(CompositionModel("Add", 1),
                              [(t, t, t, np.array([1.0]))])
        assert report["n_evaluated"] == 1
        assert report["acs"] == 1.0

    def test_cosines_of_ordinary_vectors_keep_their_bytes(self):
        triples = make_triples(np.random.default_rng(6), n=20)
        P, R, S, W = np.asarray(triples).transpose(1, 0, 2)
        pred = P + R + S
        cosines = (pred * W).sum(axis=1) / (np.linalg.norm(pred, axis=1)
                                            * np.linalg.norm(W, axis=1))
        report = compose_eval(CompositionModel("Add", D), triples)
        assert report["acs"] == float(cosines.mean())

    def test_all_pairs_zero_rejected(self):
        zero = np.zeros(3)
        with pytest.raises(DataError, match="zero-norm"):
            compose_eval(CompositionModel("Add", 3), [(zero,) * 4])

    def test_non_finite_composition_raises_naming_the_kind(self):
        model = CompositionModel("MpCnc", 4, {"W": np.full((4, 12), 1e308)})
        triples = [(np.ones(4), np.ones(4), np.ones(4), np.ones(4))]
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalError, match="MpCnc: composed"):
            compose_eval(model, triples)

    def test_raw_matrix_exported(self):
        rng = np.random.default_rng(2)
        model = CompositionModel("MpAdd", 4, {"W": rng.normal(size=(4, 4))})
        triples = make_triples(rng, n=3)[:3]
        triples = [(p[:4], r[:4], s[:4], w[:4]) for p, r, s, w in triples]
        report = compose_eval(model, triples)
        assert report["W"] == model.fields["W"].tolist()

    def test_scalar_params_reported(self):
        model = CompositionModel("WAdd", D, {"alpha": 2.0, "beta": 1.0,
                                             "gamma": 0.5})
        report = compose_eval(model, make_triples(np.random.default_rng(3),
                                                  n=5))
        assert report["params"] == {"alpha": 2.0, "beta": 1.0, "gamma": 0.5}

    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_and_batch_run_the_one_forward(self, kind, monkeypatch):
        spec = compose._TABLE[kind]
        graphs = []

        def spy(*args):
            out = spec.forward(*args)
            graphs.append(out.requires_grad)
            return out

        monkeypatch.setitem(compose._TABLE, kind,
                            dataclasses.replace(spec, forward=spy))
        triples, _ = shift_positive(make_triples(np.random.default_rng(4),
                                                 n=6))
        model = compose_fit(kind, triples, epochs=3)
        # Add and Mul have no fields and return without fitting
        assert graphs == ([True] * 3 if spec.fields else [])
        graphs.clear()
        compose_eval(model, triples)
        assert graphs == [False]

    @pytest.mark.parametrize("objective, nodes", [("mse", 4),
                                                  ("cosine", 11)])
    def test_node_budget_of_a_loss(self, objective, nodes, monkeypatch):
        # MpCnc's forward is one matmul node; MSE adds a sub, a square and
        # a mean, cosine its ten reduction and arithmetic nodes. Every node
        # costs Python time in forward and backward each epoch, so a change
        # that grows these counts must update them on purpose.
        counts = []
        fit = T.fit

        def counting_fit(sets, losses, lr):
            def counted():
                for loss in losses:
                    counts.append(len(full_walk_order(loss)))
                    yield loss
            return fit(sets, counted(), lr)

        monkeypatch.setattr(T, "fit", counting_fit)
        compose_fit("MpCnc", make_triples(np.random.default_rng(5), n=4),
                    objective=objective, epochs=3)
        assert counts == [nodes] * 3

    def test_all_kinds_listed(self):
        assert KINDS == ("Add", "Mul", "WAdd", "WMul", "MpCnc", "MpAdd")
