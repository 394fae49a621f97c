"""Stratified splitting and the affix logistic probe."""

import logging

import numpy as np
import pytest

from chdzdt import tensor as T
from chdzdt.errors import DataError
from chdzdt.evalsuite import probe
from chdzdt.evalsuite.probe import probe_train, stratified_split

from oracles import full_walk_order


def multilabel_rows():
    rows = []
    for i in range(200):
        labs = []
        if i < 100:
            labs.append("A")
        if 40 <= i < 100:
            labs.append("B")
        if 90 <= i < 110:
            labs.append("C")
        rows.append((i, tuple(labs)))
    return rows


class TestStratifiedSplit:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_five_instances_split_three_two(self, seed):
        rows = [(i, ("rare",)) for i in range(5)]
        train, test = stratified_split(rows, 0.6, seed)
        assert len(train) == 3 and len(test) == 2

    def test_partitions_without_loss(self):
        rows = multilabel_rows()
        train, test = stratified_split(rows, 0.6, 1)
        ids = sorted(i for i, _ in train) + sorted(i for i, _ in test)
        assert sorted(ids) == list(range(200))

    @pytest.mark.parametrize("seed", range(5))
    def test_per_label_proportions(self, seed):
        rows = multilabel_rows()
        train, _ = stratified_split(rows, 0.6, seed)
        ids = {i for i, _ in train}
        assert abs(len(train) - 120) <= 1
        for lab, count in (("A", 100), ("B", 60), ("C", 20)):
            got = sum(1 for i, labs in rows if lab in labs and i in ids)
            assert abs(got - 0.6 * count) <= 1

    def test_deterministic_per_seed(self):
        rows = multilabel_rows()
        assert stratified_split(rows, 0.6, 5) == stratified_split(rows, 0.6, 5)

    def test_unlabeled_rows_follow_totals(self):
        rows = [(i, ()) for i in range(10)]
        train, test = stratified_split(rows, 0.6, 2)
        assert len(train) == 6 and len(test) == 4

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2])
    def test_fraction_validated(self, fraction):
        with pytest.raises(DataError, match="fraction"):
            stratified_split([(0, ("a",))], fraction, 0)


def separable_instance(seed=0, n=80, n_labels=4):
    rng = np.random.default_rng(seed)
    y = (rng.random((n, n_labels)) < 0.5).astype(float)
    X = y * 2 - 1 + rng.normal(0, 0.1, (n, n_labels))
    labels = [tuple(f"l{j}" for j in range(n_labels) if y[i, j])
              for i in range(n)]
    return X, labels


class TestProbeTrain:
    def test_separable_affixes_reach_perfect_f1(self):
        X, labels = separable_instance()
        report = probe_train(X, labels, seed=1)
        assert report["macro_f1"] > 0.99
        assert report["excluded_affixes"] == []
        assert set(report["per_label"]) == {"l0", "l1", "l2", "l3"}

    def test_random_labels_hover_at_chance(self):
        scores = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            X = rng.normal(size=(200, 16))
            y = rng.random((200, 2)) < 0.5
            labels = [tuple(f"a{j}" for j in range(2) if y[i, j])
                      for i in range(200)]
            scores.append(probe_train(X, labels, seed=seed)["macro_f1"])
        assert abs(float(np.mean(scores)) - 0.5) < 0.05

    def test_affix_missing_from_train_is_excluded(self, caplog):
        X = np.vstack([np.eye(2)[i % 2] for i in range(10)]).astype(float)
        labels = [("common",)] * 8 + [("common", "rare")] * 2
        with caplog.at_level(logging.WARNING):
            report = probe_train(X, labels,
                                 split=(list(range(8)), [8, 9]))
        assert report["excluded_affixes"] == ["rare"]
        assert "rare" in report["per_label"]
        assert any("rare" in rec.message for rec in caplog.records)
        assert report["train_size"] == 8 and report["test_size"] == 2

    def test_report_fields(self):
        X, labels = separable_instance(seed=3, n=40, n_labels=2)
        report = probe_train(X, labels, seed=3, epochs=20)
        for key in ("macro_precision", "macro_recall", "macro_f1",
                    "excluded_affixes", "train_size", "test_size"):
            assert key in report
        for entry in report["per_label"].values():
            assert set(entry) == {"precision", "recall", "f1", "support"}

    def test_test_split_scored_by_the_training_forward(self, monkeypatch):
        graphs = []
        forward = probe._probe

        def spy(*args):
            out = forward(*args)
            graphs.append(out.requires_grad)
            return out

        monkeypatch.setattr(probe, "_probe", spy)
        X, labels = separable_instance(seed=3, n=40, n_labels=2)
        probe_train(X, labels, seed=3, epochs=4)
        assert graphs == [True] * 4 + [False]

    def test_node_budget_of_a_loss(self, monkeypatch):
        # linear, sigmoid and the binary cross-entropy: every node costs
        # Python time in forward and backward each epoch, so a change that
        # grows this count must update it on purpose
        counts = []
        fit = T.fit

        def counting_fit(sets, losses, lr):
            def counted():
                for loss in losses:
                    counts.append(len(full_walk_order(loss)))
                    yield loss
            return fit(sets, counted(), lr)

        monkeypatch.setattr(T, "fit", counting_fit)
        X, labels = separable_instance(seed=3, n=40, n_labels=2)
        probe_train(X, labels, seed=3, epochs=3)
        assert counts == [3] * 3

    def test_no_labels_rejected(self):
        with pytest.raises(DataError, match="no affix"):
            probe_train(np.zeros((3, 2)), [(), (), ()])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="match"):
            probe_train(np.zeros((3, 2)), [("a",)] * 4)

    def test_empty_split_rejected(self):
        with pytest.raises(DataError, match="non-empty"):
            probe_train(np.zeros((3, 2)), [("a",)] * 3, split=([], [0, 1, 2]))
