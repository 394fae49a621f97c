import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chdzdt.errors import DataError, NumericalError
from chdzdt.evalsuite import metrics
from chdzdt.evalsuite.metrics import (
    acs,
    aed,
    ari,
    kendall,
    kmeans,
    macro_prf,
    pearson,
    silhouette,
    similarity_corr,
    spearman,
)

from oracles import (
    brute_acs,
    brute_aed,
    brute_ari,
    brute_kendall,
    brute_silhouette,
    loop_kmeans,
    loop_silhouette,
)


class DictEmbedder:
    def __init__(self, table):
        self.table = {w: np.asarray(v, dtype=np.float64) for w, v in table.items()}
        self.dim = len(next(iter(self.table.values())))

    def embed_many(self, words):
        return [self.table[w] for w in words]


def random_cluster_instance(rng, dim=None):
    dim = dim or int(rng.integers(2, 8))
    n_clusters = int(rng.integers(1, 6))
    table, clusters = {}, []
    for c in range(n_clusters):
        root = f"r{c}"
        table[root] = rng.normal(size=dim)
        members = [f"r{c}m{i}" for i in range(int(rng.integers(1, 8)))]
        for m in members:
            table[m] = rng.normal(size=dim)
        clusters.append((root, members))
    return DictEmbedder(table), clusters, table


class TestAcs:
    def test_identical_members_give_one(self):
        emb = DictEmbedder({"r": [1.0, 2.0], "m1": [1.0, 2.0], "m2": [2.0, 4.0]})
        assert acs(emb, [("r", ["m1", "m2"])]) == pytest.approx(1.0)

    def test_orthogonal_member_gives_zero(self):
        emb = DictEmbedder({"r": [1.0, 0.0], "m": [0.0, 1.0]})
        assert acs(emb, [("r", ["m"])]) == pytest.approx(0.0, abs=1e-12)

    def test_member_count_weighting(self):
        emb, clusters, table = random_cluster_instance(np.random.default_rng(0))
        expected = brute_acs({w: list(v) for w, v in table.items()}, clusters)
        assert acs(emb, clusters) == pytest.approx(expected, abs=1e-9)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            emb, clusters, table = random_cluster_instance(rng)
            expected = brute_acs({w: list(v) for w, v in table.items()}, clusters)
            assert acs(emb, clusters) == pytest.approx(expected, abs=1e-9)

    def test_invariant_under_positive_per_vector_rescaling(self):
        rng = np.random.default_rng(1)
        emb, clusters, table = random_cluster_instance(rng)
        scaled = DictEmbedder({w: v * float(rng.uniform(0.1, 10))
                               for w, v in table.items()})
        assert acs(scaled, clusters) == pytest.approx(acs(emb, clusters),
                                                      abs=1e-9)

    @pytest.mark.parametrize("tiny", [1.1365888111815853e-159, 1e-170])
    def test_tiny_vector_gives_one(self, tiny):
        # the squares of a tiny vector underflow: its norm was off (an ACS
        # of 1.00000026 at 1.1e-159) or zero (a DataError at 1e-170)
        emb = DictEmbedder({"r": [1.0, 0.0], "m": [tiny, 0.0]})
        assert acs(emb, [("r", ["m"])]) == 1.0

    def test_zero_norm_vector_names_word(self):
        emb = DictEmbedder({"r": [1.0, 0.0], "bad": [0.0, 0.0]})
        with pytest.raises(DataError, match="bad"):
            acs(emb, [("r", ["bad"])])


class TestAed:
    def test_identical_gives_zero(self):
        emb = DictEmbedder({"r": [1.0, 2.0], "m": [1.0, 2.0]})
        assert aed(emb, [("r", ["m"])]) == 0.0

    def test_unit_case(self):
        emb = DictEmbedder({"r": [0.0, 0.0], "m": [1.0, 1.0]})
        assert aed(emb, [("r", ["m"])]) == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_degree_one(self):
        rng = np.random.default_rng(2)
        emb, clusters, table = random_cluster_instance(rng)
        doubled = DictEmbedder({w: v * 2.0 for w, v in table.items()})
        assert aed(doubled, clusters) == pytest.approx(2 * aed(emb, clusters),
                                                       abs=1e-9)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            emb, clusters, table = random_cluster_instance(rng)
            expected = brute_aed({w: list(v) for w, v in table.items()}, clusters)
            assert aed(emb, clusters) == pytest.approx(expected, abs=1e-9)

    def test_tiny_vectors_keep_their_distance(self):
        # unscaled, the squares of a distance below about 1e-162 underflow
        # and AED read 0
        emb = DictEmbedder({"r": [1e-200, 0.0], "m": [4e-200, 4e-200]})
        assert aed(emb, [("r", ["m"])]) == pytest.approx(
            5e-200 / math.sqrt(2), rel=1e-12, abs=0.0)

    def test_ordinary_vectors_keep_their_bytes(self):
        emb, clusters, table = random_cluster_instance(
            np.random.default_rng(5))
        dists = [float(np.linalg.norm(table[m] - table[r]))
                 for r, members in clusters for m in members]
        assert aed(emb, clusters) == float(np.mean(dists)
                                           / math.sqrt(emb.dim))

    def test_dimension_mismatch_rejected(self):
        emb = DictEmbedder({"r": [1.0, 0.0], "m": [1.0, 0.0]})
        emb.table["m"] = np.asarray([1.0, 0.0, 0.0])
        with pytest.raises(DataError):
            aed(emb, [("r", ["m"])])


class TestSilhouette:
    def test_two_far_blobs(self):
        rng = np.random.default_rng(4)
        pts = np.vstack([rng.normal(0, 0.05, (10, 3)),
                         rng.normal(50, 0.05, (10, 3))])
        labels = [0] * 10 + [1] * 10
        assert silhouette(pts, labels) > 0.9

    def test_all_identical_points(self):
        pts = np.ones((6, 2))
        assert silhouette(pts, [0, 0, 0, 1, 1, 1]) == 0.0

    def test_hand_computed_five_points(self):
        pts = np.asarray([[0.0], [0.5], [5.0], [5.5], [6.0]])
        labels = ["a", "a", "b", "b", "b"]
        expected = (10 / 11 + 9 / 10 + 16 / 19 + 19 / 21 + 20 / 23) / 5
        assert silhouette(pts, labels) == pytest.approx(expected, abs=1e-12)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(4, 50))
            pts = rng.normal(size=(n, int(rng.integers(1, 5))))
            labels = rng.integers(0, int(rng.integers(2, 6)), size=n)
            if np.unique(labels).size < 2:
                continue
            expected = brute_silhouette([list(p) for p in pts], list(labels))
            assert silhouette(pts, labels) == pytest.approx(expected, abs=1e-9)

    def test_single_cluster_rejected(self):
        with pytest.raises(DataError):
            silhouette(np.ones((3, 2)), [0, 0, 0])

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_tiny_or_huge_points_score_as_ordinary_ones(self, scale):
        # unscaled, their squared distances underflow to 0 or overflow
        pts = np.asarray([[0.0, 0.0], [1.0, 0.5], [4.0, 4.0], [5.0, 3.0]])
        labels = [0, 0, 1, 1]
        assert silhouette(pts * scale, labels) == pytest.approx(
            silhouette(pts, labels), rel=1e-12)

    def test_singleton_cluster_contributes_zero(self):
        pts = np.asarray([[0.0], [1.0], [1.1]])
        labels = [0, 1, 1]
        expected = brute_silhouette([list(p) for p in pts], labels)
        assert silhouette(pts, labels) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 60), dim=st.integers(1, 8), k=st.integers(2, 60),
           form=st.sampled_from(["free", "rounded", "duplicates", "equal"]),
           scale=st.sampled_from([1.0, 1e-200, 1e200]),
           block=st.sampled_from([metrics.BLOCK, 1, 40]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=7, dim=3, k=3, form="free", scale=1.0, block=1, seed=0)
    def test_same_bytes_as_one_point_at_a_time(self, n, dim, k, form, scale,
                                               block, seed):
        # a block of 1 or 40 floats cuts the rows into several blocks
        k = min(k, n)
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, dim))
        if form == "rounded":  # ties between distances
            pts = np.round(pts * 2) / 2
        elif form == "duplicates":  # zero distances between points
            pts = pts[rng.integers(min(n, 3), size=n)]
        elif form == "equal":  # every denominator 0
            pts = np.broadcast_to(pts[0], pts.shape)
        pts = pts * scale
        # every label once, then the rest drawn: clusters of one and more
        labels = rng.permutation(np.concatenate(
            [np.arange(k), rng.integers(k, size=n - k)]))
        with mock.patch.object(metrics, "BLOCK", block):
            assert silhouette(pts, labels) == loop_silhouette(pts, labels)

    def test_peak_memory(self):
        # the full [n, n, d] difference array peaked at about 185 MB on
        # this input
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(300, 128))
        labels = rng.integers(30, size=300)
        tracemalloc.start()
        try:
            silhouette(pts, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("points, labels", [
        (np.ones((3, 2)), [0, 1]),
        (np.ones(3), [0, 1, 1]),
        (np.ones((3, 2)), [0, 1, 1, 0]),
    ], ids=["fewer-labels", "1-d-points", "more-labels"])
    def test_bad_shapes_rejected(self, points, labels):
        # each raised a raw IndexError
        with pytest.raises(DataError, match="must"):
            silhouette(points, labels)


class TestKmeans:
    def test_two_blobs_perfect_split(self):
        rng = np.random.default_rng(6)
        pts = np.vstack([rng.normal(0, 0.1, (12, 2)),
                         rng.normal(10, 0.1, (12, 2))])
        labels = kmeans(pts, 2, seed=0)
        assert ari(labels, [0] * 12 + [1] * 12) == pytest.approx(1.0)

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(6, 2))
        labels = kmeans(pts, 6, seed=1)
        assert sorted(labels) == list(range(6))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(40, 3))
        a = kmeans(pts, 4, seed=9)
        b = kmeans(pts, 4, seed=9)
        assert np.array_equal(a, b)

    def test_points_nearest_own_centroid(self):
        # the Lloyd fixed point: one update from k-means++ seeds misses it
        # on most of these data seeds
        for data_seed in range(40):
            pts = np.random.default_rng(data_seed).normal(size=(50, 2))
            labels = kmeans(pts, 5, seed=2)
            centers = np.stack([pts[labels == j].mean(axis=0)
                                for j in range(5)])
            d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
            own = d2[np.arange(len(pts)), labels]
            assert (own <= d2.min(axis=1) + 1e-9).all(), data_seed

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), dim=st.integers(1, 5),
           form=st.sampled_from(["free", "rounded", "duplicates", "equal"]),
           scale=st.sampled_from([1.0, 1e-200, 1e200]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_same_labels_as_one_restart_at_a_time(self, data, n, dim, form,
                                                  scale, seed):
        k = data.draw(st.integers(1, n), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                              label="data seed"))
        pts = rng.normal(size=(n, dim))
        if form == "rounded":  # ties between distances
            pts = np.round(pts * 2) / 2
        elif form == "duplicates":
            pts = pts[rng.integers(min(n, 3), size=n)]
        elif form == "equal":  # a seeding total of 0, or of rounding
            pts = np.broadcast_to(pts[0], pts.shape)
        pts = pts * scale
        assert np.array_equal(kmeans(pts, k, seed), loop_kmeans(pts, k, seed))

    def test_peak_memory(self):
        # one [n, k, d] difference array per pass peaked at about 105 MB
        # on this input
        pts = np.random.default_rng(10).normal(size=(1000, 128))
        tracemalloc.start()
        try:
            kmeans(pts, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_tiny_or_huge_points_split_as_ordinary_ones(self, scale):
        # unscaled, their squared distances underflow to 0 (every point in
        # one group) or overflow
        pts = np.asarray([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 3.0]])
        assert ari(kmeans(pts * scale, 2), [0, 0, 1, 1]) == 1.0

    def test_k_out_of_range_rejected(self):
        with pytest.raises(DataError):
            kmeans(np.ones((3, 2)), 4)


class TestAri:
    def test_identical_partitions(self):
        assert ari([0, 0, 1, 1, 2], [5, 5, 7, 7, 9]) == pytest.approx(1.0)

    def test_all_in_one_vs_balanced(self):
        assert ari([0, 0, 0, 0], [0, 0, 1, 1]) == pytest.approx(0.0)

    def test_six_point_fixture_matches_bruteforce(self):
        a = [0, 0, 1, 1, 2, 2]
        b = [0, 0, 0, 1, 1, 1]
        assert ari(a, b) == pytest.approx(brute_ari(a, b), abs=1e-12)

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(4, 50))
            a = rng.integers(0, int(rng.integers(2, 6)), size=n)
            b = rng.integers(0, int(rng.integers(2, 6)), size=n)
            assert ari(a, b) == pytest.approx(brute_ari(list(a), list(b)),
                                              abs=1e-9)

    def test_symmetric_and_rename_invariant(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 4, size=30)
        b = rng.integers(0, 3, size=30)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)
        renamed = np.asarray([{0: 9, 1: 4, 2: 7, 3: 2}[v] for v in a])
        assert ari(renamed, b) == pytest.approx(ari(a, b), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            ari([0, 1], [0, 1, 2])

    @pytest.mark.parametrize("labels", [[0], []], ids=["one", "none"])
    def test_fewer_than_two_labels_agree_fully(self, labels):
        # no pair to count: the limit case of identical partitions
        assert ari(labels, labels) == 1.0


class TestCorrelations:
    def test_kendall_perfect(self):
        assert kendall([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_kendall_reversed(self):
        assert kendall([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)

    def test_kendall_hand_fixture_one_third(self):
        assert kendall([1, 2, 3], [2, 1, 3]) == pytest.approx(1 / 3, abs=1e-12)

    def test_kendall_matches_bruteforce(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert kendall(x, y) == pytest.approx(
                brute_kendall([float(v) for v in x],
                              [float(v) for v in y]), abs=1e-12)

    def test_kendall_monotone_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert kendall(np.exp(x), y ** 3 + 5 * y) == pytest.approx(
            kendall(x, y), abs=1e-12)

    def test_kendall_ties_contribute_zero(self):
        # pairs with tied x: sign 0
        assert kendall([1, 1, 2], [1, 2, 3]) == pytest.approx(2 / 3, abs=1e-12)

    def test_pearson_linear(self):
        x = np.asarray([1.0, 2, 3, 4])
        assert pearson(x, 3 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -2 * x) == pytest.approx(-1.0)

    def test_spearman_is_rank_pearson(self):
        x = [10, 20, 30, 40]
        y = [1, 3, 2, 4]
        assert spearman(x, y) == pytest.approx(pearson([1, 2, 3, 4],
                                                       [1, 3, 2, 4]))

    def test_spearman_tie_handling(self):
        # average ranks: x ties at positions 0,1
        assert spearman([5, 5, 7], [1, 2, 3]) == pytest.approx(
            pearson([1.5, 1.5, 3], [1, 2, 3]))

    def test_zero_variance_rejected(self):
        with pytest.raises(NumericalError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(NumericalError):
            kendall([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("f", [pearson, spearman, kendall])
    def test_spread_of_rounding_noise_is_zero_variance(self, f):
        # the cosines of identical words: 1 to within a few ulps
        eps = np.finfo(np.float64).eps
        noisy = [1.0, 1.0 + 2 * eps, 1.0 - eps, 1.0, 1.0 + eps]
        with pytest.raises(NumericalError, match="zero-variance"):
            f(noisy, [1, 2, 3, 4, 5])
        with pytest.raises(NumericalError, match="zero-variance"):
            f([1, 2, 3, 4, 5], [-x for x in noisy])
        # a spread of 128 ulps is past the tolerance and correlates
        wide = [1.0, 1.0 + 64 * eps, 1.0 - 64 * eps, 1.0, 1.0]
        assert math.isfinite(f(wide, [1, 2, 3, 4, 5]))

    def test_similarity_corr_perfect_alignment(self):
        emb = DictEmbedder({"a": [1.0, 0.0], "b": [1.0, 0.2],
                            "c": [1.0, 1.0], "d": [0.0, 1.0]})
        pairs = [("a", "b", 3.0), ("a", "c", 2.0), ("a", "d", 1.0)]
        out = similarity_corr(emb, pairs)
        assert out["kendall"] == pytest.approx(1.0)
        assert out["spearman"] == pytest.approx(1.0)

    def test_similarity_corr_needs_three_pairs(self):
        emb = DictEmbedder({"a": [1.0], "b": [1.0]})
        with pytest.raises(DataError):
            similarity_corr(emb, [("a", "b", 1.0), ("a", "b", 2.0)])


class TestMacroPrf:
    def test_hand_confusion_fixture(self):
        # one label: TP=3, FP=1, FN=2 -> P=0.75, R=0.6, F1=2/3
        y_true = np.asarray([[1], [1], [1], [1], [1], [0], [0]])
        y_pred = np.asarray([[1], [1], [1], [0], [0], [1], [0]])
        out = macro_prf(y_true, y_pred, ["suf"])
        assert out["per_label"]["suf"]["precision"] == pytest.approx(0.75)
        assert out["per_label"]["suf"]["recall"] == pytest.approx(0.6)
        assert out["per_label"]["suf"]["f1"] == pytest.approx(2 / 3, abs=1e-12)

    def test_macro_averages_labels_equally(self):
        y_true = np.asarray([[1, 0], [1, 0], [0, 1], [0, 1]])
        y_pred = np.asarray([[1, 0], [1, 1], [0, 1], [1, 1]])
        out = macro_prf(y_true, y_pred, ["a", "b"])
        pa = out["per_label"]["a"]["precision"]
        pb = out["per_label"]["b"]["precision"]
        assert out["macro_precision"] == pytest.approx((pa + pb) / 2)

    def test_excluded_label_left_out_of_macro(self):
        y_true = np.asarray([[1, 0], [1, 0], [0, 0]])
        y_pred = np.asarray([[1, 0], [1, 0], [0, 1]])
        out = macro_prf(y_true, y_pred, ["a", "b"], exclude=[1])
        assert out["macro_f1"] == pytest.approx(1.0)
        assert "b" in out["per_label"]

    def test_zero_denominators_give_zero(self):
        y_true = np.asarray([[0], [0]])
        y_pred = np.asarray([[0], [0]])
        out = macro_prf(y_true, y_pred, ["x"])
        assert out["macro_f1"] == 0.0
