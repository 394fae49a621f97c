"""Intrinsic evaluation metrics, all computed in float64.

acs/aed take an embedder plus root clusters; the clustering, correlation,
and classification metrics work on plain arrays so they can score any
model's output.
"""

from __future__ import annotations

import logging
import math
from typing import Sequence

import numpy as np

from ..errors import DataError, NumericalError
from .embedder import embed_rows

logger = logging.getLogger(__name__)


def _unit_vectors(embedder, words) -> dict:
    """word -> float64 unit vector for each distinct word, embedded in one batch."""
    words = list(dict.fromkeys(words))
    units = {}
    for word, vec in zip(words, embed_rows(embedder, words, np.float64)):
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise DataError(f"zero-norm embedding for word {word!r}")
        units[word] = vec / norm
    return units


def _cluster_words(clusters) -> list:
    return [w for root, members in clusters for w in (root, *members)]


def acs(embedder, clusters: Sequence) -> float:
    """Member-count-weighted mean cosine between members and their root."""
    units = _unit_vectors(embedder, _cluster_words(clusters))
    sims = [float(units[root] @ units[member])
            for root, members in clusters for member in members]
    if not sims:
        raise DataError("acs needs at least one cluster member")
    if min(sims) < 0:
        logger.warning("acs: %d member cosines are negative",
                       sum(s < 0 for s in sims))
    return float(np.mean(sims))


def aed(embedder, clusters: Sequence) -> float:
    """Mean member-root Euclidean distance, divided by sqrt(d)."""
    words = _cluster_words(clusters)
    vectors = embed_rows(embedder, words, np.float64)
    vecs = dict(zip(words, vectors))
    dists = [float(np.linalg.norm(vecs[member] - vecs[root]))
             for root, members in clusters for member in members]
    if not dists:
        raise DataError("aed needs at least one cluster member")
    return float(np.mean(dists) / math.sqrt(vectors.shape[1]))


def silhouette(points, labels) -> float:
    """Mean silhouette value, Euclidean; singleton clusters contribute 0."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if uniq.size < 2:
        raise DataError("silhouette needs at least two clusters")
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    values = np.zeros(len(points))
    for i in range(len(points)):
        own = labels == labels[i]
        if own.sum() == 1:
            continue
        a = dist[i, own].sum() / (own.sum() - 1)
        b = min(dist[i, labels == other].mean()
                for other in uniq if other != labels[i])
        denom = max(a, b)
        values[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(values.mean())


def _kmeans_pp_init(points: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(len(points))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0.0:
            centers[j] = points[rng.integers(len(points))]
        else:
            centers[j] = points[rng.choice(len(points), p=d2 / total)]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def kmeans(points, k: int, n_init: int = 10, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding, best inertia of n_init runs.

    300 iteration cap, 1e-6 relative inertia tolerance; an emptied cluster
    is re-seeded from the point farthest from its centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DataError(f"points must be 2-D, got shape {points.shape}")
    if not 1 <= k <= len(points):
        raise DataError(f"k must lie in [1, {len(points)}], got {k}")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(n_init):
        centers = _kmeans_pp_init(points, k, rng)
        prev_inertia = np.inf
        for _ in range(300):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
            labels = d2.argmin(axis=1)
            inertia = float(d2[np.arange(len(points)), labels].sum())
            for j in range(k):
                mask = labels == j
                if mask.any():
                    centers[j] = points[mask].mean(axis=0)
                else:
                    farthest = int(d2.min(axis=1).argmax())
                    centers[j] = points[farthest]
            if prev_inertia - inertia <= 1e-6 * max(prev_inertia, 1e-12):
                break
            prev_inertia = inertia
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(len(points)), labels].sum())
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels
    return best_labels


def ari(pred_labels, gold_labels) -> float:
    """Permutation-model Adjusted Rand Index."""
    pred = np.asarray(pred_labels)
    gold = np.asarray(gold_labels)
    if pred.shape != gold.shape or pred.ndim != 1:
        raise DataError(f"label vectors must match: {pred.shape} vs "
                        f"{gold.shape}")
    n = len(pred)
    _, pred_ids = np.unique(pred, return_inverse=True)
    _, gold_ids = np.unique(gold, return_inverse=True)
    table = np.zeros((pred_ids.max() + 1, gold_ids.max() + 1), dtype=np.int64)
    np.add.at(table, (pred_ids, gold_ids), 1)

    def comb2(x):
        return x * (x - 1) // 2

    index = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


def cluster_report(embedder, clusters: Sequence, seed: int = 0) -> dict:
    """ACS/AED plus k-means recovery of (root, members) groups.

    Members are clustered with k equal to the number of gold groups;
    silhouette scores the predicted partition and ARI compares it to
    the gold one.
    """
    gold = [i for i, (_, members) in enumerate(clusters) for _ in members]
    if not gold:
        raise DataError("cluster_report needs at least one cluster member")
    points = embed_rows(embedder, [w for _, members in clusters
                                   for w in members], np.float64)
    pred = kmeans(points, k=len(clusters), seed=seed)
    return {"acs": acs(embedder, clusters),
            "aed": aed(embedder, clusters),
            "silhouette": silhouette(points, pred),
            "ari": ari(pred, gold),
            "n_clusters": len(clusters),
            "n_words": len(gold)}


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"score vectors must match: {x.shape} vs {y.shape}")
    xc, yc = x - x.mean(), y - y.mean()
    denom = math.sqrt(float((xc ** 2).sum()) * float((yc ** 2).sum()))
    if denom == 0.0:
        raise NumericalError("correlation undefined: zero-variance scores")
    return float((xc * yc).sum() / denom)


def _ranks(x: np.ndarray) -> np.ndarray:
    # average ranks for ties
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"score vectors must match: {x.shape} vs {y.shape}")
    return pearson(_ranks(x), _ranks(y))


def kendall(x, y) -> float:
    """Sign-form tau: mean of sign(xi-xj)*sign(yi-yj) over i<j pairs."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"score vectors must match: {x.shape} vs {y.shape}")
    n = len(x)
    if n < 2:
        raise DataError("kendall needs at least two scores")
    if (x == x[0]).all() or (y == y[0]).all():
        raise NumericalError("correlation undefined: zero-variance scores")
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    upper = np.triu_indices(n, k=1)
    return float((dx[upper] * dy[upper]).sum() / (n * (n - 1) / 2))


def similarity_corr(embedder, pairs: Sequence) -> dict:
    """Cosine model scores vs human scores: Pearson, Spearman, Kendall."""
    if len(pairs) < 3:
        raise DataError("similarity_corr needs at least 3 pairs")
    units = _unit_vectors(embedder, [w for w1, w2, _ in pairs
                                     for w in (w1, w2)])
    model_scores, human_scores = [], []
    for w1, w2, human in pairs:
        model_scores.append(float(units[w1] @ units[w2]))
        human_scores.append(float(human))
    x = np.asarray(model_scores)
    y = np.asarray(human_scores)
    return {"pearson": pearson(x, y), "spearman": spearman(x, y),
            "kendall": kendall(x, y)}


def macro_prf(y_true, y_pred, label_names: Sequence[str] | None = None,
              exclude: Sequence[int] = ()) -> dict:
    """Per-label precision/recall/F1 plus macro averages.

    y_true/y_pred are [n, L] binary matrices. Labels listed in `exclude`
    (by column index) are dropped from the macro average but still reported.
    A zero denominator yields 0 for that statistic.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 2:
        raise DataError(f"label matrices must match: {y_true.shape} vs "
                        f"{y_pred.shape}")
    n_labels = y_true.shape[1]
    if label_names is None:
        label_names = [str(i) for i in range(n_labels)]
    per_label = {}
    kept = []
    for j in range(n_labels):
        tp = int(((y_true[:, j] == 1) & (y_pred[:, j] == 1)).sum())
        fp = int(((y_true[:, j] == 0) & (y_pred[:, j] == 1)).sum())
        fn = int(((y_true[:, j] == 1) & (y_pred[:, j] == 0)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        per_label[label_names[j]] = {
            "precision": p, "recall": r, "f1": f1,
            "support": int((y_true[:, j] == 1).sum()),
        }
        if j not in exclude:
            kept.append((p, r, f1))
    if not kept:
        raise DataError("macro_prf: every label was excluded")
    macro = np.asarray(kept).mean(axis=0)
    return {"per_label": per_label, "macro_precision": float(macro[0]),
            "macro_recall": float(macro[1]), "macro_f1": float(macro[2])}
