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
from .embedder import TsvEmbedder, embed_rows

logger = logging.getLogger(__name__)


def _exponent(x: np.ndarray, axis=None):
    """The e that brings the largest magnitude of x * 2**-e into [0.5, 1),
    of all of x (0 if empty) or of each row along axis. Scaling by a power
    of two is exact, so distances and cosines of scaled points keep their
    bytes; unscaled, the squares of values below about 1e-154 underflow, so
    a norm loses precision (a cosine above 1), and below 1e-162 it is 0."""
    return np.frexp(np.abs(x).max(axis, keepdims=axis is not None,
                                  initial=0.0))[1]


def _scaled_rows(x: np.ndarray) -> np.ndarray:
    """Each row of x times its own power of two, by _exponent."""
    return np.ldexp(x, -_exponent(x, -1))


def _cosines(embedder, pairs) -> list:
    """float64 cosine of each (a, b) word pair; the distinct words are
    embedded in one batch, and a zero-norm one is a DataError."""
    words = list(dict.fromkeys(w for pair in pairs for w in pair))
    units = {}
    for word, vec in zip(words, _scaled_rows(
            embed_rows(embedder, words, np.float64))):
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise DataError(f"zero-norm embedding for word {word!r}")
        units[word] = vec / norm
    return [float(units[a] @ units[b]) for a, b in pairs]


def acs(embedder, clusters: Sequence) -> float:
    """Member-count-weighted mean cosine between members and their root."""
    sims = _cosines(embedder, [(root, member) for root, members in clusters
                               for member in members])
    if not sims:
        raise DataError("acs needs at least one cluster member")
    if min(sims) < 0:
        logger.warning("acs: %d member cosines are negative",
                       sum(s < 0 for s in sims))
    return float(np.mean(sims))


def aed(embedder, clusters: Sequence) -> float:
    """Mean member-root Euclidean distance, divided by sqrt(d)."""
    words = [w for root, members in clusters for w in (root, *members)]
    vectors = embed_rows(embedder, words, np.float64)
    exp = _exponent(vectors)
    vecs = dict(zip(words, np.ldexp(vectors, -exp)))
    dists = [float(np.linalg.norm(vecs[member] - vecs[root]))
             for root, members in clusters for member in members]
    if not dists:
        raise DataError("aed needs at least one cluster member")
    return float(np.ldexp(np.mean(dists) / math.sqrt(vectors.shape[1]), exp))


# silhouette takes its distances a block of rows at a time, the block's
# [rows, n, d] difference array holding at most this many floats
BLOCK = 2 ** 20


def silhouette(points, labels) -> float:
    """Mean silhouette value, Euclidean; singleton clusters contribute 0.

    The points are scaled by one power of two first (_exponent). A block
    of rows at a time takes its distances to every point. Each cluster's
    row sums come from a C-contiguous copy of its columns (compress),
    which adds each row in column order by numpy's pairwise summation, as
    the sum of one row's distances does; the F-ordered copy that
    dist[:, mask] makes adds in another order, and the last digits differ.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.ndim != 2:
        raise DataError(f"points must be 2-D, got shape {points.shape}")
    if labels.shape != (len(points),):
        raise DataError(f"labels must have shape ({len(points)},), got "
                        f"{labels.shape}")
    uniq, cluster, size = np.unique(labels, return_inverse=True,
                                    return_counts=True)
    if uniq.size < 2:
        raise DataError("silhouette needs at least two clusters")
    points = np.ldexp(points, -_exponent(points))
    n = len(points)
    masks = cluster == np.arange(uniq.size)[:, None]
    sums = np.empty((n, uniq.size))
    rows = max(1, BLOCK // max(1, points.size))
    for lo in range(0, n, rows):
        dist = np.sqrt(((points[lo:lo + rows, None] - points[None]) ** 2)
                       .sum(-1))
        for c, mask in enumerate(masks):
            sums[lo:lo + rows, c] = dist.compress(mask, axis=1).sum(axis=1)
    own = size[cluster]
    whole = own > 1
    a = np.divide(sums[np.arange(n), cluster], own - 1, out=np.zeros(n),
                  where=whole)
    means = sums / size
    means[np.arange(n), cluster] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    values = np.divide(b - a, denom, out=np.zeros(n),
                       where=whole & (denom != 0.0))
    return float(values.mean())


# k-means restarts, run side by side; the least inertia wins
RESTARTS = 10
# a restart stops after this many Lloyd updates, or once an update lowers
# its inertia by less than TOL of it
MAX_PASSES = 300
TOL = 1e-6


def _nearest(points: np.ndarray, p2: np.ndarray, centers: np.ndarray):
    """Each point's nearest center in each of r restarts' k centers, and
    its squared distance, [r, n] each. The squared distances are taken as
    (|p|² - 2p·c) + |c|² from one batched product, clipped at 0; p2 holds
    the |p|²."""
    d2 = points @ centers.transpose(0, 2, 1)
    d2 *= -2.0
    d2 += p2[:, None]
    d2 += (centers ** 2).sum(-1)[:, None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2.argmin(2), d2.min(2)


def _kmeans_pp_init(points: np.ndarray, p2: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds of every restart at once, [RESTARTS, k, d].

    All randoms are drawn up front: a first index per restart, then one u
    per later seed. A later seed's index is the count of cumulative d² at
    or below u · total, or a uniform index from u when the total is 0.
    """
    n = len(points)
    first = rng.integers(n, size=RESTARTS)
    u = rng.random((RESTARTS, k - 1))
    centers = np.empty((RESTARTS, k, points.shape[1]))
    centers[:, 0] = points[first]
    d2 = _nearest(points, p2, centers[:, :1])[1]
    for j in range(1, k):
        cum = np.cumsum(d2, axis=1)
        total = cum[:, -1]
        below = (cum <= (u[:, j - 1] * total)[:, None]).sum(1)
        idx = np.where(total == 0.0, u[:, j - 1] * n, below).astype(np.intp)
        centers[:, j] = points[np.minimum(idx, n - 1)]
        np.minimum(d2, _nearest(points, p2, centers[:, j:j + 1])[1], out=d2)
    return centers


def kmeans(points, k: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; the labels of the first of
    RESTARTS restarts with the least inertia.

    The points are scaled by one power of two first (_exponent). The
    restarts run side by side: each pass takes every live restart's
    squared distances from one batched product (_nearest) and its
    centroid sums from one bincount per dimension, in point order. An
    emptied cluster takes its restart's point farthest from its nearest
    center. A restart leaves the batch, keeping its last labels, once its
    inertia is at least (1 - TOL) times the one before, or after
    MAX_PASSES updates.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DataError(f"points must be 2-D, got shape {points.shape}")
    if not 1 <= k <= len(points):
        raise DataError(f"k must lie in [1, {len(points)}], got {k}")
    points = np.ldexp(points, -_exponent(points))
    n, dim = points.shape
    p2 = (points ** 2).sum(1)
    centers = _kmeans_pp_init(points, p2, k, np.random.default_rng(seed))
    # row e holds dimension e of the points once per restart, the weights
    # of that dimension's centroid sums
    tiled = np.tile(points.T, RESTARTS)
    labels = np.empty((RESTARTS, n), dtype=np.intp)
    inertia = np.empty(RESTARTS)
    live = np.arange(RESTARTS)
    prev = np.full(RESTARTS, np.inf)
    for passes in range(MAX_PASSES + 1):
        lab, near = _nearest(points, p2, centers)
        now = near.sum(1)
        done = (now >= prev * (1 - TOL)) | (passes == MAX_PASSES)
        labels[live[done]] = lab[done]
        inertia[live[done]] = now[done]
        go = ~done
        if not go.any():
            break
        live, prev, lab, near = live[go], now[go], lab[go], near[go]
        size = len(live) * k
        flat = (lab + k * np.arange(len(live))[:, None]).ravel()
        sums = np.stack([np.bincount(flat, row[:flat.size], size)
                         for row in tiled], axis=-1)
        counts = np.bincount(flat, minlength=size)
        centers = (sums / np.maximum(counts, 1)[:, None]).reshape(-1, k, dim)
        rows, cols = np.nonzero(counts.reshape(-1, k) == 0)
        centers[rows, cols] = points[near.argmax(1)[rows]]
    return labels[inertia.argmin()]


def ari(pred_labels, gold_labels) -> float:
    """Permutation-model Adjusted Rand Index."""
    pred = np.asarray(pred_labels)
    gold = np.asarray(gold_labels)
    if pred.shape != gold.shape or pred.ndim != 1:
        raise DataError(f"label vectors must match: {pred.shape} vs "
                        f"{gold.shape}")
    n = len(pred)
    if n < 2:
        # no pair to count: the limit case of identical partitions
        return 1.0
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
    words = [w for root, members in clusters for w in (root, *members)]
    embedder = TsvEmbedder(dict(zip(words, embed_rows(
        embedder, words, np.float64))), embedder.dim)
    points = embed_rows(embedder, [w for _, members in clusters
                                   for w in members], np.float64)
    pred = kmeans(points, k=len(clusters), seed=seed)
    return {"acs": acs(embedder, clusters),
            "aed": aed(embedder, clusters),
            "silhouette": silhouette(points, pred),
            "ari": ari(pred, gold),
            "n_clusters": len(clusters),
            "n_words": len(gold)}


# scores whose spread (max - min) is within this many ulps of their
# largest magnitude are constant up to rounding: the cosines of identical
# words differ from 1 by a few ulps, and correlating them correlates noise
SPREAD_ULPS = 16


def _score_vectors(x, y) -> tuple:
    """x and y as float64 vectors of one shape; a vector that is constant
    up to SPREAD_ULPS is a NumericalError (its correlation is undefined)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"score vectors must match: {x.shape} vs {y.shape}")
    for v in (x, y):
        if not v.size or np.ptp(v) <= (SPREAD_ULPS * np.finfo(np.float64).eps
                                       * np.abs(v).max()):
            raise NumericalError("correlation undefined: zero-variance scores")
    return x, y


def pearson(x, y) -> float:
    x, y = _score_vectors(x, y)
    xc, yc = x - x.mean(), y - y.mean()
    denom = math.sqrt(float((xc ** 2).sum()) * float((yc ** 2).sum()))
    if denom == 0.0:  # the squared deviations underflowed
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
    x, y = _score_vectors(x, y)
    return pearson(_ranks(x), _ranks(y))


def kendall(x, y) -> float:
    """Sign-form tau: mean of sign(xi-xj)*sign(yi-yj) over i<j pairs."""
    x, y = _score_vectors(x, y)
    n = len(x)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    upper = np.triu_indices(n, k=1)
    return float((dx[upper] * dy[upper]).sum() / (n * (n - 1) / 2))


def similarity_corr(embedder, pairs: Sequence) -> dict:
    """Cosine model scores vs human scores: Pearson, Spearman, Kendall."""
    if len(pairs) < 3:
        raise DataError("similarity_corr needs at least 3 pairs")
    x = np.asarray(_cosines(embedder, [(w1, w2) for w1, w2, _ in pairs]))
    y = np.asarray([float(human) for _, _, human in pairs])
    return {"pearson": pearson(x, y), "spearman": spearman(x, y),
            "kendall": kendall(x, y)}


def macro_prf(y_true, y_pred, label_names: Sequence[str],
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
    per_label = {}
    kept = []
    for j in range(y_true.shape[1]):
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
