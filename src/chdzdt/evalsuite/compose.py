"""Morpheme composition: predict a word vector from prefix/root/suffix.

Six composition functions: Add (p+r+s), Mul (elementwise product), WAdd
(trainable scalar mix), WMul (trainable elementwise powers), MpCnc (linear
map on the concatenation) and MpAdd (linear map on the sum). Trainable
kinds are fitted by gradient descent on mean squared reconstruction error;
a cosine objective is available behind a flag.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .. import tensor as T
from ..errors import DataError
from .embedder import embed_rows

logger = logging.getLogger(__name__)

KINDS = ("Add", "Mul", "WAdd", "WMul", "MpCnc", "MpAdd")
SHIFT_EPS = 1e-3
_SHIFT_HINT = ("WMul exponentiates components, which requires strictly "
               "positive values; apply shift_positive(triples, eps=1e-3) "
               "first and record the shift in the report")


@dataclass
class CompositionModel:
    """A fitted composition function over d-dimensional embeddings."""

    kind: str
    dim: int
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    W: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind in ("WAdd", "WMul"):
            if None in (self.alpha, self.beta, self.gamma):
                raise DataError(f"{self.kind} needs alpha, beta and gamma")
        if self.kind == "MpCnc":
            if self.W is None or self.W.shape != (self.dim, 3 * self.dim):
                raise DataError(f"MpCnc needs W of shape "
                                f"({self.dim}, {3 * self.dim})")
        if self.kind == "MpAdd":
            if self.W is None or self.W.shape != (self.dim, self.dim):
                raise DataError(f"MpAdd needs W of shape "
                                f"({self.dim}, {self.dim})")

    def compose_batch(self, P, R, S) -> np.ndarray:
        P, R, S = (np.asarray(x, dtype=np.float64) for x in (P, R, S))
        if self.kind == "Add":
            return P + R + S
        if self.kind == "Mul":
            return P * R * S
        if self.kind == "WAdd":
            return self.alpha * P + self.beta * R + self.gamma * S
        if self.kind == "WMul":
            _require_positive(P, R, S)
            return np.exp(self.alpha * np.log(P) + self.beta * np.log(R)
                          + self.gamma * np.log(S))
        if self.kind == "MpCnc":
            return np.concatenate([P, R, S], axis=1) @ self.W.T
        return (P + R + S) @ self.W.T

    def compose(self, p, r, s) -> np.ndarray:
        batch = self.compose_batch(np.asarray(p)[None], np.asarray(r)[None],
                                   np.asarray(s)[None])
        return batch[0]


def _require_positive(*arrays) -> None:
    for arr in arrays:
        if np.min(arr) <= 0:
            raise DataError(_SHIFT_HINT)


def shift_positive(triples, eps: float = SHIFT_EPS):
    """Affinely shift every vector so all components are >= eps.

    Returns (shifted_triples, shift); the shift is global so relative
    geometry is preserved and must be quoted alongside WMul results.
    """
    low = min(float(np.min(np.asarray(vec, dtype=np.float64)))
              for triple in triples for vec in triple)
    shift = max(0.0, eps - low)
    shifted = [tuple(np.asarray(vec, dtype=np.float64) + shift
                     for vec in triple) for triple in triples]
    return shifted, shift


def _as_arrays(triples, embedder=None):
    if not triples:
        raise DataError("no composition triples given")
    if any(len(triple) != 4 for triple in triples):
        raise DataError("each triple must be (prefix, root, suffix, word)")
    if embedder is not None:
        words = [t for triple in triples if isinstance(triple[0], str)
                 for t in triple]
        vecs = dict(zip(words, embed_rows(embedder, words, np.float64)))
        triples = [[vecs[t] for t in triple] if isinstance(triple[0], str)
                   else triple for triple in triples]
    rows = [[np.asarray(t, dtype=np.float64) for t in triple]
            for triple in triples]
    dims = {vec.shape for row in rows for vec in row}
    if len(dims) != 1 or len(next(iter(dims))) != 1:
        raise DataError(f"triples must hold 1-D vectors of one dimension, "
                        f"got shapes {sorted(dims)}")
    stacked = [np.stack([row[i] for row in rows]) for i in range(4)]
    return stacked[0], stacked[1], stacked[2], stacked[3]


def _fit_loss(pred: T.Tensor, target: np.ndarray, objective: str) -> T.Tensor:
    if objective == "mse":
        diff = pred - target
        return (diff * diff).mean()
    dots = (pred * target).sum(axis=1)
    norms = ((pred * pred).sum(axis=1) + 1e-12) ** 0.5
    target_norms = np.linalg.norm(target, axis=1)
    return (1.0 - dots / (norms * target_norms)).mean()


def compose_fit(kind: str, triples, objective: str = "mse",
                lr: float = 0.05, epochs: int = 300,
                seed: int = 0) -> CompositionModel:
    """Fit a composition model on (p, r, s, w) vector triples."""
    if kind not in KINDS:
        raise DataError(f"kind must be one of {KINDS}, got {kind!r}")
    if objective not in ("mse", "cosine"):
        raise DataError(f"objective must be 'mse' or 'cosine', "
                        f"got {objective!r}")
    P, R, S, W_target = _as_arrays(triples)
    d = P.shape[1]
    if kind == "Add":
        return CompositionModel("Add", d)
    if kind == "Mul":
        return CompositionModel("Mul", d)
    if kind == "WMul":
        _require_positive(P, R, S)

    if objective == "cosine":
        keep = np.linalg.norm(W_target, axis=1) > 0
        if not np.all(keep):
            logger.warning("cosine objective: skipping %d zero-vector "
                           "targets", int((~keep).sum()))
            P, R, S, W_target = P[keep], R[keep], S[keep], W_target[keep]
        if len(P) == 0:
            raise DataError("no usable triples after dropping zero targets")

    rng = np.random.default_rng(seed)
    if kind in ("WAdd", "WMul"):
        params = [T.Tensor(np.ones(1), requires_grad=True) for _ in range(3)]
    elif kind == "MpCnc":
        params = [T.Tensor(rng.normal(0, 0.01, (3 * d, d)),
                           requires_grad=True)]
    else:
        params = [T.Tensor(rng.normal(0, 0.01, (d, d)), requires_grad=True)]

    if kind == "WAdd":
        X = (P, R, S)
    elif kind == "WMul":
        X = (np.log(P), np.log(R), np.log(S))
    elif kind == "MpCnc":
        X = T.Tensor(np.concatenate([P, R, S], axis=1))
    else:
        X = T.Tensor(P + R + S)

    def loss_fn():
        if kind in ("WAdd", "WMul"):
            a, b, g = params
            pred = a * X[0] + b * X[1] + g * X[2]
            if kind == "WMul":
                pred = pred.exp()
        else:
            pred = X.matmul(params[0])
        return _fit_loss(pred, W_target, objective)

    T.fit(params, loss_fn, epochs, lr)

    if kind in ("WAdd", "WMul"):
        a, b, g = (float(p.data[0]) for p in params)
        return CompositionModel(kind, d, alpha=a, beta=b, gamma=g)
    return CompositionModel(kind, d, W=params[0].data.T.copy())


def block_norms(model: CompositionModel) -> dict:
    """Frobenius norms of W; MpCnc also reports the three d-wide blocks."""
    if model.W is None:
        raise DataError(f"{model.kind} has no matrix")
    norms = {"W": float(np.linalg.norm(model.W))}
    if model.kind == "MpCnc":
        d = model.dim
        for name, j in (("W_p", 0), ("W_r", 1), ("W_s", 2)):
            norms[name] = float(np.linalg.norm(model.W[:, j * d:(j + 1) * d]))
    return norms


def compose_eval(model: CompositionModel, triples, embedder=None) -> dict:
    """ACS and AED between composed and gold word vectors on test triples.

    Pairs where either vector has zero norm are skipped with a warning.
    Matrix kinds also report Frobenius norms and export W itself.
    """
    P, R, S, W_target = _as_arrays(triples, embedder)
    pred = model.compose_batch(P, R, S)
    pred_norm = np.linalg.norm(pred, axis=1)
    gold_norm = np.linalg.norm(W_target, axis=1)
    keep = (pred_norm > 0) & (gold_norm > 0)
    skipped = int((~keep).sum())
    if skipped:
        logger.warning("compose_eval: skipping %d zero-norm pairs", skipped)
    if not np.any(keep):
        raise DataError("every evaluation pair had a zero-norm vector")
    cosines = (pred[keep] * W_target[keep]).sum(axis=1) / (
        pred_norm[keep] * gold_norm[keep])
    dists = np.linalg.norm(pred[keep] - W_target[keep], axis=1)
    report = {
        "kind": model.kind,
        "n_evaluated": int(keep.sum()),
        "n_skipped": skipped,
        "acs": float(cosines.mean()),
        "aed": float(dists.mean() / math.sqrt(model.dim)),
    }
    if model.kind in ("WAdd", "WMul"):
        report["params"] = {"alpha": model.alpha, "beta": model.beta,
                            "gamma": model.gamma}
    if model.W is not None:
        report["frobenius"] = block_norms(model)
        report["W"] = model.W.tolist()
    return report
