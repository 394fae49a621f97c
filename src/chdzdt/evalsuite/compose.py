"""Morpheme composition: predict a word vector from prefix/root/suffix.

Six composition functions: Add (p+r+s), Mul (elementwise product), WAdd
(trainable scalar mix), WMul (trainable elementwise powers), MpCnc (linear
map on the concatenation) and MpAdd (linear map on the sum). Trainable
kinds are fitted by gradient descent on mean squared reconstruction error;
a cosine objective is available behind a flag. The (prefix, root, suffix,
word) vector triples travel as one [n, 4, d] float64 array.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import tensor as T
from ..errors import DataError, NumericalError
from .metrics import _scaled_rows

logger = logging.getLogger(__name__)

SHIFT_EPS = 1e-3
_SHIFT_HINT = ("WMul exponentiates components, which requires strictly "
               "positive values; apply shift_positive(triples) first and "
               "record the shift in the report")
_SCALARS = ("alpha", "beta", "gamma")


def _logs(*prs) -> tuple:
    """The logs of P, R and S, which must be strictly positive."""
    if any(np.min(x) <= 0 for x in prs):
        raise DataError(_SHIFT_HINT)
    return tuple(np.log(x) for x in prs)


def _mix(f, P, R, S) -> T.Tensor:
    return f["alpha"] * P + f["beta"] * R + f["gamma"] * S


@dataclass(frozen=True)
class _Kind:
    """One composition function, which compose_fit trains and
    compose_batch runs without a graph.

    fields: its trained fields: none, _SCALARS, or ("W",) for a matrix of
    shape (dim, span * dim). forward: (fields as Tensors, *inputs as
    Tensors) -> composed vectors, with W in its training orientation
    [span * dim, dim]. inputs: (P, R, S) -> the constant arrays forward
    reads, built once per fit or batch.
    """

    fields: tuple
    forward: Callable
    inputs: Callable = lambda *prs: prs
    span: int = 1


_TABLE = {
    "Add": _Kind((), lambda f, P, R, S: P + R + S),
    "Mul": _Kind((), lambda f, P, R, S: P * R * S),
    "WAdd": _Kind(_SCALARS, _mix),
    "WMul": _Kind(_SCALARS, lambda f, *logs: _mix(f, *logs).exp(), _logs),
    "MpCnc": _Kind(("W",), lambda f, X: X @ f["W"],
                   lambda *prs: (np.concatenate(prs, axis=1),), span=3),
    "MpAdd": _Kind(("W",), lambda f, X: X @ f["W"],
                   lambda P, R, S: (P + R + S,)),
}
KINDS = tuple(_TABLE)


def _kind(kind: str) -> _Kind:
    if kind not in _TABLE:
        raise DataError(f"kind must be one of {KINDS}, got {kind!r}")
    return _TABLE[kind]


@dataclass
class CompositionModel:
    """A fitted composition function over d-dimensional embeddings; fields
    holds the trained fields _TABLE names for kind, W as (dim, span * dim)."""

    kind: str
    dim: int
    fields: dict = field(default_factory=dict)

    def __post_init__(self):
        spec = _kind(self.kind)
        want = {name: (self.dim, spec.span * self.dim) if name == "W" else ()
                for name in spec.fields}
        got = {name: np.shape(value) for name, value in self.fields.items()}
        if got != want:
            raise DataError(f"{self.kind} needs fields {want}, got {got}")

    # an overflow gives non-finite rows, which compose_eval reports
    @np.errstate(over="ignore", invalid="ignore")
    def compose_batch(self, P, R, S) -> np.ndarray:
        spec = _TABLE[self.kind]
        inputs = spec.inputs(*(np.asarray(x, dtype=np.float64)
                               for x in (P, R, S)))
        fields = {name: T.Tensor(np.asarray(value, dtype=np.float64).T)
                  for name, value in self.fields.items()}
        with T.no_grad():
            return spec.forward(fields, *map(T.Tensor, inputs)).data


def shift_positive(triples):
    """(shifted [n, 4, d] triples, shift): one global shift makes every
    component >= SHIFT_EPS, so relative geometry is preserved; the shift
    must be quoted alongside WMul results."""
    triples = _as_array(triples)
    shift = max(0.0, SHIFT_EPS - float(triples.min()))
    return triples + shift, shift


def _as_array(triples) -> np.ndarray:
    """The vector triples as one [n, 4, d] float64 array."""
    if len(triples) == 0:
        raise DataError("no composition triples given")
    if any(len(triple) != 4 for triple in triples):
        raise DataError("each triple must be (prefix, root, suffix, word)")
    try:
        array = np.asarray(triples, dtype=np.float64)
    except ValueError:  # vectors of unequal width
        array = np.empty(0)
    if array.ndim != 3:
        shapes = {np.shape(vec) for triple in triples for vec in triple}
        raise DataError(f"triples must hold 1-D vectors of one dimension, "
                        f"got shapes {sorted(shapes)}")
    return array


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
    spec = _kind(kind)
    if objective not in ("mse", "cosine"):
        raise DataError(f"objective must be 'mse' or 'cosine', "
                        f"got {objective!r}")
    P, R, S, W_target = _as_array(triples).transpose(1, 0, 2)
    d = P.shape[1]
    if not spec.fields:
        return CompositionModel(kind, d)
    X = spec.inputs(P, R, S)

    if objective == "cosine":
        keep = W_target.any(axis=1)
        if not np.all(keep):
            logger.warning("cosine objective: skipping %d zero-vector "
                           "targets", int((~keep).sum()))
            X, W_target = [x[keep] for x in X], W_target[keep]
        if len(W_target) == 0:
            raise DataError("no usable triples after dropping zero targets")
        # a power of two per row cancels in the cosine (see _exponent)
        W_target = _scaled_rows(W_target)

    rng = np.random.default_rng(seed)
    weights = T.ParamSet.of({
        name: rng.normal(0, 0.01, (spec.span * d, d)) if name == "W"
        else np.ones(1) for name in spec.fields})
    params = weights.params
    X = [T.Tensor(x) for x in X]
    T.fit([weights],
          (_fit_loss(spec.forward(params, *X), W_target, objective)
           for _ in range(epochs)), lr)
    return CompositionModel(kind, d, {
        name: p.data.T.copy() if name == "W" else float(p.data[0])
        for name, p in params.items()})


def block_norms(model: CompositionModel) -> dict:
    """Frobenius norms of W; MpCnc also reports the three d-wide blocks."""
    if "W" not in model.fields:
        raise DataError(f"{model.kind} has no matrix")
    norms = {"W": float(np.linalg.norm(model.fields["W"]))}
    span = _TABLE[model.kind].span
    if span > 1:
        for name, block in zip(("W_p", "W_r", "W_s"),
                               np.split(model.fields["W"], span, axis=1)):
            norms[name] = float(np.linalg.norm(block))
    return norms


def compose_eval(model: CompositionModel, triples) -> dict:
    """ACS and AED between composed and gold word vectors on test
    (p, r, s, w) vector triples.

    Pairs where either vector has zero norm are skipped with a warning.
    Matrix kinds also report Frobenius norms and export W itself. A
    non-finite composed vector is a NumericalError.
    """
    P, R, S, W_target = _as_array(triples).transpose(1, 0, 2)
    pred = model.compose_batch(P, R, S)
    if not np.isfinite(pred).all():
        raise NumericalError(f"{model.kind}: composed vectors are not "
                             "finite")
    scaled_pred, scaled_gold = _scaled_rows(pred), _scaled_rows(W_target)
    pred_norm = np.linalg.norm(scaled_pred, axis=1)
    gold_norm = np.linalg.norm(scaled_gold, axis=1)
    keep = (pred_norm > 0) & (gold_norm > 0)
    skipped = int((~keep).sum())
    if skipped:
        logger.warning("compose_eval: skipping %d zero-norm pairs", skipped)
    if not np.any(keep):
        raise DataError("every evaluation pair had a zero-norm vector")
    cosines = (scaled_pred[keep] * scaled_gold[keep]).sum(axis=1) / (
        pred_norm[keep] * gold_norm[keep])
    dists = np.linalg.norm(pred[keep] - W_target[keep], axis=1)
    report = {
        "kind": model.kind,
        "n_evaluated": int(keep.sum()),
        "n_skipped": skipped,
        "acs": float(cosines.mean()),
        "aed": float(dists.mean() / math.sqrt(model.dim)),
    }
    if _TABLE[model.kind].fields == _SCALARS:
        report["params"] = dict(model.fields)
    if "W" in model.fields:
        report["frobenius"] = block_norms(model)
        report["W"] = model.fields["W"].tolist()
    return report
