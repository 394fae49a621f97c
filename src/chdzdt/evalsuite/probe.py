"""Affix probing: multi-label logistic regression over frozen embeddings.

The split follows greedy iterative stratification so rare affixes keep
their train/test proportions; the probe is one-vs-rest logistic regression
trained by gradient descent, scored with macro precision/recall/F1.
"""

from __future__ import annotations

import logging

import numpy as np

from .. import tensor as T
from ..errors import DataError
from .metrics import macro_prf

logger = logging.getLogger(__name__)


def stratified_split(rows, fraction: float, seed: int = 42):
    """Greedy iterative stratification into (train, test).

    rows: (item, labels) pairs; fraction is the train share. Examples of
    the currently rarest label are placed into the subset with the greatest
    remaining demand for that label.
    """
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must lie in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    rows = list(rows)
    shares = (fraction, 1.0 - fraction)
    labels = sorted({lab for _, labs in rows for lab in labs})
    counts = {lab: sum(lab in labs for _, labs in rows) for lab in labels}
    desired = [{lab: counts[lab] * share for lab in labels}
               for share in shares]
    total_desired = [len(rows) * share for share in shares]
    remaining = set(range(len(rows)))
    assigned: list = [[], []]

    def place(idx: int, subset: int) -> None:
        remaining.discard(idx)
        assigned[subset].append(idx)
        total_desired[subset] -= 1
        for lab in rows[idx][1]:
            desired[subset][lab] -= 1

    while True:
        live = {lab: sum(1 for i in remaining if lab in rows[i][1])
                for lab in labels}
        live = {lab: n for lab, n in live.items() if n > 0}
        if not live:
            break
        rarest = min(live, key=lambda lab: (live[lab], lab))
        candidates = [i for i in remaining if rarest in rows[i][1]]
        rng.shuffle(candidates)
        for idx in candidates:
            by_label = [desired[s][rarest] for s in range(2)]
            if by_label[0] != by_label[1]:
                place(idx, int(np.argmax(by_label)))
            elif total_desired[0] != total_desired[1]:
                place(idx, int(np.argmax(total_desired)))
            else:
                place(idx, int(rng.integers(2)))
    leftovers = sorted(remaining)
    rng.shuffle(leftovers)
    for idx in leftovers:
        place(idx, int(np.argmax(total_desired)))
    train = [rows[i] for i in sorted(assigned[0])]
    test = [rows[i] for i in sorted(assigned[1])]
    return train, test


def _probe(W: T.Tensor, b: T.Tensor, X: T.Tensor) -> T.Tensor:
    """Each affix's presence probability for the embedding rows X."""
    return T.linear(X, W, b).sigmoid()


def probe_train(embeddings, affix_labels, split=None, fraction: float = 0.6,
                seed: int = 42, lr: float = 0.05, epochs: int = 200) -> dict:
    """One-vs-rest logistic probe from embeddings to affix presence.

    split: optional (train_indices, test_indices); otherwise a stratified
    fraction/seed split is generated. Affixes absent from the training
    split are excluded from the macro average with a warning.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(affix_labels):
        raise DataError(f"embeddings {X.shape} do not match "
                        f"{len(affix_labels)} label rows")
    names = sorted({lab for labs in affix_labels for lab in labs})
    if not names:
        raise DataError("no affix labels present")
    col = {lab: j for j, lab in enumerate(names)}
    y = np.zeros((len(X), len(names)))
    for i, labs in enumerate(affix_labels):
        for lab in labs:
            y[i, col[lab]] = 1.0
    if split is None:
        rows = [(i, labs) for i, labs in enumerate(affix_labels)]
        train_rows, test_rows = stratified_split(rows, fraction, seed)
        train_idx = [i for i, _ in train_rows]
        test_idx = [i for i, _ in test_rows]
    else:
        train_idx, test_idx = (list(split[0]), list(split[1]))
    if not train_idx or not test_idx:
        raise DataError("both splits must be non-empty")

    excluded = [j for j, lab in enumerate(names)
                if y[train_idx, j].sum() == 0]
    for j in excluded:
        logger.warning("affix %r absent from training split; excluded "
                       "from macro average", names[j])

    rng = np.random.default_rng(seed)
    d, n_labels = X.shape[1], len(names)
    weights = T.ParamSet.of({"W": rng.normal(0, 0.01, (d, n_labels)),
                             "b": np.zeros(n_labels)})
    W, b = weights.params.values()
    Xtr = T.Tensor(X[train_idx])
    ytr = y[train_idx]
    T.fit([weights], (T.bce_multilabel(_probe(W, b, Xtr), ytr)
                      for _ in range(epochs)), lr)

    with T.no_grad():
        y_pred = (_probe(W, b, T.Tensor(X[test_idx])).data > 0.5).astype(int)
    report = macro_prf(y[test_idx].astype(int), y_pred, names,
                       exclude=excluded)
    report["excluded_affixes"] = [names[j] for j in excluded]
    report["train_size"] = len(train_idx)
    report["test_size"] = len(test_idx)
    return report
