"""Decoders over word embeddings: morphology, PoS tagging, sentiment.

Each task trains a small decoder on top of an embedder. In frozen mode
word vectors are constants; in finetune mode the decoder loss
backpropagates into the encoder checkpoint (external vector tables
cannot be fine-tuned). Training follows the shared protocol: Adam,
full-batch epochs, early stop once the total loss drops below 0.1.
"""

from __future__ import annotations

import logging

import numpy as np

from .. import tensor as T
from ..chartok import encode_word
from ..encoder import forward_batch
from ..errors import ConfigError, DataError
from .datasets import SENTIMENT_LABELS
from .embedder import embed_rows
from .metrics import macro_prf
from .probe import stratified_split

logger = logging.getLogger(__name__)

MODES = ("frozen", "finetune")
NA_LABEL = "NA"


def _check_mode(embedder, mode: str) -> None:
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "finetune" and not getattr(embedder, "is_trainable", False):
        raise ConfigError("finetune needs a checkpoint embedder; external "
                          "vector tables are frozen")


class _WordSource:
    """Embedding matrix over unique words, rebuilt per epoch when finetuning."""

    def __init__(self, embedder, words, mode: str):
        self.embedder = embedder
        self.mode = mode
        self.words = sorted(set(words))
        self.row = {w: i for i, w in enumerate(self.words)}
        if mode == "finetune":
            state = embedder.state
            toks = [encode_word(state.vocab, w, state.config.max_chars)
                    for w in self.words]
            self.ids = np.stack([t.ids for t in toks])
            self.mask = np.stack([t.attention_mask for t in toks])
            self.state = state
        else:
            self.X = embed_rows(embedder, self.words, T.default_dtype())

    @property
    def dim(self) -> int:
        return self.embedder.dim

    def matrix(self) -> T.Tensor:
        if self.mode == "finetune":
            _, cls, _ = forward_batch(self.state, self.ids, self.mask)
            return cls
        return T.Tensor(self.X)

    def encoder_params(self) -> list:
        if self.mode == "finetune":
            return list(self.state.params.values())
        return []

    def finish(self) -> None:
        if self.mode == "finetune" and hasattr(self.embedder, "invalidate"):
            self.embedder.invalidate()


def _dense_params(d_in: int, d_out: int, rng):
    bound = np.sqrt(6.0 / (d_in + d_out))
    w = T.Tensor(rng.uniform(-bound, bound, (d_in, d_out))
                 .astype(T.default_dtype()), requires_grad=True)
    b = T.Tensor(np.zeros(d_out, dtype=T.default_dtype()),
                 requires_grad=True)
    return w, b


def morph_tagger(embedder, rows, features=None, mode: str = "frozen",
                 fraction: float = 0.6, seed: int = 42, epochs: int = 100,
                 lr: float = 0.01, shared_dim: int = 768,
                 loss_target: float = 0.1, test_rows=None) -> dict:
    """Multi-task morphological-feature tagger on word embeddings.

    rows: (word, {feature: value}) pairs; rows missing a feature get the
    ordinary class NA. One shared dense layer feeds one head per feature
    (sigmoid when binary, softmax beyond); the loss is the sum of all
    heads' cross-entropies. Overall accuracy is the unweighted mean of
    per-feature accuracies. Unknown evaluation tags count as wrong with
    a warning. test_rows overrides the stratified fraction/seed split.
    """
    _check_mode(embedder, mode)
    rows = list(rows)
    if not rows:
        raise DataError("no morphology rows given")
    if test_rows is None:
        split_rows = [(i, tuple(sorted(f"{k}={v}"
                                       for k, v in feats.items())))
                      for i, (_, feats) in enumerate(rows)]
        train_part, test_part = stratified_split(split_rows, fraction, seed)
        train = [rows[i] for i, _ in train_part]
        test = [rows[i] for i, _ in test_part]
    else:
        train, test = rows, list(test_rows)
    if not train or not test:
        raise DataError("both splits must be non-empty")

    if features is None:
        names = sorted({f for _, feats in train for f in feats})
        tagsets = {name: sorted({feats.get(name, NA_LABEL)
                                 for _, feats in train})
                   for name in names}
    else:
        tagsets = {}
        for name, values in features.items():
            values = sorted(set(values))
            if any(name not in feats for _, feats in train):
                values = sorted(set(values) | {NA_LABEL})
            tagsets[name] = values
    if not tagsets:
        raise DataError("no features to tag")

    targets = {}
    for name, values in tagsets.items():
        col = {v: j for j, v in enumerate(values)}
        labels = [feats.get(name, NA_LABEL) for _, feats in train]
        bad = sorted({lab for lab in labels if lab not in col})
        if bad:
            raise DataError(f"feature {name!r}: training value {bad[0]!r} "
                            "missing from the declared tagset")
        targets[name] = np.array([col[lab] for lab in labels])

    source = _WordSource(embedder, [w for w, _ in train], mode)
    rng = np.random.default_rng(seed)
    sw, sb = _dense_params(source.dim, shared_dim, rng)
    heads = {name: _dense_params(shared_dim,
                                 1 if len(values) == 2 else len(values), rng)
             for name, values in tagsets.items()}
    params = [sw, sb]
    for hw, hb in heads.values():
        params += [hw, hb]
    params += source.encoder_params()
    row_idx = np.array([source.row[w] for w, _ in train])

    opt = T.Adam(params, lr=lr)
    losses = []
    for _ in range(epochs):
        hidden = (source.matrix()[row_idx] @ sw + sb).tanh()
        total = None
        for name, values in tagsets.items():
            hw, hb = heads[name]
            logits = hidden @ hw + hb
            if len(values) == 2:
                head_loss = T.bce_multilabel(
                    logits.sigmoid(), targets[name][:, None].astype(float))
            else:
                head_loss = T.softmax_ce(logits, targets[name], "mean")
            total = head_loss if total is None else total + head_loss
        losses.append(float(total.data))
        if losses[-1] < loss_target:
            break
        opt.zero_grad()
        total.backward()
        opt.step()
    source.finish()

    hidden_t = np.tanh(embed_rows(embedder, [w for w, _ in test],
                                  T.default_dtype())
                       @ sw.data + sb.data)
    feature_report = {}
    accuracies = []
    for name, values in tagsets.items():
        hw, hb = heads[name]
        logits = hidden_t @ hw.data + hb.data
        if len(values) == 2:
            pred = (logits[:, 0] > 0).astype(int)
        else:
            pred = logits.argmax(axis=1)
        col = {v: j for j, v in enumerate(values)}
        gold = [feats.get(name, NA_LABEL) for _, feats in test]
        unknown = sorted({g for g in gold if g not in col})
        if unknown:
            logger.warning("feature %r: unknown evaluation tags %s counted "
                           "as wrong", name, unknown)
        acc = float(np.mean([col.get(g, -1) == p
                             for g, p in zip(gold, pred)]))
        accuracies.append(acc)
        feature_report[name] = {"accuracy": acc, "tagset": list(values),
                                "support": len(gold),
                                "unknown_tags": unknown}
    return {"mode": mode, "overall": float(np.mean(accuracies)),
            "features": feature_report, "train_losses": losses,
            "epochs_run": len(losses), "train_size": len(train),
            "test_size": len(test)}


def _bigru_states(emb: T.Tensor, mask: np.ndarray, pf: dict, pb: dict,
                  hidden: int):
    """Forward and backward GRU state lists; padded steps keep their state."""
    n, length = mask.shape
    zero = T.Tensor(np.zeros((n, hidden), dtype=T.default_dtype()))
    fwd, h = [], zero
    for t in range(length):
        m = mask[:, t][:, None]
        h_new = T.gru_cell(emb[:, t, :], h, pf)
        h = h_new * m + h * (1.0 - m)
        fwd.append(h)
    bwd, h = [None] * length, zero
    for t in reversed(range(length)):
        m = mask[:, t][:, None]
        h_new = T.gru_cell(emb[:, t, :], h, pb)
        h = h_new * m + h * (1.0 - m)
        bwd[t] = h
    return fwd, bwd


def _pack_sequences(seqs, row_of, max_words: int):
    """Index/mask/length arrays for a batch of word sequences."""
    seqs = [s[:max_words] for s in seqs]
    n, length = len(seqs), max(len(s) for s in seqs)
    idx = np.zeros((n, length), dtype=np.int64)
    mask = np.zeros((n, length), dtype=T.default_dtype())
    for i, seq in enumerate(seqs):
        for t, word in enumerate(seq):
            idx[i, t] = row_of[word]
            mask[i, t] = 1.0
    return idx, mask, [len(s) for s in seqs]


def pos_tagger(embedder, sentences, mode: str = "frozen",
               fraction: float = 0.6, seed: int = 42, epochs: int = 50,
               lr: float = 0.01, gru_hidden: int = 384,
               dense_dim: int = 768, max_words: int = 60,
               loss_target: float = 0.1, test_sentences=None) -> dict:
    """BiGRU part-of-speech tagger over per-word embeddings.

    Each sentence (truncated to max_words) runs through a bidirectional
    GRU; the concatenated per-position states feed a dense layer and a
    softmax over the training tagset. Padded positions are excluded from
    the loss and the accuracy; empty sentences are skipped with a warning.
    test_sentences overrides the stratified fraction/seed split.
    """
    _check_mode(embedder, mode)

    def clean(batch):
        kept, dropped = [], 0
        for sent in batch:
            sent = list(sent)
            if not sent:
                dropped += 1
                continue
            kept.append(sent[:max_words])
        return kept, dropped

    usable, skipped = clean(sentences)
    if test_sentences is None:
        if len(usable) < 2:
            raise DataError("need at least 2 non-empty sentences")
        split_rows = [(i, tuple(sorted({tag for _, tag in sent})))
                      for i, sent in enumerate(usable)]
        train_part, test_part = stratified_split(split_rows, fraction, seed)
        train = [usable[i] for i, _ in train_part]
        test = [usable[i] for i, _ in test_part]
    else:
        train = usable
        test, dropped = clean(test_sentences)
        skipped += dropped
    if skipped:
        logger.warning("skipping %d empty sentences", skipped)
    if not train or not test:
        raise DataError("both splits must be non-empty")

    tagset = sorted({tag for sent in train for _, tag in sent})
    col = {tag: j for j, tag in enumerate(tagset)}

    source = _WordSource(embedder, [w for s in train for w, _ in s], mode)
    idx, mask, _ = _pack_sequences([[w for w, _ in s] for s in train],
                                   source.row, max_words)
    tgt = np.zeros(idx.shape, dtype=np.int64)
    for i, sent in enumerate(train):
        for t, (_, tag) in enumerate(sent):
            tgt[i, t] = col[tag]
    valid = np.nonzero(mask.T.reshape(-1))[0]
    flat_tgt = tgt.T.reshape(-1)[valid]

    rng = np.random.default_rng(seed)
    pf = T.gru_params(source.dim, gru_hidden, rng)
    pb = T.gru_params(source.dim, gru_hidden, rng)
    dw, db = _dense_params(2 * gru_hidden, dense_dim, rng)
    ow, ob = _dense_params(dense_dim, len(tagset), rng)
    params = [*pf.values(), *pb.values(), dw, db, ow, ob,
              *source.encoder_params()]

    def logits_for(matrix, idx, mask, valid_rows):
        emb = matrix[idx]
        fwd, bwd = _bigru_states(emb, mask, pf, pb, gru_hidden)
        states = T.cat([T.cat([f, b], axis=1) for f, b in zip(fwd, bwd)],
                       axis=0)
        hidden = (states[valid_rows] @ dw + db).tanh()
        return hidden @ ow + ob

    opt = T.Adam(params, lr=lr)
    losses = []
    for _ in range(epochs):
        loss = T.softmax_ce(logits_for(source.matrix(), idx, mask, valid),
                            flat_tgt, "mean")
        losses.append(float(loss.data))
        if losses[-1] < loss_target:
            break
        opt.zero_grad()
        loss.backward()
        opt.step()
    source.finish()

    test_words = sorted({w for s in test for w, _ in s})
    test_row = {w: i for i, w in enumerate(test_words)}
    Xt = embed_rows(embedder, test_words, T.default_dtype())
    idx_t, mask_t, _ = _pack_sequences([[w for w, _ in s] for s in test],
                                       test_row, max_words)
    valid_t = np.nonzero(mask_t.T.reshape(-1))[0]
    pred = logits_for(T.Tensor(Xt), idx_t, mask_t, valid_t).data.argmax(1)

    gold_tags = [sent[t][1] for t in range(idx_t.shape[1]) for sent in test
                 if t < len(sent)]
    unknown = sorted({g for g in gold_tags if g not in col})
    if unknown:
        logger.warning("unknown evaluation tags %s counted as wrong",
                       unknown)
    gold_idx = np.array([col.get(g, -1) for g in gold_tags])
    accuracy = float(np.mean(pred == gold_idx))
    y_true = np.zeros((len(gold_idx), len(tagset)), dtype=int)
    known = gold_idx >= 0
    y_true[np.nonzero(known)[0], gold_idx[known]] = 1
    y_pred = np.zeros_like(y_true)
    y_pred[np.arange(len(pred)), pred] = 1
    prf = macro_prf(y_true, y_pred, tagset)
    return {"mode": mode, "accuracy": accuracy,
            "per_tag": prf["per_label"], "macro_f1": prf["macro_f1"],
            "tagset": tagset, "unknown_tags": unknown,
            "train_losses": losses, "epochs_run": len(losses),
            "skipped_empty": skipped,
            "n_train_sentences": len(train),
            "n_test_sentences": len(test),
            "n_train_tokens": int(len(valid)),
            "n_test_tokens": int(len(valid_t))}


def sentiment_classifier(embedder, rows, mode: str = "frozen",
                         fraction: float = 0.6, seed: int = 42,
                         epochs: int = 100, lr: float = 0.01,
                         gru_hidden: int = 384, dense_dim: int = 768,
                         max_words: int = 30,
                         loss_target: float = 0.1, test_rows=None) -> dict:
    """Three-way polarity classifier over a BiGRU sentence encoding.

    rows: (label, text) with labels in {negative, neutral, positive}.
    Texts are whitespace-tokenized and truncated to max_words; the final
    forward and backward GRU states are concatenated, passed through a
    dense layer and a 3-way softmax. Empty texts are skipped with a
    warning. test_rows overrides the stratified fraction/seed split.
    """
    _check_mode(embedder, mode)
    col = {lab: j for j, lab in enumerate(SENTIMENT_LABELS)}
    skipped = 0
    n_truncated = 0

    def clean(batch):
        nonlocal skipped, n_truncated
        kept = []
        for label, text in batch:
            if label not in col:
                raise DataError(f"unknown sentiment label {label!r}")
            words = text.split()
            if not words:
                skipped += 1
                continue
            if len(words) > max_words:
                n_truncated += 1
                words = words[:max_words]
            kept.append((label, words))
        return kept

    usable = clean(rows)
    if test_rows is None:
        if len(usable) < 2:
            raise DataError("need at least 2 non-empty texts")
        split_rows = [(i, (label,)) for i, (label, _) in enumerate(usable)]
        train_part, test_part = stratified_split(split_rows, fraction, seed)
        train = [usable[i] for i, _ in train_part]
        test = [usable[i] for i, _ in test_part]
    else:
        train = usable
        test = clean(test_rows)
    if skipped:
        logger.warning("skipping %d empty texts", skipped)
    if not train or not test:
        raise DataError("both splits must be non-empty")

    source = _WordSource(embedder, [w for _, ws in train for w in ws], mode)
    idx, mask, _ = _pack_sequences([ws for _, ws in train], source.row,
                                   max_words)
    tgt = np.array([col[label] for label, _ in train])

    rng = np.random.default_rng(seed)
    pf = T.gru_params(source.dim, gru_hidden, rng)
    pb = T.gru_params(source.dim, gru_hidden, rng)
    dw, db = _dense_params(2 * gru_hidden, dense_dim, rng)
    ow, ob = _dense_params(dense_dim, len(SENTIMENT_LABELS), rng)
    params = [*pf.values(), *pb.values(), dw, db, ow, ob,
              *source.encoder_params()]

    def logits_for(matrix, idx, mask):
        emb = matrix[idx]
        fwd, bwd = _bigru_states(emb, mask, pf, pb, gru_hidden)
        sentence = T.cat([fwd[-1], bwd[0]], axis=1)
        return (sentence @ dw + db).tanh() @ ow + ob

    opt = T.Adam(params, lr=lr)
    losses = []
    for _ in range(epochs):
        loss = T.softmax_ce(logits_for(source.matrix(), idx, mask), tgt,
                            "mean")
        losses.append(float(loss.data))
        if losses[-1] < loss_target:
            break
        opt.zero_grad()
        loss.backward()
        opt.step()
    source.finish()

    test_words = sorted({w for _, ws in test for w in ws})
    test_row = {w: i for i, w in enumerate(test_words)}
    Xt = embed_rows(embedder, test_words, T.default_dtype())
    idx_t, mask_t, _ = _pack_sequences([ws for _, ws in test], test_row,
                                       max_words)
    pred = logits_for(T.Tensor(Xt), idx_t, mask_t).data.argmax(1)
    gold = np.array([col[label] for label, _ in test])
    accuracy = float(np.mean(pred == gold))
    y_true = np.zeros((len(gold), 3), dtype=int)
    y_true[np.arange(len(gold)), gold] = 1
    y_pred = np.zeros_like(y_true)
    y_pred[np.arange(len(pred)), pred] = 1
    prf = macro_prf(y_true, y_pred, list(SENTIMENT_LABELS))
    counts = {"train": {lab: 0 for lab in SENTIMENT_LABELS},
              "test": {lab: 0 for lab in SENTIMENT_LABELS}}
    for label, _ in train:
        counts["train"][label] += 1
    for label, _ in test:
        counts["test"][label] += 1
    return {"mode": mode, "accuracy": accuracy,
            "per_class": prf["per_label"], "macro_f1": prf["macro_f1"],
            "label_counts": counts, "train_losses": losses,
            "epochs_run": len(losses), "skipped_empty": skipped,
            "n_truncated": n_truncated, "max_words": max_words,
            "train_size": len(train), "test_size": len(test)}
