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
from .embedder import CheckpointEmbedder, embed_rows
from .metrics import macro_prf
from .probe import stratified_split

logger = logging.getLogger(__name__)

MODES = ("frozen", "finetune")
NA_LABEL = "NA"


def _check_mode(embedder, mode: str) -> None:
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "finetune" and not isinstance(embedder, CheckpointEmbedder):
        raise ConfigError("finetune needs a checkpoint embedder; external "
                          "vector tables are frozen")


def _word_rows(embedder, words, test_words, mode: str):
    """(row, rows, encoder_params, test_rows) for the training words:
    row maps a word to its index, rows() gives the [n, dim] Tensor of their
    vectors, encoder_params are the weights a finetuning step also updates,
    and test_rows() gives (row, X) over test_words once training is done.

    Frozen vectors of both splits are embedded in one call and rows()
    returns that constant. In finetune mode each rows() call is a forward
    pass with a graph, so the loss reaches the encoder, and test_rows()
    embeds the test words with the trained weights.
    """
    words = sorted({*words, *test_words} if mode == "frozen" else {*words})
    row = {w: i for i, w in enumerate(words)}
    if mode == "frozen":
        X = T.Tensor(embed_rows(embedder, words, T.default_dtype()))
        return row, lambda: X, [], lambda: (row, X)
    state = embedder.state
    ids = np.stack([encode_word(state.vocab, w, state.config.max_chars)
                    for w in words])
    return (row, lambda: forward_batch(state, ids)[1],
            state.parameters(),
            lambda: _word_rows(embedder, test_words, (), "frozen")[3]())


def _dense_params(d_in: int, d_out: int, rng):
    w = T.Tensor(T.glorot(rng, d_in, d_out), requires_grad=True)
    b = T.Tensor(np.zeros(d_out, dtype=T.default_dtype()),
                 requires_grad=True)
    return w, b


def _split(rows, key, fraction: float, seed: int, test_rows):
    """(train, test): a stratified fraction/seed split of rows on key(row),
    or all rows against the given test_rows. Both must be non-empty."""
    if test_rows is None:
        parts = stratified_split([(i, key(row)) for i, row in enumerate(rows)],
                                 fraction, seed)
        train, test = ([rows[i] for i, _ in part] for part in parts)
    else:
        train, test = rows, list(test_rows)
    if not train or not test:
        raise DataError("both splits must be non-empty")
    return train, test


def _sequences(rows, test_rows, sequence, max_words: int, noun: str, key,
               fraction: float, seed: int):
    """(train, test, skipped, truncated) for sequence decoders.

    Each row of rows (and of test_rows, when given) becomes a (row, seq)
    pair, seq = sequence(row) cut to max_words; rows with an empty seq
    are skipped. train and test are the _split of the pairs on key(pair);
    skipped and truncated count the empty and the cut sequences of both.
    """
    skipped = truncated = 0
    usable, test = [], (None if test_rows is None else [])
    for kept, batch in ((usable, rows), (test, test_rows or ())):
        for row in batch:
            seq = list(sequence(row))
            if not seq:
                skipped += 1
                continue
            if len(seq) > max_words:
                truncated += 1
            kept.append((row, seq[:max_words]))
    if test is None and len(usable) < 2:
        raise DataError(f"need at least 2 non-empty {noun}")
    if skipped:
        logger.warning("skipping %d empty %s", skipped, noun)
    train, test = _split(usable, key, fraction, seed, test)
    return train, test, skipped, truncated


def _gold_indices(gold, col: dict, feature=None):
    """(indices, unknown): the class index in col of each gold tag, -1 for
    a tag col lacks, and the sorted unknown tags, which are logged once."""
    unknown = sorted({g for g in gold if g not in col})
    if unknown:
        where = "" if feature is None else f"feature {feature!r}: "
        logger.warning("%sunknown evaluation tags %s counted as wrong",
                       where, unknown)
    return np.array([col.get(g, -1) for g in gold]), unknown


def _scores(gold: np.ndarray, pred: np.ndarray, labels) -> tuple:
    """Accuracy and macro_prf of predicted against gold class indices.

    A gold index of -1 (an unknown tag) counts as wrong and sets no label
    in its one-hot row.
    """
    y_true = np.zeros((len(gold), len(labels)), dtype=int)
    known = gold >= 0
    y_true[np.nonzero(known)[0], gold[known]] = 1
    y_pred = np.zeros_like(y_true)
    y_pred[np.arange(len(pred)), pred] = 1
    return float(np.mean(pred == gold)), macro_prf(y_true, y_pred,
                                                   list(labels))


def _morph_logits(shared, heads, X: T.Tensor) -> dict:
    """Feature name -> head logits for word rows X: a tanh shared dense
    layer, then one linear head per feature."""
    hidden = T.linear(X, *shared).tanh()
    return {name: T.linear(hidden, hw, hb)
            for name, (hw, hb) in heads.items()}


def morph_tagger(embedder, rows, mode: str = "frozen",
                 fraction: float = 0.6, seed: int = 42, epochs: int = 100,
                 lr: float = 0.01, shared_dim: int = 768,
                 loss_target: float = 0.1, test_rows=None) -> dict:
    """Multi-task morphological-feature tagger on word embeddings.

    rows: (word, {feature: value}) pairs; rows missing a feature get the
    ordinary class NA. Each feature's tagset is the values it takes in
    the training split. One shared dense layer feeds one head per feature
    (sigmoid when binary, softmax beyond); the loss is the sum of all
    heads' cross-entropies. Overall accuracy is the unweighted mean of
    per-feature accuracies. Unknown evaluation tags count as wrong with
    a warning. test_rows overrides the stratified fraction/seed split.
    """
    _check_mode(embedder, mode)
    rows = list(rows)
    if not rows:
        raise DataError("no morphology rows given")
    train, test = _split(
        rows, lambda row: tuple(sorted(f"{k}={v}" for k, v in row[1].items())),
        fraction, seed, test_rows)

    tagsets = {name: sorted({feats.get(name, NA_LABEL) for _, feats in train})
               for name in sorted({f for _, feats in train for f in feats})}
    if not tagsets:
        raise DataError("no features to tag")
    cols = {name: {v: j for j, v in enumerate(values)}
            for name, values in tagsets.items()}
    targets = {name: np.array([col[feats.get(name, NA_LABEL)]
                               for _, feats in train])
               for name, col in cols.items()}

    row, rows, encoder_params, test_rows = _word_rows(
        embedder, [w for w, _ in train], [w for w, _ in test], mode)
    rng = np.random.default_rng(seed)
    sw, sb = _dense_params(embedder.dim, shared_dim, rng)
    heads = {name: _dense_params(shared_dim,
                                 1 if len(values) == 2 else len(values), rng)
             for name, values in tagsets.items()}
    params = [sw, sb]
    for hw, hb in heads.values():
        params += [hw, hb]
    params += encoder_params
    row_idx = np.array([row[w] for w, _ in train])

    def loss_fn():
        logits_of = _morph_logits((sw, sb), heads, rows()[row_idx])
        total = None
        for name, values in tagsets.items():
            logits = logits_of[name]
            if len(values) == 2:
                head_loss = T.bce_multilabel(
                    logits.sigmoid(), targets[name][:, None].astype(float))
            else:
                head_loss = T.softmax_ce(logits, targets[name])
            total = head_loss if total is None else total + head_loss
        return total

    losses = T.fit(params, loss_fn, epochs, lr, loss_target)

    test_row, test_matrix = test_rows()
    with T.no_grad():
        logits_of = _morph_logits((sw, sb), heads, test_matrix[
            np.array([test_row[w] for w, _ in test])])
    feature_report = {}
    accuracies = []
    for name, values in tagsets.items():
        logits = logits_of[name].data
        if len(values) == 2:
            pred = (logits[:, 0] > 0).astype(int)
        else:
            pred = logits.argmax(axis=1)
        gold, unknown = _gold_indices(
            [feats.get(name, NA_LABEL) for _, feats in test], cols[name],
            name)
        acc = float(np.mean(pred == gold))
        accuracies.append(acc)
        feature_report[name] = {"accuracy": acc, "tagset": list(values),
                                "support": len(gold),
                                "unknown_tags": unknown}
    return {"mode": mode, "overall": float(np.mean(accuracies)),
            "features": feature_report, "train_losses": losses,
            "epochs_run": len(losses), "train_size": len(train),
            "test_size": len(test)}


def _pack_sequences(seqs, row_of):
    """Index and mask arrays for a batch of word sequences."""
    n, length = len(seqs), max(len(s) for s in seqs)
    idx = np.zeros((n, length), dtype=np.int64)
    mask = np.zeros((n, length), dtype=T.default_dtype())
    for i, seq in enumerate(seqs):
        for t, word in enumerate(seq):
            idx[i, t] = row_of[word]
            mask[i, t] = 1.0
    return idx, mask


def _time_major(seqs) -> list:
    """Items of every sequence, position by position: the row order of
    _every_position."""
    return [s[t] for t in range(max(len(s) for s in seqs)) for s in seqs
            if t < len(s)]


def _every_position(fwd, bwd, mask):
    """Forward|backward states of every unpadded position, in the row order
    of _time_major."""
    steps, rows = np.nonzero(mask.T)
    return T.cat([fwd, bwd], axis=2)[rows, steps]


def _final_states(fwd, bwd, mask):
    """Each direction's state after its last step: the sentence encoding."""
    return T.cat([fwd[:, -1], bwd[:, 0]], axis=1)


def _bigru_logits(params, readout, matrix, idx, mask):
    """Decoder logits for word rows idx [n, L] of matrix under mask [n, L].

    params: forward and backward gru_params, then dense and output weights.
    """
    pf, pb, dw, db, ow, ob = params
    emb = matrix[idx]
    states = (T.gru_sequence(emb, mask, pf),
              T.gru_sequence(emb, mask, pb, reverse=True))
    hidden = T.linear(readout(*states, mask), dw, db).tanh()
    return T.linear(hidden, ow, ob)


def _bigru(embedder, mode: str, train_seqs, targets, test_seqs, n_out: int,
           readout, seed: int, epochs: int, lr: float, gru_hidden: int,
           dense_dim: int, loss_target: float):
    """Train a BiGRU decoder on word sequences; (losses, test predictions).

    Forward and backward GRU states (padded steps keep their state) pass
    through readout(fwd, bwd, mask), a tanh dense layer and a linear
    output layer. The test pass builds no autodiff graph.
    """
    row, rows, encoder_params, test_rows = _word_rows(
        embedder, [w for s in train_seqs for w in s],
        [w for s in test_seqs for w in s], mode)
    rng = np.random.default_rng(seed)
    pf = T.gru_params(embedder.dim, gru_hidden, rng)
    pb = T.gru_params(embedder.dim, gru_hidden, rng)
    params = (pf, pb, *_dense_params(2 * gru_hidden, dense_dim, rng),
              *_dense_params(dense_dim, n_out, rng))

    idx, mask = _pack_sequences(train_seqs, row)
    losses = T.fit([*pf.values(), *pb.values(), *params[2:],
                    *encoder_params],
                   lambda: T.softmax_ce(_bigru_logits(params, readout,
                                                      rows(), idx, mask),
                                        targets),
                   epochs, lr, loss_target)

    test_row, test_matrix = test_rows()
    with T.no_grad():
        idx, mask = _pack_sequences(test_seqs, test_row)
        return losses, _bigru_logits(params, readout, test_matrix, idx,
                                     mask).data.argmax(1)


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
    train, test, skipped, _ = _sequences(
        sentences, test_sentences, lambda sent: sent, max_words, "sentences",
        lambda pair: tuple(sorted({tag for _, tag in pair[1]})),
        fraction, seed)
    train = [sent for _, sent in train]
    test = [sent for _, sent in test]

    tagset = sorted({tag for sent in train for _, tag in sent})
    col = {tag: j for j, tag in enumerate(tagset)}
    train_tags = _time_major([[tag for _, tag in s] for s in train])
    losses, pred = _bigru(
        embedder, mode, [[w for w, _ in s] for s in train],
        np.array([col[tag] for tag in train_tags]),
        [[w for w, _ in s] for s in test], len(tagset), _every_position,
        seed, epochs, lr, gru_hidden, dense_dim, loss_target)

    gold_tags = _time_major([[tag for _, tag in s] for s in test])
    gold, unknown = _gold_indices(gold_tags, col)
    accuracy, prf = _scores(gold, pred, tagset)
    return {"mode": mode, "accuracy": accuracy,
            "per_tag": prf["per_label"], "macro_f1": prf["macro_f1"],
            "tagset": tagset, "unknown_tags": unknown,
            "train_losses": losses, "epochs_run": len(losses),
            "skipped_empty": skipped,
            "n_train_sentences": len(train),
            "n_test_sentences": len(test),
            "n_train_tokens": len(train_tags),
            "n_test_tokens": len(gold_tags)}


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
    rows = list(rows)
    test_rows = None if test_rows is None else list(test_rows)
    for label, _ in rows + (test_rows or []):
        if label not in col:
            raise DataError(f"unknown sentiment label {label!r}")
    train, test, skipped, n_truncated = _sequences(
        rows, test_rows, lambda row: row[1].split(), max_words, "texts",
        lambda pair: (pair[0][0],), fraction, seed)
    train = [(label, words) for (label, _), words in train]
    test = [(label, words) for (label, _), words in test]

    losses, pred = _bigru(
        embedder, mode, [ws for _, ws in train],
        np.array([col[label] for label, _ in train]), [ws for _, ws in test],
        len(SENTIMENT_LABELS),
        _final_states, seed, epochs, lr, gru_hidden, dense_dim, loss_target)
    accuracy, prf = _scores(np.array([col[label] for label, _ in test]),
                            pred, SENTIMENT_LABELS)
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
