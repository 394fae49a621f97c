"""Joint masked-character + multi-label pre-training: objective and loop.

The lexicon is encoded once into an id matrix and a multi-hot target
matrix. Each epoch permutes the rows and sorts each pool of POOL
consecutive batches by word length, so a batch pads to few columns. Each
step corrupts a batch of id rows by replacing a sampled set of character
positions with MASK, runs one encoder pass, applies both heads
(the encoder itself applies none), and minimizes the sum of the
masked-prediction cross-entropy and the multi-label BCE with Adam in
``tensor.fit``, which steps through a generator of batch losses.
Training opens no file and has no periodic checkpoints or resume: it
returns the trained state and its log records for the caller to save.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .chartok import CharVocab, MASK_ID, PAD_ID, encode_word
from .encoder import EncoderState, ModelConfig, cut_to_longest, forward_batch
from .errors import ConfigError, DataError
from .fileio import config_from_dict
from .preprocess import LABELS, LexiconEntry

# batches per length-sorted pool of an epoch's permutation (see _batches)
POOL = 8


@dataclass
class TrainConfig:
    """Hyperparameters for one training run."""

    epochs: int = 20
    batch_size: int = 32
    mask_ratio: float = 0.15
    lr: float = 1e-3
    seed: int = 42
    log_every: int = 50

    def __post_init__(self):
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must lie in (0, 1), got {self.mask_ratio}")
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if self.log_every < 1:
            raise ConfigError(f"log_every must be >= 1, got {self.log_every}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """A config from JSON; an unknown field or a value of the wrong
        type is a ConfigError."""
        return config_from_dict(cls, d, "train-config")


@dataclass
class MaskedBatch:
    """One corrupted batch: MASKed ids plus the targets of both losses."""

    corrupted: np.ndarray        # [B, T] int64, MASK written at sampled slots
    char_targets: np.ndarray     # [B, T] int64, the replaced id; PAD_ID elsewhere
    targets: np.ndarray          # [B, n_labels] float multi-hot


def labels_to_targets(labels: Sequence[str]) -> np.ndarray:
    """Multi-hot vector over the fixed label set."""
    vec = np.zeros(len(LABELS), dtype=np.float64)
    for lab in labels:
        if lab not in LABELS:
            raise DataError(f"unknown label {lab!r}; expected one of {LABELS}")
        vec[LABELS.index(lab)] = 1.0
    return vec


def mask_batch(ids: np.ndarray, targets: np.ndarray, ratio: float,
               rng: np.random.Generator) -> MaskedBatch:
    """Corrupt [B, t] id rows (encode_word's, maybe cut) with their
    [B, n_labels] label targets.

    Per row, ceil(ratio * n_chars) distinct character positions (at least
    one, never CLS and never PAD) are replaced by MASK; char_targets holds
    the replaced ids at those slots. ids is not modified. One draw covers
    the batch: every slot gets a uniform key, and a row masks its
    character slots of lowest key.
    """
    if not len(ids):
        raise ValueError("mask_batch needs at least one row")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio must lie in (0, 1), got {ratio}")
    corrupted = np.array(ids, dtype=np.int64)
    # every row holds CLS, then its characters, then PAD
    is_char = corrupted != PAD_ID
    is_char[:, 0] = False
    n_chars = is_char.sum(1)
    if not n_chars.all():
        raise ValueError("mask_batch needs a character in every row")
    n_masked = np.maximum(1, np.ceil(ratio * n_chars))
    keys = np.where(is_char, rng.random(corrupted.shape), np.inf)
    by_key = np.argsort(keys, axis=1, kind="stable")
    rows, ranks = np.nonzero(np.arange(corrupted.shape[1]) < n_masked[:, None])
    cols = by_key[rows, ranks]
    char_targets = np.full_like(corrupted, PAD_ID)
    char_targets[rows, cols] = corrupted[rows, cols]
    corrupted[rows, cols] = MASK_ID
    return MaskedBatch(corrupted=corrupted, char_targets=char_targets,
                       targets=np.asarray(targets))


def batch_loss(state: EncoderState, batch: MaskedBatch, rng=None):
    """One encoder pass shared by both objectives and their heads, with
    dropout drawn from rng when one is given.

    Returns (total, mlm, multilabel) scalar Tensors; mlm averages over every
    slot whose char_target is not PAD_ID, multilabel averages row sums over
    examples.
    """
    p = state.params
    hidden, cls = forward_batch(state, batch.corrupted, rng=rng)
    label_probs = T.linear(cls, p["label_w"], p["label_b"]).sigmoid()
    rows = np.nonzero(batch.char_targets != PAD_ID)
    logits = T.linear(hidden[rows], p["mlm_w"], p["mlm_b"])
    mlm = T.softmax_ce(logits, batch.char_targets[rows])
    multilabel = T.bce_multilabel(label_probs, batch.targets)
    return mlm + multilabel, mlm, multilabel


def _encode_lexicon(lexicon: Sequence[LexiconEntry], vocab: CharVocab,
                    max_chars: int):
    """The lexicon as an [N, 1 + max_chars] id matrix and an [N, n_labels]
    multi-hot target matrix."""
    return (np.stack([encode_word(vocab, entry.word, max_chars=max_chars)
                      for entry in lexicon]),
            np.stack([labels_to_targets(entry.labels) for entry in lexicon]))


def _fit(state: EncoderState, lexicon: Sequence[LexiconEntry],
         cfg: TrainConfig):
    """Train state in place on lexicon. Returns (state, records)."""
    if not lexicon:
        raise DataError("cannot train on an empty lexicon")
    ids, targets = _encode_lexicon(lexicon, state.vocab, state.config.max_chars)
    records: list = []
    T.fit([state.param_set], _losses(state, ids, targets, cfg, records),
          cfg.lr)
    return state, records


def _batches(order: np.ndarray, lengths: np.ndarray, batch_size: int):
    """An epoch's batches of row indices: order cut into pools of POOL
    batches, each pool stably sorted by lengths and cut into batches,
    yielded shortest first.

    Only the last pool can be short, so there are ceil(N / batch_size)
    batches and only the last can hold fewer than batch_size rows. Rows of
    one length keep their permuted order: a one-length lexicon gets
    order[s:s + batch_size].
    """
    span = POOL * batch_size
    for start in range(0, len(order), span):
        pool = order[start:start + span]
        pool = pool[np.argsort(lengths[pool], kind="stable")]
        for s in range(0, len(pool), batch_size):
            yield pool[s:s + batch_size]


def _losses(state: EncoderState, ids: np.ndarray, targets: np.ndarray,
            cfg: TrainConfig, records: list):
    """Each batch's total loss in training order; resumed after the step
    on one, it appends that step's log record to records if one is due."""
    steps_per_epoch = math.ceil(len(ids) / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    # each row's CLS plus characters
    lengths = (ids != PAD_ID).sum(1)
    step = 0
    # words, filled and all id cells, and start time of the steps since
    # the last record
    window_words = window_filled = window_cells = 0
    window_start = None
    for epoch in range(1, cfg.epochs + 1):
        erng = np.random.default_rng([cfg.seed, epoch])
        for chunk in _batches(erng.permutation(len(ids)), lengths,
                              cfg.batch_size):
            step += 1
            if window_start is None:
                window_start = time.perf_counter()
            batch_ids = cut_to_longest(ids[chunk])
            batch = mask_batch(batch_ids, targets[chunk], cfg.mask_ratio,
                               erng)
            total, mlm, multilabel = batch_loss(state, batch, rng=erng)
            yield total
            window_words += len(chunk)
            window_filled += int(lengths[chunk].sum())
            window_cells += batch_ids.size
            if step % cfg.log_every == 0 or step == total_steps:
                elapsed = time.perf_counter() - window_start
                records.append({
                    "step": step,
                    "epoch": epoch,
                    "mlm": float(mlm.data),
                    "multilabel": float(multilabel.data),
                    "total": float(total.data),
                    "grad_norm": float(np.linalg.norm(
                        state.param_set.grad.astype(np.float64))),
                    "lr": cfg.lr,
                    "samples_per_sec": window_words / max(elapsed, 1e-9),
                    "fill": window_filled / window_cells,
                })
                window_words = window_filled = window_cells = 0
                window_start = None
                print(f"epoch {epoch} step {step} "
                      f"total {float(total.data):.4f}", file=sys.stderr)


def train(lexicon: Sequence[LexiconEntry], model_config: ModelConfig,
          train_config: TrainConfig, vocab: CharVocab):
    """Pre-train a fresh encoder on a lexicon.

    Deterministic given the configs: each epoch reshuffles with an
    epoch-derived rng, each pool of POOL batches is sorted by word length,
    batches are consumed in order, and dropout draws come from the same
    stream. Returns (final EncoderState, log records). The
    label head needs one output per language label.
    """
    if model_config.n_labels != len(LABELS):
        raise ConfigError(f"n_labels must be {len(LABELS)}, one per label "
                          f"in {LABELS}; got {model_config.n_labels}")
    state = EncoderState.init(model_config, vocab)
    return _fit(state, lexicon, train_config)
