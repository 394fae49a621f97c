"""Joint masked-character + multi-label pre-training loop.

Each step corrupts a batch of tokenized words by replacing a sampled set of
character positions with MASK, runs one encoder pass, and minimizes the sum
of the masked-prediction cross-entropy and the multi-label BCE with Adam.
The loop opens no file and has no periodic checkpoints or resume: it
returns the trained state and its log records for the caller to save.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from . import tensor as T
from .chartok import CharVocab, MASK_ID, TokenizedWord, encode_word
from .encoder import EncoderState, ModelConfig, forward_batch
from .errors import ConfigError, DataError, NumericalError
from .fileio import config_from_dict
from .preprocess import LABELS, LexiconEntry


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
    """One corrupted batch: MASKed ids plus everything needed for the loss."""

    corrupted: np.ndarray        # [B, T] int64, MASK written at sampled slots
    attention_mask: np.ndarray   # [B, T] int64
    mask_positions: list         # per example, ascending character positions
    original_ids: list           # per example, the ids the masks replaced
    targets: np.ndarray          # [B, n_labels] float multi-hot


def labels_to_targets(labels: Sequence[str]) -> np.ndarray:
    """Multi-hot vector over the fixed label set."""
    vec = np.zeros(len(LABELS), dtype=np.float64)
    for lab in labels:
        if lab not in LABELS:
            raise DataError(f"unknown label {lab!r}; expected one of {LABELS}")
        vec[LABELS.index(lab)] = 1.0
    return vec


def mask_batch(examples: Sequence, ratio: float,
               rng: np.random.Generator) -> MaskedBatch:
    """Corrupt a batch of (TokenizedWord, labels) pairs.

    Per example, ceil(ratio * n_chars) distinct character positions (at
    least one, never CLS and never PAD) are replaced by MASK; the replaced
    ids are recorded in position order.
    """
    if not examples:
        raise ValueError("mask_batch needs at least one example")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio must lie in (0, 1), got {ratio}")
    seq_len = len(examples[0][0].ids)
    corrupted = np.empty((len(examples), seq_len), dtype=np.int64)
    attn = np.empty((len(examples), seq_len), dtype=np.int64)
    targets = np.empty((len(examples), len(LABELS)), dtype=np.float64)
    positions: list = []
    originals: list = []
    for i, (tok, labels) in enumerate(examples):
        if len(tok.ids) != seq_len:
            raise ConfigError("all examples in a batch must share seq_len")
        n_chars = min(tok.original_length, seq_len - 1)
        n_mask = max(1, math.ceil(ratio * n_chars))
        pos = np.sort(rng.choice(np.arange(1, 1 + n_chars), size=n_mask,
                                 replace=False))
        row = tok.ids.copy()
        originals.append(row[pos].copy())
        row[pos] = MASK_ID
        corrupted[i] = row
        attn[i] = tok.attention_mask
        positions.append([int(p) for p in pos])
        targets[i] = labels_to_targets(labels)
    return MaskedBatch(corrupted=corrupted, attention_mask=attn,
                       mask_positions=positions, original_ids=originals,
                       targets=targets)


def batch_loss(state: EncoderState, batch: MaskedBatch,
               train_mode: bool = False, rng=None):
    """One encoder pass shared by both objectives.

    Returns (total, mlm, multilabel) scalar Tensors; mlm averages over every
    masked position in the batch, multilabel averages row sums over examples.
    """
    hidden, _, label_probs = forward_batch(
        state, batch.corrupted, batch.attention_mask,
        train_mode=train_mode, rng=rng)
    b_idx = np.concatenate([np.full(len(p), i, dtype=np.int64)
                            for i, p in enumerate(batch.mask_positions)])
    t_idx = np.concatenate([np.asarray(p, dtype=np.int64)
                            for p in batch.mask_positions])
    picked = hidden[b_idx, t_idx]
    logits = T.linear(picked, state.params["mlm_w"], state.params["mlm_b"])
    mlm = T.softmax_ce(logits, np.concatenate(batch.original_ids))
    multilabel = T.bce_multilabel(label_probs, batch.targets)
    return mlm + multilabel, mlm, multilabel


def _encode_lexicon(lexicon: Sequence[LexiconEntry], vocab: CharVocab,
                    max_chars: int):
    examples = []
    for entry in lexicon:
        try:
            tok = encode_word(vocab, entry.word, max_chars=max_chars)
        except ValueError as exc:
            raise DataError(f"cannot encode lexicon word {entry.word!r}: {exc}")
        examples.append((tok, entry.labels))
    return examples


@np.errstate(over="ignore", invalid="ignore")
def _fit(state: EncoderState, lexicon: Sequence[LexiconEntry],
         cfg: TrainConfig):
    """Train state in place on lexicon. Returns (state, records).

    A diverging run overflows silently; its non-finite loss or weights
    are the NumericalError that reports it.
    """
    if not lexicon:
        raise DataError("cannot train on an empty lexicon")
    examples = _encode_lexicon(lexicon, state.vocab, state.config.max_chars)
    words = [entry.word for entry in lexicon]
    opt = T.Adam(state.parameters(), lr=cfg.lr)
    records: list = []
    steps_per_epoch = math.ceil(len(examples) / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    step = 0
    # words and start time of the steps since the last record
    window_words, window_start = 0, None
    for epoch in range(1, cfg.epochs + 1):
        erng = np.random.default_rng([cfg.seed, epoch])
        order = erng.permutation(len(examples))
        for start in range(0, len(examples), cfg.batch_size):
            step += 1
            if window_start is None:
                window_start = time.perf_counter()
            chunk = order[start:start + cfg.batch_size]
            batch = mask_batch([examples[i] for i in chunk],
                               cfg.mask_ratio, erng)
            total, mlm, multilabel = batch_loss(
                state, batch, train_mode=True, rng=erng)
            if not np.isfinite(total.data).all():
                total._unlink()
                bad = [words[i] for i in chunk]
                raise NumericalError(
                    f"non-finite loss at step {step} on batch {bad}")
            opt.zero_grad()
            total.backward()
            opt.step()
            window_words += len(chunk)
            if step % cfg.log_every == 0 or step == total_steps:
                elapsed = time.perf_counter() - window_start
                records.append({
                    "step": step,
                    "epoch": epoch,
                    "mlm": float(mlm.data),
                    "multilabel": float(multilabel.data),
                    "total": float(total.data),
                    "lr": opt.lr,
                    "samples_per_sec": window_words / max(elapsed, 1e-9),
                })
                window_words, window_start = 0, None
                print(f"epoch {epoch} step {step} "
                      f"total {float(total.data):.4f}", file=sys.stderr)
    if not state.check_finite():
        raise NumericalError(f"non-finite weights after step {step}; "
                             "no checkpoint written")
    return state, records


def train(lexicon: Sequence[LexiconEntry], model_config: ModelConfig,
          train_config: TrainConfig, vocab: CharVocab):
    """Pre-train a fresh encoder on a lexicon.

    Deterministic given the configs: each epoch reshuffles with an
    epoch-derived rng, batches are consumed in order, and dropout draws come
    from the same stream. Returns (final EncoderState, log records). The
    label head needs one output per language label.
    """
    if model_config.n_labels != len(LABELS):
        raise ConfigError(f"n_labels must be {len(LABELS)}, one per label "
                          f"in {LABELS}; got {model_config.n_labels}")
    state = EncoderState.init(model_config, vocab)
    return _fit(state, lexicon, train_config)
