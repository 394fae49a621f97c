"""Character-level word encoder: embeddings, transformer blocks, two heads.

A word's character ids plus learned positional embeddings (added
elementwise) pass through N post-layer-norm attention blocks. Two heads
read the result: a per-position linear projection onto the character
vocabulary for masked-character prediction, and a sigmoid multi-label
head over the five language labels on the CLS state.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .chartok import CharVocab, TokenizedWord, encode_word
from .errors import ConfigError, CorruptCheckpointError
from .tensor import Tensor, bce_multilabel, dropout, embedding, gelu, layer_norm, softmax, softmax_ce

MAGIC = b"CHDZ"
FORMAT_VERSION = 1
LN_EPS = 1e-5
# words per graph-free forward in encode_words; bounds its working memory
ENCODE_CHUNK = 256


@dataclass
class ModelConfig:
    vocab_size: int
    n_blocks: int = 2
    n_heads: int = 2
    hidden: int = 16
    ffn_mult: int = 4
    max_chars: int = 20
    n_labels: int = 5
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "n_blocks", "n_heads", "hidden", "ffn_mult",
                     "max_chars", "n_labels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.hidden % self.n_heads != 0:
            raise ConfigError(
                f"hidden ({self.hidden}) must be divisible by n_heads ({self.n_heads})")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def seq_len(self) -> int:
        return 1 + self.max_chars

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size, "n_blocks": self.n_blocks,
            "n_heads": self.n_heads, "hidden": self.hidden,
            "ffn_mult": self.ffn_mult, "max_chars": self.max_chars,
            "n_labels": self.n_labels, "dropout": self.dropout, "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def parameter_manifest(config: ModelConfig):
    """Ordered (name, shape) list of every learnable array for a config."""
    d, f, v = config.hidden, config.ffn_mult * config.hidden, config.vocab_size
    names = [("char_emb", (v, d)), ("pos_emb", (config.seq_len, d))]
    for i in range(config.n_blocks):
        p = f"block{i}."
        for proj in ("q", "k", "v", "o"):
            names += [(p + f"attn_{proj}_w", (d, d)), (p + f"attn_{proj}_b", (d,))]
        names += [(p + "ln1_g", (d,)), (p + "ln1_b", (d,)),
                  (p + "ffn_w1", (d, f)), (p + "ffn_b1", (f,)),
                  (p + "ffn_w2", (f, d)), (p + "ffn_b2", (d,)),
                  (p + "ln2_g", (d,)), (p + "ln2_b", (d,))]
    names += [("mlm_w", (d, v)), ("mlm_b", (v,)),
              ("label_w", (d, config.n_labels)), ("label_b", (config.n_labels,))]
    return names


def count_params(config: ModelConfig) -> int:
    """Closed-form learnable count; equals the floats a checkpoint serializes.

    Head count does not appear: attention projections are [d, d] however
    they are split.
    """
    d, f, v, seq, lab = (config.hidden, config.ffn_mult * config.hidden,
                         config.vocab_size, config.seq_len, config.n_labels)
    per_block = 4 * (d * d + d) + 2 * d + (d * f + f) + (f * d + d) + 2 * d
    return (v * d + seq * d + config.n_blocks * per_block
            + (d * v + v) + (d * lab + lab))


class EncoderState:
    """All learnable parameters plus the config and vocabulary they assume."""

    def __init__(self, config: ModelConfig, vocab: CharVocab, params: dict):
        if vocab.size != config.vocab_size:
            raise ConfigError(
                f"vocab size {vocab.size} does not match config vocab_size {config.vocab_size}")
        self.config = config
        self.vocab = vocab
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig, vocab: CharVocab) -> "EncoderState":
        rng = np.random.default_rng(config.seed)
        dtype = T.default_dtype()
        params = {}
        for name, shape in parameter_manifest(config):
            base = name.rsplit(".", 1)[-1]
            if base.startswith("ln") and base.endswith("_g"):
                data = np.ones(shape, dtype=dtype)
            elif len(shape) == 1:
                data = np.zeros(shape, dtype=dtype)
            elif base.endswith("_emb"):
                # 1/sqrt(d) keeps fresh word vectors content-sensitive
                data = rng.normal(0.0, config.hidden ** -0.5,
                                  shape).astype(dtype)
            else:
                limit = math.sqrt(6.0 / (shape[0] + shape[1]))
                data = rng.uniform(-limit, limit, shape).astype(dtype)
            params[name] = Tensor(data, requires_grad=True)
        return cls(config, vocab, params)

    def parameters(self):
        return [self.params[name] for name, _ in parameter_manifest(self.config)]

    def named_parameters(self):
        return [(name, self.params[name]) for name, _ in parameter_manifest(self.config)]

    def n_params(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def check_finite(self) -> bool:
        return all(np.isfinite(p.data).all() for p in self.parameters())


@dataclass
class EncoderOutput:
    """Hidden states, the CLS row, label probabilities, lazy MLM logits."""

    hidden: Tensor
    cls: Tensor
    label_probs: Tensor
    _state: EncoderState = field(repr=False, default=None)
    _mlm_logits: Tensor = field(repr=False, default=None)

    def mlm_logits(self) -> Tensor:
        if self._mlm_logits is None:
            h = self.hidden
            if h.ndim == 2:  # single word: project as one batch row
                h = h.reshape(1, *h.shape)
                out = h @ self._state.params["mlm_w"] + self._state.params["mlm_b"]
                self._mlm_logits = out.reshape(out.shape[1], out.shape[2])
            else:
                self._mlm_logits = h @ self._state.params["mlm_w"] + self._state.params["mlm_b"]
        return self._mlm_logits


def forward_batch(state: EncoderState, ids: np.ndarray, attn_mask: np.ndarray,
                  train_mode: bool = False, rng=None, attn_sink=None):
    """Run [B, T] id batches through the encoder.

    Returns (hidden [B,T,d] Tensor, cls [B,d], label_probs [B,L]).
    PAD columns get an additive -1e9 before the attention softmax, which
    underflows their weights to exactly zero.
    """
    cfg = state.config
    p = state.params
    ids = np.asarray(ids, dtype=np.int64)
    attn_mask = np.asarray(attn_mask)
    if ids.ndim != 2 or ids.shape[1] != cfg.seq_len:
        raise ConfigError(f"expected ids of shape [B, {cfg.seq_len}], got {ids.shape}")
    if train_mode and cfg.dropout > 0 and rng is None:
        raise ValueError("train_mode with dropout needs an rng")
    b, t = ids.shape
    d, h = cfg.hidden, cfg.n_heads
    dh = d // h
    scale = 1.0 / np.sqrt(dh)
    neg = ((attn_mask[:, None, None, :] == 0) * -1e9).astype(T.default_dtype())

    x = embedding(p["char_emb"], ids) + p["pos_emb"]
    for i in range(cfg.n_blocks):
        pre = f"block{i}."

        def proj(which, inp):
            return inp @ p[pre + f"attn_{which}_w"] + p[pre + f"attn_{which}_b"]

        def heads(z):
            return z.reshape(b, t, h, dh).transpose(0, 2, 1, 3)

        q, k, v = heads(proj("q", x)), heads(proj("k", x)), heads(proj("v", x))
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale + Tensor(neg)
        attn = softmax(scores, axis=-1)
        if attn_sink is not None:
            attn_sink.append(attn.data.copy())
        if train_mode:
            attn = dropout(attn, cfg.dropout, rng, train=True)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
        ctx = proj("o", ctx)
        if train_mode:
            ctx = dropout(ctx, cfg.dropout, rng, train=True)
        x = layer_norm(x + ctx, p[pre + "ln1_g"], p[pre + "ln1_b"], eps=LN_EPS)
        ff = gelu(x @ p[pre + "ffn_w1"] + p[pre + "ffn_b1"]) @ p[pre + "ffn_w2"] + p[pre + "ffn_b2"]
        if train_mode:
            ff = dropout(ff, cfg.dropout, rng, train=True)
        x = layer_norm(x + ff, p[pre + "ln2_g"], p[pre + "ln2_b"], eps=LN_EPS)

    cls = x[:, 0]
    label_probs = (cls @ p["label_w"] + p["label_b"]).sigmoid()
    return x, cls, label_probs


def forward(state: EncoderState, tokenized: TokenizedWord, train_mode: bool = False,
            rng=None) -> EncoderOutput:
    """Encode one tokenized word."""
    hidden, cls, probs = forward_batch(
        state, tokenized.ids[None, :], tokenized.attention_mask[None, :],
        train_mode=train_mode, rng=rng)
    t, d = hidden.shape[1], hidden.shape[2]
    return EncoderOutput(
        hidden=hidden.reshape(t, d),
        cls=cls.reshape(d),
        label_probs=probs.reshape(state.config.n_labels),
        _state=state,
    )


def encode_words(state: EncoderState, words) -> np.ndarray:
    """Holistic word vectors [n, d]: CLS rows of eval-mode forward passes.

    Rows follow the order of words. The forward runs graph-free over
    chunks of ENCODE_CHUNK words; every row has the same bits as a
    forward of its word alone, since no op mixes rows of a batch.
    """
    toks = [encode_word(state.vocab, w, state.config.max_chars) for w in words]
    if not toks:
        return np.empty((0, state.config.hidden), dtype=T.default_dtype())
    rows = []
    with T.no_grad():
        for start in range(0, len(toks), ENCODE_CHUNK):
            chunk = toks[start:start + ENCODE_CHUNK]
            _, cls, _ = forward_batch(state, np.stack([t.ids for t in chunk]),
                                      np.stack([t.attention_mask for t in chunk]))
            rows.append(cls.data)
    return np.concatenate(rows)


def loss_mlm(state: EncoderState, corrupted: TokenizedWord, mask_positions,
             original_ids, reduction: str = "mean") -> Tensor:
    """Cross-entropy at the masked positions of one corrupted word.

    original_ids may be the full pre-corruption id sequence or just the
    ids at the masked positions, in ascending position order.
    """
    positions = sorted(mask_positions)
    if not positions:
        raise ValueError("mask_positions must be non-empty")
    seq = state.config.seq_len
    if min(positions) < 1 or max(positions) >= seq:
        raise ValueError(f"mask positions {positions} outside character region [1, {seq})")
    originals = np.asarray(original_ids, dtype=np.int64)
    if originals.shape[0] == seq:
        targets = originals[np.asarray(positions)]
    elif originals.shape[0] == len(positions):
        targets = originals
    else:
        raise ValueError(
            f"original_ids must have length {seq} or {len(positions)}, got {originals.shape[0]}")
    output = forward(state, corrupted, train_mode=False)
    logits = output.mlm_logits()[np.asarray(positions)]
    return softmax_ce(logits, targets, reduction=reduction)


def loss_multilabel(state: EncoderState, output: EncoderOutput, targets) -> Tensor:
    """Summed per-label binary cross-entropy against a 0/1 target vector."""
    return bce_multilabel(output.label_probs, targets)


def loss_total(mlm, multilabel):
    """Plain unweighted sum of the two components."""
    return mlm + multilabel


# -- checkpoint container ---------------------------------------------------


def save_checkpoint(state: EncoderState, path) -> None:
    """Magic, version, JSON header with tensor manifest, float32 LE blobs."""
    manifest = []
    blobs = []
    offset = 0
    for name, p in state.named_parameters():
        raw = np.ascontiguousarray(p.data, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(p.data.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps({
        "config": state.config.to_dict(),
        "charset": state.vocab.spec(),
        "tensors": manifest,
    }).encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for raw in blobs:
            fh.write(raw)
    os.replace(tmp, path)


def load_checkpoint(path) -> EncoderState:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CorruptCheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CorruptCheckpointError(f"{path}: bad magic, not a checkpoint")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise CorruptCheckpointError(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    if header_end > len(blob):
        raise CorruptCheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[16:header_end].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        charset = header["charset"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptCheckpointError(f"{path}: malformed header: {exc}") from exc
    vocab = CharVocab(charset["ranges"], charset.get("extras", ()))

    expected = parameter_manifest(config)
    tensors = header.get("tensors", [])
    if [(t["name"], tuple(t["shape"])) for t in tensors] != \
            [(n, tuple(s)) for n, s in expected]:
        raise CorruptCheckpointError(f"{path}: tensor manifest does not match config")
    body = blob[header_end:]
    params = {}
    offset = 0
    dtype = T.default_dtype()
    for entry in tensors:
        shape = tuple(entry["shape"])
        nbytes = int(np.prod(shape)) * 4
        if entry["offset"] != offset or offset + nbytes > len(body):
            raise CorruptCheckpointError(f"{path}: blob offsets disagree with manifest")
        arr = np.frombuffer(body[offset:offset + nbytes], dtype="<f4").reshape(shape)
        params[entry["name"]] = Tensor(arr.astype(dtype), requires_grad=True)
        offset += nbytes
    if offset != len(body):
        raise CorruptCheckpointError(f"{path}: {len(body) - offset} trailing bytes")
    return EncoderState(config, vocab, params)
