"""Character-level word encoder: embeddings, transformer blocks, two heads.

A word's character ids plus learned positional embeddings (added
elementwise) pass through N post-layer-norm attention blocks. Two heads
read the result: a per-position linear projection onto the character
vocabulary for masked-character prediction, and a sigmoid multi-label
head over the five language labels on the CLS state.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .chartok import PAD_ID, CharVocab, encode_word
from .errors import ConfigError, CorruptCheckpointError
from .fileio import atomic_write, config_from_dict
from .tensor import (
    Tensor,
    attention_context,
    attention_scores,
    dropout,
    embedding,
    gelu,
    layer_norm,
    linear,
    softmax,
)

MAGIC = b"CHDZ"
FORMAT_VERSION = 1
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def seq_len(self) -> int:
        return 1 + self.max_chars

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """A config from JSON; an unknown field or a value of the wrong
        type is a ConfigError."""
        return config_from_dict(cls, d, "model-config")


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
    """Learnable count; equals the floats a checkpoint serializes."""
    return sum(math.prod(shape) for _, shape in parameter_manifest(config))


def _tensor_table(manifest) -> list:
    """A checkpoint header's name, shape and body byte offset per tensor."""
    starts = itertools.accumulate((math.prod(s) for _, s in manifest), initial=0)
    return [{"name": name, "shape": list(shape), "offset": 4 * start}
            for (name, shape), start in zip(manifest, starts)]


class EncoderState:
    """All learnable parameters plus the config and vocabulary they assume.

    Every weight lives in one array, flat, in parameter_manifest order:
    the layout of a checkpoint body. params[name] is a Tensor over a view
    of flat, so an in-place update of a param writes into flat.
    """

    def __init__(self, config: ModelConfig, vocab: CharVocab, flat: np.ndarray):
        if vocab.size != config.vocab_size:
            raise ConfigError(
                f"vocab size {vocab.size} does not match config vocab_size {config.vocab_size}")
        self.config = config
        self.vocab = vocab
        self.flat = flat
        manifest = parameter_manifest(config)
        ends = np.cumsum([math.prod(shape) for _, shape in manifest])
        self.params = {name: Tensor(piece.reshape(shape), requires_grad=True)
                       for (name, shape), piece in zip(manifest, np.split(flat, ends))}

    @classmethod
    def init(cls, config: ModelConfig, vocab: CharVocab) -> "EncoderState":
        rng = np.random.default_rng(config.seed)
        dtype = T.default_dtype()
        draws = []
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
                data = T.glorot(rng, *shape)
            draws.append(data.ravel())
        return cls(config, vocab, np.concatenate(draws))

    def parameters(self):
        return list(self.params.values())

    def check_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def forward_batch(state: EncoderState, ids: np.ndarray,
                  train_mode: bool = False, rng=None):
    """Run [B, T] id batches through the encoder.

    Returns (hidden [B,T,d] Tensor, cls [B,d], label_probs [B,L]).
    PAD_ID columns are padding: they get an additive -1e9 after the
    1/sqrt(d_head) scaling inside the attention softmax, which underflows
    their weights to exactly zero.
    """
    cfg = state.config
    p = state.params
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] != cfg.seq_len:
        raise ConfigError(f"expected ids of shape [B, {cfg.seq_len}], got {ids.shape}")
    if train_mode and cfg.dropout > 0 and rng is None:
        raise ValueError("train_mode with dropout needs an rng")
    scale = 1.0 / math.sqrt(cfg.hidden // cfg.n_heads)
    neg = ((ids[:, None, None, :] == PAD_ID) * -1e9).astype(T.default_dtype())

    x = embedding(p["char_emb"], ids) + p["pos_emb"]
    for i in range(cfg.n_blocks):
        pre = f"block{i}."
        scores = attention_scores(x, p[pre + "attn_q_w"], p[pre + "attn_q_b"],
                                  p[pre + "attn_k_w"], p[pre + "attn_k_b"],
                                  cfg.n_heads)
        attn = softmax(scores, axis=-1, scale=scale, add=neg)
        if train_mode:
            attn = dropout(attn, cfg.dropout, rng)
        # x's gradient gathers its shares in the order residual, q, k, v,
        # as in the former chain of one node per op
        v = linear(x, p[pre + "attn_v_w"], p[pre + "attn_v_b"])
        ctx = attention_context(attn, v, p[pre + "attn_o_w"], p[pre + "attn_o_b"])
        if train_mode:
            ctx = dropout(ctx, cfg.dropout, rng)
        x = layer_norm(x + ctx, p[pre + "ln1_g"], p[pre + "ln1_b"])
        ff = linear(gelu(linear(x, p[pre + "ffn_w1"], p[pre + "ffn_b1"])),
                    p[pre + "ffn_w2"], p[pre + "ffn_b2"])
        if train_mode:
            ff = dropout(ff, cfg.dropout, rng)
        x = layer_norm(x + ff, p[pre + "ln2_g"], p[pre + "ln2_b"])

    cls = x[:, 0]
    label_probs = linear(cls, p["label_w"], p["label_b"]).sigmoid()
    return x, cls, label_probs


def encode_words(state: EncoderState, words) -> np.ndarray:
    """Holistic word vectors [n, d]: CLS rows of eval-mode forward passes.

    Rows follow the order of words. The forward runs graph-free over
    chunks of ENCODE_CHUNK words; every row has the same bits as a
    forward of its word alone, since no op mixes rows of a batch.
    """
    ids = [encode_word(state.vocab, w, state.config.max_chars) for w in words]
    if not ids:
        return np.empty((0, state.config.hidden), dtype=T.default_dtype())
    rows = []
    with T.no_grad():
        for start in range(0, len(ids), ENCODE_CHUNK):
            _, cls, _ = forward_batch(
                state, np.stack(ids[start:start + ENCODE_CHUNK]))
            rows.append(cls.data)
    return np.concatenate(rows)


# -- checkpoint container ---------------------------------------------------


def save_checkpoint(state: EncoderState, path) -> None:
    """Magic, version, JSON header with tensor manifest, then the weight
    buffer as float32 LE."""
    header = json.dumps({
        "config": state.config.to_dict(),
        "charset": state.vocab.spec(),
        "tensors": _tensor_table(parameter_manifest(state.config)),
    }).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(state.flat.astype("<f4").tobytes())


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
        vocab = CharVocab.from_spec(header["charset"], "charset")
        if vocab.size != config.vocab_size:
            raise ValueError(f"charset has {vocab.size} symbols, config {config.vocab_size}")
        tensors = list(header.get("tensors", []))
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
            ConfigError) as exc:
        raise CorruptCheckpointError(f"{path}: malformed header: {exc}") from exc
    # every block lists tensors, so a larger n_blocks cannot match; checked
    # before the manifest is built, whose length grows with n_blocks. The
    # layout comes from the config: a shape or offset may be equal floats.
    if config.n_blocks > len(tensors) or \
            tensors != _tensor_table(parameter_manifest(config)):
        raise CorruptCheckpointError(f"{path}: tensor manifest does not match config")
    size = count_params(config)
    excess = len(blob) - header_end - 4 * size
    if excess < 0:
        raise CorruptCheckpointError(f"{path}: body is {-excess} bytes short")
    if excess:
        raise CorruptCheckpointError(f"{path}: {excess} trailing bytes")
    flat = np.frombuffer(blob, dtype="<f4", count=size, offset=header_end)
    state = EncoderState(config, vocab, flat.astype(T.default_dtype()))
    if not state.check_finite():
        raise CorruptCheckpointError(f"{path}: non-finite weights")
    return state
