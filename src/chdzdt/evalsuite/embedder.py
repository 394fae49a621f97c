"""Word-to-vector adapters: trained checkpoints and external TSV tables.

The embedder contract is .dim and .embed_many(words) -> [n, d] (stable
within a session); both adapters also have .embed(word) -> [d]. Callers
holding a word list go through embed_rows, which batches through
.embed_many and asks an embedder with only .embed one word at a time.
Fine-tuned decoders need a CheckpointEmbedder; a vector table is frozen.
"""

from __future__ import annotations

import numpy as np

from ..encoder import MAGIC, EncoderState, encode_words, load_checkpoint
from ..errors import DataError
from ..fileio import atomic_write, finite_floats, read_rows

# the name perfbench/layers.py traces checkpoint encoding under
word_embedding = encode_words

TSV_HEADER_PREFIX = "#dim "


class CheckpointEmbedder:
    """Embeds words with a trained encoder's CLS vector, cached per word."""

    def __init__(self, state: EncoderState):
        self.state = state
        self._cache: dict = {}

    @classmethod
    def from_file(cls, path) -> "CheckpointEmbedder":
        return cls(load_checkpoint(path))

    @property
    def dim(self) -> int:
        return self.state.config.hidden

    def embed(self, word: str) -> np.ndarray:
        return self._cached([word])[0]

    def embed_many(self, words) -> np.ndarray:
        return np.array(self._cached(words)).reshape(len(words), self.dim)

    def _cached(self, words) -> list:
        """Cached vectors of words; the distinct uncached ones are encoded
        in one batch first."""
        missing = [w for w in dict.fromkeys(words) if w not in self._cache]
        if missing:
            self._cache.update(zip(missing, word_embedding(self.state, missing)))
        return [self._cache[w] for w in words]

    def invalidate(self) -> None:
        """Drop cached vectors (call after the encoder's weights change)."""
        self._cache.clear()


class TsvEmbedder:
    """Fixed word->vector table loaded from a '#dim d'-headed TSV file."""

    def __init__(self, table: dict, dim: int):
        for word, vec in table.items():
            if len(vec) != dim:
                raise DataError(f"vector for {word!r} has dim {len(vec)}, "
                                f"expected {dim}")
        self.table = {w: np.asarray(v, dtype=np.float64) for w, v in table.items()}
        self.dim = dim

    @classmethod
    def from_file(cls, path) -> "TsvEmbedder":
        table: dict = {}
        dim = None

        def parse(fields):
            nonlocal dim
            if dim is None:
                header = "\t".join(fields)
                if not header.startswith(TSV_HEADER_PREFIX):
                    raise ValueError(f"missing '{TSV_HEADER_PREFIX}d' header")
                try:
                    dim = int(header[len(TSV_HEADER_PREFIX):])
                except ValueError:
                    raise ValueError(f"bad dimension in header {header!r}")
                if dim < 1:
                    raise ValueError("dimension must be >= 1")
                return
            if len(fields) != 2:
                raise ValueError("expected 'word TAB floats'")
            word, floats = fields
            if word in table:
                raise ValueError(f"duplicate word {word!r}")
            vec = finite_floats(floats.split(), "vector")
            if len(vec) != dim:
                raise ValueError(f"vector has {len(vec)} floats, "
                                 f"header says {dim}")
            table[word] = vec

        read_rows(path, parse, "vectors")
        if not table:
            raise DataError(f"{path}: embedding table is empty")
        return cls(table, dim)

    def embed(self, word: str) -> np.ndarray:
        if word not in self.table:
            raise DataError(f"word {word!r} not in embedding table")
        return self.table[word]

    def embed_many(self, words) -> np.ndarray:
        return np.array([self.embed(w) for w in words]).reshape(len(words), self.dim)


def embed_rows(embedder, words, dtype) -> np.ndarray:
    """[n, dim] vectors of words in dtype, batched through .embed_many.

    Embedders with only .embed (and .dim) are asked one word at a time.
    """
    words = list(words)
    if hasattr(embedder, "embed_many"):
        return np.asarray(embedder.embed_many(words), dtype=dtype)
    rows = []
    for word in words:
        vec = np.asarray(embedder.embed(word), dtype=dtype)
        if vec.shape != (embedder.dim,):
            raise DataError(f"embedding of {word!r} has shape {vec.shape}, "
                            f"expected ({embedder.dim},)")
        rows.append(vec)
    return np.array(rows, dtype=dtype).reshape(len(words), embedder.dim)


def write_embeddings_tsv(path, words, vectors, dim: int) -> None:
    """word TAB space-separated floats, '#dim d' header, UTF-8, LF; every
    vector must have dim floats."""
    vectors = [np.asarray(v) for v in vectors]
    if len(words) != len(vectors):
        raise DataError(f"{len(words)} words vs {len(vectors)} vectors")
    dims = {v.shape[0] for v in vectors} | {dim}
    if len(dims) > 1:
        raise DataError(f"inconsistent vector dims: {sorted(dims)}")
    with atomic_write(path) as f:
        f.write(f"{TSV_HEADER_PREFIX}{dim}\n")
        for word, vec in zip(words, vectors):
            floats = " ".join(repr(float(x)) for x in vec)
            f.write(f"{word}\t{floats}\n")


def load_embedder(path):
    """Sniff checkpoint (magic bytes) vs TSV table and load accordingly."""
    try:
        with open(path, "rb") as f:
            magic = f.read(len(MAGIC))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if magic == MAGIC:
        return CheckpointEmbedder.from_file(path)
    return TsvEmbedder.from_file(path)
