"""Word-to-vector adapters: trained checkpoints and external TSV tables.

Both expose .dim, .embed(word) -> [d] and .embed_many(words) -> [n, d]
(stable within a session), and .is_trainable; only checkpoint embedders
can back fine-tuned decoders. Callers holding a word list go through
embed_rows, which batches through .embed_many.
"""

from __future__ import annotations

import numpy as np

from ..encoder import EncoderState, encode_words, load_checkpoint
from ..errors import DataError

# the name perfbench/layers.py traces checkpoint encoding under
word_embedding = encode_words

TSV_HEADER_PREFIX = "#dim "


class CheckpointEmbedder:
    """Embeds words with a trained encoder's CLS vector, cached per word."""

    is_trainable = True

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

    is_trainable = False

    def __init__(self, table: dict, dim: int):
        if not table:
            raise DataError("embedding table is empty")
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
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                if lineno == 1:
                    if not line.startswith(TSV_HEADER_PREFIX):
                        raise DataError(
                            f"{path}: missing '{TSV_HEADER_PREFIX}d' header")
                    try:
                        dim = int(line[len(TSV_HEADER_PREFIX):])
                    except ValueError:
                        raise DataError(f"{path}: bad dimension in header "
                                        f"{line!r}")
                    if dim < 1:
                        raise DataError(f"{path}: dimension must be >= 1")
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise DataError(f"{path}:{lineno}: expected "
                                    "'word TAB floats'")
                word, floats = parts
                if word in table:
                    raise DataError(f"{path}:{lineno}: duplicate word "
                                    f"{word!r}")
                try:
                    vec = [float(x) for x in floats.split()]
                except ValueError:
                    raise DataError(f"{path}:{lineno}: non-numeric vector")
                if len(vec) != dim:
                    raise DataError(f"{path}:{lineno}: vector has "
                                    f"{len(vec)} floats, header says {dim}")
                table[word] = vec
        if dim is None:
            raise DataError(f"{path}: empty file")
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


def write_embeddings_tsv(path, words, vectors, dim: int | None = None) -> None:
    """word TAB space-separated floats, '#dim d' header, UTF-8, LF.

    dim is only needed when vectors may be empty (header-only files).
    """
    vectors = [np.asarray(v) for v in vectors]
    if len(words) != len(vectors):
        raise DataError(f"{len(words)} words vs {len(vectors)} vectors")
    dims = {v.shape[0] for v in vectors}
    if dim is not None:
        dims.add(dim)
    if len(dims) > 1:
        raise DataError(f"inconsistent vector dims: {sorted(dims)}")
    if not dims:
        raise DataError("cannot infer dimension of an empty vector list; "
                        "pass dim explicitly")
    dim = dims.pop()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{TSV_HEADER_PREFIX}{dim}\n")
        for word, vec in zip(words, vectors):
            floats = " ".join(repr(float(x)) for x in vec)
            f.write(f"{word}\t{floats}\n")


def load_embedder(path):
    """Sniff checkpoint (magic bytes) vs TSV table and load accordingly."""
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == b"CHDZ":
        return CheckpointEmbedder.from_file(path)
    return TsvEmbedder.from_file(path)
