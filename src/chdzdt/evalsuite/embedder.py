"""Word-to-vector adapters: trained checkpoints and external TSV tables.

The embedder contract is .dim and .embed_many(words) -> [n, dim], the
vectors of words in order (stable within a session). embed_rows is the one
way callers turn a word list into vectors: it asks .embed_many once for the
distinct words and gathers their rows back into input order. Fine-tuned
decoders need a CheckpointEmbedder; a vector table is frozen, and
write_embeddings_tsv writes one from such an [n, dim] array.
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
    """Embeds words with a trained encoder's CLS vector."""

    def __init__(self, state: EncoderState):
        self.state = state

    @classmethod
    def from_file(cls, path) -> "CheckpointEmbedder":
        return cls(load_checkpoint(path))

    @property
    def dim(self) -> int:
        return self.state.config.hidden

    def embed(self, word: str) -> np.ndarray:
        # no program code calls this; perfbench/layers.py wraps it
        return self.embed_many([word])[0]

    def embed_many(self, words) -> np.ndarray:
        return word_embedding(self.state, list(words))


class TsvEmbedder:
    """Fixed word->vector table loaded from a '#dim d'-headed TSV file."""

    def __init__(self, table: dict, dim: int):
        """table: word -> float64 vector of dim values each."""
        self.table = table
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
            table[word] = np.array(vec, dtype=np.float64)

        read_rows(path, parse, "vectors")
        if not table:
            raise DataError(f"{path}: embedding table is empty")
        return cls(table, dim)

    def embed_many(self, words) -> np.ndarray:
        try:
            rows = [self.table[w] for w in words]
        except KeyError as exc:
            raise DataError(f"word {exc.args[0]!r} not in embedding "
                            "table") from None
        return np.array(rows).reshape(len(rows), self.dim)


def embed_rows(embedder, words, dtype) -> np.ndarray:
    """[n, dim] vectors of words in dtype, in input order.

    One .embed_many call encodes the distinct words in first-seen order; a
    result that is not one [n_distinct, dim] array is a DataError.
    """
    index: dict = {}
    rows = [index.setdefault(w, len(index)) for w in words]
    vectors = embedder.embed_many(list(index))
    try:
        vectors = np.asarray(vectors, dtype=dtype)
    except ValueError as exc:
        raise DataError(f"embeddings of unequal lengths: {exc}") from exc
    if vectors.shape != (len(index), embedder.dim):
        raise DataError(f"embeddings have shape {vectors.shape}, expected "
                        f"({len(index)}, {embedder.dim})")
    return vectors[np.asarray(rows, dtype=np.intp)]


def write_embeddings_tsv(path, words, vectors) -> None:
    """word TAB space-separated floats of its row of the [n, d] array
    vectors, under a '#dim d' header; UTF-8, LF."""
    with atomic_write(path) as f:
        f.write(f"{TSV_HEADER_PREFIX}{vectors.shape[1]}\n")
        for word, row in zip(words, vectors.tolist()):
            f.write(f"{word}\t{' '.join(map(repr, row))}\n")


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
