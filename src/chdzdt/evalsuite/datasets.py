"""Loaders for the evaluation file formats (UTF-8, LF, TAB-separated).

Each reader but read_pos (where a blank line ends a sentence) parses its
rows with fileio.read_rows, whose error contract read_pos keeps too. A
word field that is empty or only whitespace makes its row malformed.
"""

from __future__ import annotations

from ..errors import DataError
from ..fileio import finite_floats, read_lines, read_rows

SENTIMENT_LABELS = ("negative", "neutral", "positive")

# tuple-file suffix -> obfuscation mode
TUPLE_MODES = {".star": "star", ".hash": "hash", ".sim": "similar"}


def read_clusters(path):
    """One cluster per line: root TAB member TAB member..."""
    roots = set()

    def parse(fields):
        if len(fields) < 2 or not all(map(str.strip, fields)):
            raise ValueError("expected 'root TAB member [TAB member...]'")
        if fields[0] in roots:
            raise ValueError(f"duplicate root {fields[0]!r}")
        roots.add(fields[0])
        return fields[0], fields[1:]

    return read_rows(path, parse, "clusters")


def read_tuples(path):
    """clean TAB noisy pairs; the mode comes from the filename suffix."""
    mode = next((m for suffix, m in TUPLE_MODES.items()
                 if str(path).endswith(suffix)), None)
    if mode is None:
        raise DataError(f"{path}: tuple files must end in .star/.hash/.sim")

    def parse(fields):
        if len(fields) != 2 or not all(map(str.strip, fields)):
            raise ValueError("expected 'clean TAB noisy'")
        return fields[0], fields[1]

    return read_rows(path, parse, "tuples"), mode


def read_affix_dataset(path):
    """word TAB comma-separated affix list."""
    def parse(fields):
        if len(fields) != 2 or not fields[0].strip():
            raise ValueError("expected 'word TAB affixes'")
        return fields[0], tuple(a for a in fields[1].split(",") if a)

    return read_rows(path, parse, "rows")


def read_quadruples(path):
    """prefix TAB root TAB suffix TAB word composition rows."""
    def parse(fields):
        if len(fields) != 4 or not all(map(str.strip, fields)):
            raise ValueError("expected 'prefix TAB root TAB suffix TAB word'")
        return tuple(fields)

    return read_rows(path, parse, "rows")


def read_similarity(path):
    """w1 TAB w2 TAB human score."""
    def parse(fields):
        if len(fields) != 3 or not all(map(str.strip, fields[:2])):
            raise ValueError("expected 'w1 TAB w2 TAB score'")
        (score,) = finite_floats([fields[2]], f"score {fields[2]!r}")
        return fields[0], fields[1], score

    return read_rows(path, parse, "pairs")


def read_pos(path):
    """CoNLL-style: word TAB tag lines, blank line between sentences."""
    sentences = []
    current = []
    for lineno, line in read_lines(path):
        if not line:
            if current:
                sentences.append(current)
                current = []
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not all(map(str.strip, parts)):
            raise DataError(f"{path}:{lineno}: expected 'word TAB tag'")
        current.append((parts[0], parts[1]))
    if current:
        sentences.append(current)
    if not sentences:
        raise DataError(f"{path}: no sentences found")
    return sentences


def read_morph(path):
    """word TAB feature=value;feature=value rows."""
    def parse(fields):
        if len(fields) != 2 or not all(map(str.strip, fields)):
            raise ValueError("expected 'word TAB features'")
        feats = {}
        for item in fields[1].split(";"):
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"feature item {item!r} lacks '='")
            key, value = item.split("=", 1)
            if not key or not value:
                raise ValueError(f"empty feature or value in {item!r}")
            feats[key] = value
        if not feats:
            raise ValueError("no features")
        return fields[0], feats

    return read_rows(path, parse, "rows")


def read_sentiment(path):
    """label TAB text rows; labels restricted to the three polarity classes."""
    def parse(fields):
        if len(fields) != 2 or not all(fields):
            raise ValueError("expected 'label TAB text'")
        if fields[0] not in SENTIMENT_LABELS:
            raise ValueError(f"unknown label {fields[0]!r}; "
                             f"expected one of {SENTIMENT_LABELS}")
        return fields[0], fields[1]

    return read_rows(path, parse, "rows")
