"""Loaders for the evaluation file formats (UTF-8, LF, TAB-separated).

Every parser raises DataError naming the file and line on malformed input.
"""

from __future__ import annotations

from ..errors import DataError
from ..fileio import atomic_write, read_lines

SENTIMENT_LABELS = ("negative", "neutral", "positive")

# tuple-file suffix -> obfuscation mode
TUPLE_MODES = {".star": "star", ".hash": "hash", ".sim": "similar"}


def read_clusters(path):
    """One cluster per line: root TAB member TAB member..."""
    clusters = []
    roots = set()
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not all(parts):
            raise DataError(f"{path}:{lineno}: expected "
                            "'root TAB member [TAB member...]'")
        root, members = parts[0], parts[1:]
        if root in roots:
            raise DataError(f"{path}:{lineno}: duplicate root {root!r}")
        roots.add(root)
        clusters.append((root, members))
    if not clusters:
        raise DataError(f"{path}: no clusters found")
    return clusters


def write_clusters(path, clusters) -> None:
    with atomic_write(path) as f:
        for root, members in clusters:
            f.write("\t".join([root, *members]) + "\n")


def read_tuples(path):
    """clean TAB noisy pairs; the mode comes from the filename suffix."""
    name = str(path)
    mode = None
    for suffix, m in TUPLE_MODES.items():
        if name.endswith(suffix):
            mode = m
    if mode is None:
        raise DataError(f"{path}: tuple files must end in .star/.hash/.sim")
    pairs = []
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not all(parts):
            raise DataError(f"{path}:{lineno}: expected 'clean TAB noisy'")
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise DataError(f"{path}: no tuples found")
    return pairs, mode


def read_affix_dataset(path):
    """word TAB comma-separated affix list."""
    rows = []
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise DataError(f"{path}:{lineno}: expected 'word TAB affixes'")
        affixes = tuple(a for a in parts[1].split(",") if a)
        rows.append((parts[0], affixes))
    if not rows:
        raise DataError(f"{path}: no rows found")
    return rows


def read_quadruples(path):
    """prefix TAB root TAB suffix TAB word composition rows."""
    rows = []
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4 or not all(parts):
            raise DataError(f"{path}:{lineno}: expected 'prefix TAB "
                            "root TAB suffix TAB word'")
        rows.append(tuple(parts))
    if not rows:
        raise DataError(f"{path}: no rows found")
    return rows


def read_similarity(path):
    """w1 TAB w2 TAB human score."""
    pairs = []
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not parts[0] or not parts[1]:
            raise DataError(f"{path}:{lineno}: expected 'w1 TAB w2 TAB score'")
        try:
            score = float(parts[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric score {parts[2]!r}")
        pairs.append((parts[0], parts[1], score))
    if not pairs:
        raise DataError(f"{path}: no pairs found")
    return pairs


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
        if len(parts) != 2 or not all(parts):
            raise DataError(f"{path}:{lineno}: expected 'word TAB tag'")
        current.append((parts[0], parts[1]))
    if current:
        sentences.append(current)
    if not sentences:
        raise DataError(f"{path}: no sentences found")
    return sentences


def write_pos(path, sentences) -> None:
    with atomic_write(path) as f:
        for sentence in sentences:
            for word, tag in sentence:
                f.write(f"{word}\t{tag}\n")
            f.write("\n")


def read_morph(path):
    """word TAB feature=value;feature=value rows."""
    rows = []
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not all(parts):
            raise DataError(f"{path}:{lineno}: expected 'word TAB features'")
        feats = {}
        for item in parts[1].split(";"):
            if not item:
                continue
            if "=" not in item:
                raise DataError(f"{path}:{lineno}: feature item {item!r} "
                                "lacks '='")
            key, value = item.split("=", 1)
            if not key or not value:
                raise DataError(f"{path}:{lineno}: empty feature or value "
                                f"in {item!r}")
            feats[key] = value
        if not feats:
            raise DataError(f"{path}:{lineno}: no features")
        rows.append((parts[0], feats))
    if not rows:
        raise DataError(f"{path}: no rows found")
    return rows


def read_sentiment(path):
    """label TAB text rows; labels restricted to the three polarity classes."""
    rows = []
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not all(parts):
            raise DataError(f"{path}:{lineno}: expected 'label TAB text'")
        label, text = parts
        if label not in SENTIMENT_LABELS:
            raise DataError(f"{path}:{lineno}: unknown label {label!r}; "
                            f"expected one of {SENTIMENT_LABELS}")
        rows.append((label, text))
    if not rows:
        raise DataError(f"{path}: no rows found")
    return rows
