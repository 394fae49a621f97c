"""Orthographic-noise generation and the robustness report.

Obfuscation substitutes characters in place (never insertion/deletion):
star and hash write the fixed symbol, similar samples a visually or
phonetically close character from a table, falling back to star for
characters with no entry.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import ConfigError, DataError
from ..fileio import read_package_json
from .embedder import TsvEmbedder, embed_rows
from .metrics import _cosines, acs, ari, kmeans

MODES = ("star", "hash", "similar")
_MODE_SYMBOL = {"star": "*", "hash": "#"}


class ObfuscationTable:
    """char -> replacement candidates; no character may map to itself."""

    def __init__(self, mapping: dict):
        if not mapping:
            raise ConfigError("obfuscation table is empty")
        for char, candidates in mapping.items():
            if len(char) != 1:
                raise ConfigError(f"table keys must be single characters, "
                                  f"got {char!r}")
            if not candidates:
                raise ConfigError(f"no candidates for {char!r}")
            for cand in candidates:
                if len(cand) != 1:
                    raise ConfigError(f"candidate {cand!r} for {char!r} "
                                      "must be a single character")
                if cand == char:
                    raise ConfigError(f"{char!r} maps to itself")
        self.mapping = {c: tuple(v) for c, v in mapping.items()}


@functools.cache
def default_table() -> ObfuscationTable:
    """The package's table, read once per process and shared."""
    return ObfuscationTable(read_package_json("obfuscation.json"))


def obfuscate(word: str, mode: str, count: int,
              table: ObfuscationTable | None = None,
              rng: np.random.Generator | None = None) -> str:
    """Replace `count` distinct character positions of `word`; similar
    mode draws from `table`, by default default_table()."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if len(word) < count:
        raise ConfigError(f"word {word!r} is shorter than count {count}")
    if rng is None:
        rng = np.random.default_rng(0)
    if mode == "similar" and table is None:
        table = default_table()
    chars = list(word)
    positions = rng.choice(len(chars), size=count, replace=False)
    for pos in positions:
        if mode in _MODE_SYMBOL:
            chars[pos] = _MODE_SYMBOL[mode]
        else:
            candidates = table.mapping.get(chars[pos])
            if candidates is None:
                chars[pos] = "*"
            else:
                chars[pos] = candidates[rng.integers(len(candidates))]
    return "".join(chars)


def make_noisy_tuples(words, mode: str, count: int, seed: int = 0):
    """(clean, noisy) pairs with a seeded rng, skipping too-short words."""
    rng = np.random.default_rng(seed)
    return [(w, obfuscate(w, mode, count, rng=rng))
            for w in words if len(w) >= count]


def _noisy_clusters(clusters, mode: str, count: int, seed: int):
    """(pairs, grouped): make_noisy_tuples over every cluster member, and
    the same noisy words regrouped as (root, noisy members) for each
    cluster that keeps a noisy member."""
    pairs = make_noisy_tuples([m for _, members in clusters for m in members],
                              mode, count, seed)
    rest = iter([noisy for _, noisy in pairs])
    grouped = [(root, noisy) for root, members in clusters
               if (noisy := [next(rest) for m in members if len(m) >= count])]
    if not grouped:
        raise DataError(f"no cluster member is long enough for count={count}")
    return pairs, grouped


def noise_report(embedder, tuples: dict | None = None, clusters=None,
                 count: int = 1, seed: int = 0) -> dict:
    """Robustness summary over all three modes.

    tuples: mode -> (clean, noisy) pair list; modes not supplied are
    generated from the cluster members when clusters are given. With
    clusters, also reports per mode k-means ARI on the noisy member
    embeddings against gold roots, with one group per cluster that keeps a
    noisy member, plus their obfuscated ACS (noisy members, clean roots).
    """
    if tuples is None and clusters is None:
        raise DataError("noise_report needs tuples and/or clusters")
    tuples = dict(tuples or {})
    noisy_clusters = {}
    if clusters is not None:
        for mode in MODES:
            pairs, noisy_clusters[mode] = _noisy_clusters(clusters, mode,
                                                          count, seed)
            tuples.setdefault(mode, pairs)
    words = [w for mode in MODES for pair in tuples.get(mode, ())
             for w in pair]
    words += [w for grouped in noisy_clusters.values()
              for root, noisy in grouped for w in (root, *noisy)]
    embedder = TsvEmbedder(dict(zip(words, embed_rows(
        embedder, words, np.float64))), embedder.dim)
    report: dict = {"count": count, "tuple_acs": {}, "cluster": {}}
    for mode in MODES:
        if mode not in tuples:
            continue
        sims = _cosines(embedder, tuples[mode])
        if not sims:
            raise DataError(f"no usable tuples for mode {mode}")
        report["tuple_acs"][mode] = float(np.mean(sims))
    for mode, grouped in noisy_clusters.items():
        gold = [i for i, (_, noisy) in enumerate(grouped) for _ in noisy]
        points = embed_rows(embedder, [w for _, noisy in grouped
                                       for w in noisy], np.float64)
        pred = kmeans(points, k=len(grouped), seed=seed)
        report["cluster"][mode] = {
            "ari": ari(pred, gold),
            "acs": acs(embedder, grouped),
        }
    return report
