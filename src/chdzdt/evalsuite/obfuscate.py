"""Orthographic-noise generation and the robustness report.

Obfuscation substitutes characters in place (never insertion/deletion):
star and hash write the fixed symbol, similar samples a visually or
phonetically close character from a table, falling back to star for
characters with no entry.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from ..errors import ConfigError, DataError
from .embedder import embed_rows
from .metrics import _unit_vectors, acs, ari, kmeans

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

    @classmethod
    def from_file(cls, path) -> "ObfuscationTable":
        try:
            with open(path, encoding="utf-8") as f:
                mapping = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load obfuscation table {path}: {exc}")
        return cls(mapping)


def default_table() -> ObfuscationTable:
    ref = resources.files("chdzdt.data").joinpath("obfuscation.json")
    return ObfuscationTable(json.loads(ref.read_text(encoding="utf-8")))


def obfuscate(word: str, mode: str, count: int,
              table: ObfuscationTable | None = None,
              rng: np.random.Generator | None = None) -> str:
    """Replace `count` distinct character positions of `word`."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if len(word) < count:
        raise ValueError(f"word {word!r} is shorter than count {count}")
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


def _resolve_table(mode: str, table: ObfuscationTable | None):
    if mode == "similar" and table is None:
        return default_table()
    return table


def make_noisy_tuples(words, mode: str, count: int,
                      table: ObfuscationTable | None = None,
                      seed: int = 0):
    """(clean, noisy) pairs with a seeded rng, skipping too-short words."""
    table = _resolve_table(mode, table)
    rng = np.random.default_rng(seed)
    return [(w, obfuscate(w, mode, count, table, rng))
            for w in words if len(w) >= count]


def obfuscated_acs(embedder, clusters, mode: str, count: int,
                   table: ObfuscationTable | None = None,
                   seed: int = 0) -> float:
    """ACS with every cluster member obfuscated; roots stay clean."""
    table = _resolve_table(mode, table)
    rng = np.random.default_rng(seed)
    noisy_clusters = []
    for root, members in clusters:
        noisy = [obfuscate(m, mode, count, table, rng)
                 for m in members if len(m) >= count]
        if noisy:
            noisy_clusters.append((root, noisy))
    if not noisy_clusters:
        raise DataError(f"no cluster member is long enough for count={count}")
    return acs(embedder, noisy_clusters)


def noise_report(embedder, tuples: dict | None = None, clusters=None,
                 count: int = 1, table: ObfuscationTable | None = None,
                 seed: int = 0) -> dict:
    """Robustness summary over all three modes.

    tuples: mode -> (clean, noisy) pair list; modes not supplied are
    generated from the cluster members when clusters are given. With
    clusters, also reports k-means ARI on the noisy member embeddings
    against gold roots plus the noisy-member ACS per mode.
    """
    if tuples is None and clusters is None:
        raise DataError("noise_report needs tuples and/or clusters")
    table = _resolve_table("similar", table)
    tuples = dict(tuples or {})
    if clusters is not None:
        member_words = [m for _, members in clusters for m in members]
        for mode in MODES:
            if mode not in tuples:
                tuples[mode] = make_noisy_tuples(member_words, mode, count,
                                                 table, seed)
    report: dict = {"count": count, "tuple_acs": {}, "cluster": {}}
    for mode in MODES:
        if mode not in tuples:
            continue
        units = _unit_vectors(embedder, [w for pair in tuples[mode]
                                         for w in pair])
        sims = [float(units[clean] @ units[noisy])
                for clean, noisy in tuples[mode]]
        if not sims:
            raise DataError(f"no usable tuples for mode {mode}")
        report["tuple_acs"][mode] = float(np.mean(sims))
    if clusters is not None:
        gold = [i for i, (_, members) in enumerate(clusters)
                for m in members if len(m) >= count]
        for mode in MODES:
            rng = np.random.default_rng(seed)
            noisy_clusters = [
                (root, [obfuscate(m, mode, count, table, rng)
                        for m in members if len(m) >= count])
                for root, members in clusters]
            points = embed_rows(embedder, [w for _, noisy in noisy_clusters
                                           for w in noisy], np.float64)
            pred = kmeans(points, k=len(clusters), seed=seed)
            report["cluster"][mode] = {
                "ari": ari(pred, gold),
                "acs": acs(embedder, [c for c in noisy_clusters if c[1]]),
            }
    return report
