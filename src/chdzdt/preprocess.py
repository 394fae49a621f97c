"""Corpus-to-lexicon pipeline: normalization, filtering, multi-label merging.

The pipeline order is fixed: region filter -> emoji normalization ->
character unification -> elongation capping -> spacing -> diacritic
stripping -> whitespace tokenization. Running the normalization twice
yields the same text as running it once.
"""

from __future__ import annotations

import functools
import itertools
import logging
import re
import unicodedata
from dataclasses import dataclass, field

from .chartok import is_emoji_char
from .errors import ConfigError, DataError
from .fileio import (atomic_write, check_fields, read_json, read_lines,
                     read_package_json, read_rows)

logger = logging.getLogger(__name__)

LABELS = ("AR", "BER", "DZ", "EN", "FR")
MAX_WORD_LEN = 30
_TATWEEL = "ـ"


class NormRules:
    """Normalization tables: emoji aliases, character unification,
    diacritics, elongation cap, region-filter patterns."""

    def __init__(self, emoji_aliases=None, char_unification=None, diacritics=(),
                 elongation_cap: int = 2, region_patterns=()):
        if elongation_cap < 1:
            raise ConfigError(f"elongation cap must be >= 1, got {elongation_cap}")
        self.emoji_aliases = dict(emoji_aliases or {})
        self.char_unification = dict(char_unification or {})
        self.diacritics = frozenset(diacritics) | {_TATWEEL}
        if any(len(c) != 1 for c in self.diacritics):
            raise ConfigError("diacritics must be single characters")
        self.elongation_cap = int(elongation_cap)
        self.region_patterns = []
        for pat in region_patterns:
            try:
                self.region_patterns.append(re.compile(pat))
            except (re.error, RecursionError, OverflowError) as exc:
                raise ConfigError(f"bad region pattern {pat!r}: {exc}") from exc
        # longest alias first so ":-)" is not eaten by ":)"; an alias fires
        # only when not followed by a letter or digit, and letter-initial
        # aliases (xD) also need a left boundary
        self._alias_res = []
        for src, dst in sorted(self.emoji_aliases.items(), key=lambda kv: -len(kv[0])):
            pat = re.escape(src) + r"(?![^\W_])"
            if src[:1].isalpha():
                pat = r"(?<![^\W_])" + pat
            self._alias_res.append((re.compile(pat), dst))
        self._strip_table = {ord(c): None for c in self.diacritics}

    @classmethod
    def from_dict(cls, raw: dict, what: str) -> "NormRules":
        """Rules from a JSON object of __init__'s keys; a missing key takes its
        default, an unknown key or a wrong JSON type is a ConfigError naming `what`."""
        check_fields(raw, {"emoji_aliases": dict, "char_unification": dict,
                           "diacritics": list, "elongation_cap": int,
                           "region_patterns": list}, what)
        aliases = raw.get("emoji_aliases", {})
        unification = raw.get("char_unification", {})
        strings = [*aliases.values(), *unification.values(),
                   *raw.get("diacritics", []), *raw.get("region_patterns", [])]
        if not all(isinstance(v, str) for v in strings):
            raise ConfigError(f"{what}: aliases, unifications, diacritics "
                              "and region patterns must be strings")
        if "" in aliases or "" in unification:
            # an empty source matches between every two characters
            raise ConfigError(f"{what}: an alias or unification source "
                              "must not be empty")
        try:
            return cls(**raw)
        except ConfigError as exc:
            raise ConfigError(f"{what}: {exc}") from None

    @classmethod
    def from_file(cls, path) -> "NormRules":
        return cls.from_dict(read_json(path, "rules file"),
                             f"rules file {path}")

    @classmethod
    def default(cls) -> "NormRules":
        return cls.from_dict(read_package_json("norm_rules.json"),
                             "built-in rules")


def normalize_emojis(text: str, rules: NormRules) -> str:
    """Turn textual emoticons into emoji and cap identical-emoji runs at 2."""
    for pattern, dst in rules._alias_res:
        text = pattern.sub(dst, text)
    return _cap_runs(text, 2, is_emoji_char)


def normalize_chars(text: str, rules: NormRules) -> str:
    for src, dst in rules.char_unification.items():
        text = text.replace(src, dst)
    return text


def cap_elongation(text: str, k: int = 2) -> str:
    """Shorten runs of more than k identical alphabetic characters to k."""
    if k < 1:
        raise ConfigError(f"elongation cap must be >= 1, got {k}")
    return _cap_runs(text, k, str.isalpha)


def _cap_runs(text: str, k: int, capped) -> str:
    """Shorten runs of more than k identical characters c with capped(c)
    true to k."""
    out = []
    run_char, run_len = None, 0
    for ch in text:
        if ch == run_char:
            run_len += 1
            if run_len > k and capped(ch):
                continue
        else:
            run_char, run_len = ch, 1
        out.append(ch)
    return "".join(out)


def fix_spacing(text: str) -> str:
    """Detach punctuation from words, separate emojis, collapse spaces.

    Whitespace ends every run, so each whitespace token is spaced on its
    own and the tokens are joined by one space.
    """
    return " ".join([_space_token(tok) for tok in text.split()])


@functools.lru_cache(maxsize=2**16)
def _space_token(token: str) -> str:
    """Split one whitespace-free token into its word, punctuation and
    emoji runs. Memoized, since corpus words repeat; `build_lexicon`
    empties the memo before and after each call."""
    tokens = []
    current = []  # chars of the run being built
    kind = None

    def flush():
        if current:
            tokens.append("".join(current))
            current.clear()

    for ch in token:
        if is_emoji_char(ch):
            flush()
            tokens.append(ch)
            kind = None
        else:
            k = "punct" if unicodedata.category(ch).startswith("P") else "word"
            if k != kind:
                flush()
                kind = k
            current.append(ch)
    flush()
    return " ".join(tokens)


def strip_diacritics(text: str, rules: NormRules) -> str:
    return text.translate(rules._strip_table)


def region_filter(comment: str, patterns) -> bool:
    """True = keep, False = drop (a pattern matched)."""
    return not any(p.search(comment) for p in patterns)


def normalize_text(text: str, rules: NormRules) -> str:
    """Apply the op sequence, re-sweeping until the text is stable.

    Later stages can expose new matches for earlier ones (spacing isolates
    an emoticon, unification canonicalizes a dash inside one), so the fixed
    op order is swept to a fixpoint; real text stabilizes in one or two
    sweeps and the bound is a safety net.
    """
    for _ in range(4):
        out = normalize_emojis(text, rules)
        out = normalize_chars(out, rules)
        out = cap_elongation(out, rules.elongation_cap)
        out = fix_spacing(out)
        out = strip_diacritics(out, rules)
        if out == text:
            return out
        text = out
    logger.warning("normalization did not stabilize within 4 sweeps")
    return text


@dataclass
class SourceStream:
    """One input corpus: UTF-8 lines with a single language label."""

    path: str
    label: str
    kind: str = "standard"
    lines: list = None  # in-memory override, mainly for tests

    def __post_init__(self):
        if self.label not in LABELS:
            raise ConfigError(f"unknown source label {self.label!r}, expected one of {LABELS}")
        if self.kind not in ("social", "standard"):
            raise ConfigError(f"source kind must be social or standard, got {self.kind!r}")

    def iter_lines(self):
        if self.lines is not None:
            yield from self.lines
            return
        for _, line in read_lines(self.path):
            yield line


@dataclass
class LexiconEntry:
    word: str
    labels: tuple
    freq: dict = field(default_factory=dict)


def build_lexicon(streams, rules: NormRules):
    """Run every stream through the pipeline and merge into one word list.

    Label sets are unions across streams; per-label frequencies accumulate;
    words longer than MAX_WORD_LEN Unicode scalars are dropped. Output is sorted
    lexicographically so identical inputs give identical files.
    """
    # a fresh memo per call keeps its time and memory independent of
    # earlier calls in the same process
    _space_token.cache_clear()
    counts: dict = {}
    try:
        if not streams:
            raise DataError("build_lexicon needs at least one stream")
        for stream in streams:
            dropped = 0
            for line in stream.iter_lines():
                line = line.rstrip("\n")
                if stream.kind == "social" and not region_filter(line, rules.region_patterns):
                    dropped += 1
                    continue
                for word in normalize_text(line, rules).split():
                    if len(word) > MAX_WORD_LEN:
                        continue
                    counts.setdefault(word, {}).setdefault(stream.label, 0)
                    counts[word][stream.label] += 1
            if dropped:
                logger.info("region filter dropped %d lines from %s", dropped, stream.label)
    finally:
        _space_token.cache_clear()
    return [
        LexiconEntry(word=w, labels=tuple(sorted(freq)), freq=dict(sorted(freq.items())))
        for w, freq in sorted(counts.items())
    ]


def write_lexicon(entries, path) -> None:
    with atomic_write(path) as fh:
        for e in entries:
            freq = ",".join(f"{lab}:{n}" for lab, n in sorted(e.freq.items()))
            fh.write(f"{e.word}\t{','.join(e.labels)}\t{freq}\n")


def read_lexicon(path):
    """The LexiconEntry of each word TAB labels TAB LABEL:count,... row; the
    counts name exactly the row's labels, each is >= 1, no word repeats."""
    seen = set()

    def parse(fields):
        if len(fields) != 3:
            raise ValueError("expected 3 tab-separated fields")
        word, labels, freqs = fields
        labels = tuple(labels.split(","))
        for lab in labels:
            if lab not in LABELS:
                raise ValueError(f"unknown label {lab!r}")
        items = freqs.split(",")
        freq = {}
        for item in items:
            lab, _, n = item.partition(":")
            try:
                freq[lab] = int(n)
            except ValueError:
                raise ValueError(f"bad frequency {item!r}, "
                                 "expected LABEL:count") from None
            if freq[lab] < 1:
                raise ValueError(f"frequency {item!r} is below 1")
        if len(freq) != len(items) or sorted(freq) != sorted(labels):
            raise ValueError(f"frequencies {freqs!r} do not count exactly "
                             f"the labels {','.join(labels)!r}")
        if word in seen:
            raise ValueError(f"word {word!r} is listed twice")
        seen.add(word)
        return LexiconEntry(word=word, labels=labels, freq=freq)

    return read_rows(path, parse, "lexicon entries")


def all_label_combinations():
    combos = []
    for r in range(1, len(LABELS) + 1):
        combos.extend("+".join(c) for c in itertools.combinations(LABELS, r))
    return combos


def lexicon_stats(entries) -> dict:
    """Counts per label combination (all 31) plus a 5-char-bin length histogram.

    Words longer than MAX_WORD_LEN (only a lexicon read from elsewhere has
    them) are counted under "overlong_words", a key present only then.
    """
    combos = {c: 0 for c in all_label_combinations()}
    bins = {f"{lo}-{lo + 4}": 0 for lo in range(1, MAX_WORD_LEN, 5)}
    overlong = 0
    for e in entries:
        combos["+".join(e.labels)] += 1
        if len(e.word) > MAX_WORD_LEN:
            overlong += 1
            continue
        lo = (len(e.word) - 1) // 5 * 5 + 1
        bins[f"{lo}-{lo + 4}"] += 1
    stats = {
        "total_words": len(entries),
        "combinations": combos,
        "length_histogram": bins,
    }
    if overlong:
        stats["overlong_words"] = overlong
    return stats
