"""Word-level character tokenizer over a Unicode-range-defined vocabulary.

A vocabulary is five single-character special tokens (ids 0-4, fixed order
PAD, CLS, MASK, UNK, SEP) followed by every declared character in ascending
code-point order. A tokenized word is one int64 id row: CLS (held outside
the character budget), the word's first ``max_chars`` Unicode scalar
values, then PAD up to a fixed length of ``1 + max_chars``. Every
undeclared character, the special tokens' own code points included, is
UNK, so the PAD ids of a row are exactly its padding.
"""

from __future__ import annotations

import bisect
import operator

import numpy as np

from .errors import ConfigError
from .fileio import check_fields, read_json, read_package_json

SPECIAL_TOKENS = ("PAD", "CLS", "MASK", "UNK", "SEP")
# private-use code points so they can never collide with real text
SPECIAL_CHARS = ("", "", "", "", "")
PAD_ID, CLS_ID, MASK_ID, UNK_ID, SEP_ID = range(len(SPECIAL_TOKENS))

DEFAULT_MAX_CHARS = 20

# Emoji/pictograph/dingbat/symbol blocks of the shipped charset. The
# preprocess module uses this same list for emoji detection, keeping one
# source of truth for what counts as an emoji.
EMOJI_BLOCKS = (
    (9728, 9983),     # miscellaneous symbols
    (9984, 10175),    # dingbats
    (127744, 128511), # miscellaneous symbols and pictographs
    (128512, 128591), # emoticons
    (128640, 128767), # transport and map symbols
    (129280, 129535), # supplemental symbols and pictographs
)


def is_emoji_char(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in EMOJI_BLOCKS)


class _CharIds(dict):
    """Character -> id, filled lazily: the first lookup of a character
    bisects the run starts, and an undeclared character is UNK."""

    def __init__(self, starts, ends, offsets):
        super().__init__()
        self._starts, self._ends, self._offsets = starts, ends, offsets

    def __missing__(self, ch):
        if not isinstance(ch, str) or len(ch) != 1:
            return UNK_ID
        cp = ord(ch)
        k = bisect.bisect_right(self._starts, cp) - 1
        self[ch] = i = (self._offsets[k] + cp - self._starts[k]
                        if k >= 0 and cp <= self._ends[k] else UNK_ID)
        return i


class CharVocab:
    """Immutable bidirectional character<->id map; safe to share.

    The declared code points (ranges plus extras) are kept as sorted,
    merged runs with the first id of each run, so building a vocabulary
    costs time in proportion to its number of ranges, not of characters."""

    def __init__(self, ranges, extras=()):
        checked = []
        for interval in ranges:
            try:
                lo, hi = (operator.index(bound) for bound in interval)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"range must be [lo, hi] integers, got {interval!r}") from None
            if lo > hi:
                raise ConfigError(f"malformed range [{lo}, {hi}]")
            if lo < 0 or hi > 0x10FFFF or (lo <= 0xDFFF and hi >= 0xD800):
                raise ConfigError(f"range [{lo}, {hi}] contains invalid code points")
            checked.append((lo, hi))
        for extra in extras:
            if not isinstance(extra, str) or len(extra) != 1:
                raise ConfigError(f"extras must be single characters, got {extra!r}")
            if 0xD800 <= ord(extra) <= 0xDFFF:
                raise ConfigError(f"extra U+{ord(extra):04X} is a surrogate, not a character")
        starts, ends = [], []
        for lo, hi in sorted(checked + [(ord(e), ord(e)) for e in extras]):
            if ends and lo <= ends[-1] + 1:
                ends[-1] = max(ends[-1], hi)
            else:
                starts.append(lo)
                ends.append(hi)
        # run k holds ids _offsets[k] .. _offsets[k + 1] - 1, in code-point
        # order after the special tokens
        self._starts = starts
        self._offsets = [len(SPECIAL_CHARS)]
        for lo, hi in zip(starts, ends):
            self._offsets.append(self._offsets[-1] + hi - lo + 1)
        self._ids = _CharIds(starts, ends, self._offsets)
        # only declared characters map to an id: text holding a special
        # token's code point must not inject that token
        for special in SPECIAL_CHARS:
            if self.char_id(special) != UNK_ID:
                raise ConfigError(
                    f"U+{ord(special):04X} is reserved for a special token")
        self.ranges = tuple(sorted(checked))
        self.extras = tuple(sorted(extras))

    @classmethod
    def from_spec(cls, spec: dict, what: str) -> "CharVocab":
        """The vocabulary a spec() dict describes; `what` names its source
        in errors."""
        check_fields(spec, {"ranges": list, "extras": list}, what)
        if "ranges" not in spec:
            raise ConfigError(f"{what} must hold a 'ranges' list")
        try:
            return cls(spec["ranges"], spec.get("extras", []))
        except ConfigError as exc:
            raise ConfigError(f"{what}: {exc}") from None

    @property
    def size(self) -> int:
        return self._offsets[-1]

    def char_id(self, ch: str) -> int:
        return self._ids[ch]

    def spec(self) -> dict:
        return {"ranges": [list(r) for r in self.ranges], "extras": list(self.extras)}


def load_vocab_spec(path) -> CharVocab:
    return CharVocab.from_spec(read_json(path, "vocabulary spec"),
                               f"vocabulary spec {path}")


def default_vocab() -> CharVocab:
    return CharVocab.from_spec(read_package_json("charset.json"),
                               "built-in charset")


def encode_word(vocab: CharVocab, word: str, max_chars: int = DEFAULT_MAX_CHARS) -> np.ndarray:
    """The [1 + max_chars] int64 id row of word: CLS, its first max_chars
    characters, then PAD."""
    word = word.strip()
    if not word:
        raise ValueError("cannot encode an empty word")
    kept = word[:max_chars]
    ids = np.full(1 + max_chars, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    ids[1:1 + len(kept)] = [vocab.char_id(ch) for ch in kept]
    return ids


def decode(vocab: CharVocab, ids) -> str:
    """Drop special tokens and map the rest back to characters."""
    out = []
    for i in np.asarray(ids).reshape(-1):
        i = int(i)
        if i >= vocab.size or i < 0:
            raise IndexError(f"id {i} out of range for vocabulary of size {vocab.size}")
        if i < len(SPECIAL_TOKENS):
            continue
        k = bisect.bisect_right(vocab._offsets, i) - 1
        out.append(chr(vocab._starts[k] + i - vocab._offsets[k]))
    return "".join(out)
