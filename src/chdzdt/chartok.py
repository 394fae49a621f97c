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


class CharVocab:
    """Immutable bidirectional character<->id map; safe to share."""

    def __init__(self, ranges, extras=()):
        chars = set()
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
            chars.update(range(lo, hi + 1))
            checked.append((lo, hi))
        for extra in extras:
            if not isinstance(extra, str) or len(extra) != 1:
                raise ConfigError(f"extras must be single characters, got {extra!r}")
            chars.add(ord(extra))
        for special in SPECIAL_CHARS:
            if ord(special) in chars:
                raise ConfigError(
                    f"U+{ord(special):04X} is reserved for a special token")
        self.ranges = tuple(sorted(checked))
        self.extras = tuple(sorted(extras))
        declared = [chr(cp) for cp in sorted(chars)]
        # only declared characters map to an id: text holding a special
        # token's code point must not inject that token
        self.stoi = {ch: i for i, ch in enumerate(declared, len(SPECIAL_CHARS))}
        self.itos = list(SPECIAL_CHARS) + declared

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
        return len(self.itos)

    def char_id(self, ch: str) -> int:
        return self.stoi.get(ch, UNK_ID)

    def __contains__(self, ch: str) -> bool:
        return ch in self.stoi

    def spec(self) -> dict:
        return {"ranges": [list(r) for r in self.ranges], "extras": list(self.extras)}


def build_vocab(range_spec, extras=()) -> CharVocab:
    return CharVocab(range_spec, extras)


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
        out.append(vocab.itos[i])
    return "".join(out)
