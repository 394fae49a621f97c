import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdzdt.chartok import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_CHARS,
    UNK_ID,
    EMOJI_BLOCKS,
    CharVocab,
    decode,
    default_vocab,
    encode_word,
    is_emoji_char,
    load_vocab_spec,
)
from chdzdt.errors import ConfigError
from oracles import SetVocab

ABC = [(97, 99)]  # a, b, c


@pytest.fixture(scope="module")
def dvoc():
    return default_vocab()


class TestBuildVocab:
    def test_counting(self):
        assert CharVocab(ABC).size == 8  # 5 specials + 3 chars

    def test_determinism(self):
        a, b = CharVocab(ABC, ["x"]), CharVocab(ABC, ["x"])
        assert a.size == b.size
        assert decode(a, range(a.size)) == decode(b, range(b.size))
        assert ([a.char_id(ch) for ch in "abcxyz?"]
                == [b.char_id(ch) for ch in "abcxyz?"])

    def test_special_ids_fixed_order(self):
        v = CharVocab(ABC)
        assert (PAD_ID, CLS_ID, MASK_ID, UNK_ID, SEP_ID) == (0, 1, 2, 3, 4)
        assert [v.char_id(ch) for ch in "abc"] == [5, 6, 7]
        assert decode(v, range(5, v.size)) == "abc"

    def test_overlapping_ranges_dedupe(self):
        assert CharVocab([(97, 99), (98, 100)]).size == 5 + 4

    def test_extras_merge(self):
        v = CharVocab(ABC, ["z"])
        assert v.char_id("z") != UNK_ID and v.size == 9

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigError):
            CharVocab([(99, 97)])
        with pytest.raises(ConfigError):
            CharVocab([(0xD7FF, 0xE010)])  # crosses surrogates and specials

    def test_special_collision_rejected(self):
        with pytest.raises(ConfigError):
            CharVocab([(0xE000, 0xE000)])

    def test_multichar_extra_rejected(self):
        with pytest.raises(ConfigError):
            CharVocab(ABC, ["ab"])

    @pytest.mark.parametrize("extra", ["\ud800", "\udfff"])
    def test_surrogate_extra_rejected(self, extra):
        with pytest.raises(ConfigError, match=f"U\\+{ord(extra):04X} is a surrogate"):
            CharVocab(ABC, [extra])

    def test_default_spec_covers_probe_words(self, dvoc):
        for word in "chdz شدز ⵣ 😀 3".split(" "):
            for ch in word:
                assert dvoc.char_id(ch) != UNK_ID, f"{ch!r} unmapped"

    def test_default_spec_declares_emoji_blocks(self, dvoc):
        declared = set()
        for lo, hi in dvoc.ranges:
            declared.update(range(lo, hi + 1))
        for lo, hi in EMOJI_BLOCKS:
            assert set(range(lo, hi + 1)) <= declared

    def test_load_spec_roundtrip(self, tmp_path, dvoc):
        p = tmp_path / "spec.json"
        import json

        p.write_text(json.dumps(dvoc.spec()), encoding="utf-8")
        loaded = load_vocab_spec(p)
        assert loaded.size == dvoc.size
        assert decode(loaded, range(loaded.size)) == decode(dvoc, range(dvoc.size))

    def test_load_spec_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_vocab_spec(p)

    @pytest.mark.parametrize("spec", [
        {"extras": []}, {"ranges": 5}, {"ranges": [[97, 122]], "extras": "a"},
        {"ranges": [5]}, {"ranges": [[97, 122, 3]]}, {"ranges": [[97, "z"]]},
        {"ranges": [[97.0, 122]]}, {"ranges": [[None, 122]]},
        {"ranges": [[122, 97]]}, {"ranges": [[97, 1114112]]},
        {"ranges": [[97, 122]], "extras": [1]}],
        ids=["no_ranges", "ranges_int", "extras_string", "range_int",
             "three_bounds", "string_bound", "float_bound", "null_bound",
             "reversed", "past_max", "int_extra"])
    def test_load_spec_rejects_malformed_naming_file(self, tmp_path, spec):
        import json

        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec), encoding="utf-8")
        with pytest.raises(ConfigError, match="vocabulary spec .*spec.json"):
            load_vocab_spec(p)


class TestEncode:
    def test_short_word_layout(self):
        v = CharVocab(ABC)
        tok = encode_word(v, "abc", max_chars=20)
        assert tok.tolist() == [CLS_ID, v.char_id("a"), v.char_id("b"),
                                v.char_id("c")] + [PAD_ID] * 17
        assert tok.dtype == np.int64

    def test_overlong_truncated(self):
        v = CharVocab(ABC)
        tok = encode_word(v, "a" * 25, max_chars=20)
        assert tok.shape == (21,)
        assert (tok[1:] == v.char_id("a")).all()

    def test_unknown_char_becomes_unk(self):
        # the special tokens' own code points are text like any other
        v = CharVocab(ABC)
        for ch in ("Q", *SPECIAL_CHARS):
            tok = encode_word(v, f"a{ch}c")
            assert tok[:4].tolist() == [CLS_ID, v.char_id("a"), UNK_ID,
                                        v.char_id("c")]
            assert v.char_id(ch) == UNK_ID

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            encode_word(CharVocab(ABC), "   ")

    def test_fixed_length_regardless_of_input(self):
        v = CharVocab(ABC)
        for w in ("a", "ab", "a" * 40):
            assert encode_word(v, w, max_chars=8).shape == (9,)


class TestDecode:
    def test_roundtrip_simple(self, dvoc):
        assert decode(dvoc, encode_word(dvoc, "dar")) == "dar"

    def test_all_pad_decodes_empty(self, dvoc):
        assert decode(dvoc, np.zeros(21, dtype=np.int64)) == ""

    def test_roundtrip_arabic(self, dvoc):
        assert decode(dvoc, encode_word(dvoc, "علاش")) == "علاش"

    def test_out_of_range_id(self, dvoc):
        with pytest.raises(IndexError):
            decode(dvoc, [dvoc.size])

    def test_mask_token_dropped(self, dvoc):
        tok = encode_word(dvoc, "dar")
        tok[1] = MASK_ID
        assert decode(dvoc, tok) == "ar"


@functools.cache
def declared_chars():
    """Every character of the default vocabulary, in id order."""
    voc = default_vocab()
    return list(decode(voc, range(5, voc.size)))


@st.composite
def invocab_words(draw):
    alphabet = declared_chars()
    length = draw(st.integers(1, 20))
    # avoid leading/trailing strip()-able whitespace by drawing non-space chars
    chars = draw(st.lists(st.sampled_from(alphabet).filter(lambda c: not c.isspace()),
                          min_size=length, max_size=length))
    return "".join(chars)


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(invocab_words())
    def test_roundtrip(self, word):
        voc = default_vocab()
        assert decode(voc, encode_word(voc, word)) == word

    @settings(max_examples=300, deadline=None)
    @given(st.text(min_size=1).filter(str.strip), st.integers(0, 30))
    def test_pad_ids_are_exactly_the_padding(self, word, max_chars):
        voc = default_vocab()
        ids = encode_word(voc, word, max_chars)
        assert (ids != PAD_ID).sum() == 1 + min(len(word.strip()), max_chars)

    def test_is_emoji_consistency(self):
        assert is_emoji_char("😀") and is_emoji_char("✅") and is_emoji_char("❤")
        assert not is_emoji_char("a") and not is_emoji_char("ش")


# code points near the edges that matter: ASCII, the surrogates, the
# special tokens' private-use block and the top of Unicode
EDGES = (97, 0xD800, 0xE000, 0x10FFFF)
# range starts near the same edges, set so that most ranges are valid
RANGE_STARTS = (97, 0xD7F0, 0xE007, 0x10FFF0)


@st.composite
def near(draw, anchors, spread):
    return draw(st.sampled_from(anchors)) + draw(st.integers(-spread, spread))


@st.composite
def spec_and_chars(draw):
    """Range lists that overlap, touch or hold one point, extras inside and
    outside them, and characters to look up: in and out of the ranges, the
    special tokens' code points and surrogates."""
    ranges = []
    for _ in range(draw(st.integers(0, 5))):
        lo = draw(near(RANGE_STARTS, 8))
        ranges.append([lo, lo + draw(st.integers(0, 6))])
    points = st.builds(lambda cp: chr(min(max(cp, 0), 0x10FFFF)),
                       near(EDGES + RANGE_STARTS, 12))
    extras = draw(st.lists(points, max_size=4))
    chars = draw(st.lists(points | st.sampled_from(SPECIAL_CHARS)
                          | st.characters(), max_size=20))
    return ranges, extras, chars


class TestAgainstSetVocab:
    """CharVocab against the set-and-dict construction it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(spec_and_chars())
    def test_ids_size_spec_and_decode_agree(self, case):
        ranges, extras, chars = case
        try:
            want = SetVocab(ranges, extras)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                CharVocab(ranges, extras)
            assert str(got.value) == str(exc)
            return
        v = CharVocab(ranges, extras)
        assert v.size == len(want.itos)
        assert v.spec() == want.spec()
        assert [v.char_id(ch) for ch in chars] == [want.char_id(ch) for ch in chars]
        # a second lookup reads the filled-in table
        assert [v.char_id(ch) for ch in chars] == [want.char_id(ch) for ch in chars]
        declared = want.itos[len(SPECIAL_CHARS):]
        assert ([v.char_id(ch) for ch in declared]
                == [want.char_id(ch) for ch in declared])
        assert decode(v, range(v.size)) == want.decode(range(v.size))
        for bad in (-1, v.size):
            with pytest.raises(IndexError):
                decode(v, [bad])

    def test_default_charset_agrees_on_every_plane_0_and_1_character(self):
        dvoc = default_vocab()
        spec = dvoc.spec()
        want = SetVocab(spec["ranges"], spec["extras"])
        chars = [chr(cp) for cp in range(0x20000)]
        assert [dvoc.char_id(ch) for ch in chars] == [want.char_id(ch) for ch in chars]
        assert dvoc.size == len(want.itos)
        assert decode(dvoc, range(dvoc.size)) == want.decode(range(dvoc.size))
