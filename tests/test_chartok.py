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
    build_vocab,
    decode,
    default_vocab,
    encode_word,
    is_emoji_char,
    load_vocab_spec,
)
from chdzdt.errors import ConfigError

ABC = [(97, 99)]  # a, b, c


@pytest.fixture(scope="module")
def dvoc():
    return default_vocab()


class TestBuildVocab:
    def test_counting(self):
        assert build_vocab(ABC).size == 8  # 5 specials + 3 chars

    def test_determinism(self):
        a, b = build_vocab(ABC, ["x"]), build_vocab(ABC, ["x"])
        assert a.stoi == b.stoi and a.itos == b.itos

    def test_special_ids_fixed_order(self):
        v = build_vocab(ABC)
        assert (PAD_ID, CLS_ID, MASK_ID, UNK_ID, SEP_ID) == (0, 1, 2, 3, 4)
        assert v.itos[5:] == ["a", "b", "c"]

    def test_overlapping_ranges_dedupe(self):
        assert build_vocab([(97, 99), (98, 100)]).size == 5 + 4

    def test_extras_merge(self):
        v = build_vocab(ABC, ["z"])
        assert "z" in v and v.size == 9

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab([(99, 97)])
        with pytest.raises(ConfigError):
            build_vocab([(0xD7FF, 0xE010)])  # crosses surrogates and specials

    def test_special_collision_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab([(0xE000, 0xE000)])

    def test_multichar_extra_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab(ABC, ["ab"])

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
        assert load_vocab_spec(p).stoi == dvoc.stoi

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
        v = build_vocab(ABC)
        tok = encode_word(v, "abc", max_chars=20)
        assert tok.tolist() == [CLS_ID, v.stoi["a"], v.stoi["b"], v.stoi["c"]] + [PAD_ID] * 17
        assert tok.dtype == np.int64

    def test_overlong_truncated(self):
        v = build_vocab(ABC)
        tok = encode_word(v, "a" * 25, max_chars=20)
        assert tok.shape == (21,)
        assert (tok[1:] == v.stoi["a"]).all()

    def test_unknown_char_becomes_unk(self):
        # the special tokens' own code points are text like any other
        v = build_vocab(ABC)
        for ch in ("Q", *SPECIAL_CHARS):
            tok = encode_word(v, f"a{ch}c")
            assert tok[:4].tolist() == [CLS_ID, v.stoi["a"], UNK_ID, v.stoi["c"]]
            assert ch not in v

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            encode_word(build_vocab(ABC), "   ")

    def test_fixed_length_regardless_of_input(self):
        v = build_vocab(ABC)
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


@st.composite
def invocab_words(draw):
    voc = default_vocab()
    alphabet = voc.itos[5:]
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
