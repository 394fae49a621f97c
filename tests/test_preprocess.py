import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdzdt.errors import ConfigError, DataError
from chdzdt.preprocess import (
    LABELS,
    MAX_WORD_LEN,
    LexiconEntry,
    NormRules,
    SourceStream,
    all_label_combinations,
    build_lexicon,
    cap_elongation,
    fix_spacing,
    lexicon_stats,
    normalize_chars,
    normalize_emojis,
    normalize_text,
    read_lexicon,
    region_filter,
    strip_diacritics,
    write_lexicon,
)

from oracles import brute_combo_counts


@pytest.fixture(scope="module")
def rules():
    return NormRules.default()


class TestNormalizeEmojis:
    def test_run_capped_at_two(self, rules):
        assert normalize_emojis("❤❤❤❤ merci", rules) == "❤❤ merci"

    def test_emoticon_alias(self, rules):
        assert normalize_emojis(":-)", rules) == "🙂"

    def test_single_emoji_untouched(self, rules):
        assert normalize_emojis("ok 👍", rules) == "ok 👍"

    def test_longest_alias_wins(self, rules):
        assert normalize_emojis("ok :-( la", rules) == "ok 🙁 la"

    def test_alias_not_inside_word(self, rules):
        assert normalize_emojis("HTTP:Port", rules) == "HTTP:Port"

    def test_non_emoji_runs_untouched(self, rules):
        assert normalize_emojis("!!!!", rules) == "!!!!"


class TestNormalizeChars:
    def test_guillemets(self, rules):
        assert normalize_chars("«mot»", rules) == '"mot"'

    def test_em_dash(self, rules):
        assert normalize_chars("a—b", rules) == "a-b"

    def test_ascii_unchanged(self, rules):
        s = "plain ascii text, nothing fancy."
        assert normalize_chars(s, rules) == s


class TestCapElongation:
    def test_arabic_elongation(self):
        assert cap_elongation("برافووووووو", 2) == "برافوو"

    def test_short_run_kept(self):
        assert cap_elongation("cool", 2) == "cool"

    def test_idempotent(self):
        s = "heyyyyyy nooooon"
        assert cap_elongation(cap_elongation(s, 2), 2) == cap_elongation(s, 2)

    def test_punctuation_untouched(self):
        assert cap_elongation("wow!!!!", 2) == "wow!!!!"

    def test_bad_cap_rejected(self):
        with pytest.raises(ConfigError):
            cap_elongation("x", 0)


class TestFixSpacing:
    def test_golden_emoji_punct(self):
        assert fix_spacing("✅✅yes. No!✅") == "✅ ✅ yes . No ! ✅"

    def test_plain_text_unchanged(self):
        assert fix_spacing("a b") == "a b"

    def test_trailing_comma_detached(self):
        assert fix_spacing("word,") == "word ,"

    def test_space_runs_collapse(self):
        assert fix_spacing("a    b\t c") == "a b c"

    def test_punct_run_is_one_token(self):
        assert fix_spacing("quoi?!") == "quoi ?!"


class TestStripDiacritics:
    def test_golden_tashkil_tatweel(self, rules):
        assert strip_diacritics("مَجَلَّــــــــــــة", rules) == "مجلة"

    def test_ascii_unchanged(self, rules):
        assert strip_diacritics("abc", rules) == "abc"

    def test_idempotent(self, rules):
        once = strip_diacritics("مَرَّة", rules)
        assert strip_diacritics(once, rules) == once


class TestRegionFilter:
    def test_moroccan_marker_dropped(self, rules):
        assert region_filter("واش دابا راك", rules.region_patterns) is False

    def test_clean_comment_kept(self, rules):
        assert region_filter("wesh rak khouya", rules.region_patterns) is True

    def test_empty_pattern_list_keeps_all(self):
        assert region_filter("دابا", []) is True

    def test_malformed_pattern_rejected_at_load(self):
        with pytest.raises(ConfigError):
            NormRules(region_patterns=["["])


class TestPipeline:
    def test_emoji_cap_then_spacing(self, rules):
        assert normalize_text("❤❤❤❤ merci", rules) == "❤ ❤ merci"

    def test_goldens_through_full_pipeline(self, rules):
        assert normalize_text("✅✅yes. No!✅", rules) == "✅ ✅ yes . No ! ✅"
        assert normalize_text("برافووووووو", rules) == "برافوو"
        assert normalize_text("مَجَلَّــــــــــــة", rules) == "مجلة"

    def test_spacing_exposes_emoticon(self, rules):
        # the alias is blocked by the adjacent letter on the first sweep
        # and fires once spacing has isolated it
        assert normalize_text("bienvenue:-)ici", rules) == "bienvenue 🙂 ici"

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abzé ء شدو3!?.,:«»—…✅❤😀🙂-)('َّـ", max_size=40))
    def test_idempotent_on_arbitrary_text(self, text):
        rules = NormRules.default()
        once = normalize_text(text, rules)
        assert normalize_text(once, rules) == once


def _stream(lines, label, kind="standard"):
    return SourceStream(path=f"<mem:{label}>", label=label, kind=kind, lines=lines)


class TestBuildLexicon:
    def test_label_union_across_streams(self, rules):
        entries = build_lexicon(
            [_stream(["dar kbira"], "AR"), _stream(["dar sghira"], "DZ")], rules)
        by_word = {e.word: e for e in entries}
        assert by_word["dar"].labels == ("AR", "DZ")
        assert by_word["kbira"].labels == ("AR",)

    def test_overlong_word_dropped(self, rules):
        # run-free token so elongation capping cannot rescue it
        long31 = "abcdefghijklmnopqrstuvwxyzabcde"
        assert len(long31) == 31
        entries = build_lexicon([_stream([long31 + " ok"], "EN")], rules)
        assert [e.word for e in entries] == ["ok"]

    def test_boundary_30_char_word_kept(self, rules):
        word30 = "abcdefghijklmnopqrstuvwxyzabcd"
        entries = build_lexicon([_stream([word30], "EN")], rules)
        assert [e.word for e in entries] == [word30]

    def test_deterministic_output_file(self, rules, tmp_path):
        streams = lambda: [_stream(["b a", "c a"], "EN"), _stream(["a d"], "FR")]
        p1, p2 = tmp_path / "l1.tsv", tmp_path / "l2.tsv"
        write_lexicon(build_lexicon(streams(), rules), p1)
        write_lexicon(build_lexicon(streams(), rules), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_region_filter_only_on_social(self, rules):
        lines = ["دابا كاين", "كاين غير هنا"]
        social = build_lexicon([_stream(lines, "DZ", kind="social")], rules)
        standard = build_lexicon([_stream(lines, "DZ", kind="standard")], rules)
        assert "دابا" not in {e.word for e in social}
        assert "دابا" in {e.word for e in standard}

    def test_frequencies_accumulate(self, rules):
        entries = build_lexicon([_stream(["a a a", "a b"], "EN")], rules)
        by_word = {e.word: e for e in entries}
        assert by_word["a"].freq == {"EN": 4}

    def test_empty_streams_rejected(self, rules):
        with pytest.raises(DataError):
            build_lexicon([], rules)

    def test_words_have_no_whitespace_and_are_short(self, rules):
        text = ["  l'été—2024…  ✅✅ ", "مَوووووجة كبيرة  :-)"]
        for e in build_lexicon([_stream(text, "DZ")], rules):
            assert 1 <= len(e.word) <= 30
            assert not any(c.isspace() for c in e.word)
            assert e.labels

    def test_missing_file_names_source(self, rules):
        with pytest.raises(DataError, match="nope.txt"):
            build_lexicon([SourceStream(path="nope.txt", label="AR")], rules)

    def test_bad_label_rejected(self):
        with pytest.raises(ConfigError):
            SourceStream(path="x", label="XX")


class TestLexiconIO:
    def test_roundtrip(self, rules, tmp_path):
        entries = build_lexicon(
            [_stream(["dar dar kbira"], "AR"), _stream(["dar"], "DZ")], rules)
        path = tmp_path / "lex.tsv"
        write_lexicon(entries, path)
        back = read_lexicon(path)
        assert [(e.word, e.labels, e.freq) for e in back] == \
               [(e.word, e.labels, e.freq) for e in entries]
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").splitlines()[0] == "dar\tAR,DZ\tAR:2,DZ:1"

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("word only one field\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_lexicon(p)

    @pytest.mark.parametrize("freq", ["EN:x", "EN", "EN:"])
    def test_bad_frequency_names_line(self, tmp_path, freq):
        p = tmp_path / "bad.tsv"
        p.write_text(f"dar\tEN\tEN:1\nkbira\tEN\t{freq}\n",
                     encoding="utf-8")
        with pytest.raises(DataError, match=f"{p}:2"):
            read_lexicon(p)


class TestLexiconStats:
    def test_single_word_lexicon(self, rules):
        entries = build_lexicon([_stream(["wahran"], "DZ")], rules)
        stats = lexicon_stats(entries)
        assert stats["combinations"]["DZ"] == 1
        assert sum(stats["combinations"].values()) == 1
        assert stats["length_histogram"]["6-10"] == 1

    def test_all_31_combinations_present(self):
        assert len(all_label_combinations()) == 31
        stats = lexicon_stats([])
        assert len(stats["combinations"]) == 31

    def test_counts_match_brute_recount(self, rules):
        streams = [
            _stream(["alpha beta gamma", "beta delta"], "AR"),
            _stream(["beta gamma epsilon"], "DZ"),
            _stream(["gamma zeta", "alpha"], "FR"),
        ]
        entries = build_lexicon(streams, rules)
        stats = lexicon_stats(entries)
        word_labels = {e.word: set(e.labels) for e in entries}
        expected = brute_combo_counts(word_labels)
        for combo, count in stats["combinations"].items():
            assert count == expected.get(combo, 0)

    def test_overlong_words_counted_apart(self):
        entries = [LexiconEntry(word="a" * (MAX_WORD_LEN + 1), labels=("EN",),
                                freq={"EN": 1}),
                   LexiconEntry(word="dar", labels=("DZ",), freq={"DZ": 1})]
        stats = lexicon_stats(entries)
        assert stats["overlong_words"] == 1
        assert stats["total_words"] == 2
        assert sum(stats["length_histogram"].values()) == 1
        assert "overlong_words" not in lexicon_stats(entries[1:])

    def test_partition_property(self, rules):
        entries = build_lexicon(
            [_stream(["a b c d e f g"], "EN"), _stream(["a b xyz"], "BER")], rules)
        stats = lexicon_stats(entries)
        assert sum(stats["combinations"].values()) == len(entries)
        assert sum(stats["length_histogram"].values()) == len(entries)
