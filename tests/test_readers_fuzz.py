"""Every line and JSON reader, fed arbitrary bytes, fails only with a
package error."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdzdt.chartok import load_vocab_spec
from chdzdt.errors import ChdzdtError
from chdzdt.evalsuite.datasets import (
    read_affix_dataset,
    read_clusters,
    read_morph,
    read_pos,
    read_sentiment,
    read_similarity,
    read_tuples,
)
from chdzdt.evalsuite.embedder import TsvEmbedder
from chdzdt.fileio import read_json
from chdzdt.preprocess import NormRules, read_lexicon

READERS = {
    "clusters": (read_clusters, "clusters.tsv"),
    "tuples": (read_tuples, "pairs.star"),
    "affix": (read_affix_dataset, "affix.tsv"),
    "similarity": (read_similarity, "sim.tsv"),
    "pos": (read_pos, "pos.conll"),
    "morph": (read_morph, "morph.tsv"),
    "sentiment": (read_sentiment, "senti.tsv"),
    "lexicon": (read_lexicon, "lex.tsv"),
    "tsv_embedder": (TsvEmbedder.from_file, "emb.tsv"),
}

# pieces of the formats, so that some inputs get past the first checks
FRAGMENTS = [b"\t", b"\n", b"\r\n", b"#dim ", b"2", b"0", b"-1", b"1.5",
             b"nan", b"1e999", b"x", b"dar", b"EN", b"DZ", b"EN:3", b"EN:",
             b",", b":", b";", b"=", b"num=sing", b"positive", b"\xc3\xa9",
             b"\xff", b"\xc3", b"\x00"]

CONTENTS = st.binary(max_size=200) | st.lists(
    st.sampled_from(FRAGMENTS), max_size=40).map(b"".join)


JSON_READERS = {
    "json_object": (lambda path: read_json(path, "config"), "c.json"),
    "json_array": (lambda path: read_json(path, "grid", list), "g.json"),
    "vocab_spec": (load_vocab_spec, "vocab.json"),
    "rules": (NormRules.from_file, "rules.json"),
}

# small code points, plus ones at the edges the vocabulary checks: a
# surrogate, the first special-token character, past U+10FFFF
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 300)
                | st.sampled_from([55296, 57344, 1114112, 10 ** 30])
                | st.floats() | st.sampled_from(["[", "(?P=b)", "a{99999999999}"])
                | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12)
# objects whose keys are the ones the vocabulary and rules readers look up
JSON_DOCS = st.dictionaries(
    st.sampled_from(["ranges", "extras", "emoji_aliases", "char_unification",
                     "diacritics", "elongation_cap", "region_patterns"]),
    JSON_VALUES, max_size=4) | JSON_VALUES
JSON_FRAGMENTS = [b"{", b"}", b"[", b"]", b",", b":", b'"ranges"',
                  b'"extras"', b'"diacritics"', b"[97, 122]", b"1", b"-1",
                  b"1.5", b"NaN", b"1e999", b"null", b"true", b'"x"',
                  b'"\\ud800"', b"\xff", b"\xc3"]
JSON_CONTENTS = (st.binary(max_size=200)
                 | st.lists(st.sampled_from(JSON_FRAGMENTS),
                            max_size=40).map(b"".join)
                 | JSON_DOCS.map(lambda v: json.dumps(v).encode("utf-8")))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", list(READERS))
def test_only_package_errors_escape(fuzz_dir, name):
    reader, filename = READERS[name]
    path = fuzz_dir / filename

    @settings(max_examples=100, deadline=None)
    @given(CONTENTS)
    def check(content):
        path.write_bytes(content)
        try:
            reader(path)
        except ChdzdtError:
            pass

    check()


@pytest.mark.parametrize("name", list(JSON_READERS))
def test_json_readers_raise_only_package_errors(fuzz_dir, name):
    reader, filename = JSON_READERS[name]
    path = fuzz_dir / filename

    @settings(max_examples=200, deadline=None)
    @given(JSON_CONTENTS)
    def check(content):
        path.write_bytes(content)
        try:
            reader(path)
        except ChdzdtError:
            pass

    check()
