"""Every line reader, fed arbitrary bytes, fails only with a package error."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from chdzdt.preprocess import read_lexicon

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
