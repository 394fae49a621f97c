"""Every line and JSON reader, fed arbitrary bytes, fails only with a
package error; the checkpoint loader only with CorruptCheckpointError."""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chdzdt.chartok import CharVocab, load_vocab_spec
from chdzdt.encoder import (
    MAGIC,
    EncoderState,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from chdzdt.errors import ChdzdtError, CorruptCheckpointError, DataError
from chdzdt.evalsuite.datasets import (
    read_affix_dataset,
    read_clusters,
    read_morph,
    read_pos,
    read_quadruples,
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
    "quadruples": (read_quadruples, "compose.tsv"),
    "sentiment": (read_sentiment, "senti.tsv"),
    "lexicon": (read_lexicon, "lex.tsv"),
    "tsv_embedder": (TsvEmbedder.from_file, "emb.tsv"),
}

# two valid lines of each reader's format
VALID_LINES = {
    "clusters": "dar\tdiar\tdwira\nbab\tbiban\n",
    "tuples": "dar\td*r\nbab\t*ab\n",
    "affix": "diar\ti,ar\nbab\t\n",
    "similarity": "dar\tdiar\t3.5\nbab\tdar\t1\n",
    "pos": "dar\tNOUN\nkbira\tADJ\n",
    "morph": "dar\tnum=sing\ndiar\tnum=plur\n",
    "quadruples": "el\tdar\tna\teldarna\nel\tbab\tek\telbabek\n",
    "sentiment": "positive\tdar kbira\nnegative\tbab sghir\n",
    "lexicon": "dar\tDZ\tDZ:2\nbab\tAR,DZ\tAR:1,DZ:1\n",
    "tsv_embedder": "#dim 2\ndar\t0.5 -1\n",
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


@pytest.mark.parametrize("name", list(READERS))
def test_one_line_contract(tmp_path, name):
    """A bad third line is an error naming file:3; blank lines are skipped,
    and a file of blank lines only is an error."""
    reader, filename = READERS[name]
    path = tmp_path / filename
    path.write_text(VALID_LINES[name], encoding="utf-8")
    assert reader(path)
    path.write_text(VALID_LINES[name] + "x\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"{filename}:3: "):
        reader(path)
    path.write_text("\n" + VALID_LINES[name].replace("\n", "\n\n")
                    + "x\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"{filename}:6: "):
        reader(path)
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"{filename}: no "):
        reader(path)


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


@pytest.fixture(scope="module")
def checkpoint_parts(tmp_path_factory):
    """(bytes before the header, header dict, body) of a small checkpoint."""
    vocab = CharVocab([(97, 100)])
    path = tmp_path_factory.mktemp("ckpt") / "enc.ckpt"
    save_checkpoint(EncoderState.init(
        ModelConfig(vocab_size=vocab.size, n_blocks=1, n_heads=1, hidden=2,
                    max_chars=2, ffn_mult=1, n_labels=1), vocab), path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    return (blob[:16], json.loads(blob[16:16 + header_len]),
            blob[16 + header_len:])


def _container(header: bytes, body: bytes = b"") -> bytes:
    return MAGIC + struct.pack("<IQ", 1, len(header)) + header + body


# an edit value meaning "the same numbers, written as floats"
AS_FLOATS = object()


def _floats(value):
    if isinstance(value, list):
        return [_floats(v) for v in value]
    return float(value) if type(value) is int else value


def _set_path(doc, path, value):
    """doc with the entry at path (keys and list indices) set to value, or
    with its numbers as floats for AS_FLOATS; a path doc lacks is a no-op."""
    try:
        node = doc
        for key in path[:-1]:
            node = node[key]
        old = node[path[-1]]
        node[path[-1]] = _floats(old) if value is AS_FLOATS else value
    except (KeyError, IndexError, TypeError):
        pass
    return doc


def _edit(header, edits):
    """A copy of header with each (path, value) edit applied in turn."""
    doc = json.loads(json.dumps(header))
    for path, value in edits:
        doc = _set_path(doc, path, value)
    return doc


# header fields a mutation replaces, with values past the checks' edges
HEADER_PATHS = [("config",), ("config", "n_blocks"), ("config", "hidden"),
                ("config", "vocab_size"), ("config", "max_chars"),
                ("config", "n_heads"), ("config", "dropout"), ("charset",),
                ("charset", "ranges"), ("tensors",), ("tensors", 0),
                ("tensors", 0, "shape"), ("tensors", 0, "offset"),
                ("tensors", 0, "name"), ("tensors", 3, "shape", 0)]
HEADER_VALUES = (JSON_VALUES
                 | st.sampled_from([10 ** 9, 2 ** 62, 2.0, [1e300]])
                 | st.lists(st.integers(-1, 2 ** 40), max_size=3))
HEADER_EDITS = (st.tuples(st.sampled_from(HEADER_PATHS), HEADER_VALUES)
                | st.sampled_from(HEADER_PATHS).map(lambda p: (p, AS_FLOATS)))


def _check_load(path, content):
    path.write_bytes(content)
    try:
        load_checkpoint(path)
    except CorruptCheckpointError:
        pass


def test_checkpoint_random_bytes(fuzz_dir):
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64) | st.binary(max_size=64).map(
        lambda b: MAGIC + b))
    def check(content):
        _check_load(fuzz_dir / "random.ckpt", content)

    check()


def test_checkpoint_valid_magic_random_header(fuzz_dir, checkpoint_parts):
    _, header, body = checkpoint_parts

    @settings(max_examples=500, deadline=None)
    @given(st.binary(max_size=200).map(lambda h: _container(h, body))
           | JSON_CONTENTS.map(lambda h: _container(h, body))
           | st.integers(1, 10 ** 5).map(
               lambda n: _container(b"[" * n + b"]" * n, body))
           | st.lists(HEADER_EDITS, min_size=1, max_size=3).map(
               lambda edits: _container(json.dumps(_edit(header, edits))
                                        .encode("utf-8"), body)))
    def check(content):
        _check_load(fuzz_dir / "header.ckpt", content)

    check()


def test_checkpoint_valid_header_random_body(fuzz_dir, checkpoint_parts):
    prefix, header, body = checkpoint_parts
    head = prefix + json.dumps(header).encode("utf-8")
    assert len(head) == len(prefix) + struct.unpack_from("<Q", prefix, 8)[0]

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=2 * len(body))
           | st.binary(min_size=len(body), max_size=len(body)))
    def check(content):
        _check_load(fuzz_dir / "body.ckpt", head + content)

    check()


@pytest.mark.parametrize("edit, loads", [
    # equal float shapes once reached numpy's reshape as a TypeError
    ([(("tensors", i, "shape"), AS_FLOATS) for i in range(24)], True),
    # a deep header once escaped json.loads as a RecursionError
    (None, False),
    # a huge n_blocks once built its whole manifest before any check
    ([(("config", "n_blocks"), 10 ** 12)], False),
], ids=["float_shapes", "deep_nesting", "huge_n_blocks"])
def test_checkpoint_header_regressions(fuzz_dir, checkpoint_parts, edit,
                                       loads):
    _, header, body = checkpoint_parts
    raw = b"[" * 10 ** 5 + b"]" * 10 ** 5 if edit is None \
        else json.dumps(_edit(header, edit)).encode("utf-8")
    path = fuzz_dir / "regression.ckpt"
    path.write_bytes(_container(raw, body))
    if loads:
        assert load_checkpoint(path).flat.size == len(body) // 4
    else:
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)
