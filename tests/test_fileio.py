"""Atomic output: every writer replaces its file whole or leaves it alone.
Text input: every read failure is a DataError naming the file, and JSON
that does not parse or has the wrong shape is a ConfigError naming it."""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

from chdzdt.chartok import CharVocab
from chdzdt.encoder import EncoderState, ModelConfig, save_checkpoint
from chdzdt.errors import ConfigError, DataError
from chdzdt.evalsuite.embedder import write_embeddings_tsv
from chdzdt.fileio import atomic_write, read_json, read_lines, read_text
from chdzdt.preprocess import LexiconEntry, write_lexicon

SRC = Path(__file__).resolve().parents[1] / "src" / "chdzdt"


def plain_open_mode(directory) -> int:
    probe = directory / "plain"
    with open(probe, "w"):
        pass
    return probe.stat().st_mode & 0o777


class ExplodingEntry:
    word, labels = "boom", ("EN",)

    @property
    def freq(self):
        raise RuntimeError("fails partway")


class TestAtomicWrite:
    def test_text_and_binary(self, tmp_path):
        with atomic_write(tmp_path / "a.txt") as fh:
            fh.write("qahwa\n")
        with atomic_write(tmp_path / "b.bin", "wb") as fh:
            fh.write(b"\x00\xff")
        assert (tmp_path / "a.txt").read_bytes() == "qahwa\n".encode()
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.bin"]

    def test_failure_partway_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("new" * 10000)
                fh.flush()
                raise RuntimeError("fails partway")
        assert path.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_library_writer_failure_keeps_previous_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon([LexiconEntry("chat", ("FR",), {"FR": 1})], path)
        before = path.read_bytes()
        entries = [LexiconEntry("dog", ("EN",), {"EN": 2}), ExplodingEntry()]
        with pytest.raises(RuntimeError):
            write_lexicon(entries, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["lex.tsv"]

    def test_missing_directory_is_data_error(self, tmp_path):
        path = tmp_path / "absent" / "out.txt"
        with pytest.raises(DataError, match="cannot write"):
            with atomic_write(path) as fh:
                fh.write("x")
        assert not (tmp_path / "absent").exists()

    def test_every_writer_gives_plain_open_mode(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        vocab = CharVocab([(97, 122)])
        state = EncoderState.init(
            ModelConfig(vocab_size=vocab.size, hidden=4, n_heads=1), vocab)
        save_checkpoint(state, out / "m.ckpt")
        write_lexicon([LexiconEntry("chat", ("FR",), {"FR": 1})],
                      out / "lex.tsv")
        write_embeddings_tsv(out / "v.tsv", ["a"], np.zeros((1, 2)))
        with atomic_write(out / "raw.bin", "wb") as fh:
            fh.write(b"x")
        expected = plain_open_mode(tmp_path)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert len(modes) == 4
        assert set(modes.values()) == {expected}, modes


class TestReadLines:
    def test_numbered_lines_without_newlines(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes("dar\r\n\nkbira\tx\n\u00e9".encode("utf-8"))
        assert list(read_lines(path)) == [(1, "dar"), (2, ""), (3, "kbira\tx"),
                                          (4, "\u00e9")]

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read .*nope.txt"):
            list(read_lines(tmp_path / "nope.txt"))

    def test_invalid_utf8_is_data_error_naming_path(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"dar\n\xffbab\n")
        with pytest.raises(DataError, match="cannot read .*bad.txt"):
            list(read_lines(path))


class TestReadText:
    def test_whole_file_keeps_line_ends(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes("dar\r\nkbira\n\u00e9".encode("utf-8"))
        assert read_text(path) == "dar\nkbira\n\u00e9"

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read .*nope.txt"):
            read_text(tmp_path / "nope.txt")

    def test_invalid_utf8_is_data_error_naming_path(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"dar\n\xffbab\n")
        with pytest.raises(DataError, match="cannot read .*bad.txt"):
            read_text(path)


class TestReadJson:
    def test_object_and_array(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"hidden": 8}', encoding="utf-8")
        assert read_json(path, "model config") == {"hidden": 8}
        path.write_text('[{"hidden": 8}]', encoding="utf-8")
        assert read_json(path, "grid", list) == [{"hidden": 8}]

    @pytest.mark.parametrize("text", [
        "{", "not json", "", "[" * 100_000, "1" * 5000],
        ids=["truncated", "garbage", "empty", "too_deep", "long_integer"])
    def test_unparseable_is_config_error_naming_path(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError,
                           match="model config .*bad.json is not valid JSON"):
            read_json(path, "model config")

    @pytest.mark.parametrize("text, kind", [
        ("[1]", dict), ("3", dict), ('"x"', dict), ("null", dict),
        ("{}", list)])
    def test_wrong_top_level_type_is_config_error(self, tmp_path, text,
                                                   kind):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="grid .*bad.json must be a "
                                              "JSON (object|array)"):
            read_json(path, "grid", kind)

    def test_read_failures_are_data_errors(self, tmp_path):
        with pytest.raises(DataError, match="cannot read .*nope.json"):
            read_json(tmp_path / "nope.json", "rules file")
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"a": "\xff"}')
        with pytest.raises(DataError, match="cannot read .*bad.json"):
            read_json(path, "rules file")


def _text_mode_opens(tree):
    """Line numbers of open() calls whose mode is not a binary literal."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "b" in mode.value):
            lines.append(node.lineno)
    return lines


def test_only_fileio_opens_files_in_text_mode():
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "fileio.py" in modules
    found = {}
    for path in modules:
        if path.name == "fileio.py":
            continue
        lines = _text_mode_opens(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            found[str(path.relative_to(SRC))] = lines
    assert found == {}, ("read and write text through chdzdt.fileio, not "
                         f"open(): {found}")
