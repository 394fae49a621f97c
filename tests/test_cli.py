"""End-to-end command-line tests: exit codes, outputs, manifests."""

import hashlib
import inspect
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chdzdt
from chdzdt import cli
from chdzdt import tensor as T
from chdzdt.chartok import build_vocab
from chdzdt.encoder import EncoderState, ModelConfig, load_checkpoint, \
    save_checkpoint
from chdzdt.errors import NumericalError
from chdzdt.evalsuite.embedder import CheckpointEmbedder, TsvEmbedder
from chdzdt.evalsuite.metrics import acs
from chdzdt.preprocess import write_lexicon

from universe import make_universe

GOLDEN_LEXICON = """\
cat\tEN\tEN:1
cats\tEN\tEN:1
chat\tFR\tFR:1
chien\tFR\tFR:1
chiens\tFR\tFR:1
courent\tFR\tFR:1
court\tFR\tFR:1
dog\tEN\tEN:2
dogs\tEN\tEN:1
les\tFR\tFR:1
ran\tEN\tEN:1
running\tEN\tEN:1
runs\tEN\tEN:1
the\tEN\tEN:1
"""

CLUSTER_TEXT = "dog\tdog\tdogs\ncat\tcat\tcats\nrun\truns\trunning\n"

TAG_TEXT = ("dog\tnum=sing\ndogs\tnum=plur\ncat\tnum=sing\ncats\tnum=plur\n"
            "chien\tnum=sing\nchiens\tnum=plur\nchat\tnum=sing\n"
            "les\tnum=plur\nran\tnum=sing\nruns\tnum=plur\n")

# one tiny data file per eval task, by its name in the ws directory
TASK_DATA = {
    "morph": ("clusters.tsv", CLUSTER_TEXT),
    "noise": ("clusters.tsv", CLUSTER_TEXT),
    "tag": ("tag.tsv", TAG_TEXT),
    "probe": ("affix.tsv", "dogs\ts\ncats\ts\nrunning\tning\nruns\ts\n"
                           "chiens\ts\ndog\t\ncat\t\nchien\t\n"),
    "compose": ("compose.tsv", "un\tdo\tne\tundone\nre\trun\ts\treruns\n"
                               "de\tcode\tr\tdecoder\nun\tcat\ts\tuncats\n"),
    "sim": ("sim.tsv", "dog\tdogs\t3.5\ncat\tcats\t3.0\ndog\tcat\t1.0\n"),
    "pos": ("pos.conll", "the\tDET\ndog\tNOUN\nran\tVERB\n\n"
                         "les\tDET\nchiens\tNOUN\ncourent\tVERB\n\n"
                         "the\tDET\ncats\tNOUN\n\ndogs\tNOUN\nrun\tVERB\n"),
    "sa": ("senti.tsv", "positive\tthe dog runs\nnegative\tthe cat ran\n"
                        "neutral\tles chiens\npositive\tdogs run\n"
                        "negative\tcats ran\nneutral\tle chat court\n"),
}


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What the installed console script does: resolve the entry point, name
# the program after the script, call it and exit with its return value.
RUN_ENTRY_POINT = (
    "import importlib.metadata, sys\n"
    "sys.argv[0] = 'chdzdt'\n"
    "sys.exit(importlib.metadata.EntryPoint("
    "'chdzdt', {value!r}, 'console_scripts').load()())\n")


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def _stdin(data: bytes, errors: str = "strict"):
    """A text stdin over data, with the byte buffer a real one has."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                            errors=errors)


def console_script(name: str) -> str:
    """The value of `name` in pyproject.toml's `[project.scripts]`."""
    text = PYPROJECT.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read that one table by line
        table = None
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                table = line
            elif table == "[project.scripts]" and "=" in line:
                key, value = (part.strip() for part in line.split("=", 1))
                if key.strip("\"'") == name:
                    return value.strip("\"'")
        raise KeyError(f"[project.scripts] has no {name!r}")
    return tomllib.loads(text)["project"]["scripts"][name]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    corpus.mkdir()
    (corpus / "en.txt").write_text(
        "dog cat runs\ndogs cats running\nthe dog ran\n", encoding="utf-8")
    (corpus / "fr.txt").write_text(
        "chien chat court\nles chiens courent\n", encoding="utf-8")
    (root / "labels.json").write_text(json.dumps(
        {"en.txt": "EN", "fr.txt": {"label": "FR", "kind": "social"}}),
        encoding="utf-8")
    (root / "vocab.json").write_text(json.dumps({"ranges": [[97, 122]]}),
                                     encoding="utf-8")
    for name, text in TASK_DATA.values():
        (root / name).write_text(text, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def lexicon(ws):
    out = ws / "lex.tsv"
    assert run("preprocess", "--in", ws / "corpus",
               "--labels", ws / "labels.json", "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def ckpt(ws, lexicon):
    out = ws / "enc.ckpt"
    assert run("pretrain", "--lexicon", lexicon, "--vocab",
               ws / "vocab.json", "--out", out, "--n-blocks", 1,
               "--n-heads", 2, "--hidden", 8, "--epochs", 2,
               "--batch-size", 8, "--seed", 0) == 0
    return out


class TestParser:

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "preprocess" in capsys.readouterr().out

    def test_every_flag_is_documented(self):
        sub_action = next(a for a in cli.build_parser()._actions
                          if hasattr(a, "choices") and a.choices)
        for name, sub in sub_action.choices.items():
            text = sub.format_help()
            for action in sub._actions:
                for opt in action.option_strings:
                    assert opt in text, f"{name} help misses {opt}"

    def test_unknown_flag_is_an_error(self, capsys):
        assert run("encode", "--bogus", "x") == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_an_error(self, capsys):
        assert run("frobnicate") == 1
        capsys.readouterr()

    def test_missing_subcommand_is_an_error(self, capsys):
        assert run() == 1
        capsys.readouterr()

    def test_eval_task_choices_are_the_task_table(self):
        sub_action = next(a for a in cli.build_parser()._actions
                          if hasattr(a, "choices") and a.choices)
        task = next(a for a in sub_action.choices["eval"]._actions
                    if a.dest == "task")
        assert tuple(task.choices) == tuple(cli.TASKS)

    def test_package_version_is_the_project_version(self):
        # a regex, not tomllib, which Python 3.10 lacks
        project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)",
                            PYPROJECT.read_text(encoding="utf-8"),
                            re.M | re.S).group(1)
        version = re.search(r'^version\s*=\s*"([^"]*)"', project, re.M)
        assert version.group(1) == chdzdt.__version__

    def test_console_script_runs(self, tmp_path):
        # Resolve the declared entry point in a child started away from the
        # checkout, importing the same package as this test; where the
        # package is installed, run its generated executable as well.
        code = RUN_ENTRY_POINT.format(value=console_script("chdzdt"))
        commands = [[sys.executable, "-c", code, "--help"]]
        if shutil.which("chdzdt"):
            commands.append(["chdzdt", "--help"])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(chdzdt.__file__).parents[1]), env.get("PYTHONPATH")]))
        sub_action = next(a for a in cli.build_parser()._actions
                          if hasattr(a, "choices") and a.choices)
        for command in commands:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  cwd=tmp_path, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith("usage: chdzdt")
            for name in sub_action.choices:
                assert name in proc.stdout


class TestPreprocess:

    def test_writes_expected_lexicon(self, lexicon):
        assert lexicon.read_text(encoding="utf-8") == GOLDEN_LEXICON

    def test_stats_and_manifest_beside_output(self, ws, lexicon):
        stats = json.loads((ws / "lex.tsv.stats.json").read_text())
        assert stats["total_words"] == 14
        assert stats["combinations"]["EN"] == 8
        assert stats["combinations"]["FR"] == 6
        assert stats["combinations"]["EN+FR"] == 0
        assert sum(stats["length_histogram"].values()) == 14
        manifest = json.loads((ws / "lex.tsv.manifest.json").read_text())
        assert manifest["subcommand"] == "preprocess"
        assert manifest["seed"] is None
        assert set(manifest["inputs"]) == {"labels", "corpus/en.txt",
                                           "corpus/fr.txt"}
        assert all(len(d) == 64 for d in manifest["inputs"].values())
        assert manifest["started"] <= manifest["finished"]

    def test_corpus_file_named_labels_keeps_the_map_digest(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "labels").write_text("dog cat\n", encoding="utf-8")
        (corpus / "fr.txt").write_text("chien chat\n", encoding="utf-8")
        labels = tmp_path / "map.json"
        labels.write_text(json.dumps({"labels": "EN", "fr.txt": "FR"}),
                          encoding="utf-8")
        out = tmp_path / "lex.tsv"
        assert run("preprocess", "--in", corpus, "--labels", labels,
                   "--out", out) == 0
        manifest = json.loads((tmp_path / "lex.tsv.manifest.json")
                              .read_text())

        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert manifest["inputs"] == {
            "labels": sha(labels), "corpus/labels": sha(corpus / "labels"),
            "corpus/fr.txt": sha(corpus / "fr.txt")}

    def test_empty_labels_map_errors_without_output(self, ws, tmp_path):
        labels = tmp_path / "labels.json"
        labels.write_text("{}", encoding="utf-8")
        out = tmp_path / "lex.tsv"
        assert run("preprocess", "--in", ws / "corpus", "--labels", labels,
                   "--out", out) == 2
        assert not out.exists()

    def test_missing_corpus_file_errors_without_output(self, ws, tmp_path,
                                                       capsys):
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"nope.txt": "EN"}), encoding="utf-8")
        out = tmp_path / "lex.tsv"
        assert run("preprocess", "--in", ws / "corpus", "--labels", labels,
                   "--out", out) == 2
        assert "nope.txt" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.glob("lex.tsv*"))

    def test_rerun_is_byte_identical(self, ws, lexicon, tmp_path):
        out = tmp_path / "again.tsv"
        assert run("preprocess", "--in", ws / "corpus",
                   "--labels", ws / "labels.json", "--out", out) == 0
        assert out.read_bytes() == lexicon.read_bytes()
        assert (tmp_path / "again.tsv.stats.json").read_bytes() == \
            (ws / "lex.tsv.stats.json").read_bytes()

    def test_overlong_word_dropped_and_stats_unchanged(self, ws, lexicon,
                                                      tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(ws / "corpus", corpus)
        with open(corpus / "en.txt", "a", encoding="utf-8") as fh:
            fh.write("dog " + "abcdefghijkl" * 3 + "\n")
        out = tmp_path / "lex.tsv"
        assert run("preprocess", "--in", corpus,
                   "--labels", ws / "labels.json", "--out", out) == 0
        assert "abcdefghijkl" not in out.read_text(encoding="utf-8")
        stats = json.loads((tmp_path / "lex.tsv.stats.json").read_text())
        assert stats == json.loads((ws / "lex.tsv.stats.json").read_text())

    def test_invalid_utf8_corpus_line_exits_two(self, ws, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(ws / "corpus", corpus)
        with open(corpus / "en.txt", "ab") as fh:
            fh.write(b"dog \xff cat\n")
        out = tmp_path / "lex.tsv"
        assert run("preprocess", "--in", corpus,
                   "--labels", ws / "labels.json", "--out", out) == 2
        assert "en.txt" in capsys.readouterr().err
        assert not list(tmp_path.glob("lex.tsv*"))


class TestPretrain:

    def test_checkpoint_loads_and_logs(self, ws, ckpt):
        state = load_checkpoint(ckpt)
        assert state.config.hidden == 8
        assert state.config.n_blocks == 1
        log = (ws / "enc.ckpt.trainlog.jsonl").read_text().splitlines()
        assert log
        assert {"step", "total", "mlm", "multilabel"} <= set(
            json.loads(log[-1]))
        manifest = json.loads((ws / "enc.ckpt.manifest.json").read_text())
        assert manifest["subcommand"] == "pretrain"
        assert manifest["config"]["model"]["hidden"] == 8
        assert manifest["seed"] == 0
        assert manifest["version"] == chdzdt.__version__
        assert manifest["blas_kernel"] == cli._blas_kernel()

    def test_checkpoint_bytes_independent_of_blas_env(self, tmp_path):
        # At d16 on the 500-word lexicon, a host with more than one core
        # threads the BLAS matmuls by default, and the sums round
        # differently; the package pins one thread unless the caller set
        # a count, which then wins.
        lexicon = tmp_path / "lex.tsv"
        write_lexicon(make_universe()[0], lexicon)
        code = RUN_ENTRY_POINT.format(value=console_script("chdzdt"))
        env = {k: v for k, v in os.environ.items()
               if k not in chdzdt.BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(chdzdt.__file__).parents[1]), env.get("PYTHONPATH")]))
        pinned = dict.fromkeys(chdzdt.BLAS_THREAD_VARS, "1")
        runs = {}
        for name, extra in (("unset", {}), ("one", pinned),
                            ("two", {"OPENBLAS_NUM_THREADS": "2"})):
            out = tmp_path / f"{name}.ckpt"
            proc = subprocess.run(
                [sys.executable, "-c", code, "pretrain", "--lexicon",
                 str(lexicon), "--out", str(out), "--hidden", "16",
                 "--epochs", "1", "--seed", "0"],
                capture_output=True, text=True, cwd=tmp_path,
                env={**env, **extra})
            assert proc.returncode == 0, proc.stderr
            manifest = json.loads(
                (tmp_path / f"{name}.ckpt.manifest.json").read_text())
            runs[name] = out.read_bytes(), manifest["blas_threads"]
        assert runs["unset"][0] == runs["one"][0]
        assert runs["unset"][1] == runs["one"][1] == pinned
        assert runs["two"][1] == {**pinned, "OPENBLAS_NUM_THREADS": "2"}

    def test_manifest_records_the_blas_kernel(self, tmp_path):
        # OpenBLAS reads OPENBLAS_CORETYPE when NumPy loads, so the
        # forced kernel needs a process of its own
        if cli._blas_kernel() is None:
            pytest.skip("NumPy's OpenBLAS does not name its kernel")
        lexicon = tmp_path / "lex.tsv"
        write_lexicon(make_universe()[0][:20], lexicon)
        code = RUN_ENTRY_POINT.format(value=console_script("chdzdt"))
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(chdzdt.__file__).parents[1]), env.get("PYTHONPATH")]))
        out = tmp_path / "m.ckpt"
        proc = subprocess.run(
            [sys.executable, "-c", code, "pretrain", "--lexicon",
             str(lexicon), "--out", str(out), "--hidden", "8",
             "--n-heads", "1", "--n-blocks", "1", "--epochs", "0"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**env, "OPENBLAS_CORETYPE": "Haswell"})
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
        assert manifest["blas_kernel"] == "Haswell"

    def test_epochs_zero_equals_init(self, ws, lexicon, tmp_path):
        out = tmp_path / "init.ckpt"
        assert run("pretrain", "--lexicon", lexicon, "--vocab",
                   ws / "vocab.json", "--out", out, "--n-blocks", 1,
                   "--n-heads", 2, "--hidden", 8, "--epochs", 0) == 0
        vocab = build_vocab([(97, 122)])
        state = EncoderState.init(
            ModelConfig(vocab_size=vocab.size, n_blocks=1, n_heads=2,
                        hidden=8), vocab)
        ref = tmp_path / "ref.ckpt"
        save_checkpoint(state, ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_same_seed_same_checkpoint_bytes(self, ws, lexicon, ckpt,
                                             tmp_path):
        out = tmp_path / "twin.ckpt"
        assert run("pretrain", "--lexicon", lexicon, "--vocab",
                   ws / "vocab.json", "--out", out, "--n-blocks", 1,
                   "--n-heads", 2, "--hidden", 8, "--epochs", 2,
                   "--batch-size", 8, "--seed", 0) == 0
        assert out.read_bytes() == ckpt.read_bytes()

    def test_flags_override_config_file(self, ws, lexicon, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"n_blocks": 2, "n_heads": 1,
                                   "hidden": 8}), encoding="utf-8")
        out = tmp_path / "o.ckpt"
        assert run("pretrain", "--lexicon", lexicon, "--vocab",
                   ws / "vocab.json", "--model-config", cfg, "--out", out,
                   "--hidden", 16, "--epochs", 0) == 0
        state = load_checkpoint(out)
        assert state.config.hidden == 16
        assert state.config.n_blocks == 2
        assert state.config.n_heads == 1

    def test_bad_config_field_exits_two(self, ws, lexicon, tmp_path,
                                        capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"n_layers": 2}), encoding="utf-8")
        out = tmp_path / "o.ckpt"
        assert run("pretrain", "--lexicon", lexicon, "--model-config", cfg,
                   "--out", out, "--epochs", 0) == 2
        assert "n_layers" in capsys.readouterr().err
        assert not out.exists()

    def test_label_head_width_other_than_the_label_set_exits_two(
            self, ws, lexicon, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"n_labels": 3}), encoding="utf-8")
        out = tmp_path / "o.ckpt"
        assert run("pretrain", "--lexicon", lexicon, "--vocab",
                   ws / "vocab.json", "--model-config", cfg, "--out", out,
                   "--n-blocks", 1, "--n-heads", 2, "--hidden", 8,
                   "--epochs", 1, "--batch-size", 8) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_labels" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("o.ckpt*"))

    def test_bad_lexicon_frequency_exits_two(self, ws, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text("dog\tEN\tEN:2\ncat\tEN\tEN:x\n", encoding="utf-8")
        out = tmp_path / "o.ckpt"
        assert run("pretrain", "--lexicon", lex, "--vocab",
                   ws / "vocab.json", "--out", out, "--epochs", 0) == 2
        assert f"{lex}:2" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_utf8_lexicon_exits_two(self, ws, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_bytes(b"dog\tEN\tEN:2\nc\xfft\tEN\tEN:1\n")
        out = tmp_path / "o.ckpt"
        assert run("pretrain", "--lexicon", lex, "--vocab",
                   ws / "vocab.json", "--out", out, "--epochs", 0) == 2
        assert str(lex) in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_weights_exit_three_without_checkpoint(
            self, ws, lexicon, tmp_path, monkeypatch, capsys):
        step = T.Adam.step

        def poisoned_step(self):
            step(self)
            self.params[0].data[0, 0] = np.nan

        monkeypatch.setattr(T.Adam, "step", poisoned_step)
        out = tmp_path / "o.ckpt"
        assert run("pretrain", "--lexicon", lexicon, "--vocab",
                   ws / "vocab.json", "--out", out, "--n-blocks", 1,
                   "--n-heads", 2, "--hidden", 8, "--epochs", 1,
                   "--batch-size", 16) == 3
        assert "non-finite weights" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_exits_three_without_checkpoint(self, tmp_path,
                                                          capsys):
        # the second step's matmuls overflow at lr 1e30
        lex = tmp_path / "lex.tsv"
        write_lexicon(make_universe()[0][:100], lex)
        out = tmp_path / "o.ckpt"
        assert run("pretrain", "--lexicon", lex, "--out", out, "--lr", 1e30,
                   "--epochs", 2, "--hidden", 8, "--n-heads", 1,
                   "--n-blocks", 1) == 3
        err = capsys.readouterr().err
        assert re.search(r"^numerical failure: non-finite", err, re.M)
        assert not list(tmp_path.glob("o.ckpt*"))

    @pytest.mark.parametrize("rows, line, reason", [
        ("wesh\tDZ\tXX:3\n", 1, "do not count exactly the labels"),
        ("wesh\tDZ\tDZ:3,DZ:4\n", 1, "do not count exactly the labels"),
        ("wesh\tDZ\tDZ:-5\n", 1, "below 1"),
        ("wesh\tDZ\tDZ:3\nwesh\tDZ\tDZ:1\n", 2, "listed twice")],
        ids=["other_label_counted", "label_counted_twice", "count_below_one",
             "repeated_word"])
    def test_bad_lexicon_row_exits_two_naming_its_line(self, ws, tmp_path,
                                                       capsys, rows, line,
                                                       reason):
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text(rows, encoding="utf-8")
        out = tmp_path / "o.ckpt"
        assert run("pretrain", "--lexicon", lexicon, "--vocab",
                   ws / "vocab.json", "--out", out, "--epochs", 1) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {lexicon}:{line}: ") and reason in err
        assert not list(tmp_path.glob("o.ckpt*"))

    def test_numerical_failure_exits_three(self, monkeypatch, capsys):
        def blow_up(args):
            raise NumericalError("non-finite loss at step 7")

        monkeypatch.setattr(cli, "cmd_pretrain", blow_up)
        assert run("pretrain", "--lexicon", "x", "--out", "y") == 3
        assert "non-finite" in capsys.readouterr().err


def _argv_reading(flag, path, ws, lexicon, ckpt, out):
    """A command line whose `flag` input is `path`; every other input is
    good. A repeated flag overrides the earlier one."""
    if flag in ("--labels", "--rules"):
        argv = ["preprocess", "--in", ws / "corpus",
                "--labels", ws / "labels.json"]
    elif flag in ("--vocab", "--model-config", "--train-config"):
        argv = ["pretrain", "--lexicon", lexicon]
    elif flag == "--params":
        argv = ["eval", "--task", "morph", "--embedder", ckpt,
                "--data", ws / "clusters.tsv"]
    elif flag in ("--grid", "--eval-params"):
        argv = ["ablation", "--lexicon", lexicon, "--vocab",
                ws / "vocab.json", "--evals", "morph",
                "--clusters", ws / "clusters.tsv"]
    else:
        argv = ["encode", "--ckpt", ckpt]
    return argv + ["--out", out, flag, path]


JSON_INPUTS = {"--labels": b"[]", "--rules": b"[]", "--vocab": b"[]",
               "--model-config": b"[]", "--train-config": b"[]",
               "--params": b"[]", "--grid": b"{}", "--eval-params": b"[]"}
BAD_INPUTS = [(flag, kind) for flag in [*JSON_INPUTS, "--words"]
              for kind in ("missing", "invalid_utf8", "wrong_json_type")
              if flag in JSON_INPUTS or kind != "wrong_json_type"]


class TestInputs:

    @pytest.mark.parametrize("flag, kind", BAD_INPUTS,
                             ids=[f"{f[2:]}-{k}" for f, k in BAD_INPUTS])
    def test_bad_input_file_exits_two_naming_it(self, ws, lexicon, ckpt,
                                                tmp_path, capsys, flag,
                                                kind):
        bad = tmp_path / "input"
        if kind == "invalid_utf8":
            bad.write_bytes(b'{"dar": "\xff"}\n')
        elif kind == "wrong_json_type":
            bad.write_bytes(JSON_INPUTS[flag])
        out = tmp_path / "out"
        assert run(*_argv_reading(flag, bad, ws, lexicon, ckpt, out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: ") and str(bad) in line
                   for line in err), err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("flag, content, key", [
        ("--rules", {"char_unifcation": {"x": "y"}}, "char_unifcation"),
        ("--vocab", {"ranges": [[97, 122]], "extra": ["-"]}, "extra"),
        ("--labels", {"en.txt": "EN",
                      "fr.txt": {"label": "FR", "knd": "social"}}, "knd")],
        ids=["rules", "vocab", "labels_entry"])
    def test_unknown_key_exits_two_without_output(self, ws, lexicon, ckpt,
                                                  tmp_path, capsys, flag,
                                                  content, key):
        # a misspelled key was once ignored: its setting silently took
        # the default
        bad = tmp_path / "input.json"
        bad.write_text(json.dumps(content), encoding="utf-8")
        out = tmp_path / "out"
        assert run(*_argv_reading(flag, bad, ws, lexicon, ckpt, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("flag, content, named", [
        ("--grid", [{"hidden": 8}, 1], "entry 1"),
        ("--eval-params", {"morph": 3}, "entry 'morph'")],
        ids=["grid_entry", "eval_params_entry"])
    def test_entry_that_is_not_an_object_exits_two(self, ws, lexicon, ckpt,
                                                   tmp_path, capsys, flag,
                                                   content, named):
        bad = tmp_path / "input.json"
        bad.write_text(json.dumps(content), encoding="utf-8")
        out = tmp_path / "out"
        assert run(*_argv_reading(flag, bad, ws, lexicon, ckpt, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, content, field", [
        ("--train-config", {"epochs": 1.5}, "epochs"),
        ("--train-config", {"batch_size": 2.5}, "batch_size"),
        ("--train-config", {"epochs": "x"}, "epochs"),
        ("--model-config", {"hidden": "8"}, "hidden"),
        ("--grid", [{"n_heads": 1.0}], "n_heads")],
        ids=["float_epochs", "float_batch_size", "string_epochs",
             "string_hidden", "float_grid_heads"])
    def test_wrong_typed_config_field_exits_two(self, ws, lexicon, ckpt,
                                                tmp_path, capsys, flag,
                                                content, field):
        cfg = tmp_path / "input.json"
        cfg.write_text(json.dumps(content), encoding="utf-8")
        out = tmp_path / "out"
        assert run(*_argv_reading(flag, cfg, ws, lexicon, ckpt, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(field) in err
        assert not out.exists()


class TestOutputFiles:

    def test_outputs_get_plain_open_mode_and_leave_no_temp(self, ws,
                                                           lexicon, ckpt,
                                                           tmp_path):
        probe = tmp_path / "plain"
        with open(probe, "w"):
            pass
        outputs = [lexicon, Path(f"{lexicon}.stats.json"),
                   Path(f"{lexicon}.manifest.json"), ckpt,
                   Path(f"{ckpt}.trainlog.jsonl"),
                   Path(f"{ckpt}.manifest.json")]
        modes = {p.name: p.stat().st_mode & 0o777 for p in outputs}
        assert set(modes.values()) == {probe.stat().st_mode & 0o777}, modes
        assert not list(ws.glob("*.tmp"))


class TestEncode:

    def test_roundtrip_matches_checkpoint_metrics(self, ws, ckpt, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("dog\ndogs\ncat\ncats\nrun\nruns\nrunning\n",
                         encoding="utf-8")
        out = tmp_path / "emb.tsv"
        assert run("encode", "--ckpt", ckpt, "--words", words,
                   "--out", out) == 0
        clusters = [("dog", ["dog", "dogs"]), ("cat", ["cat", "cats"]),
                    ("run", ["runs", "running"])]
        direct = acs(CheckpointEmbedder.from_file(ckpt), clusters)
        via_tsv = acs(TsvEmbedder.from_file(out), clusters)
        assert via_tsv == direct

    def test_reserved_code_point_encodes_as_unknown(self, ckpt, tmp_path):
        # U+E002 is the MASK token's code point, but in a word it is text:
        # an undeclared character like Q, not an injected MASK
        words = tmp_path / "words.txt"
        words.write_text("d\ue002g\ndQg\n", encoding="utf-8")
        out = tmp_path / "emb.tsv"
        assert run("encode", "--ckpt", ckpt, "--words", words,
                   "--out", out) == 0
        rows = [line.split("\t") for line in
                out.read_text(encoding="utf-8").splitlines()[1:]]
        assert [row[0] for row in rows] == ["d\ue002g", "dQg"]
        assert rows[0][1:] == rows[1][1:]

    def test_empty_input_writes_header_only(self, ckpt, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(b"\n\n"))
        out = tmp_path / "emb.tsv"
        assert run("encode", "--ckpt", ckpt, "--words", "-",
                   "--out", out) == 0
        assert out.read_text(encoding="utf-8") == "#dim 8\n"

    def test_skips_are_warned_and_counted(self, ckpt, tmp_path, monkeypatch,
                                          caplog):
        monkeypatch.setattr("sys.stdin",
                            _stdin(b"dog\ndog\ntwo words\ncat\n"))
        out = tmp_path / "emb.tsv"
        assert run("encode", "--ckpt", ckpt, "--words", "-",
                   "--out", out) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3 and lines[0] == "#dim 8"
        assert [l.split("\t")[0] for l in lines[1:]] == ["dog", "cat"]
        assert "duplicate" in caplog.text and "not a single word" \
            in caplog.text
        manifest = json.loads(
            (tmp_path / "emb.tsv.manifest.json").read_text())
        assert manifest["config"]["n_written"] == 2
        assert manifest["config"]["n_skipped"] == 2

    def test_stdin_digest_is_of_the_bytes_read(self, ckpt, tmp_path,
                                               monkeypatch):
        data = "wesh\r\nشمس\n".encode("utf-8")
        monkeypatch.setattr("sys.stdin", _stdin(data))
        out = tmp_path / "emb.tsv"
        assert run("encode", "--ckpt", ckpt, "--words", "-",
                   "--out", out) == 0
        manifest = json.loads(
            (tmp_path / "emb.tsv.manifest.json").read_text())
        assert manifest["config"]["stdin_sha256"] == \
            hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_stdin_not_utf8_exits_two(self, ckpt, tmp_path, monkeypatch,
                                      capsys, errors):
        monkeypatch.setattr("sys.stdin",
                            _stdin(b"wesh\n\xff\xfe\n", errors=errors))
        out = tmp_path / "emb.tsv"
        assert run("encode", "--ckpt", ckpt, "--words", "-",
                   "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_missing_checkpoint_exits_two(self, tmp_path):
        assert run("encode", "--ckpt", tmp_path / "nope.ckpt",
                   "--words", "-", "--out", tmp_path / "o.tsv") == 2


class TestEval:

    def test_morph_report_schema(self, ws, ckpt, tmp_path):
        out = tmp_path / "morph.json"
        assert run("eval", "--task", "morph", "--embedder", ckpt,
                   "--data", ws / "clusters.tsv", "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["task"] == "morph"
        assert payload["mode"] is None
        assert {"acs", "aed", "silhouette", "ari"} <= set(
            payload["results"])

    def test_rerun_is_byte_identical(self, ws, ckpt, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("eval", "--task", "morph", "--embedder", ckpt,
                       "--data", ws / "clusters.tsv", "--out", out,
                       "--seed", 7) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_finetune_writes_checkpoint_beside_report(self, ws, ckpt,
                                                      tmp_path):
        out = tmp_path / "tag.json"
        assert run("eval", "--task", "tag", "--embedder", ckpt,
                   "--data", ws / "tag.tsv", "--mode", "finetune",
                   "--out", out, "--epochs", 2, "--seed", 0) == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "finetune"
        side = tmp_path / "tag.ckpt"
        assert payload["finetuned_checkpoint"] == str(side)
        tuned = load_checkpoint(side)
        assert tuned.config.to_dict() == load_checkpoint(
            ckpt).config.to_dict()
        # a finetune that updated a copy of the weights would save them unchanged
        assert side.read_bytes() != ckpt.read_bytes()

    def test_tsv_embedder_finetune_rejected(self, ws, ckpt, tmp_path,
                                            capsys):
        emb = tmp_path / "emb.tsv"
        words = tmp_path / "w.txt"
        words.write_text("dog\ndogs\ncat\ncats\nchien\nchiens\nchat\n"
                         "les\nran\nruns\n", encoding="utf-8")
        assert run("encode", "--ckpt", ckpt, "--words", words,
                   "--out", emb) == 0
        out = tmp_path / "tag.json"
        assert run("eval", "--task", "tag", "--embedder", emb,
                   "--data", ws / "tag.tsv", "--mode", "finetune",
                   "--out", out) == 2
        assert "frozen" in capsys.readouterr().err
        assert not out.exists()

    def test_finetune_on_frozen_only_task_is_usage_error(self, ws, ckpt,
                                                         tmp_path, capsys):
        assert run("eval", "--task", "morph", "--embedder", ckpt,
                   "--data", ws / "clusters.tsv", "--mode", "finetune",
                   "--out", tmp_path / "o.json") == 1
        assert "finetune" in capsys.readouterr().err

    def test_unknown_task_param_exits_two(self, ws, ckpt, tmp_path, capsys):
        assert run("eval", "--task", "morph", "--embedder", ckpt,
                   "--data", ws / "clusters.tsv",
                   "--out", tmp_path / "o.json", "--count", 3) == 2
        assert "count" in capsys.readouterr().err

    @pytest.mark.parametrize("task, params", [
        ("morph", {"seed": "x"}), ("noise", {"count": 1.5}),
        ("morph", {"seed": True})],
        ids=["string_seed", "float_count", "bool_seed"])
    def test_wrong_typed_task_param_exits_two(self, ws, ckpt, tmp_path,
                                              capsys, task, params):
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(params), encoding="utf-8")
        out = tmp_path / "o.json"
        assert run("eval", "--task", task, "--embedder", ckpt,
                   "--data", ws / "clusters.tsv", "--out", out,
                   "--params", params_file) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(next(iter(params))) in err
        assert not list(tmp_path.glob("o.json*"))

    def test_non_finite_report_exits_three_without_report(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        # the readers refuse non-finite inputs, so the NaN comes from the
        # task itself
        monkeypatch.setattr(cli, "similarity_corr",
                            lambda e, d: {"pearson": float("nan")})
        emb = tmp_path / "emb.tsv"
        emb.write_text("#dim 2\nqalb\t1.0 0.5\nrouh\t0.3 1.0\n"
                       "dar\t0.2 0.9\nbab\t0.7 0.1\n", encoding="utf-8")
        pairs = tmp_path / "sim.tsv"
        pairs.write_text("qalb\trouh\t3.5\ndar\tbab\t1.0\n"
                         "qalb\tdar\t2.0\n", encoding="utf-8")
        out = tmp_path / "sim.json"
        assert run("eval", "--task", "sim", "--embedder", emb,
                   "--data", pairs, "--out", out) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not list(tmp_path.glob("sim.json*"))

    @pytest.mark.parametrize("vector, score, where", [
        ("nan 1.0", "3.5", "emb.tsv:3"), ("1e999 1.0", "3.5", "emb.tsv:3"),
        ("0.3 1.0", "nan", "sim.tsv:1")],
        ids=["nan_vector", "overflowing_vector", "nan_score"])
    def test_non_finite_input_exits_two_without_report(self, tmp_path,
                                                       capsys, vector,
                                                       score, where):
        emb = tmp_path / "emb.tsv"
        emb.write_text(f"#dim 2\nqalb\t1.0 0.5\nrouh\t{vector}\n"
                       "dar\t0.2 0.9\nbab\t0.7 0.1\n", encoding="utf-8")
        pairs = tmp_path / "sim.tsv"
        pairs.write_text(f"qalb\trouh\t{score}\ndar\tbab\t1.0\n"
                         "qalb\tdar\t2.0\n", encoding="utf-8")
        out = tmp_path / "sim.json"
        assert run("eval", "--task", "sim", "--embedder", emb,
                   "--data", pairs, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / where}: non-finite")
        assert not list(tmp_path.glob("sim.json*"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_probe_exits_three_without_report(self, ws, ckpt,
                                                        tmp_path, capsys):
        out = tmp_path / "o.json"
        assert run("eval", "--task", "probe", "--embedder", ckpt,
                   "--data", ws / "affix.tsv", "--out", out,
                   "--lr", 1e308, "--epochs", 20) == 3
        assert "non-finite loss" in capsys.readouterr().err
        assert not list(tmp_path.glob("o.json*"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["WAdd", "WMul", "MpAdd", "MpCnc"])
    def test_diverging_compose_exits_three_without_report(self, ws, ckpt,
                                                          tmp_path, capsys,
                                                          kind):
        # one step at lr 1e308 overflows the trained fields
        out = tmp_path / "o.json"
        assert run("eval", "--task", "compose", "--kind", kind,
                   "--embedder", ckpt, "--data", ws / "compose.tsv",
                   "--out", out, "--lr", 1e308, "--epochs", 1) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        if kind == "MpCnc":
            # its weights stay finite; the composed vectors overflow
            assert "MpCnc: composed vectors" in err
        assert not list(tmp_path.glob("o.json*"))

    def test_header_only_embedder_exits_two_naming_it(self, tmp_path,
                                                      capsys):
        emb = tmp_path / "emb.tsv"
        emb.write_text("#dim 2\n", encoding="utf-8")
        pairs = tmp_path / "sim.tsv"
        pairs.write_text("qalb\trouh\t3.5\n", encoding="utf-8")
        out = tmp_path / "sim.json"
        assert run("eval", "--task", "sim", "--embedder", emb,
                   "--data", pairs, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {emb}: ") and "empty" in err
        assert not list(tmp_path.glob("sim.json*"))

    @pytest.mark.parametrize("task, mode, data, line", [
        ("morph", "frozen", "dog\tdog\tdogs\ncat\tcats\t \n", 2),
        ("sim", "frozen", "dog\tdogs\t3\ncat\t \t2\nrun\truns\t1\n", 2),
        ("pos", "frozen", "the\tDET\n \tNOUN\n\ndog\tNOUN\n", 2),
        ("pos", "finetune", "the\tDET\n\ndog\tNOUN\n  \tX\n", 4)],
        ids=["morph", "sim", "pos_frozen", "pos_finetune"])
    def test_blank_word_field_exits_two_naming_line(self, ckpt, tmp_path,
                                                    capsys, task, mode,
                                                    data, line):
        path = tmp_path / "data.tsv"
        path.write_text(data, encoding="utf-8")
        out = tmp_path / "r.json"
        assert run("eval", "--task", task, "--mode", mode, "--embedder",
                   ckpt, "--data", path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: expected")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("content", [None, b"#dim 2\nqalb\t1.0 0.5\n\xff\n"],
                             ids=["missing", "invalid_utf8"])
    def test_unreadable_embedder_exits_two(self, tmp_path, capsys, content):
        emb = tmp_path / "emb.tsv"
        if content is not None:
            emb.write_bytes(content)
        pairs = tmp_path / "sim.tsv"
        pairs.write_text("qalb\trouh\t3.5\n", encoding="utf-8")
        out = tmp_path / "sim.json"
        assert run("eval", "--task", "sim", "--embedder", emb,
                   "--data", pairs, "--out", out) == 2
        assert f"cannot read {emb}" in capsys.readouterr().err
        assert not list(tmp_path.glob("sim.json*"))

    def test_failure_leaves_no_report(self, ws, ckpt, tmp_path):
        out = tmp_path / "o.json"
        bad = tmp_path / "bad.tsv"
        bad.write_text("dog\n", encoding="utf-8")
        assert run("eval", "--task", "morph", "--embedder", ckpt,
                   "--data", bad, "--out", out) == 2
        assert not out.exists()
        assert not list(tmp_path.glob("o.json*"))


class TestAblation:

    def test_two_variant_sweep_artifacts(self, ws, lexicon, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([
            {"n_blocks": 1, "n_heads": 1, "hidden": 8},
            {"n_blocks": 1, "n_heads": 2, "hidden": 8}]), encoding="utf-8")
        out = tmp_path / "sweep"
        assert run("ablation", "--grid", grid, "--lexicon", lexicon,
                   "--vocab", ws / "vocab.json", "--evals", "morph",
                   "--clusters", ws / "clusters.tsv", "--out", out,
                   "--epochs", 1, "--batch-size", 8, "--seed", 0) == 0
        for name in ("N1-H1-d8", "N1-H2-d8"):
            assert load_checkpoint(out / f"{name}.ckpt").config.hidden == 8
        report = json.loads((out / "ablation.json").read_text())
        assert [v["variant"] for v in report["variants"]] == \
            ["N1-H1-d8", "N1-H2-d8"]
        assert report["n_failed"] == 0
        import csv as csvmod
        with open(out / "ablation.csv", encoding="utf-8") as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert float(row["params"]) > 0
            assert float(row["wall_time"]) > 0
            assert float(row["samples_per_sec"]) > 0
            assert 0.0 <= float(row["morph_acs"]) <= 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "ablation"
        assert manifest["config"]["grid"] == ["N1-H1-d8", "N1-H2-d8"]

    def test_partial_failure_marks_row_and_exits_two(self, ws, lexicon,
                                                     tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([
            {"n_blocks": 1, "n_heads": 1, "hidden": 8},
            {"n_blocks": 2, "n_heads": 1, "hidden": 8,
             "vocab_size": 9999}]), encoding="utf-8")
        out = tmp_path / "sweep"
        assert run("ablation", "--grid", grid, "--lexicon", lexicon,
                   "--vocab", ws / "vocab.json", "--evals", "morph",
                   "--clusters", ws / "clusters.tsv", "--out", out,
                   "--epochs", 1, "--seed", 0) == 2
        assert "1 of 2" in capsys.readouterr().err
        report = json.loads((out / "ablation.json").read_text())
        assert report["n_failed"] == 1
        failed = report["table"][1]
        assert failed["morph_acs"] == "failed"
        assert failed["wall_time"] == "failed"

    def test_missing_task_data_is_usage_error(self, ws, lexicon, tmp_path,
                                              capsys):
        out = tmp_path / "sweep"
        assert run("ablation", "--lexicon", lexicon, "--vocab",
                   ws / "vocab.json", "--evals", "tag", "--out", out,
                   "--epochs", 1) == 1
        assert "--tag-data" in capsys.readouterr().err
        assert not (out / "ablation.json").exists()

    def test_unknown_eval_task_rejected(self, ws, lexicon, tmp_path,
                                        capsys):
        out = tmp_path / "sweep"
        assert run("ablation", "--lexicon", lexicon, "--vocab",
                   ws / "vocab.json", "--evals", "parsing", "--out", out,
                   "--epochs", 1) == 1
        assert "unknown eval tasks" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_variants_exit_two_without_out_dir(self, ws, lexicon,
                                                         tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            [{"hidden": 8, "n_blocks": 1, "n_heads": 1}] * 2),
            encoding="utf-8")
        out = tmp_path / "sweep"
        assert run("ablation", "--grid", grid, "--lexicon", lexicon,
                   "--vocab", ws / "vocab.json", "--evals", "morph",
                   "--clusters", ws / "clusters.tsv", "--out", out,
                   "--epochs", 1) == 2
        assert "error: duplicate grid variants ['N1-H1-d8']" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_bad_eval_params_rejected_before_training(self, ws, lexicon,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        import chdzdt.evalsuite.ablation as ablation

        def no_training(*args, **kwargs):
            raise AssertionError("a variant trained")

        monkeypatch.setattr(ablation, "train", no_training)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([
            {"n_blocks": 1, "n_heads": 1, "hidden": 8},
            {"n_blocks": 1, "n_heads": 2, "hidden": 8}]), encoding="utf-8")
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"morph": {"bogus": 1}}),
                          encoding="utf-8")
        out = tmp_path / "sweep"
        assert run("ablation", "--grid", grid, "--lexicon", lexicon,
                   "--vocab", ws / "vocab.json", "--evals", "morph",
                   "--clusters", ws / "clusters.tsv", "--eval-params",
                   params, "--out", out, "--epochs", 1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bogus" in err
        assert not out.exists()

    def test_eval_params_key_outside_tasks_rejected_before_training(
            self, ws, lexicon, tmp_path, capsys, monkeypatch):
        import chdzdt.evalsuite.ablation as ablation

        trained = []
        real_train = ablation.train

        def spy(*args, **kwargs):
            trained.append(args)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(ablation, "train", spy)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n_blocks": 1, "n_heads": 1,
                                     "hidden": 8}]), encoding="utf-8")
        params = tmp_path / "params.json"

        def sweep(keys, out):
            params.write_text(json.dumps(keys), encoding="utf-8")
            return run("ablation", "--grid", grid, "--lexicon", lexicon,
                       "--vocab", ws / "vocab.json", "--evals", "morph",
                       "--clusters", ws / "clusters.tsv", "--eval-params",
                       params, "--out", out, "--epochs", 1)

        bad = tmp_path / "bad"
        assert sweep({"morf": {"seed": "x"}}, bad) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "morf" in err
        assert not trained and not bad.exists()
        # a real ablation task missing from --evals keeps a shared file valid
        good = tmp_path / "good"
        assert sweep({"tag": {"shared_dim": 4}}, good) == 0
        assert len(trained) == 1
        assert (good / "ablation.json").exists()

    def test_train_config_seed_reaches_training_and_manifest(
            self, ws, lexicon, tmp_path, monkeypatch):
        import chdzdt.evalsuite.ablation as ablation

        seeds = []
        real_train = ablation.train

        def spy(lexicon, config, train_config, vocab):
            seeds.append(train_config.seed)
            return real_train(lexicon, config, train_config, vocab)

        monkeypatch.setattr(ablation, "train", spy)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n_blocks": 1, "n_heads": 1,
                                     "hidden": 8}]), encoding="utf-8")
        train = tmp_path / "train.json"
        train.write_text(json.dumps({"seed": 7, "epochs": 0}),
                         encoding="utf-8")

        def sweep(out, *flags):
            assert run("ablation", "--grid", grid, "--lexicon", lexicon,
                       "--vocab", ws / "vocab.json", "--evals", "morph",
                       "--clusters", ws / "clusters.tsv",
                       "--train-config", train, "--out", out, *flags) == 0
            return json.loads((out / "manifest.json").read_text())["seed"]

        assert sweep(tmp_path / "config") == 7 and seeds == [7]
        assert sweep(tmp_path / "flag", "--seed", 9) == 9 and seeds[1:] == [9]


# the function each task's runner calls, by its name in chdzdt.cli
TASK_FUNCTIONS = {"morph": "cluster_report", "noise": "noise_report",
                  "probe": "probe_train", "compose": "compose_fit",
                  "sim": "similarity_corr", "tag": "morph_tagger",
                  "pos": "pos_tagger", "sa": "sentiment_classifier"}


class TestTaskTable:

    def test_ablation_tasks_are_the_flagged_entries(self):
        assert cli.ABLATION_TASKS == ("morph", "noise", "tag", "pos", "sa")

    @pytest.mark.parametrize("task", list(TASK_FUNCTIONS))
    def test_params_are_keywords_of_the_task_function(self, task):
        keywords = inspect.signature(
            getattr(cli, TASK_FUNCTIONS[task])).parameters
        assert set(cli.TASKS[task].params) <= set(keywords)

    def test_every_task_is_covered(self):
        assert set(TASK_FUNCTIONS) == set(cli.TASKS)


# out-of-range task parameters that used to escape as tracebacks, or (pos
# epochs) ran an untrained tagger with exit 0
BOUND_CASES = [
    ("noise", ["--count", 0], {}, "count"),
    ("morph", ["--seed", -1], {}, "seed"),
    ("noise", ["--seed", -1], {}, "seed"),
    ("pos", [], {"max_words": 0}, "max_words"),
    ("pos", [], {"gru_hidden": 0}, "gru_hidden"),
    ("sa", [], {"dense_dim": 0}, "dense_dim"),
    ("pos", ["--epochs", -1], {}, "epochs"),
    ("probe", ["--lr", "inf"], {}, "lr"),
    ("compose", [], {"lr": math.inf}, "lr"),
]


class TestParamBounds:

    @pytest.mark.parametrize(
        "task, flags, params, key", BOUND_CASES,
        ids=[f"{t}-{k}" for t, _, _, k in BOUND_CASES])
    def test_out_of_range_task_param_exits_two(self, ws, ckpt, tmp_path,
                                               capsys, task, flags, params,
                                               key):
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(params), encoding="utf-8")
        out = tmp_path / "o.json"
        assert run("eval", "--task", task, "--embedder", ckpt,
                   "--data", ws / TASK_DATA[task][0], "--out", out,
                   "--params", params_file, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not list(tmp_path.glob("o.json*"))

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_pretrain_lr_exits_two(self, ws, lexicon, tmp_path,
                                              capsys, lr):
        # it used to train a step and exit 3 on the non-finite loss
        out = tmp_path / "o.ckpt"
        assert run("pretrain", "--lexicon", lexicon, "--vocab",
                   ws / "vocab.json", "--out", out, "--lr", lr,
                   "--epochs", 1) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "lr" in captured.err
        assert "step" not in captured.err and not captured.out
        assert not list(tmp_path.glob("o.ckpt*"))

    @pytest.mark.parametrize("where", ["flag", "model_config"])
    def test_negative_pretrain_seed_exits_two(self, ws, lexicon, tmp_path,
                                              capsys, where):
        out = tmp_path / "o.ckpt"
        argv = ["pretrain", "--lexicon", lexicon, "--vocab",
                ws / "vocab.json", "--out", out, "--epochs", 0]
        if where == "flag":
            argv += ["--seed", -1]
        else:
            cfg = tmp_path / "model.json"
            cfg.write_text(json.dumps({"seed": -1}), encoding="utf-8")
            argv += ["--model-config", cfg]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert not list(tmp_path.glob("o.ckpt*"))

    # each size makes the first array it scales larger than the 128 TiB
    # user address space, so the allocation fails at once on any host:
    # pos's [8, 10^14] and tag's [8, 10^14] float64 first weights, and
    # pretrain's [vocab, 10^13] character or [10^13 + 1, 16] position
    # embedding
    @pytest.mark.parametrize("task, params", [
        ("pos", {"gru_hidden": 10**14}), ("tag", {"shared_dim": 10**14})])
    def test_unallocatable_eval_size_exits_two(self, ws, ckpt, tmp_path,
                                               capsys, task, params):
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(params), encoding="utf-8")
        out = tmp_path / "o.json"
        assert run("eval", "--task", task, "--embedder", ckpt,
                   "--data", ws / TASK_DATA[task][0], "--out", out,
                   "--params", params_file) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ")
        assert "Traceback" not in err
        assert not list(tmp_path.glob("o.json*"))

    @pytest.mark.parametrize("model", [{"hidden": 10**13},
                                       {"max_chars": 10**13}])
    def test_unallocatable_model_size_exits_two(self, ws, lexicon, tmp_path,
                                                capsys, model):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(model), encoding="utf-8")
        out = tmp_path / "o.ckpt"
        assert run("pretrain", "--lexicon", lexicon, "--vocab",
                   ws / "vocab.json", "--out", out, "--model-config", cfg,
                   "--epochs", 1) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: out of memory: ")
        assert not captured.out
        assert not list(tmp_path.glob("o.ckpt*"))


class TestManifestInputs:

    @pytest.fixture
    def configs(self, ws, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"n_blocks": 1, "n_heads": 1,
                                     "hidden": 8}), encoding="utf-8")
        train = tmp_path / "train.json"
        train.write_text(json.dumps({"epochs": 0}), encoding="utf-8")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"n_blocks": 1, "n_heads": 1,
                                     "hidden": 8}]), encoding="utf-8")
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"morph": {"seed": 1}}),
                          encoding="utf-8")
        return {"model_config": model, "train_config": train,
                "grid": grid, "eval_params": params,
                "vocab": ws / "vocab.json"}

    @staticmethod
    def inputs(path) -> set:
        return set(json.loads(Path(path).read_text())["inputs"])

    def test_pretrain_inputs(self, lexicon, tmp_path, configs):
        out = tmp_path / "bare.ckpt"
        assert run("pretrain", "--lexicon", lexicon, "--out", out,
                   "--n-blocks", 1, "--n-heads", 1, "--hidden", 8,
                   "--epochs", 0) == 0
        assert self.inputs(f"{out}.manifest.json") == {"lexicon"}
        out = tmp_path / "full.ckpt"
        names = ("model_config", "train_config", "vocab")
        flags = [a for n in names for a in (f"--{n.replace('_', '-')}",
                                            configs[n])]
        assert run("pretrain", "--lexicon", lexicon, "--out", out,
                   *flags) == 0
        assert self.inputs(f"{out}.manifest.json") == {"lexicon", *names}

    def test_ablation_inputs(self, ws, lexicon, tmp_path, configs,
                             monkeypatch):
        one_variant = json.loads(configs["grid"].read_text())[0]
        monkeypatch.setattr(cli, "default_grid", lambda size: [
            ModelConfig(vocab_size=size, **one_variant)])
        common = ["ablation", "--lexicon", lexicon, "--evals", "morph",
                  "--clusters", ws / "clusters.tsv", "--epochs", 0]
        assert run(*common, "--out", tmp_path / "bare") == 0
        assert self.inputs(tmp_path / "bare" / "manifest.json") == \
            {"lexicon", "clusters"}
        names = ("grid", "train_config", "vocab", "eval_params")
        flags = [a for n in names for a in (f"--{n.replace('_', '-')}",
                                            configs[n])]
        assert run(*common, *flags, "--out", tmp_path / "full") == 0
        assert self.inputs(tmp_path / "full" / "manifest.json") == \
            {"lexicon", "clusters", *names}


# small widths and few epochs, so that one example runs in a fraction of
# a second; a drawn value replaces the one here
SMALL_PARAMS = {"probe": {"epochs": 3}, "compose": {"kind": "MpAdd",
                                                    "epochs": 3},
                "tag": {"shared_dim": 3, "epochs": 2},
                "pos": {"gru_hidden": 2, "dense_dim": 3, "epochs": 2},
                "sa": {"gru_hidden": 2, "dense_dim": 3, "epochs": 2}}
ODD_FLOATS = st.sampled_from([1e30, float("inf"), float("nan")])
PARAM_VALUES = {
    "seed": st.integers(-2, 3) | st.just(2 ** 64),
    "fraction": st.floats(0.05, 0.95) | st.sampled_from([0.0, 1.0, -1.0]),
    "kind": st.sampled_from(["Add", "Mul", "WAdd", "WMul", "MpCnc",
                             "MpAdd", "Cat"]),
    "objective": st.sampled_from(["mse", "cosine", "hinge"]),
    int: st.integers(-2, 4),
    float: st.floats(-2, 2) | ODD_FLOATS,
}


def task_params(task):
    types = cli.TASKS[task].params
    return st.fixed_dictionaries({}, optional={
        key: PARAM_VALUES.get(key, PARAM_VALUES.get(types[key]))
        for key in types})


class TestParamsFuzz:

    @pytest.mark.parametrize("task", list(cli.TASKS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_task_params_exit_with_a_code(self, ws, ckpt, task, data):
        params = {**SMALL_PARAMS.get(task, {}),
                  **data.draw(task_params(task))}
        work = ws / "fuzz"
        work.mkdir(exist_ok=True)
        (work / "params.json").write_text(json.dumps(params),
                                          encoding="utf-8")
        assert run("eval", "--task", task, "--embedder", ckpt,
                   "--data", ws / TASK_DATA[task][0],
                   "--out", work / "o.json",
                   "--params", work / "params.json") in (0, 1, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ablation_eval_params_exit_zero_or_two(self, ws, lexicon,
                                                    tmp_path_factory, data):
        import chdzdt.evalsuite.ablation as ablation

        evals = data.draw(st.lists(st.sampled_from(cli.ABLATION_TASKS),
                                   min_size=1, max_size=2, unique=True))
        drawn = data.draw(st.fixed_dictionaries({}, optional={
            name: task_params(name) | st.just([])
            for name in cli.ABLATION_TASKS}))
        # each task in --evals runs at SMALL_PARAMS where nothing is drawn
        params = {**drawn, **{name: {**SMALL_PARAMS.get(name, {}),
                                     **drawn.get(name, {})}
                              for name in evals
                              if isinstance(drawn.get(name, {}), dict)}}
        work = tmp_path_factory.mktemp("ablation-fuzz")
        grid = work / "grid.json"
        grid.write_text(json.dumps([{"n_blocks": 1, "n_heads": 1,
                                     "hidden": 8}]), encoding="utf-8")
        (work / "params.json").write_text(json.dumps(params),
                                          encoding="utf-8")
        data_flags = {cli.TASKS[name].flag: ws / TASK_DATA[name][0]
                      for name in evals}
        trained = []
        real_train = ablation.train

        def spy(*args):
            trained.append(args)
            return real_train(*args)

        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, redirect_stderr(err):
            mp.setattr(ablation, "train", spy)
            code = run("ablation", "--grid", grid, "--lexicon", lexicon,
                       "--vocab", ws / "vocab.json",
                       "--evals", ",".join(evals),
                       *(a for pair in data_flags.items() for a in pair),
                       "--eval-params", work / "params.json",
                       "--out", work / "sweep", "--epochs", 0)
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        if not trained:
            assert code == 2 and err.getvalue().startswith("error: ")
            assert not (work / "sweep").exists()
