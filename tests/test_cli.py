"""End-to-end command-line tests: exit codes, outputs, manifests."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chdzdt
from chdzdt import cli
from chdzdt import tensor as T
from chdzdt.chartok import build_vocab
from chdzdt.encoder import EncoderState, ModelConfig, load_checkpoint, \
    save_checkpoint
from chdzdt.errors import NumericalError
from chdzdt.evalsuite.embedder import CheckpointEmbedder, TsvEmbedder
from chdzdt.evalsuite.metrics import acs

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
    (root / "clusters.tsv").write_text(CLUSTER_TEXT, encoding="utf-8")
    (root / "tag.tsv").write_text(TAG_TEXT, encoding="utf-8")
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
        assert manifest["seed"] == 42
        assert set(manifest["inputs"]) == {"labels", "en.txt", "fr.txt"}
        assert all(len(d) == 64 for d in manifest["inputs"].values())
        assert manifest["started"] <= manifest["finished"]

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

    def test_bad_lexicon_frequency_exits_two(self, ws, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text("dog\tEN\tEN:2\ncat\tEN\tEN:x\n", encoding="utf-8")
        out = tmp_path / "o.ckpt"
        assert run("pretrain", "--lexicon", lex, "--vocab",
                   ws / "vocab.json", "--out", out, "--epochs", 0) == 2
        assert f"{lex}:2" in capsys.readouterr().err
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

    def test_numerical_failure_exits_three(self, monkeypatch, capsys):
        def blow_up(args):
            raise NumericalError("non-finite loss at step 7")

        monkeypatch.setattr(cli, "cmd_pretrain", blow_up)
        assert run("pretrain", "--lexicon", "x", "--out", "y") == 3
        assert "non-finite" in capsys.readouterr().err


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

    def test_empty_input_writes_header_only(self, ckpt, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n\n"))
        out = tmp_path / "emb.tsv"
        assert run("encode", "--ckpt", ckpt, "--words", "-",
                   "--out", out) == 0
        assert out.read_text(encoding="utf-8") == "#dim 8\n"

    def test_skips_are_warned_and_counted(self, ckpt, tmp_path, monkeypatch,
                                          caplog):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("dog\ndog\ntwo words\ncat\n"))
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
