"""The traced benchmark run wraps program functions by rebinding their names
in the modules that look them up; every such name must still exist."""

import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bound(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_traced_names_exist_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from spans import Tracer

    tr = Tracer()
    try:
        # a name the program no longer defines fails here
        layers.install(tr)
        patches = list(tr._patches)
    finally:
        tr.restore()
    assert patches
    for owner, attr, orig in patches:
        assert callable(orig), (owner, attr)
        assert _bound(owner, attr) is orig, (owner, attr)


def test_forward_calls_layer_ops_by_encoder_name(monkeypatch):
    # the traced tensor.layer_norm / softmax / gelu spans wrap these names
    import numpy as np

    from chdzdt import encoder
    from chdzdt.chartok import build_vocab, encode_word

    vocab = build_vocab([(97, 122)])
    cfg = encoder.ModelConfig(vocab_size=vocab.size, n_blocks=3, n_heads=2,
                              hidden=8, max_chars=6)
    state = encoder.EncoderState.init(cfg, vocab)
    calls = {}
    for name in ("layer_norm", "softmax", "gelu"):
        def spy(*args, _orig=getattr(encoder, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(encoder, name, spy)
    ids = np.stack([encode_word(vocab, w, cfg.max_chars) for w in ("dar", "ab")])
    encoder.forward_batch(state, ids)
    assert calls == {"layer_norm": 6, "softmax": 3, "gelu": 3}


def test_normalize_text_calls_stages_by_preprocess_name(monkeypatch):
    # the traced preprocess.stage.* spans and sweeps_per_line wrap these
    from chdzdt import preprocess

    stages = ("normalize_emojis", "normalize_chars", "cap_elongation",
              "fix_spacing", "strip_diacritics")
    calls = {}
    for name in stages:
        def spy(*args, _orig=getattr(preprocess, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args)

        monkeypatch.setattr(preprocess, name, spy)
    rules = preprocess.NormRules.default()
    # the alias fires only once spacing has isolated it: two sweeps to
    # change the text and one to confirm it
    assert preprocess.normalize_text("salam:-)ya", rules) == "salam 🙂 ya"
    assert calls == {name: 3 for name in stages}


WORDS = ("dog", "dogs", "cat", "cats", "run", "runs", "pen", "pens")
CLUSTERS = "dog\tdog\tdogs\ncat\tcat\tcats\nrun\trun\truns\n"

# task -> (data file text, extra eval flags, --params, names it calls)
EVAL_CASES = {
    "morph": (CLUSTERS, [], None, ("cluster_report",)),
    "noise": (CLUSTERS, [], None, ("noise_report",)),
    "probe": ("".join(f"{w}\t{'s' if w.endswith('s') else ''}\n"
                      for w in WORDS), ["--epochs", "1"], None,
              ("probe_train",)),
    "compose": ("".join(f"re\t{w}\ts\tre{w}s\n" for w in WORDS[::2]),
                ["--kind", "Add", "--epochs", "1"], None,
                ("compose_fit", "compose_eval")),
    "sim": ("dog\tdogs\t3\ncat\tcats\t2\nrun\tpen\t1\n", [], None,
            ("similarity_corr",)),
    "tag": ("".join(f"{w}\tnum={'plur' if w.endswith('s') else 'sing'}\n"
                    for w in WORDS), ["--epochs", "1"], {"shared_dim": 4},
            ("morph_tagger",)),
    "pos": ("".join(f"{a}\tN\n{b}\tV\n\n"
                    for a, b in zip(WORDS[::2], WORDS[1::2])),
            ["--epochs", "1"], {"gru_hidden": 4, "dense_dim": 4},
            ("pos_tagger",)),
    "sa": ("".join(f"{label}\t{w} {w}\n"
                   for label in ("negative", "neutral", "positive")
                   for w in WORDS[:3]),
           ["--epochs", "1"], {"gru_hidden": 4, "dense_dim": 4},
           ("sentiment_classifier",)),
}


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    from chdzdt.chartok import build_vocab, encode_word
    from chdzdt.encoder import EncoderState, ModelConfig, save_checkpoint

    vocab = build_vocab([(97, 122)])
    path = tmp_path_factory.mktemp("hooks") / "enc.ckpt"
    save_checkpoint(EncoderState.init(
        ModelConfig(vocab_size=vocab.size, n_blocks=1, n_heads=1,
                    hidden=8), vocab), path)
    return path


@pytest.mark.parametrize("task", list(EVAL_CASES))
def test_eval_calls_task_functions_by_cli_name(task, tiny_ckpt, tmp_path,
                                               monkeypatch):
    from chdzdt import cli

    text, flags, params, names = EVAL_CASES[task]
    called = []
    for name in names:
        def spy(*args, _orig=getattr(cli, name), _name=name, **kwargs):
            called.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    data = tmp_path / "data.tsv"
    data.write_text(text, encoding="utf-8")
    argv = ["eval", "--task", task, "--embedder", str(tiny_ckpt),
            "--data", str(data), "--out", str(tmp_path / "out.json"), *flags]
    if params:
        (tmp_path / "params.json").write_text(json.dumps(params),
                                              encoding="utf-8")
        argv += ["--params", str(tmp_path / "params.json")]
    assert cli.main(argv) == 0
    assert set(called) == set(names)
