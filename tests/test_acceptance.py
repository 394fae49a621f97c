"""Release gate: twelve pinned end-to-end checks.

Property checks run against the independent oracles in oracles.py;
quantitative checks run the frozen toy-scale recipes and assert pinned
thresholds with wall-clock budgets. Thresholds are fixed: a red here
means the package regressed, not that the bar moved.
"""

import json
import time

import numpy as np
import pytest

import chdzdt.tensor as T
from chdzdt import cli
from chdzdt.chartok import MASK_ID, build_vocab, decode, default_vocab, \
    encode_word
from chdzdt.encoder import EncoderState, ModelConfig, count_params, \
    save_checkpoint
from chdzdt.evalsuite.ablation import ablation_sweep, default_grid, \
    variant_name
from chdzdt.evalsuite.embedder import CheckpointEmbedder
from chdzdt.evalsuite.metrics import acs, aed, ari, kendall, silhouette
from chdzdt.evalsuite.obfuscate import obfuscated_acs
from chdzdt.evalsuite.probe import probe_train
from chdzdt.evalsuite.taggers import pos_tagger, sentiment_classifier
from chdzdt.preprocess import LexiconEntry, NormRules, normalize_text
from chdzdt.pretrain import MaskedBatch, TrainConfig, batch_loss, train

from oracles import brute_acs, brute_aed, brute_ari, brute_kendall, \
    brute_silhouette, finite_diff_max_rel_err
from test_probe import separable_instance
from test_taggers import MarkerEmbedder, SuffixEmbedder, pos_sentences, \
    sentiment_rows
from universe import make_universe

TOY_MODEL = dict(n_blocks=2, n_heads=2, hidden=16, dropout=0.1, seed=0)
TOY_TRAIN = dict(epochs=50, batch_size=16, lr=3e-3, seed=42,
                 mask_ratio=0.15, log_every=1)

POS_RECIPE = dict(gru_hidden=32, dense_dim=32, epochs=50, lr=0.05, seed=0)
SENTI_RECIPE = dict(gru_hidden=32, dense_dim=32, epochs=100, lr=0.02,
                    seed=0)


class TableEmbedder:
    """Dict-backed vectors for metric cross-checks."""

    def __init__(self, table):
        self.table = table
        self.dim = len(next(iter(table.values())))

    def embed_many(self, words):
        return [np.asarray(self.table[w], dtype=np.float64) for w in words]


def strip_timing(records):
    return [{k: v for k, v in r.items() if k != "samples_per_sec"}
            for r in records]


@pytest.fixture(scope="module")
def pretrained():
    """One trained toy trilingual encoder shared by the later checks."""
    lexicon, clusters = make_universe()
    vocab = default_vocab()
    config = ModelConfig(vocab_size=vocab.size, **TOY_MODEL)
    start = time.perf_counter()
    state, records = train(lexicon, config, TrainConfig(**TOY_TRAIN), vocab)
    wall = time.perf_counter() - start
    return {"state": state, "records": records, "wall": wall,
            "lexicon": lexicon, "clusters": clusters, "vocab": vocab,
            "config": config}


@pytest.fixture(scope="module")
def downstream():
    """The three downstream fixture runs shared by checks 9 and 12."""
    pos = pos_tagger(SuffixEmbedder(), pos_sentences(), **POS_RECIPE)
    senti = sentiment_classifier(MarkerEmbedder(), sentiment_rows(),
                                 **SENTI_RECIPE)
    X, labels = separable_instance()
    probe = probe_train(X, labels)
    return {"pos": pos, "senti": senti, "probe": probe}


def test_01_gradients_match_finite_differences():
    start = time.perf_counter()
    voc = build_vocab([(97, 122)])
    with T.precision("float64"):
        state = EncoderState.init(
            ModelConfig(vocab_size=voc.size, n_blocks=1, n_heads=1,
                        hidden=8, max_chars=6, seed=1), voc)
        clean = encode_word(voc, "darja", max_chars=6)
        corrupted = encode_word(voc, "darja", max_chars=6)
        corrupted[2] = MASK_ID
        targets = [1, 0, 0, 1, 0]
        batch = MaskedBatch(corrupted=corrupted[None, :],
                            mask_positions=[[2]], original_ids=[clean[[2]]],
                            targets=np.asarray([targets], dtype=np.float64))

        def build():
            return batch_loss(state, batch)[0]

        err, _ = finite_diff_max_rel_err(
            build, state.parameters(), np.random.default_rng(0),
            n_samples=20)
    assert err < 1e-3, f"max relative gradient error {err:.2e}"
    assert time.perf_counter() - start < 30


def test_02_metrics_agree_with_bruteforce_oracles():
    start = time.perf_counter()
    for i in range(100):
        rng = np.random.default_rng([2, i])
        dim = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        clusters, vectors = [], {}
        budget = int(rng.integers(k, 51))
        for j in range(k):
            root = f"r{j}"
            vectors[root] = rng.normal(size=dim)
            members = [f"w{j}_{m}"
                       for m in range(int(rng.integers(1, 9)))]
            members = members[:max(1, budget // k)]
            for m in members:
                vectors[m] = rng.normal(size=dim)
            clusters.append((root, members))
        emb = TableEmbedder(vectors)
        table = {w: list(v) for w, v in vectors.items()}
        assert abs(acs(emb, clusters) - brute_acs(table, clusters)) <= 1e-9
        assert abs(aed(emb, clusters) - brute_aed(table, clusters)) <= 1e-9

        n = int(rng.integers(5, 51))
        points = rng.normal(size=(n, dim))
        labels = rng.integers(0, int(rng.integers(2, 7)), size=n)
        labels[:2] = [0, 1]
        assert abs(silhouette(points, labels)
                   - brute_silhouette(points.tolist(), labels.tolist())) \
            <= 1e-9
        gold = rng.integers(0, int(rng.integers(2, 7)), size=n)
        assert abs(ari(labels, gold)
                   - brute_ari(labels.tolist(), gold.tolist())) <= 1e-9
    assert time.perf_counter() - start < 60


def test_03_kendall_spot_values():
    ordered = list(range(1, 11))
    assert kendall(ordered, ordered) == 1.0
    assert kendall(ordered, ordered[::-1]) == -1.0
    assert kendall([1, 2, 3], [2, 1, 3]) == 1 / 3
    assert brute_kendall([1, 2, 3], [2, 1, 3]) == 1 / 3


def test_04_tokenizer_round_trip_100k_words():
    vocab = default_vocab()
    # whitespace never survives upstream tokenization, so words are
    # drawn from the non-space vocabulary characters
    alphabet = np.array([c for c in vocab.itos[5:] if not c.isspace()])
    rng = np.random.default_rng(4)
    lengths = rng.integers(1, 21, size=100_000)
    failures = 0
    for length in lengths:
        word = "".join(rng.choice(alphabet, size=length))
        if decode(vocab, encode_word(vocab, word)) != word:
            failures += 1
    assert failures == 0


def test_05_normalization_goldens():
    rules = NormRules.default()
    assert normalize_text("✅✅yes. No!✅", rules) == \
        "✅ ✅ yes . No ! ✅"
    assert normalize_text("برافووووووو", rules) == "برافوو"
    assert normalize_text("مَجَلَّــــــــــــة", rules) == "مجلة"


def test_06_toy_pretraining_converges(pretrained):
    first, last = pretrained["records"][0], pretrained["records"][-1]
    assert first["step"] == 1
    ratio = last["total"] / first["total"]
    assert ratio < 0.10, f"final/initial loss ratio {ratio:.4f}"
    assert last["mlm"] < first["mlm"]
    assert last["multilabel"] < first["multilabel"]
    assert pretrained["wall"] < 600, f"training took {pretrained['wall']:.0f}s"


def test_07_training_builds_morphology_signal(pretrained):
    clusters = [c for family in ("latin", "arabic", "tifinagh")
                for c in pretrained["clusters"][family]]
    trained = acs(CheckpointEmbedder(pretrained["state"]), clusters)
    random_init = acs(CheckpointEmbedder(
        EncoderState.init(pretrained["config"], pretrained["vocab"])),
        clusters)
    gap = trained - random_init
    assert gap >= 0.1, (f"trained ACS {trained:.3f} vs random "
                        f"{random_init:.3f}, gap {gap:.3f}")


def test_08_noise_robustness(pretrained):
    emb = CheckpointEmbedder(pretrained["state"])
    for family in ("latin", "arabic", "tifinagh"):
        clusters = pretrained["clusters"][family]
        acs1 = obfuscated_acs(emb, clusters, "star", 1, seed=0)
        acs2 = obfuscated_acs(emb, clusters, "star", 2, seed=0)
        assert acs1 >= acs2, f"{family}: ACS1* {acs1:.3f} < ACS2* {acs2:.3f}"
        assert acs1 > 0.8, f"{family}: ACS1* {acs1:.3f}"


def test_09_downstream_fixture_accuracies(downstream):
    assert downstream["pos"]["accuracy"] > 0.95
    assert downstream["senti"]["accuracy"] > 0.9
    assert downstream["probe"]["macro_f1"] == 1.0


def test_10_finetune_at_least_matches_frozen():
    voc = build_vocab([(97, 122)])
    config = ModelConfig(vocab_size=voc.size, n_blocks=1, n_heads=2,
                         hidden=16, seed=0)
    sents = pos_sentences()
    recipe = dict(gru_hidden=32, dense_dim=32, epochs=50, lr=0.01, seed=0)
    frozen = pos_tagger(CheckpointEmbedder(EncoderState.init(config, voc)),
                        sents, mode="frozen", **recipe)
    tuned = pos_tagger(CheckpointEmbedder(EncoderState.init(config, voc)),
                       sents, mode="finetune", **recipe)
    assert tuned["accuracy"] >= frozen["accuracy"], \
        f"finetuned {tuned['accuracy']:.4f} < frozen {frozen['accuracy']:.4f}"
    assert tuned["accuracy"] > 0.95


def test_11_ablation_harness():
    start = time.perf_counter()
    grid = default_grid(default_vocab().size)
    names = [variant_name(c) for c in grid]
    assert names == ["N1-H2-d16", "N2-H2-d16", "N3-H2-d16", "N2-H1-d16",
                     "N2-H4-d16", "N2-H2-d8", "N2-H2-d32"]
    params = dict(zip(names, (count_params(c) for c in grid)))
    assert params["N2-H1-d16"] == params["N2-H2-d16"] == params["N2-H4-d16"]
    assert params["N1-H2-d16"] < params["N2-H2-d16"] < params["N3-H2-d16"]
    assert params["N2-H2-d8"] < params["N2-H2-d16"] < params["N2-H2-d32"]

    voc = build_vocab([(97, 122)])
    roots = ["tab", "lor", "mik", "dun", "vel", "pon"]
    suffixes = ("a", "o", "as", "os")
    clusters = [(r, [r + s for s in suffixes]) for r in roots]
    lexicon = [LexiconEntry(word=w, labels=("EN",), freq={"EN": 1})
               for _, members in clusters for w in members]
    report = ablation_sweep(
        default_grid(voc.size), lexicon, voc,
        TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=42,
                    log_every=1000),
        cli.ablation_evaluate({"morph": clusters}, seed=0))
    assert report["grid_size"] == 7 and report["n_failed"] == 0
    assert len(report["table"]) == 7
    assert report["metric_names"] == ["morph_acs", "morph_aed", "morph_ari",
                                      "morph_silhouette"]
    for row in report["table"]:
        assert isinstance(row["morph_acs"], float)
    assert time.perf_counter() - start < 1800


def test_12_reruns_are_bit_identical(pretrained, downstream, tmp_path):
    state2, records2 = train(pretrained["lexicon"], pretrained["config"],
                             TrainConfig(**TOY_TRAIN), pretrained["vocab"])
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(pretrained["state"], first)
    save_checkpoint(state2, second)
    assert first.read_bytes() == second.read_bytes()
    assert strip_timing(pretrained["records"]) == strip_timing(records2)

    pos2 = pos_tagger(SuffixEmbedder(), pos_sentences(), **POS_RECIPE)
    senti2 = sentiment_classifier(MarkerEmbedder(), sentiment_rows(),
                                  **SENTI_RECIPE)
    X, labels = separable_instance()
    probe2 = probe_train(X, labels)
    for fresh, name in ((pos2, "pos"), (senti2, "senti"),
                        (probe2, "probe")):
        assert json.dumps(fresh, sort_keys=True) == \
            json.dumps(downstream[name], sort_keys=True), name
