"""Morphology, PoS, and sentiment decoders on separable fixtures."""

import logging

import numpy as np
import pytest

from chdzdt.chartok import CharVocab
from chdzdt.encoder import EncoderState, ModelConfig
from chdzdt.errors import ConfigError, DataError
from chdzdt.evalsuite.embedder import CheckpointEmbedder
from chdzdt import tensor as T
from chdzdt.evalsuite import taggers
from chdzdt.evalsuite.compose import compose_fit
from chdzdt.evalsuite.probe import probe_train
from chdzdt.evalsuite.taggers import (
    _bigru_logits,
    _every_position,
    _final_states,
    _pack_sequences,
    _time_major,
    morph_tagger,
    pos_tagger,
    sentiment_classifier,
)
from chdzdt.tensor import Tensor

from gcprobe import tensors_left_to_cyclic_gc
from oracles import finite_diff_max_rel_err

VOC = CharVocab([(97, 122)])

STEMS = ["tab", "lor", "mik", "dun", "vel", "pon", "rag", "sel", "tig",
         "bur", "cam", "fex", "gol", "hin", "jop", "kib", "lun", "mop",
         "nid", "ost"]


def _word_rng(word):
    return np.random.default_rng(
        sum(ord(c) * (i + 1) for i, c in enumerate(word)) % 2**31)


class PerWordEmbedder:
    """embed_many over a per-word vector(word)."""

    def embed_many(self, words):
        return [self.vector(w) for w in words]


class SuffixEmbedder(PerWordEmbedder):
    """Last-character one-hot plus per-word noise."""

    dim = 12

    def vector(self, word):
        vec = _word_rng(word).normal(0, 0.3, 12)
        vec[ord(word[-1]) % 12] += 2.0
        return vec


class Suffix2Embedder(PerWordEmbedder):
    """Last two characters one-hot in separate blocks plus noise."""

    dim = 24

    def vector(self, word):
        vec = _word_rng(word).normal(0, 0.3, 24)
        vec[ord(word[-1]) % 12] += 2.0
        if len(word) >= 2:
            vec[12 + ord(word[-2]) % 12] += 2.0
        return vec


class LastCharEmbedder(PerWordEmbedder):
    """Last-character one-hot with no noise; words of one suffix coincide."""

    dim = 12

    def vector(self, word):
        vec = np.zeros(12)
        vec[ord(word[-1]) % 12] = 2.0
        return vec


class MarkerEmbedder(PerWordEmbedder):
    """Marker words carry a loud class direction; fillers stay quiet."""

    dim = 16
    MARKERS = {"splendid": 0, "awful": 1, "okay": 2}

    def vector(self, word):
        vec = _word_rng(word).normal(0, 0.2, 16)
        if word in self.MARKERS:
            vec[self.MARKERS[word]] += 3.0
        return vec


def morph_rows():
    rows = []
    for stem in STEMS:
        rows.append((stem + "a", {"number": "sing", "kind": "A"}))
        rows.append((stem + "as", {"number": "plur", "kind": "A"}))
        rows.append((stem + "o", {"number": "sing", "kind": "B"}))
        rows.append((stem + "os", {"number": "plur", "kind": "B"}))
        rows.append((stem + "e", {"number": "sing", "kind": "C"}))
    return rows


def pos_sentences(n=40, seed=1):
    rng = np.random.default_rng(seed)
    nouns = [s + "a" for s in STEMS]
    verbs = [s + "o" for s in STEMS]
    sents = []
    for _ in range(n):
        length = int(rng.integers(3, 7))
        sent = []
        for _ in range(length):
            if rng.random() < 0.5:
                sent.append((nouns[int(rng.integers(20))], "N"))
            else:
                sent.append((verbs[int(rng.integers(20))], "V"))
        sents.append(sent)
    return sents


def sentiment_rows(n=90, seed=2):
    rng = np.random.default_rng(seed)
    filler = ["the", "a", "it", "was", "very", "quite", "so", "that",
              "thing", "day"]
    marker = {"positive": "splendid", "negative": "awful",
              "neutral": "okay"}
    rows = []
    for i in range(n):
        label = ("positive", "negative", "neutral")[i % 3]
        words = [filler[int(rng.integers(10))]
                 for _ in range(int(rng.integers(3, 7)))]
        words.insert(int(rng.integers(len(words) + 1)), marker[label])
        rows.append((label, " ".join(words)))
    return rows


def assert_non_increasing(losses):
    assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))


@pytest.fixture(scope="module")
def morph_report():
    return morph_tagger(Suffix2Embedder(), morph_rows(), shared_dim=32,
                        epochs=100, lr=0.05, seed=0)


@pytest.fixture(scope="module")
def pos_report():
    return pos_tagger(SuffixEmbedder(), pos_sentences(), gru_hidden=32,
                      dense_dim=32, epochs=50, lr=0.05, seed=0)


@pytest.fixture(scope="module")
def sentiment_report():
    return sentiment_classifier(MarkerEmbedder(), sentiment_rows(),
                                gru_hidden=32, dense_dim=32,
                                epochs=100, lr=0.02, seed=0)


class TestMorphTagger:
    def test_suffix_features_learned(self, morph_report):
        assert morph_report["features"]["number"]["accuracy"] > 0.95
        assert morph_report["overall"] > 0.95

    def test_converged_heads_beat_majority_rate(self, morph_report):
        assert morph_report["train_losses"][-1] < 0.1
        rows = morph_rows()
        for name, stats in morph_report["features"].items():
            values = [feats[name] for _, feats in rows]
            majority = max(values.count(v) for v in set(values)) / len(values)
            assert stats["accuracy"] >= majority

    def test_early_stop_and_monotone_loss(self, morph_report):
        assert morph_report["epochs_run"] < 100
        assert morph_report["train_losses"][-1] < 0.1
        assert_non_increasing(morph_report["train_losses"])

    def test_na_is_ordinary_class(self):
        rows = []
        for stem in STEMS:
            rows.append((stem + "d", {"tense": "past"}))
            rows.append((stem + "a", {}))
        report = morph_tagger(LastCharEmbedder(), rows, shared_dim=32,
                              epochs=100, lr=0.05, seed=0)
        assert "NA" in report["features"]["tense"]["tagset"]
        assert report["features"]["tense"]["accuracy"] > 0.95

    def test_unknown_eval_tag_counted_wrong(self, caplog):
        train = [(s + "a", {"number": "sing"}) for s in STEMS[:10]]
        train += [(s + "as", {"number": "plur"}) for s in STEMS[:10]]
        test = [(STEMS[10] + "a", {"number": "sing"}),
                (STEMS[11] + "os", {"number": "dual"})]
        with caplog.at_level(logging.WARNING):
            report = morph_tagger(Suffix2Embedder(), train, test_rows=test,
                                  shared_dim=16, epochs=60, lr=0.05, seed=0)
        stats = report["features"]["number"]
        assert stats["unknown_tags"] == ["dual"]
        assert stats["accuracy"] <= 0.5
        assert any("dual" in rec.message for rec in caplog.records)

    def test_test_split_scored_by_the_training_forward(self, monkeypatch):
        graphs = []
        forward = taggers._morph_logits

        def spy(*args):
            out = forward(*args)
            graphs.append({v.requires_grad for v in out.values()})
            return out

        monkeypatch.setattr(taggers, "_morph_logits", spy)
        morph_tagger(Suffix2Embedder(), morph_rows(), shared_dim=8,
                     epochs=3, loss_target=0.0)
        assert graphs == [{True}] * 3 + [{False}]

    def test_empty_rows_rejected(self):
        with pytest.raises(DataError, match="no morphology"):
            morph_tagger(Suffix2Embedder(), [])

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            morph_tagger(Suffix2Embedder(), morph_rows(), mode="thawed")


class TestPosTagger:
    def test_suffix_tagging_learned(self, pos_report):
        assert pos_report["accuracy"] > 0.95
        assert pos_report["macro_f1"] > 0.95
        assert pos_report["tagset"] == ["N", "V"]

    def test_accuracy_equals_micro_f1(self, pos_report):
        per_tag = pos_report["per_tag"]
        n = sum(stats["support"] for stats in per_tag.values())
        true_positives = sum(stats["recall"] * stats["support"]
                             for stats in per_tag.values())
        assert pos_report["accuracy"] == pytest.approx(true_positives / n,
                                                       abs=1e-9)

    def test_loss_monotone_and_early_stop(self, pos_report):
        assert pos_report["train_losses"][-1] < 0.1
        assert_non_increasing(pos_report["train_losses"])

    def test_truncation_scores_sixty_tokens(self):
        rng = np.random.default_rng(5)
        nouns = [s + "a" for s in STEMS]
        long_sents = [[(nouns[int(rng.integers(20))], "N")
                       for _ in range(70)] for _ in range(4)]
        report = pos_tagger(SuffixEmbedder(), long_sents, gru_hidden=8,
                            dense_dim=8, epochs=1, seed=0)
        assert report["n_train_tokens"] == 60 * report["n_train_sentences"]
        assert report["n_test_tokens"] == 60 * report["n_test_sentences"]

    def test_empty_sentences_skipped(self, caplog):
        sents = pos_sentences(n=6) + [[], []]
        with caplog.at_level(logging.WARNING):
            report = pos_tagger(SuffixEmbedder(), sents, gru_hidden=8,
                                dense_dim=8, epochs=1, seed=0)
        assert report["skipped_empty"] == 2
        assert any("empty" in rec.message for rec in caplog.records)

    def test_empty_test_sentence_skipped(self):
        test = pos_sentences(n=3, seed=4) + [[]]
        report = pos_tagger(SuffixEmbedder(), pos_sentences(n=6),
                            test_sentences=test, gru_hidden=8, dense_dim=8,
                            epochs=1, seed=0)
        assert report["skipped_empty"] == 1
        assert report["n_test_sentences"] == 3

    def test_unknown_eval_tag(self, caplog):
        train = pos_sentences(n=10)
        test = [[(STEMS[0] + "a", "X"), (STEMS[1] + "o", "V")]]
        with caplog.at_level(logging.WARNING):
            report = pos_tagger(SuffixEmbedder(), train,
                                test_sentences=test, gru_hidden=8,
                                dense_dim=8, epochs=2, seed=0)
        assert report["unknown_tags"] == ["X"]
        assert any("unknown" in rec.message for rec in caplog.records)

    def test_too_few_sentences(self):
        with pytest.raises(DataError, match="at least 2"):
            pos_tagger(SuffixEmbedder(), [[("taba", "N")]])


class TestSentimentClassifier:
    def test_marker_words_separable(self, sentiment_report):
        assert sentiment_report["accuracy"] > 0.9
        assert sentiment_report["macro_f1"] > 0.9

    def test_label_counts_match_dataset(self, sentiment_report):
        totals = {lab: sentiment_report["label_counts"]["train"][lab]
                  + sentiment_report["label_counts"]["test"][lab]
                  for lab in ("negative", "neutral", "positive")}
        assert totals == {"negative": 30, "neutral": 30, "positive": 30}

    def test_loss_monotone_and_early_stop(self, sentiment_report):
        assert sentiment_report["train_losses"][-1] < 0.1
        assert_non_increasing(sentiment_report["train_losses"])

    def test_truncation_counted(self):
        rows = sentiment_rows(n=10)
        rows.append(("positive", " ".join(["word"] * 39 + ["splendid"])))
        report = sentiment_classifier(MarkerEmbedder(), rows, gru_hidden=8,
                                      dense_dim=8, epochs=1, seed=0)
        assert report["n_truncated"] == 1
        assert report["max_words"] == 30

    def test_empty_text_skipped(self, caplog):
        rows = sentiment_rows(n=10) + [("neutral", "   ")]
        with caplog.at_level(logging.WARNING):
            report = sentiment_classifier(MarkerEmbedder(), rows,
                                          gru_hidden=8, dense_dim=8,
                                          epochs=1, seed=0)
        assert report["skipped_empty"] == 1
        assert any("empty" in rec.message for rec in caplog.records)

    def test_test_rows_cleaned_like_training_rows(self):
        test = [("positive", " ".join(["word"] * 39 + ["splendid"])),
                ("neutral", "   "), ("negative", "an awful day")]
        report = sentiment_classifier(MarkerEmbedder(), sentiment_rows(n=10),
                                      test_rows=test, gru_hidden=8,
                                      dense_dim=8, epochs=1, seed=0)
        assert report["skipped_empty"] == 1
        assert report["n_truncated"] == 1
        assert report["test_size"] == 2

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError, match="'angry'"):
            sentiment_classifier(MarkerEmbedder(), [("angry", "grr")])
        with pytest.raises(DataError, match="'angry'"):
            sentiment_classifier(MarkerEmbedder(), sentiment_rows(n=10),
                                 test_rows=[("angry", "grr")])


@pytest.mark.parametrize("run", [
    lambda: pos_tagger(SuffixEmbedder(), pos_sentences(n=6), gru_hidden=8,
                       dense_dim=8, epochs=2, seed=0, loss_target=0.0),
    lambda: sentiment_classifier(MarkerEmbedder(), sentiment_rows(n=12),
                                 gru_hidden=8, dense_dim=8, epochs=2,
                                 seed=0, loss_target=0.0),
], ids=["pos", "sa"])
def test_frozen_run_leaves_no_graph_for_the_cyclic_gc(run):
    assert tensors_left_to_cyclic_gc(run)[1] == 0


UNEQUAL_SENTENCES = [["a", "b", "c", "d"], ["c", "a"], ["b"],
                     ["d", "d", "a"]]


@pytest.mark.parametrize("readout", [_every_position, _final_states],
                         ids=["pos", "sa"])
def test_bigru_loss_matches_finite_differences(readout):
    with T.precision("float64"):
        rng = np.random.default_rng(8)
        row = {w: i for i, w in enumerate("abcd")}
        matrix = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        params = {f"{way}.{k}": p for way in ("fwd", "bwd") for k, p in
                  T.ParamSet.of(T.gru_params(5, 3, rng)).params.items()}
        params |= {name: Tensor(rng.normal(size=shape), requires_grad=True)
                   for name, shape in (("dense.w", (6, 4)), ("dense.b", (4,)),
                                       ("out.w", (4, 3)), ("out.b", (3,)))}
        for way in ("fwd", "bwd"):
            params[f"{way}.b"].data[...] = rng.normal(size=9)
        idx, mask = _pack_sequences(UNEQUAL_SENTENCES, row)
        n_rows = (len(_time_major(UNEQUAL_SENTENCES))
                  if readout is _every_position else len(UNEQUAL_SENTENCES))
        targets = rng.integers(0, 3, n_rows)

        def build():
            return T.softmax_ce(
                _bigru_logits(params, readout, matrix, idx, mask), targets)

        for param in [matrix, *params.values()]:
            err, _ = finite_diff_max_rel_err(
                build, [param], np.random.default_rng(9), n_samples=20)
            assert err < 1e-3


@pytest.mark.parametrize("run", [
    lambda: pos_tagger(SuffixEmbedder(), pos_sentences(n=6), gru_hidden=8,
                       dense_dim=8, epochs=2, seed=0),
    lambda: sentiment_classifier(MarkerEmbedder(), sentiment_rows(n=12),
                                 gru_hidden=8, dense_dim=8, epochs=2, seed=0),
], ids=["pos", "sa"])
def test_test_pass_records_no_graph(run, monkeypatch):
    outputs = []
    gru_sequence = T.gru_sequence

    def recording(*args, **kwargs):
        out = gru_sequence(*args, **kwargs)
        outputs.append((T._GRAD_ENABLED, out))
        return out

    monkeypatch.setattr(taggers.T, "gru_sequence", recording)
    run()
    test_pass = [out for enabled, out in outputs if not enabled]
    assert len(test_pass) == 2
    for out in test_pass:
        assert out._prev == () and out._backward is None


class TestFinetune:
    def test_tsv_style_embedder_rejected(self):
        with pytest.raises(ConfigError, match="frozen"):
            pos_tagger(SuffixEmbedder(), pos_sentences(n=4),
                       mode="finetune")

    def test_finetune_needs_a_checkpoint_embedder(self):
        class ClaimsTrainable(SuffixEmbedder):
            is_trainable = True

        with pytest.raises(ConfigError,
                           match="finetune needs a checkpoint embedder"):
            pos_tagger(ClaimsTrainable(), pos_sentences(n=4),
                       mode="finetune")

    def test_finetune_updates_encoder_and_beats_frozen(self):
        sents = pos_sentences()
        cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=2,
                          hidden=16, seed=0)
        frozen = pos_tagger(CheckpointEmbedder(EncoderState.init(cfg, VOC)),
                            sents, mode="frozen", gru_hidden=32,
                            dense_dim=32, epochs=50, lr=0.01, seed=0)
        emb = CheckpointEmbedder(EncoderState.init(cfg, VOC))
        before = emb.state.params["char_emb"].data.copy()
        cached = emb.embed("taba").copy()
        tuned = pos_tagger(emb, sents, mode="finetune", gru_hidden=32,
                           dense_dim=32, epochs=50, lr=0.01, seed=0)
        assert not np.array_equal(before, emb.state.params["char_emb"].data)
        assert not np.array_equal(cached, emb.embed("taba"))
        assert tuned["accuracy"] >= frozen["accuracy"]
        assert tuned["accuracy"] > 0.95

    def test_frozen_mode_leaves_encoder_untouched(self):
        cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=2,
                          hidden=16, seed=0)
        emb = CheckpointEmbedder(EncoderState.init(cfg, VOC))
        before = {k: v.data.copy() for k, v in emb.state.params.items()}
        pos_tagger(emb, pos_sentences(n=6), mode="frozen", gru_hidden=8,
                   dense_dim=8, epochs=2, seed=0)
        for key, value in before.items():
            np.testing.assert_array_equal(value,
                                          emb.state.params[key].data)

    def test_sentiment_finetune_flows_gradients(self):
        cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=2,
                          hidden=16, seed=1)
        emb = CheckpointEmbedder(EncoderState.init(cfg, VOC))
        before = emb.state.params["char_emb"].data.copy()
        sentiment_classifier(emb, sentiment_rows(n=12), mode="finetune",
                             gru_hidden=8, dense_dim=8, epochs=3, lr=0.01,
                             seed=0)
        assert not np.array_equal(before,
                                  emb.state.params["char_emb"].data)

    def test_finetune_after_embed_many_reaches_encoder(self):
        cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=2,
                          hidden=16, seed=2)
        emb = CheckpointEmbedder(EncoderState.init(cfg, VOC))
        sents = pos_sentences(n=8)
        emb.embed_many([w for s in sents for w, _ in s])
        pos_tagger(emb, sents, mode="finetune", gru_hidden=8, dense_dim=8,
                   epochs=1, lr=0.01, seed=0, loss_target=0.0)
        for name, p in emb.state.params.items():
            if name == "char_emb" or name.startswith("block"):
                assert p.grad is not None and np.any(p.grad != 0), name

    @pytest.mark.parametrize("task", [pos_tagger, sentiment_classifier],
                             ids=["pos", "sa"])
    def test_finetune_leaves_no_graph_for_the_cyclic_gc(self, task):
        # each forward's graph, encoder included, is freed by reference
        # counting once backward has run
        cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=2,
                          hidden=16, seed=3)
        emb = CheckpointEmbedder(EncoderState.init(cfg, VOC))
        data = (pos_sentences(n=8) if task is pos_tagger
                else sentiment_rows(n=12))
        _, leaked = tensors_left_to_cyclic_gc(
            lambda: task(emb, data, mode="finetune", gru_hidden=8,
                         dense_dim=8, epochs=5, lr=0.01, seed=0))
        assert leaked == 0

    def test_encoder_params_view_the_buffer_after_finetune(self):
        cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=2,
                          hidden=16, seed=2)
        emb = CheckpointEmbedder(EncoderState.init(cfg, VOC))
        before = emb.state.flat.copy()
        pos_tagger(emb, pos_sentences(n=8), mode="finetune", gru_hidden=8,
                   dense_dim=8, epochs=2, lr=0.01, seed=0)
        assert not np.array_equal(before, emb.state.flat)
        for name, p in emb.state.params.items():
            assert np.shares_memory(p.data, emb.state.flat), name


def _checkpoint_embedder():
    cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=2, hidden=16,
                      seed=0)
    return CheckpointEmbedder(EncoderState.init(cfg, VOC))


def _probe_run():
    rng = np.random.default_rng(9)
    labels = [tuple(f"l{j}" for j in range(2) if rng.random() < 0.5)
              for _ in range(20)]
    return probe_train(rng.normal(size=(20, 4)), labels, seed=0, epochs=3)


def _compose_run(kind):
    rng = np.random.default_rng(10)
    return compose_fit(kind, [tuple(rng.normal(size=4) for _ in range(4))
                              for _ in range(12)], epochs=3)


# decoder -> a short training run of it, with no early stop
TRAINED_DECODERS = {
    "probe": _probe_run,
    "compose_WAdd": lambda: _compose_run("WAdd"),
    "compose_MpCnc": lambda: _compose_run("MpCnc"),
    "morph": lambda: morph_tagger(Suffix2Embedder(), morph_rows(),
                                  shared_dim=8, epochs=3, loss_target=0.0),
    "pos": lambda: pos_tagger(SuffixEmbedder(), pos_sentences(n=8),
                              gru_hidden=8, dense_dim=8, epochs=3, seed=0,
                              loss_target=0.0),
    "sa": lambda: sentiment_classifier(SuffixEmbedder(), sentiment_rows(n=12),
                                       gru_hidden=8, dense_dim=8, epochs=3,
                                       seed=0, loss_target=0.0),
}


class TestTrainsThroughItsSet:
    @pytest.fixture
    def fitted(self, monkeypatch):
        """The parameter sets of each T.fit call, in call order."""
        calls = []

        def fit(sets, *args, _orig=T.fit, **kwargs):
            calls.append(list(sets))
            return _orig(sets, *args, **kwargs)

        monkeypatch.setattr(T, "fit", fit)
        return calls

    @pytest.mark.parametrize("decoder", sorted(TRAINED_DECODERS))
    def test_weights_view_the_set_after_training(self, fitted, decoder):
        TRAINED_DECODERS[decoder]()
        [(weights,)] = fitted
        assert weights.grad.any()
        for name, p in weights.params.items():
            assert np.shares_memory(p.data, weights.data), name
            assert np.shares_memory(p.grad, weights.grad), name

    def test_pos_finetune_leaves_the_pretraining_heads_unchanged(self,
                                                                 fitted):
        emb = _checkpoint_embedder()
        heads = ("mlm_w", "mlm_b", "label_w", "label_b")
        before = emb.state.flat.copy()
        kept = {name: emb.state.params[name].data.tobytes()
                for name in heads}
        pos_tagger(emb, pos_sentences(n=8), mode="finetune", gru_hidden=8,
                   dense_dim=8, epochs=3, lr=0.01, seed=0, loss_target=0.0)
        [(_, encoder_set)] = fitted
        assert encoder_set is emb.state.param_set
        assert not np.array_equal(before, emb.state.flat)
        for name in heads:
            assert emb.state.params[name].data.tobytes() == kept[name], name
            assert not emb.state.params[name].grad.any(), name


# task -> (tagger run on an embedder in a mode, every word its data holds)
ENCODE_CASES = {
    "tag": (lambda emb, mode: morph_tagger(emb, morph_rows(), mode=mode,
                                           shared_dim=8, epochs=1, seed=0),
            {w for w, _ in morph_rows()}),
    "pos": (lambda emb, mode: pos_tagger(emb, pos_sentences(n=12), mode=mode,
                                         gru_hidden=8, dense_dim=8,
                                         epochs=1, seed=0),
            {w for s in pos_sentences(n=12) for w, _ in s}),
    "sa": (lambda emb, mode: sentiment_classifier(
               emb, sentiment_rows(n=12), mode=mode, gru_hidden=8,
               dense_dim=8, epochs=1, seed=0),
           {w for _, text in sentiment_rows(n=12) for w in text.split()}),
}


class TestEachWordEncodedOnce:
    @pytest.fixture
    def events(self, monkeypatch):
        """("encode", words) per embedder.word_embedding call and ("fit",)
        per training run, in call order."""
        from chdzdt.evalsuite import embedder

        log = []

        def encode(state, words, _orig=embedder.word_embedding):
            log.append(("encode", list(words)))
            return _orig(state, words)

        def fit(*args, _orig=T.fit, **kwargs):
            log.append(("fit",))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(embedder, "word_embedding", encode)
        monkeypatch.setattr(taggers.T, "fit", fit)
        return log

    @pytest.mark.parametrize("task", sorted(ENCODE_CASES))
    def test_frozen_encodes_both_splits_in_one_call(self, events, task):
        run, words = ENCODE_CASES[task]
        run(_checkpoint_embedder(), "frozen")
        (kind, encoded), fit = events
        assert (kind, fit) == ("encode", ("fit",))
        assert sorted(encoded) == sorted(words)

    @pytest.mark.parametrize("task", sorted(ENCODE_CASES))
    def test_finetune_encodes_test_words_after_training(self, events, task):
        run, words = ENCODE_CASES[task]
        run(_checkpoint_embedder(), "finetune")
        fit, (kind, encoded) = events
        assert (fit, kind) == (("fit",), "encode")
        assert len(set(encoded)) == len(encoded)
        assert set(encoded) <= words
