import gc
import json
import math
import types

import numpy as np
import pytest

from chdzdt import cli, encoder, pretrain
from chdzdt import tensor as T
from chdzdt.chartok import CLS_ID, MASK_ID, PAD_ID, build_vocab, encode_word
from chdzdt.encoder import (
    EncoderState,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from chdzdt.errors import ConfigError, DataError, NumericalError
from chdzdt.pretrain import (
    MaskedBatch,
    TrainConfig,
    batch_loss,
    _fit,
    labels_to_targets,
    mask_batch,
    train,
)
from chdzdt.preprocess import LexiconEntry, write_lexicon

from oracles import (
    composite_attention_context,
    composite_attention_scores,
    composite_dropout,
    finite_diff_max_rel_err,
    per_tensor_checkpoint_bytes,
)

VOC = build_vocab([(97, 122)])  # a-z


def entry(word, labels=("EN",)):
    return LexiconEntry(word=word, labels=tuple(labels),
                        freq={lab: 1 for lab in labels})


def toy_lexicon(n=24):
    words = ["dar", "kbira", "win", "zduq", "mliha", "bzaf", "qhwa", "ktab",
             "sma", "lil", "nhar", "triq", "bab", "sarout", "khobz", "atay",
             "blad", "douar", "jbel", "wad", "raml", "chta", "chems", "qamra"]
    return [entry(w, ("AR", "DZ") if i % 2 else ("EN",))
            for i, w in enumerate(words[:n])]


def examples_for(words, max_chars=8):
    return [(encode_word(VOC, w, max_chars=max_chars), ("EN",)) for w in words]


class TestTrainConfig:
    def test_bad_ratio_rejected(self):
        for ratio in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                TrainConfig(mask_ratio=ratio)

    def test_bad_batch_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"epochs": 1, "momentum": 0.9})

    def test_dict_roundtrip(self):
        cfg = TrainConfig(epochs=3, batch_size=4, lr=0.01, seed=9)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("batch_size", 2.5), ("epochs", "x"),
        ("seed", True), ("lr", "0.01"), ("mask_ratio", None),
        ("log_every", [1])])
    def test_wrong_field_type_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig.from_dict({field: value})

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, -1e-3])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="lr"):
            TrainConfig(lr=lr)

    def test_int_accepted_for_float_field(self):
        assert TrainConfig.from_dict({"lr": 1}).lr == 1


class TestMaskBatch:
    def test_single_char_word_gets_one_mask(self):
        rng = np.random.default_rng(0)
        batch = mask_batch(examples_for(["a"]), 0.15, rng)
        assert batch.mask_positions == [[1]]
        assert batch.corrupted[0, 1] == MASK_ID

    def test_ten_char_word_ratio_015_masks_two(self):
        rng = np.random.default_rng(0)
        batch = mask_batch(examples_for(["abcdefghij"], max_chars=12), 0.15, rng)
        assert len(batch.mask_positions[0]) == 2

    def test_same_seed_same_masks(self):
        ex = examples_for(["kbira", "dar", "sarout"])
        a = mask_batch(ex, 0.3, np.random.default_rng(7))
        b = mask_batch(ex, 0.3, np.random.default_rng(7))
        assert a.mask_positions == b.mask_positions
        assert np.array_equal(a.corrupted, b.corrupted)

    def test_originals_recorded_in_position_order(self):
        ex = examples_for(["kbira"])
        batch = mask_batch(ex, 0.5, np.random.default_rng(3))
        tok = ex[0][0]
        for pos, orig in zip(batch.mask_positions[0], batch.original_ids[0]):
            assert tok[pos] == orig
            assert batch.corrupted[0, pos] == MASK_ID

    def test_never_masks_cls_or_pad(self):
        rng = np.random.default_rng(11)
        words = ["".join(rng.choice(list("abcdefgh"), size=rng.integers(1, 21)))
                 for _ in range(10_000)]
        for start in range(0, len(words), 100):
            chunk = words[start:start + 100]
            batch = mask_batch(examples_for(chunk, max_chars=20), 0.15, rng)
            for word, positions in zip(chunk, batch.mask_positions):
                n_chars = min(len(word), 20)
                assert all(1 <= p <= n_chars for p in positions)
            assert not (batch.corrupted[:, 0] == MASK_ID).any()

    def test_truncated_word_masks_inside_window(self):
        ex = examples_for(["abcdefghijkl"], max_chars=6)
        batch = mask_batch(ex, 0.9, np.random.default_rng(1))
        assert all(1 <= p <= 6 for p in batch.mask_positions[0])

    def test_masked_fraction_matches_ratio(self):
        # lengths are multiples of 4 so ceil(ratio*len) introduces no bias
        rng = np.random.default_rng(5)
        masked = chars = 0
        for _ in range(50):
            words = ["".join(rng.choice(list("abcdefgh"), size=length))
                     for length in rng.choice([8, 12, 16, 20], size=40)]
            batch = mask_batch(examples_for(words, max_chars=20), 0.25, rng)
            masked += sum(len(p) for p in batch.mask_positions)
            chars += sum(len(w) for w in words)
        assert abs(masked / chars - 0.25) < 0.02

    def test_mask_positions_uniform_over_positions(self):
        rng = np.random.default_rng(13)
        counts = np.zeros(21)
        n = 4000
        for start in range(0, n, 200):
            words = ["abcdefghijklmnopqrst"] * 200
            batch = mask_batch(examples_for(words, max_chars=20), 0.15, rng)
            for positions in batch.mask_positions:
                assert len(positions) == 3
                counts[positions] += 1
        freq = counts[1:] / n
        assert ((freq > 0.12) & (freq < 0.18)).all()

    def test_labels_become_multi_hot(self):
        vec = labels_to_targets(("AR", "DZ"))
        assert vec.tolist() == [1.0, 0.0, 1.0, 0.0, 0.0]
        with pytest.raises(DataError):
            labels_to_targets(("XX",))

    def test_empty_and_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            mask_batch([], 0.15, np.random.default_rng(0))
        with pytest.raises(ValueError):
            mask_batch(examples_for(["dar"]), 0.0, np.random.default_rng(0))


class TestBatchLoss:
    def test_zeroed_heads_give_known_losses(self):
        cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=1,
                          hidden=4, max_chars=6, dropout=0.0, seed=0)
        state = EncoderState.init(cfg, VOC)
        for name in ("mlm_w", "mlm_b", "label_w", "label_b"):
            state.params[name].data[...] = 0.0
        batch = mask_batch(examples_for(["dar", "kbira"], max_chars=6),
                           0.3, np.random.default_rng(0))
        total, mlm, multilabel = batch_loss(state, batch)
        assert math.isclose(float(mlm.data), math.log(VOC.size), rel_tol=1e-5)
        assert math.isclose(float(multilabel.data), 5 * math.log(2), rel_tol=1e-5)
        assert math.isclose(float(total.data),
                            float(mlm.data) + float(multilabel.data),
                            rel_tol=1e-6)

    def test_frozen_batch_monotonic_decrease_10_steps(self):
        cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=2,
                          hidden=8, max_chars=8, dropout=0.0, seed=0)
        state = EncoderState.init(cfg, VOC)
        batch = mask_batch(examples_for(["dar", "kbira", "sarout", "win"]),
                           0.2, np.random.default_rng(2))
        opt = T.Adam(state.parameters(), lr=1e-4)
        prev = float(batch_loss(state, batch)[0].data)
        for _ in range(10):
            total, _, _ = batch_loss(state, batch)
            opt.zero_grad()
            total.backward()
            opt.step()
            now = float(batch_loss(state, batch)[0].data)
            assert now < prev
            prev = now

    def test_real_batch_matches_finite_differences(self):
        # rows masked twice repeat in the hidden[b_idx, t_idx] gather, and
        # both objectives average over the batch
        with T.precision("float64"):
            cfg = ModelConfig(vocab_size=VOC.size, n_blocks=2, n_heads=2,
                              hidden=8, max_chars=8, dropout=0.0, seed=3)
            state = EncoderState.init(cfg, VOC)
            examples = [(encode_word(VOC, w, max_chars=8), labels)
                        for w, labels in (("dar", ("EN",)), ("kbira", ("AR", "DZ")),
                                          ("sarout", ("FR",)))]
            batch = mask_batch(examples, 0.4, np.random.default_rng(0))
            assert [len(p) for p in batch.mask_positions] == [2, 2, 3]

            def build():
                return batch_loss(state, batch)[0]

            err, _ = finite_diff_max_rel_err(
                build, state.parameters(), np.random.default_rng(1), n_samples=40)
        assert err < 1e-3

    def test_training_graph_size_is_pinned(self):
        # the toy recipe N2-H2-d16 at B=16 with dropout: 2 embedding nodes,
        # 14 per block and 8 for the heads and losses. Every node costs
        # Python time in forward and backward, so a change that grows the
        # graph must update this count on purpose.
        cfg = ModelConfig(vocab_size=VOC.size, n_blocks=2, n_heads=2,
                          hidden=16, dropout=0.1, seed=0)
        state = EncoderState.init(cfg, VOC)
        words = [w.word for w in toy_lexicon(16)]
        rng = np.random.default_rng(0)
        batch = mask_batch(examples_for(words, max_chars=cfg.max_chars),
                           0.15, rng)
        total, _, _ = batch_loss(state, batch, train_mode=True, rng=rng)
        seen, stack, ops = set(), [total], 0
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                ops += bool(node._prev)
                stack.extend(node._prev)
        assert ops == 38
        total._unlink()

    def test_twelve_steps_match_the_composite_attention_chain(self,
                                                             monkeypatch):
        # the toy recipe with dropout, 12 steps of 16 words: the fused
        # attention and dropout nodes leave the weights byte-equal to the
        # former one-node-per-op chain
        from universe import make_universe

        from chdzdt.chartok import default_vocab

        voc = default_vocab()
        lexicon = make_universe()[0][:96]
        mc = ModelConfig(vocab_size=voc.size, n_blocks=2, n_heads=2,
                         hidden=16, dropout=0.1, seed=0)
        tc = TrainConfig(epochs=2, batch_size=16, seed=7)
        fused, records = train(lexicon, mc, tc, voc)
        assert records[-1]["step"] == 12
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        for name, fn in (("attention_scores", composite_attention_scores),
                         ("attention_context", composite_attention_context),
                         ("dropout", composite_dropout)):
            monkeypatch.setattr(encoder, name, counted(fn))
        oracle, _ = train(lexicon, mc, tc, voc)
        # per step and block: scores, context and three dropouts
        assert len(calls) == 12 * 2 * 5
        assert fused.flat.tobytes() == oracle.flat.tobytes()
        assert fused.flat.tobytes() != \
            EncoderState.init(mc, voc).flat.tobytes()


class TestTrain:
    CFG = dict(vocab_size=VOC.size, n_blocks=1, n_heads=2, hidden=8,
               max_chars=8, dropout=0.0, seed=3)

    def test_zero_epochs_equals_initialization(self, tmp_path):
        mc = ModelConfig(**self.CFG)
        tc = TrainConfig(epochs=0, batch_size=8, seed=1)
        out = tmp_path / "m.ckpt"
        state, records = train(toy_lexicon(), mc, tc, VOC)
        save_checkpoint(state, out)
        assert records == []
        fresh = EncoderState.init(mc, VOC)
        for (_, p), (_, q) in zip(state.params.items(),
                                  fresh.params.items()):
            assert p.data.tobytes() == q.data.tobytes()
        loaded = load_checkpoint(out)
        assert loaded.params["char_emb"].data.tobytes() == \
            fresh.params["char_emb"].data.tobytes()

    def test_identical_seeds_identical_runs(self, tmp_path):
        mc = ModelConfig(**self.CFG)
        tc = TrainConfig(epochs=2, batch_size=8, seed=5, log_every=1)
        out_a, out_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        state_a, rec_a = train(toy_lexicon(), mc, tc, VOC)
        state_b, rec_b = train(toy_lexicon(), mc, tc, VOC)
        save_checkpoint(state_a, out_a)
        save_checkpoint(state_b, out_b)
        strip = lambda r: {k: v for k, v in r.items() if k != "samples_per_sec"}
        assert [strip(r) for r in rec_a] == [strip(r) for r in rec_b]
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_loss_drops_on_toy_lexicon(self):
        from universe import make_universe

        from chdzdt.chartok import default_vocab

        voc = default_vocab()
        lexicon = [e for e in make_universe()[0] if e.labels == ("EN",)][:60]
        mc = ModelConfig(vocab_size=voc.size, n_blocks=2, n_heads=2,
                         hidden=16, dropout=0.0, seed=0)
        tc = TrainConfig(epochs=25, batch_size=12, lr=3e-3, seed=4,
                         log_every=1)
        _, records = train(lexicon, mc, tc, voc)
        assert records[-1]["total"] < 0.4 * records[0]["total"]

    def test_log_file_is_parseable_jsonl_with_increasing_steps(self, tmp_path):
        lexicon, vocab = tmp_path / "lex.tsv", tmp_path / "vocab.json"
        model, tc = tmp_path / "model.json", tmp_path / "train.json"
        write_lexicon(toy_lexicon(), lexicon)
        vocab.write_text(json.dumps(VOC.spec()), encoding="utf-8")
        model.write_text(json.dumps(self.CFG), encoding="utf-8")
        tc.write_text(json.dumps({"epochs": 2, "batch_size": 8, "seed": 5,
                                  "log_every": 2}), encoding="utf-8")
        out = tmp_path / "m.ckpt"
        assert cli.main([str(a) for a in (
            "pretrain", "--lexicon", lexicon, "--vocab", vocab,
            "--model-config", model, "--train-config", tc,
            "--out", out)]) == 0
        log = tmp_path / "m.ckpt.trainlog.jsonl"
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert rows
        steps = [r["step"] for r in rows]
        assert steps == sorted(set(steps))
        for row in rows:
            for key in ("step", "epoch", "mlm", "multilabel", "total",
                        "lr", "samples_per_sec"):
                assert key in row

    def test_samples_per_sec_is_a_windowed_rate(self, monkeypatch):
        # a fake clock on which each mask_batch takes 1 s and each Adam
        # step 2 s: a record's window of k steps spans 3k s
        clock = [0.0]

        def ticking(fn, seconds):
            def wrapper(*args, **kwargs):
                clock[0] += seconds
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pretrain, "time",
                            types.SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(pretrain, "mask_batch",
                            ticking(pretrain.mask_batch, 1.0))
        monkeypatch.setattr(T.Adam, "step", ticking(T.Adam.step, 2.0))
        tc = TrainConfig(epochs=2, batch_size=4, seed=5, log_every=2)
        _, records = train(toy_lexicon(10), ModelConfig(**self.CFG), tc, VOC)
        # three steps per epoch, of 4, 4 and 2 words
        assert [r["step"] for r in records] == [2, 4, 6]
        assert [r["samples_per_sec"] for r in records] == [8 / 6, 6 / 6,
                                                           6 / 6]

    def test_non_finite_loss_aborts_with_step_and_batch(self):
        mc = ModelConfig(**self.CFG)
        state = EncoderState.init(mc, VOC)
        state.params["mlm_b"].data[...] = np.nan
        tc = TrainConfig(epochs=1, batch_size=8, seed=0)
        with pytest.raises(NumericalError, match=r"step 1"):
            _fit(state, toy_lexicon(), tc)

    def test_non_finite_loss_leaves_no_graph_for_the_cyclic_gc(self):
        tc = TrainConfig(epochs=2, batch_size=8, lr=1e30, seed=0)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with pytest.raises(NumericalError, match="step 2"):
                train(toy_lexicon(), ModelConfig(**self.CFG), tc, VOC)
            gc.collect()
            leaked = sum(isinstance(obj, T.Tensor) for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == 0

    def test_empty_lexicon_rejected(self):
        with pytest.raises(DataError):
            train([], ModelConfig(**self.CFG), TrainConfig(epochs=1), VOC)

    def test_lr_zero_freezes_parameters(self, tmp_path):
        mc = ModelConfig(**self.CFG)
        state, _ = train(toy_lexicon(), mc,
                         TrainConfig(epochs=1, batch_size=8, seed=5), VOC)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(state, ckpt)
        before = load_checkpoint(ckpt)
        state, _ = _fit(load_checkpoint(ckpt), toy_lexicon(),
                        TrainConfig(epochs=2, batch_size=8, lr=0.0, seed=6))
        for (_, p), (_, q) in zip(before.params.items(),
                                  state.params.items()):
            assert p.data.tobytes() == q.data.tobytes()


class TestCheckpointBytes:
    """save_checkpoint writes the weight buffer whole; the bytes equal a
    tensor-by-tensor serialization of the same state."""

    CFG = dict(vocab_size=VOC.size, n_blocks=2, n_heads=2, hidden=8,
               max_chars=8, dropout=0.1, seed=3)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("epochs", [0, 2], ids=["fresh", "trained"])
    def test_equal_per_tensor_oracle_and_survive_a_round_trip(
            self, tmp_path, dtype, epochs):
        with T.precision(dtype):
            state, _ = train(toy_lexicon(), ModelConfig(**self.CFG),
                             TrainConfig(epochs=epochs, batch_size=8,
                                         seed=5), VOC)
            assert state.flat.dtype == np.dtype(dtype)
            path, again = tmp_path / "m.ckpt", tmp_path / "again.ckpt"
            save_checkpoint(state, path)
            save_checkpoint(load_checkpoint(path), again)
        assert path.read_bytes() == per_tensor_checkpoint_bytes(state)
        assert again.read_bytes() == path.read_bytes()

    def test_params_view_the_buffer_after_training(self):
        state, _ = train(toy_lexicon(), ModelConfig(**self.CFG),
                         TrainConfig(epochs=1, batch_size=8, seed=5), VOC)
        for name, p in state.params.items():
            assert np.shares_memory(p.data, state.flat), name
