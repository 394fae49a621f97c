import json
import math
import struct

import numpy as np
import pytest

from chdzdt import encoder
from chdzdt import tensor as T
from chdzdt.chartok import MASK_ID, PAD_ID, CharVocab, encode_word
from chdzdt.encoder import (
    EncoderState,
    ModelConfig,
    count_params,
    encode_words,
    forward_batch,
    load_checkpoint,
    parameter_manifest,
    save_checkpoint,
)
from chdzdt.errors import ConfigError, CorruptCheckpointError
from chdzdt.pretrain import MaskedBatch, batch_loss, mask_batch

from oracles import finite_diff_max_rel_err

VOC = CharVocab([(97, 122)])  # a-z


def small_state(n_blocks=1, n_heads=1, hidden=4, max_chars=6, seed=0, dropout=0.0):
    cfg = ModelConfig(vocab_size=VOC.size, n_blocks=n_blocks, n_heads=n_heads,
                      hidden=hidden, max_chars=max_chars, dropout=dropout, seed=seed)
    return EncoderState.init(cfg, VOC)


def forward_one(state, tok):
    """forward_batch on a batch of one word: (hidden, cls)."""
    return forward_batch(state, tok[None, :])


def label_probs(state, cls):
    """The multi-label head pre-training applies to cls."""
    return T.linear(cls, state.params["label_w"],
                    state.params["label_b"]).sigmoid()


def one_row(tok, positions, original_ids, targets=(1, 0, 0, 0, 0)):
    """A MaskedBatch of one row: the ids tok as given, losses at positions."""
    positions = sorted(positions)
    char_targets = np.full((1, tok.size), PAD_ID, dtype=np.int64)
    char_targets[0, positions] = np.asarray(original_ids)[positions]
    return MaskedBatch(corrupted=tok[None, :], char_targets=char_targets,
                       targets=np.asarray([targets], dtype=np.float64))


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, n_heads=3, hidden=16)

    def test_counts_positive(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=10, n_blocks=0)

    def test_roundtrip_dict(self):
        cfg = ModelConfig(vocab_size=31, n_blocks=3, n_heads=4, hidden=32)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field, value", [
        ("hidden", 8.5), ("n_blocks", "2"), ("n_heads", True),
        ("dropout", "0.1"), ("seed", None), ("n_layers", 2)])
    def test_from_dict_rejects_wrong_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig.from_dict({"vocab_size": 10, field: value})


class TestForward:
    def test_eval_determinism(self):
        state = small_state()
        tok = encode_word(VOC, "dar", max_chars=6)
        a = forward_one(state, tok)[0].data
        b = forward_one(state, tok)[0].data
        assert np.array_equal(a, b)

    def test_dropout_applies_only_with_an_rng(self):
        ids = encode_word(VOC, "dar", max_chars=6)[None, :]

        def run(state, rng=None):
            hidden, cls = forward_batch(state, ids, rng)
            return hidden.data.tobytes() + cls.data.tobytes()

        plain = run(small_state(n_blocks=2, hidden=8, n_heads=2))
        dropped = small_state(n_blocks=2, hidden=8, n_heads=2, dropout=0.1)
        assert run(dropped) == plain
        assert run(dropped, np.random.default_rng(0)) != plain

    def test_cls_is_row_zero(self):
        state = small_state()
        hidden, cls = forward_one(state, encode_word(VOC, "dar", max_chars=6))
        assert np.array_equal(cls.data[0], hidden.data[0, 0])

    def test_pad_contents_cannot_leak(self):
        # the embedding a padded position carries never reaches CLS
        state = small_state(n_blocks=2, hidden=8, n_heads=2)
        tok = encode_word(VOC, "ab", max_chars=6)
        _, base_cls = forward_one(state, tok)
        base_probs = label_probs(state, base_cls)
        rng = np.random.default_rng(0)
        for name, rows in (("char_emb", PAD_ID), ("pos_emb", tok == PAD_ID)):
            table = state.params[name].data
            table[rows] = rng.normal(0.0, 10.0, table[rows].shape)
        _, cls = forward_one(state, tok)
        probs = label_probs(state, cls)
        assert cls.data.tobytes() == base_cls.data.tobytes()
        assert probs.data.tobytes() == base_probs.data.tobytes()

    def test_attention_rows_sum_to_one(self, monkeypatch):
        # the encoder calls softmax only for attention
        state = small_state(n_blocks=2, hidden=8, n_heads=2)
        tok = encode_word(VOC, "abc", max_chars=6)
        sink = []

        def recording_softmax(*args, **kwargs):
            out = T.softmax(*args, **kwargs)
            sink.append(out.data.copy())
            return out

        monkeypatch.setattr(encoder, "softmax", recording_softmax)
        forward_one(state, tok)
        assert len(sink) == 2
        for attn in sink:
            assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-5)
            # PAD columns carry exactly zero weight
            assert not attn[..., tok == PAD_ID].any()

    def test_label_probs_in_open_interval(self):
        state = small_state()
        cls = forward_one(state, encode_word(VOC, "abc", max_chars=6))[1]
        probs = label_probs(state, cls).data
        assert probs.shape == (1, 5)
        assert ((probs > 0) & (probs < 1)).all()

    def test_wrong_length_rejected(self):
        state = small_state(max_chars=6)
        tok = encode_word(VOC, "ab", max_chars=9)
        with pytest.raises(ConfigError):
            forward_one(state, tok)
        with pytest.raises(ConfigError):
            forward_one(state, tok[:0])

    def test_cut_batch_matches_full_width(self):
        # dropping all-PAD columns changes only the rounding: PAD keys get
        # zero attention weight and no loss reads a PAD row
        state = small_state(n_blocks=2, n_heads=2, hidden=16, max_chars=20,
                            seed=2)
        ids = np.stack([encode_word(VOC, w, max_chars=20)
                        for w in ("dar", "kbira", "w", "sarout", "mliha")])
        cut = encoder.cut_to_longest(ids)
        t = cut.shape[1]
        assert t == 7
        batch = mask_batch(cut, np.eye(5), 0.3, np.random.default_rng(0))
        full = MaskedBatch(
            corrupted=np.pad(batch.corrupted, ((0, 0), (0, 21 - t)),
                             constant_values=PAD_ID),
            char_targets=np.pad(batch.char_targets, ((0, 0), (0, 21 - t)),
                                constant_values=PAD_ID),
            targets=batch.targets)
        runs = []
        for b in (batch, full):
            hidden, cls = forward_batch(state, b.corrupted)
            total = batch_loss(state, b)[0]
            for p in state.params.values():
                p.grad = None
            total.backward()
            runs.append((hidden.data[:, :t], cls.data, float(total.data),
                         {k: p.grad for k, p in state.params.items()}))
        (h_cut, cls_cut, loss_cut, g_cut), (h_full, cls_full, loss_full,
                                            g_full) = runs
        np.testing.assert_allclose(h_cut, h_full, rtol=0, atol=1e-5)
        np.testing.assert_allclose(cls_cut, cls_full, rtol=0, atol=1e-5)
        assert math.isclose(loss_cut, loss_full, rel_tol=0, abs_tol=1e-5)
        assert g_cut.keys() == g_full.keys()
        for name in g_full:
            np.testing.assert_allclose(g_cut[name], g_full[name], rtol=0,
                                       atol=1e-5, err_msg=name)
        pos = g_cut["pos_emb"]
        assert pos.shape == (21, 16)
        assert pos[:t].any() and not pos[t:].any()

    def test_hand_set_weights_match_straight_line_numpy(self):
        cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=1, hidden=2,
                          ffn_mult=2, max_chars=2, dropout=0.0, seed=3)
        state = EncoderState.init(cfg, VOC)
        rng = np.random.default_rng(42)
        for p in state.params.values():
            p.data[...] = rng.uniform(-0.5, 0.5, p.data.shape).astype(p.data.dtype)
        tok = encode_word(VOC, "ab", max_chars=2)
        got = forward_one(state, tok)[0].data[0]

        # independent reference computation, plain numpy, float64
        P = {k: v.data.astype(np.float64) for k, v in state.params.items()}
        ids = tok
        pad = np.arange(ids.size) > len("ab")  # past CLS and both characters
        x = P["char_emb"][ids] + P["pos_emb"]

        def ln(z, g, b, eps=1e-5):
            mu = z.mean(axis=-1, keepdims=True)
            var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
            return (z - mu) / np.sqrt(var + eps) * g + b

        q = x @ P["block0.attn_q_w"] + P["block0.attn_q_b"]
        k = x @ P["block0.attn_k_w"] + P["block0.attn_k_b"]
        v = x @ P["block0.attn_v_w"] + P["block0.attn_v_b"]
        scores = q @ k.T / math.sqrt(2) + np.where(pad, -1e9, 0.0)[None, :]
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        ctx = attn @ v @ P["block0.attn_o_w"] + P["block0.attn_o_b"]
        x = ln(x + ctx, P["block0.ln1_g"], P["block0.ln1_b"])
        pre = x @ P["block0.ffn_w1"] + P["block0.ffn_b1"]
        act = 0.5 * pre * (1 + np.tanh(np.sqrt(2 / np.pi) * (pre + 0.044715 * pre ** 3)))
        ff = act @ P["block0.ffn_w2"] + P["block0.ffn_b2"]
        expected = ln(x + ff, P["block0.ln2_g"], P["block0.ln2_b"])
        assert np.allclose(got, expected, atol=1e-5)


class TestEncodeWords:
    def test_repeatable_and_sized(self):
        state = small_state(hidden=8, n_heads=2)
        a, b = encode_words(state, ["dar"])[0], encode_words(state, ["dar"])[0]
        assert np.array_equal(a, b)
        assert a.shape == (8,)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            encode_words(small_state(), ["  "])

    def test_rows_bit_identical_to_batch_of_one(self, monkeypatch):
        # a row's bits depend on its word only, not on the words it is
        # batched with: embed_rows dedups words and encode_words buckets
        # and chunks them. At d128 the row minimum is what keeps it so.
        monkeypatch.setattr("chdzdt.encoder.ENCODE_CHUNK", 7)
        rng = np.random.default_rng(0)
        for kwargs, n_words, max_len in (
                ({"n_blocks": 2, "n_heads": 2, "hidden": 8}, 8, 8),
                ({"n_blocks": 2, "n_heads": 2, "hidden": 16, "max_chars": 20},
                 60, 25),
                ({"n_blocks": 4, "n_heads": 4, "hidden": 128, "max_chars": 32},
                 300, 29)):
            state = small_state(**kwargs)
            words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"),
                                        size=rng.integers(1, max_len + 1)))
                     for _ in range(n_words - 2)]
            words += words[:2]
            alone = np.concatenate([encode_words(state, [w]) for w in words])
            rows = encode_words(state, words)
            assert rows.shape == (n_words, kwargs["hidden"])
            assert rows.tobytes() == alone.tobytes(), kwargs["hidden"]

    def test_forward_builds_no_graph(self, monkeypatch):
        state = small_state()
        seen = []

        def spy(*args, **kwargs):
            out = forward_batch(*args, **kwargs)
            seen.append(out[1])
            return out

        monkeypatch.setattr("chdzdt.encoder.forward_batch", spy)
        assert encode_words(state, []).shape == (0, 4)
        assert encode_words(state, ["dar", "w"]).shape == (2, 4)
        assert len(seen) == 1
        assert seen[0]._prev == () and not seen[0].requires_grad
        assert T._GRAD_ENABLED


class TestLosses:
    def test_mlm_uniform_logits(self):
        state = small_state()
        state.params["mlm_w"].data[...] = 0.0
        state.params["mlm_b"].data[...] = 0.0
        tok = encode_word(VOC, "dar", max_chars=6)
        _, loss, _ = batch_loss(state, one_row(tok, {2}, tok))
        assert math.isclose(float(loss.data), math.log(VOC.size), rel_tol=1e-5)

    def test_mlm_forced_correct_logits(self):
        state = small_state()
        tok = encode_word(VOC, "dar", max_chars=6)
        state.params["mlm_w"].data[...] = 0.0
        state.params["mlm_b"].data[...] = -50.0
        state.params["mlm_b"].data[tok[2]] = 50.0
        assert float(batch_loss(state, one_row(tok, {2}, tok))[1].data) < 1e-5

    def test_mlm_mean_linearity(self):
        state = small_state(seed=5)
        tok = encode_word(VOC, "darija", max_chars=6)

        def mlm(positions):
            return float(batch_loss(state, one_row(tok, positions, tok))[1].data)

        li, lj, lij = mlm({2}), mlm({4}), mlm({2, 4})
        assert math.isclose(lij, (li + lj) / 2, rel_tol=1e-5)

    def test_multilabel_half_probs(self):
        state = small_state()
        state.params["label_w"].data[...] = 0.0
        state.params["label_b"].data[...] = 0.0
        tok = encode_word(VOC, "dar", max_chars=6)
        _, _, loss = batch_loss(state, one_row(tok, {2}, tok, [1, 0, 1, 0, 0]))
        assert math.isclose(float(loss.data), 5 * math.log(2), rel_tol=1e-6)

    def test_multilabel_permutation_equivariance(self):
        state = small_state(seed=9)
        cls = forward_one(state, encode_word(VOC, "dar", max_chars=6))[1]
        probs = label_probs(state, cls)[0]
        base = float(T.bce_multilabel(probs, [1, 0, 0, 1, 0]).data)
        # permuting (prob, target) pairs together leaves the sum unchanged
        perm = [4, 3, 2, 1, 0]
        permuted = float(T.bce_multilabel(probs[np.asarray(perm)], [0, 1, 0, 0, 1]).data)
        assert math.isclose(base, permuted, rel_tol=1e-6)

    def test_total_is_plain_sum(self):
        for seed in range(3):
            state = small_state(seed=seed)
            tok = encode_word(VOC, "darja", max_chars=6)
            total, mlm, multilabel = batch_loss(
                state, one_row(tok, {1, 3}, tok, [0, 1, 1, 0, 1]))
            assert total.data.tobytes() == (mlm.data + multilabel.data).tobytes()


class TestCountParams:
    def test_matches_allocated_arrays(self):
        for kwargs in ({"hidden": 2, "n_blocks": 1, "n_heads": 1, "max_chars": 4},
                       {"hidden": 8, "n_blocks": 3, "n_heads": 2, "max_chars": 6}):
            state = small_state(**kwargs)
            assert state.flat.size == count_params(state.config)

    @pytest.mark.parametrize("extra", [3, -3], ids=["long", "short"])
    def test_flat_buffer_of_the_wrong_size_rejected(self, extra):
        cfg = small_state().config
        n = count_params(cfg)
        with pytest.raises(ValueError, match=rf"buffer of {n} floats, got "
                                             rf"{n + extra} in shape"):
            EncoderState(cfg, VOC, np.zeros(n + extra, np.float32))

    def test_doubling_blocks_adds_block_worth(self):
        c1 = ModelConfig(vocab_size=50, n_blocks=1, n_heads=2, hidden=16)
        c2 = ModelConfig(vocab_size=50, n_blocks=2, n_heads=2, hidden=16)
        c4 = ModelConfig(vocab_size=50, n_blocks=4, n_heads=2, hidden=16)
        per_block = count_params(c2) - count_params(c1)
        assert count_params(c4) == count_params(c1) + 3 * per_block

    def test_heads_do_not_change_count(self):
        counts = {count_params(ModelConfig(vocab_size=50, n_heads=h, hidden=16))
                  for h in (1, 2, 4)}
        assert len(counts) == 1

    def test_width_strictly_increases_count(self):
        counts = [count_params(ModelConfig(vocab_size=50, n_heads=2, hidden=d))
                  for d in (8, 16, 32)]
        assert counts[0] < counts[1] < counts[2]


def _split_checkpoint(raw):
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def _join_checkpoint(raw, header, body):
    text = json.dumps(header).encode("utf-8")
    return raw[:8] + struct.pack("<Q", len(text)) + text + body


def _drop_first_name(raw):
    header, body = _split_checkpoint(raw)
    del header["tensors"][0]["name"]
    return _join_checkpoint(raw, header, body)


def _tensors_not_a_list(raw):
    header, body = _split_checkpoint(raw)
    header["tensors"] = "x"
    return _join_checkpoint(raw, header, body)


def _reversed_charset_range(raw):
    header, body = _split_checkpoint(raw)
    header["charset"]["ranges"] = [[122, 97]]
    return _join_checkpoint(raw, header, body)


def _fractional_hidden(raw):
    header, body = _split_checkpoint(raw)
    header["config"]["hidden"] = 4.0
    return _join_checkpoint(raw, header, body)


def _nan_body(raw):
    header, body = _split_checkpoint(raw)
    return _join_checkpoint(raw, header, b"\xff" * len(body))


def _header_past_end(raw):
    return raw[:8] + struct.pack("<Q", len(raw)) + raw[16:]


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        state = small_state(n_blocks=2, hidden=8, n_heads=2, seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.config == state.config
        assert loaded.vocab.spec() == state.vocab.spec()
        for (name, p), (name2, q) in zip(state.params.items(), loaded.params.items()):
            assert name == name2
            assert p.data.tobytes() == q.data.tobytes()

    def test_serialized_floats_equal_count_params(self, tmp_path):
        state = small_state(n_blocks=2, hidden=8, n_heads=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        raw = path.read_bytes()
        import json as _json
        import struct as _struct

        (hlen,) = _struct.unpack_from("<Q", raw, 8)
        body = len(raw) - 16 - hlen
        assert body // 4 == count_params(state.config)

    def test_truncated_rejected_without_partial_state(self, tmp_path):
        state = small_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(clipped)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"JUNKxxxxxxxxxxxxxxxx")
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        state = small_state()
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(padded)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw + b"\x00\x00", "2 trailing bytes"),
        (lambda raw: raw[:-2], "body is 2 bytes short")],
        ids=["two_extra", "two_missing"])
    def test_body_length_not_a_float_multiple_rejected(self, tmp_path, edit,
                                                       message):
        # checked before the body is read as float32, which would raise
        # a bare ValueError on such a length
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_state(), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(CorruptCheckpointError, match=message):
            load_checkpoint(path)

    def test_header_bit_flips_raise_only_corrupt(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_state(), path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, 8)
        rng = np.random.default_rng(0)
        bad = tmp_path / "bad.ckpt"
        for _ in range(300):
            flipped = bytearray(raw)
            flipped[int(rng.integers(16, 16 + hlen))] ^= 1 << int(rng.integers(8))
            bad.write_bytes(bytes(flipped))
            try:
                load_checkpoint(bad)
            except CorruptCheckpointError:
                pass

    @pytest.mark.parametrize("corrupt, message", [
        (_drop_first_name, "tensor manifest"),
        (_tensors_not_a_list, "tensor manifest"),
        (_reversed_charset_range, "malformed header"),
        (_fractional_hidden, "malformed header"),
        (_nan_body, "non-finite weights"),
        (_header_past_end, "truncated header")],
        ids=["entry_without_name", "tensors_not_a_list",
             "reversed_charset_range", "float_config_field", "all_ff_body",
             "header_past_end"])
    def test_malformed_checkpoint_raises_corrupt(self, tmp_path, corrupt,
                                                 message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(small_state(), path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(CorruptCheckpointError, match=message):
            load_checkpoint(bad)


class TestGradients:
    def test_joint_loss_matches_finite_differences(self):
        with T.precision("float64"):
            state = small_state(n_blocks=1, n_heads=1, hidden=4, max_chars=5, seed=1)
            tok = encode_word(VOC, "darja", max_chars=5)
            corrupted = encode_word(VOC, "darja", max_chars=5)
            corrupted[2] = MASK_ID
            batch = one_row(corrupted, {2}, tok, [1, 0, 0, 1, 0])

            def build():
                return batch_loss(state, batch)[0]

            err, _ = finite_diff_max_rel_err(
                build, list(state.params.values()), np.random.default_rng(0), n_samples=20)
        assert err < 1e-3

    def test_single_adam_step_decreases_loss(self):
        state = small_state(n_blocks=1, n_heads=2, hidden=8, max_chars=5, seed=7)
        tok = encode_word(VOC, "darja", max_chars=5)
        corrupted = encode_word(VOC, "darja", max_chars=5)
        corrupted[3] = MASK_ID
        batch = one_row(corrupted, {3}, tok, [0, 1, 0, 0, 1])
        opt = T.Adam([state.param_set], lr=1e-4)

        def total():
            return batch_loss(state, batch)[0]

        before = total()
        before_val = float(before.data)
        before.backward()
        opt.step()
        assert float(total().data) < before_val
