import math

import numpy as np
import pytest

from chdzdt import tensor as T
from chdzdt.chartok import build_vocab, encode_word
from chdzdt.encoder import (
    EncoderState,
    ModelConfig,
    count_params,
    encode_words,
    forward,
    forward_batch,
    load_checkpoint,
    loss_mlm,
    loss_multilabel,
    loss_total,
    parameter_manifest,
    save_checkpoint,
)
from chdzdt.errors import ConfigError, CorruptCheckpointError

from oracles import finite_diff_max_rel_err

VOC = build_vocab([(97, 122)])  # a-z


def small_state(n_blocks=1, n_heads=1, hidden=4, max_chars=6, seed=0, dropout=0.0):
    cfg = ModelConfig(vocab_size=VOC.size, n_blocks=n_blocks, n_heads=n_heads,
                      hidden=hidden, max_chars=max_chars, dropout=dropout, seed=seed)
    return EncoderState.init(cfg, VOC)


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


class TestForward:
    def test_eval_determinism(self):
        state = small_state()
        tok = encode_word(VOC, "dar", max_chars=6)
        a = forward(state, tok).hidden.data
        b = forward(state, tok).hidden.data
        assert np.array_equal(a, b)

    def test_cls_is_row_zero(self):
        state = small_state()
        out = forward(state, encode_word(VOC, "dar", max_chars=6))
        assert np.array_equal(out.cls.data, out.hidden.data[0])

    def test_pad_contents_cannot_leak(self):
        state = small_state(n_blocks=2, hidden=8, n_heads=2)
        tok = encode_word(VOC, "ab", max_chars=6)
        base = forward(state, tok)
        tampered = encode_word(VOC, "ab", max_chars=6)
        tampered.ids[4] = VOC.stoi["z"]  # PAD slot, mask still 0 there
        out = forward(state, tampered)
        assert np.array_equal(base.cls.data, out.cls.data)
        assert np.array_equal(base.label_probs.data, out.label_probs.data)

    def test_attention_rows_sum_to_one(self):
        state = small_state(n_blocks=2, hidden=8, n_heads=2)
        tok = encode_word(VOC, "abc", max_chars=6)
        sink = []
        forward_batch(state, tok.ids[None, :], tok.attention_mask[None, :], attn_sink=sink)
        for attn in sink:
            assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-5)
            # PAD columns carry exactly zero weight
            assert not attn[..., tok.attention_mask == 0].any()

    def test_label_probs_in_open_interval(self):
        state = small_state()
        out = forward(state, encode_word(VOC, "abc", max_chars=6))
        assert ((out.label_probs.data > 0) & (out.label_probs.data < 1)).all()

    def test_wrong_length_rejected(self):
        state = small_state(max_chars=6)
        tok = encode_word(VOC, "ab", max_chars=9)
        with pytest.raises(ConfigError):
            forward(state, tok)

    def test_hand_set_weights_match_straight_line_numpy(self):
        cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=1, hidden=2,
                          ffn_mult=2, max_chars=2, dropout=0.0, seed=3)
        state = EncoderState.init(cfg, VOC)
        rng = np.random.default_rng(42)
        for _, p in state.named_parameters():
            p.data[...] = rng.uniform(-0.5, 0.5, p.data.shape).astype(p.data.dtype)
        tok = encode_word(VOC, "ab", max_chars=2)
        got = forward(state, tok).hidden.data

        # independent reference computation, plain numpy, float64
        P = {k: v.data.astype(np.float64) for k, v in state.params.items()}
        ids, mask = tok.ids, tok.attention_mask
        x = P["char_emb"][ids] + P["pos_emb"]

        def ln(z, g, b, eps=1e-5):
            mu = z.mean(axis=-1, keepdims=True)
            var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
            return (z - mu) / np.sqrt(var + eps) * g + b

        q = x @ P["block0.attn_q_w"] + P["block0.attn_q_b"]
        k = x @ P["block0.attn_k_w"] + P["block0.attn_k_b"]
        v = x @ P["block0.attn_v_w"] + P["block0.attn_v_b"]
        scores = q @ k.T / math.sqrt(2) + np.where(mask == 0, -1e9, 0.0)[None, :]
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
        state = small_state(n_blocks=2, n_heads=2, hidden=8)
        words = ["dar", "kbira", "w", "dar", "abcdefgh", "xyz", "mm", "w"]
        words = [words[i] for i in np.random.default_rng(0).permutation(8)]
        single = []
        for w in words:
            tok = encode_word(VOC, w, max_chars=6)
            _, cls, _ = forward_batch(state, tok.ids[None],
                                      tok.attention_mask[None])
            single.append(cls.data[0])
        monkeypatch.setattr("chdzdt.encoder.ENCODE_CHUNK", 3)
        rows = encode_words(state, words)
        assert rows.shape == (8, 8)
        np.testing.assert_array_equal(rows, np.stack(single))

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
        loss = loss_mlm(state, tok, {2}, tok.ids)
        assert math.isclose(float(loss.data), math.log(VOC.size), rel_tol=1e-5)

    def test_mlm_forced_correct_logits(self):
        state = small_state()
        tok = encode_word(VOC, "dar", max_chars=6)
        state.params["mlm_w"].data[...] = 0.0
        state.params["mlm_b"].data[...] = -50.0
        state.params["mlm_b"].data[tok.ids[2]] = 50.0
        assert float(loss_mlm(state, tok, {2}, tok.ids).data) < 1e-5

    def test_mlm_mean_linearity(self):
        state = small_state(seed=5)
        tok = encode_word(VOC, "darija", max_chars=6)
        li = float(loss_mlm(state, tok, {2}, tok.ids).data)
        lj = float(loss_mlm(state, tok, {4}, tok.ids).data)
        lij = float(loss_mlm(state, tok, {2, 4}, tok.ids).data)
        assert math.isclose(lij, (li + lj) / 2, rel_tol=1e-5)

    def test_mlm_empty_mask_rejected(self):
        state = small_state()
        tok = encode_word(VOC, "dar", max_chars=6)
        with pytest.raises(ValueError):
            loss_mlm(state, tok, set(), tok.ids)

    def test_mlm_cls_position_rejected(self):
        state = small_state()
        tok = encode_word(VOC, "dar", max_chars=6)
        with pytest.raises(ValueError):
            loss_mlm(state, tok, {0}, tok.ids)

    def test_multilabel_half_probs(self):
        state = small_state()
        state.params["label_w"].data[...] = 0.0
        state.params["label_b"].data[...] = 0.0
        out = forward(state, encode_word(VOC, "dar", max_chars=6))
        loss = loss_multilabel(state, out, [1, 0, 1, 0, 0])
        assert math.isclose(float(loss.data), 5 * math.log(2), rel_tol=1e-6)

    def test_multilabel_permutation_equivariance(self):
        state = small_state(seed=9)
        out = forward(state, encode_word(VOC, "dar", max_chars=6))
        probs = out.label_probs
        base = float(loss_multilabel(state, out, [1, 0, 0, 1, 0]).data)
        # permuting (prob, target) pairs together leaves the sum unchanged
        perm = [4, 3, 2, 1, 0]
        out.label_probs = probs[np.asarray(perm)]
        permuted = float(loss_multilabel(state, out, [0, 1, 0, 0, 1]).data)
        assert math.isclose(base, permuted, rel_tol=1e-6)

    def test_total_is_plain_sum(self):
        assert float(loss_total(T.Tensor(np.array(2.0)), T.Tensor(np.array(1.5))).data) == 3.5
        x = T.Tensor(np.array(0.7))
        assert float(loss_total(T.Tensor(np.array(0.0)), x).data) == pytest.approx(0.7)


class TestCountParams:
    def test_matches_allocated_arrays(self):
        for kwargs in ({"hidden": 2, "n_blocks": 1, "n_heads": 1, "max_chars": 4},
                       {"hidden": 8, "n_blocks": 3, "n_heads": 2, "max_chars": 6}):
            state = small_state(**kwargs)
            assert state.n_params() == count_params(state.config)

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


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        state = small_state(n_blocks=2, hidden=8, n_heads=2, seed=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.config == state.config
        assert loaded.vocab.spec() == state.vocab.spec()
        for (name, p), (name2, q) in zip(state.named_parameters(), loaded.named_parameters()):
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


class TestGradients:
    def test_joint_loss_matches_finite_differences(self):
        with T.precision("float64"):
            state = small_state(n_blocks=1, n_heads=1, hidden=4, max_chars=5, seed=1)
            tok = encode_word(VOC, "darja", max_chars=5)
            corrupted = encode_word(VOC, "darja", max_chars=5)
            from chdzdt.chartok import MASK_ID

            corrupted.ids[2] = MASK_ID
            targets = [1, 0, 0, 1, 0]

            def build():
                out = forward(state, corrupted)
                lm = loss_mlm(state, corrupted, {2}, tok.ids)
                lb = loss_multilabel(state, out, targets)
                return loss_total(lm, lb)

            err, _ = finite_diff_max_rel_err(
                build, state.parameters(), np.random.default_rng(0), n_samples=20)
        assert err < 1e-3

    def test_single_adam_step_decreases_loss(self):
        state = small_state(n_blocks=1, n_heads=2, hidden=8, max_chars=5, seed=7)
        tok = encode_word(VOC, "darja", max_chars=5)
        corrupted = encode_word(VOC, "darja", max_chars=5)
        from chdzdt.chartok import MASK_ID

        corrupted.ids[3] = MASK_ID
        targets = [0, 1, 0, 0, 1]
        opt = T.Adam(state.parameters(), lr=1e-4)

        def total():
            out = forward(state, corrupted)
            return loss_total(loss_mlm(state, corrupted, {3}, tok.ids),
                              loss_multilabel(state, out, targets))

        before = total()
        before_val = float(before.data)
        before.backward()
        opt.step()
        assert float(total().data) < before_val
