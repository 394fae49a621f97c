"""Embedder adapters, evaluation-file loaders, and obfuscation."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chdzdt.chartok import CharVocab
from chdzdt.encoder import EncoderState, ModelConfig, save_checkpoint
from chdzdt.errors import ConfigError, DataError
from chdzdt.evalsuite import datasets as D
from chdzdt.evalsuite.embedder import (
    CheckpointEmbedder,
    TsvEmbedder,
    embed_rows,
    load_embedder,
    write_embeddings_tsv,
)
from chdzdt.evalsuite.obfuscate import (
    MODES,
    ObfuscationTable,
    default_table,
    make_noisy_tuples,
    noise_report,
    obfuscate,
)

VOC = CharVocab([(97, 122)])


class ConstantEmbedder:
    """Same unit-ish vector for every word."""

    dim = 3

    def embed_many(self, words):
        return [np.array([1.0, 2.0, 2.0]) for _ in words]


class FirstCharEmbedder:
    """One-hot over the first character's code point (mod 64)."""

    dim = 64

    def embed_many(self, words):
        vecs = np.zeros((len(words), 64))
        for vec, word in zip(vecs, words):
            vec[ord(word[0]) % 64] = 1.0
        return vecs


class HashEmbedder:
    """Deterministic pseudo-random vector per word."""

    def __init__(self, dim=8):
        self.dim = dim

    def embed_many(self, words):
        return [np.random.default_rng(
            sum(ord(c) * (i + 1) for i, c in enumerate(word)) % (2**31)
        ).normal(size=self.dim) for word in words]


class TestTsvEmbedder:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        words = ["cat", "chapeau", "شمس"]
        vectors = [np.array([0.5, -1.25, 3.0]),
                   np.array([1e-8, 2.0, -7.5]),
                   np.array([0.1, 0.2, 0.3])]
        write_embeddings_tsv(path, words, np.stack(vectors))
        emb = TsvEmbedder.from_file(path)
        assert emb.dim == 3 and not isinstance(emb, CheckpointEmbedder)
        for word, vec in zip(words, vectors):
            np.testing.assert_array_equal(emb.embed_many([word])[0], vec)
        np.testing.assert_array_equal(emb.embed_many(words[::-1]),
                                      np.stack(vectors[::-1]))
        assert emb.embed_many([]).shape == (0, 3)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(
        st.floats(width=32) | st.sampled_from(
            [0.0, -0.0, 1e-05, 1e16, -1e16, 1e-45, -1e-45, 1.1754942e-38]),
        min_size=4, max_size=4), min_size=1, max_size=6))
    def test_rows_are_per_element_float_reprs(self, tmp_path, rows):
        vectors = np.asarray(rows, dtype=np.float32)
        words = [f"w{i}" for i in range(len(rows))]
        path = tmp_path / "vecs.tsv"
        write_embeddings_tsv(path, words, vectors)
        want = "#dim 4\n" + "".join(
            f"{w}\t{' '.join(repr(float(x)) for x in v)}\n"
            for w, v in zip(words, vectors))
        assert path.read_bytes() == want.encode("utf-8")

    def test_header_line(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        write_embeddings_tsv(path, ["a"], np.arange(4.0)[None])
        assert path.read_text(encoding="utf-8").splitlines()[0] == "#dim 4"

    def test_empty_write_needs_dim(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        write_embeddings_tsv(path, [], np.zeros((0, 5)))
        assert path.read_text(encoding="utf-8") == "#dim 5\n"

    def test_loading_header_only_file_fails(self, tmp_path):
        path = tmp_path / "vecs.tsv"
        write_embeddings_tsv(path, [], np.zeros((0, 5)))
        with pytest.raises(DataError, match="empty"):
            TsvEmbedder.from_file(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("cat\t1 2 3\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            TsvEmbedder.from_file(path)

    def test_bad_header_dim(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("#dim banana\n", encoding="utf-8")
        with pytest.raises(DataError, match="dimension"):
            TsvEmbedder.from_file(path)

    def test_wrong_column_count_cites_line(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("#dim 2\na\t1 2\nb\t1\t2\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"v\.tsv:3"):
            TsvEmbedder.from_file(path)

    def test_duplicate_word_cites_line(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("#dim 1\na\t1\na\t2\n", encoding="utf-8")
        with pytest.raises(DataError, match=r":3.*duplicate"):
            TsvEmbedder.from_file(path)

    def test_non_numeric_vector(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("#dim 2\na\t1 x\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-numeric"):
            TsvEmbedder.from_file(path)

    @pytest.mark.parametrize("row", ["dog\tnan 1", "cat\t1e999 3",
                                     "bab\t1 -inf"])
    def test_non_finite_vector_cites_line(self, tmp_path, row):
        path = tmp_path / "v.tsv"
        path.write_text(f"#dim 2\na\t1 2\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"v\.tsv:3: non-finite vector"):
            TsvEmbedder.from_file(path)

    def test_dim_mismatch_row(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("#dim 3\na\t1 2\n", encoding="utf-8")
        with pytest.raises(DataError, match="header says 3"):
            TsvEmbedder.from_file(path)

    def test_unknown_word(self, tmp_path):
        path = tmp_path / "v.tsv"
        write_embeddings_tsv(path, ["a"], np.zeros((1, 2)))
        emb = TsvEmbedder.from_file(path)
        with pytest.raises(DataError, match="'b'"):
            emb.embed_many(["a", "b"])


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    cfg = ModelConfig(vocab_size=VOC.size, n_blocks=1, n_heads=1,
                      hidden=8, max_chars=6, seed=3)
    state = EncoderState.init(cfg, VOC)
    path = tmp_path_factory.mktemp("ck") / "model.ckpt"
    save_checkpoint(state, path)
    return path


class TestCheckpointEmbedder:
    def test_load_embedder_sniffs_checkpoint(self, ckpt):
        emb = load_embedder(ckpt)
        assert isinstance(emb, CheckpointEmbedder)
        assert emb.dim == 8
        vec = emb.embed("cat")
        assert vec.shape == (8,) and np.all(np.isfinite(vec))

    def test_load_embedder_sniffs_tsv(self, tmp_path):
        path = tmp_path / "v.tsv"
        write_embeddings_tsv(path, ["a"], np.zeros((1, 2)))
        assert isinstance(load_embedder(path), TsvEmbedder)

    def test_embed_many_matches_embed(self, ckpt):
        words = ["dog", "cat", "dog", "running", "cat"]
        rows = load_embedder(ckpt).embed_many(words)
        single = load_embedder(ckpt)
        np.testing.assert_array_equal(
            rows, np.stack([single.embed(w) for w in words]))
        assert load_embedder(ckpt).embed_many([]).shape == (0, 8)


class TestEmbedRows:
    def test_one_call_over_distinct_words_in_input_order(self):
        calls = []

        class Spy(HashEmbedder):
            def embed_many(self, words):
                calls.append(list(words))
                return super().embed_many(words)

        rows = embed_rows(Spy(), ["cd", "ab", "cd"], np.float32)
        assert calls == [["cd", "ab"]]
        assert rows.dtype == np.float32 and rows.shape == (3, 8)
        distinct = np.asarray(HashEmbedder().embed_many(["cd", "ab"]),
                              dtype=np.float32)
        np.testing.assert_array_equal(rows, distinct[[0, 1, 0]])

    def test_ragged_vectors_rejected(self):
        emb = HashEmbedder()
        emb.embed_many = lambda words: [np.zeros(8), np.zeros(7)]
        with pytest.raises(DataError, match="unequal"):
            embed_rows(emb, ["ab", "cd"], np.float64)

    def test_wrong_vector_shape_rejected(self):
        emb = ConstantEmbedder()
        emb.dim = 5
        with pytest.raises(DataError, match="shape"):
            embed_rows(emb, ["ab"], np.float64)


class TestOneEncodePerTask:
    """Each task encodes each distinct word it reads once, in one call."""

    CLUSTERS = [("dog", ["dog", "dogs", "doggy"]), ("cat", ["cats", "cat"]),
                ("run", ["runs", "ran", "running"])]

    @pytest.fixture
    def batches(self, monkeypatch):
        import chdzdt.evalsuite.embedder as E
        batches = []

        def spy(state, words):
            batches.append(list(words))
            return E.encode_words(state, words)

        monkeypatch.setattr(E, "word_embedding", spy)
        return batches

    @staticmethod
    def assert_one_batch_of(batches, words):
        assert len(batches) == 1
        assert sorted(batches[0]) == sorted(set(words))

    def test_cluster_report(self, ckpt, batches):
        from chdzdt.evalsuite.metrics import cluster_report

        cluster_report(load_embedder(ckpt), self.CLUSTERS)
        self.assert_one_batch_of(batches, [w for root, members in self.CLUSTERS
                                           for w in (root, *members)])

    def test_noise_report_with_clusters(self, ckpt, batches):
        noise_report(load_embedder(ckpt), clusters=self.CLUSTERS, seed=3)
        members = [m for _, ms in self.CLUSTERS for m in ms]
        noisy = [w for mode in MODES
                 for _, w in make_noisy_tuples(members, mode, 1, 3)]
        self.assert_one_batch_of(batches, [root for root, _ in self.CLUSTERS]
                                 + members + noisy)

    def test_eval_compose(self, ckpt, batches, tmp_path):
        from chdzdt import cli

        quads = [("re", "do", "s", "redos"), ("re", "run", "s", "reruns"),
                 ("un", "do", "s", "undos"), ("re", "do", "ing", "redoing")]
        data = tmp_path / "quads.tsv"
        data.write_text("".join("\t".join(q) + "\n" for q in quads),
                        encoding="utf-8")
        assert cli.main(["eval", "--task", "compose", "--kind", "Add",
                         "--epochs", "1", "--embedder", str(ckpt),
                         "--data", str(data),
                         "--out", str(tmp_path / "r.json")]) == 0
        self.assert_one_batch_of(batches, [w for q in quads for w in q])


class TestClusterFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.tsv"
        clusters = [("work", ["works", "worked", "working"]),
                    ("jump", ["jumps"])]
        path.write_text("work\tworks\tworked\tworking\njump\tjumps\n",
                        encoding="utf-8")
        assert D.read_clusters(path) == clusters

    def test_duplicate_root(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tb\n\na\tc\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"c\.tsv:3.*duplicate"):
            D.read_clusters(path)

    def test_root_only_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1"):
            D.read_clusters(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="no clusters"):
            D.read_clusters(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            D.read_clusters(tmp_path / "absent.tsv")


class TestTupleFiles:
    @pytest.mark.parametrize("suffix,mode", [(".star", "star"),
                                             (".hash", "hash"),
                                             (".sim", "similar")])
    def test_mode_from_suffix(self, tmp_path, suffix, mode):
        path = tmp_path / f"t{suffix}"
        path.write_text("idiot\tidi*t\n", encoding="utf-8")
        pairs, got = D.read_tuples(path)
        assert got == mode and pairs == [("idiot", "idi*t")]

    def test_unknown_suffix(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(DataError, match="star"):
            D.read_tuples(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "t.star"
        path.write_text("a\tb\nc\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            D.read_tuples(path)


class TestAffixAndSimilarityFiles:
    def test_affix_rows(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("unhappy\tun,y\nrun\t\n", encoding="utf-8")
        rows = D.read_affix_dataset(path)
        assert rows == [("unhappy", ("un", "y")), ("run", ())]

    def test_affix_bad_row(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("one\ttwo\tthree\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1"):
            D.read_affix_dataset(path)

    def test_similarity_rows(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("cat\tkat\t0.9\ncat\tdog\t0.25\n", encoding="utf-8")
        assert D.read_similarity(path) == [("cat", "kat", 0.9),
                                           ("cat", "dog", 0.25)]

    def test_similarity_bad_score(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("cat\tkat\thigh\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1.*non-numeric"):
            D.read_similarity(path)

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity", "1e999"])
    def test_similarity_non_finite_score(self, tmp_path, score):
        path = tmp_path / "s.tsv"
        path.write_text(f"cat\tkat\t0.9\ncat\tdog\t{score}\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=rf"s\.tsv:2: non-finite score"):
            D.read_similarity(path)


class TestPosMorphSentimentFiles:
    def test_pos_round_trip(self, tmp_path):
        path = tmp_path / "p.conll"
        sents = [[("the", "DET"), ("cat", "NOUN")], [("run", "VERB")]]
        path.write_text("the\tDET\ncat\tNOUN\n\nrun\tVERB\n\n",
                        encoding="utf-8")
        assert D.read_pos(path) == sents

    def test_pos_trailing_sentence_without_blank(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_text("a\tX\n\nb\tY", encoding="utf-8")
        assert D.read_pos(path) == [[("a", "X")], [("b", "Y")]]

    def test_pos_bad_line(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_text("a\tX\nbad line\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            D.read_pos(path)

    def test_morph_rows(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("walked\tpos=V;tense=past\n", encoding="utf-8")
        assert D.read_morph(path) == [("walked",
                                       {"pos": "V", "tense": "past"})]

    def test_morph_missing_equals(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("walked\tpos\n", encoding="utf-8")
        with pytest.raises(DataError, match="lacks '='"):
            D.read_morph(path)

    def test_morph_empty_value(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("walked\tpos=\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1"):
            D.read_morph(path)

    def test_sentiment_rows(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("positive\tgreat stuff\nnegative\tawful\n",
                        encoding="utf-8")
        assert D.read_sentiment(path) == [("positive", "great stuff"),
                                          ("negative", "awful")]

    def test_sentiment_unknown_label(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("angry\tgrr\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1.*'angry'"):
            D.read_sentiment(path)


@pytest.mark.parametrize("reader, name, text", [
    (D.read_clusters, "c.tsv", "dog\tdogs\ncat\tcats\t \n"),
    (D.read_tuples, "t.star", "dog\tdo*\n \tc*t\n"),
    (D.read_affix_dataset, "a.tsv", "dogs\ts\n \ts\n"),
    (D.read_quadruples, "q.tsv", "re\tdo\ts\tredos\nre\t \ts\tres\n"),
    (D.read_similarity, "s.tsv", "dog\tcat\t1\ncat\t\u3000\t2\n"),
    (D.read_morph, "m.tsv", "dog\tn=s\n \tn=p\n"),
    (D.read_pos, "p.conll", "dog\tN\n \tV\n")],
    ids=["clusters", "tuples", "affix", "quadruples", "similarity", "morph",
         "pos"])
def test_blank_word_field_cites_line(tmp_path, reader, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=r"\.[a-z]+:2: expected"):
        reader(path)


class TestObfuscationTable:
    def test_default_table_is_valid(self):
        table = default_table()
        assert "o" in table.mapping
        for char, candidates in table.mapping.items():
            assert len(char) == 1
            for cand in candidates:
                assert len(cand) == 1 and cand != char

    def test_rejects_self_mapping(self):
        with pytest.raises(ConfigError, match="itself"):
            ObfuscationTable({"a": ["a"]})

    def test_rejects_multichar(self):
        with pytest.raises(ConfigError):
            ObfuscationTable({"cl": ["d"]})
        with pytest.raises(ConfigError):
            ObfuscationTable({"w": ["vv"]})

    def test_rejects_empty(self):
        with pytest.raises(ConfigError, match="empty"):
            ObfuscationTable({})
        with pytest.raises(ConfigError, match="candidates"):
            ObfuscationTable({"a": []})


class TestObfuscate:
    def test_star_replaces_exactly_count(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            noisy = obfuscate("idiot", "star", 1, rng=rng)
            assert len(noisy) == 5
            diffs = [i for i, (a, b) in enumerate(zip("idiot", noisy))
                     if a != b]
            assert len(diffs) == 1 and noisy[diffs[0]] == "*"

    def test_hash_symbol(self):
        assert obfuscate("a", "hash", 1) == "#"

    def test_single_char_word(self):
        assert obfuscate("a", "star", 1) == "*"

    def test_count_two_distinct_positions(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            noisy = obfuscate("triste", "star", 2, rng=rng)
            assert len(noisy) == 6
            assert sum(c == "*" for c in noisy) == 2

    def test_length_always_preserved_similar(self):
        rng = np.random.default_rng(1)
        table = default_table()
        for word in ["password", "chapeau", "شمسة"]:
            for _ in range(20):
                noisy = obfuscate(word, "similar", 2, table, rng)
                assert len(noisy) == len(word)
                assert noisy != word

    def test_similar_uses_table(self):
        table = ObfuscationTable({"a": ["@"]})
        assert obfuscate("a", "similar", 1, table) == "@"

    def test_similar_falls_back_to_star(self):
        table = ObfuscationTable({"a": ["@"]})
        assert obfuscate("z", "similar", 1, table) == "*"

    def test_bad_inputs(self):
        with pytest.raises(ConfigError, match="mode"):
            obfuscate("word", "blur", 1)
        with pytest.raises(ConfigError, match="count"):
            obfuscate("word", "star", 0)
        with pytest.raises(ConfigError, match="shorter"):
            obfuscate("ab", "star", 3)

    def test_deterministic_under_seeded_rng(self):
        a = obfuscate("bonjour", "similar", 2,
                      rng=np.random.default_rng(5))
        b = obfuscate("bonjour", "similar", 2,
                      rng=np.random.default_rng(5))
        assert a == b


class TestNoisyTuples:
    def test_skips_short_words_and_keeps_clean(self):
        pairs = make_noisy_tuples(["a", "abc", "abcd"], "star", 2, seed=3)
        assert [clean for clean, _ in pairs] == ["abc", "abcd"]
        for clean, noisy in pairs:
            assert len(clean) == len(noisy)
            assert sum(a != b for a, b in zip(clean, noisy)) == 2

    def test_seed_determinism(self):
        words = ["maison", "bureau", "fenetre"]
        assert (make_noisy_tuples(words, "similar", 1, seed=9)
                == make_noisy_tuples(words, "similar", 1, seed=9))


CLUSTERS = [("rootA", ["aaaaa", "aaaab", "aaaac"]),
            ("rootB", ["bbbbb", "bbbba"]),
            ("rootC", ["ccccc", "ccccd", "cccce"])]


class TestNoiseMetrics:
    def test_constant_embedder_gives_unit_acs(self):
        emb = ConstantEmbedder()
        report = noise_report(emb, clusters=CLUSTERS, count=1, seed=0)
        for mode in MODES:
            assert report["tuple_acs"][mode] == pytest.approx(1.0)
            assert report["cluster"][mode]["acs"] == pytest.approx(1.0)

    def test_first_char_tuples_measure_damage(self):
        emb = FirstCharEmbedder()
        tuples = {"star": [("idiot", "*diot"), ("total", "*otal")]}
        report = noise_report(emb, tuples=tuples)
        assert report["tuple_acs"]["star"] == pytest.approx(0.0)
        assert "hash" not in report["tuple_acs"]
        assert report["cluster"] == {}

    def test_untouched_first_char_keeps_similarity(self):
        emb = FirstCharEmbedder()
        tuples = {"hash": [("idiot", "idio#"), ("total", "tot#l")]}
        report = noise_report(emb, tuples=tuples)
        assert report["tuple_acs"]["hash"] == pytest.approx(1.0)

    def test_report_schema_complete(self):
        emb = HashEmbedder()
        report = noise_report(emb, clusters=CLUSTERS, count=1, seed=4)
        assert report["count"] == 1
        assert set(report["tuple_acs"]) == set(MODES)
        assert set(report["cluster"]) == set(MODES)
        for mode in MODES:
            assert -1.0 <= report["tuple_acs"][mode] <= 1.0
            entry = report["cluster"][mode]
            assert set(entry) == {"ari", "acs"}
            assert -0.5 <= entry["ari"] <= 1.0
            assert -1.0 <= entry["acs"] <= 1.0

    def test_obfuscated_acs_perfect_for_constant(self):
        report = noise_report(ConstantEmbedder(), clusters=CLUSTERS, count=1)
        assert report["cluster"]["star"]["acs"] == pytest.approx(1.0)

    def test_obfuscated_acs_count_too_large(self):
        with pytest.raises(DataError, match="long enough"):
            noise_report(ConstantEmbedder(), clusters=[("r", ["ab"])],
                         count=3)

    def test_needs_some_input(self):
        with pytest.raises(DataError, match="tuples"):
            noise_report(ConstantEmbedder())

    def test_count_below_one_is_a_config_error(self):
        with pytest.raises(ConfigError, match="count"):
            noise_report(ConstantEmbedder(), clusters=CLUSTERS, count=0)
