"""The operations of one round and the checks on their outputs.

An operation is one ``chdzdt`` command-line invocation, run in-process
through ``chdzdt.cli.main``, plus its checks. Every check compares against
the generator's ground truth, a reference computation from
``reference.py``, or a property the method must have; none compares against
a stored copy of the program's output.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
from time import perf_counter

import numpy as np

import reference as ref

TOL = 1e-9          # metric recomputed from the written vectors
VEC_RTOL = 1e-4     # float32 program vs float64 reference forward
VEC_ATOL = 1e-4
N_SAMPLED = 48      # vectors compared with the reference forward per round
# at the default widths (GRU 384, dense 768) the CLI default lr 0.01, and
# still 0.001, makes the loss climb over the first epochs; 1e-4 descends
TAGGER_LR = 1e-4
TIMING_KEYS = ("samples_per_sec", "wall_time", "started", "finished")


class Mismatch(Exception):
    """An output disagrees with its expected value."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def close(got, want, what: str) -> None:
    expect(abs(float(got) - float(want)) <= TOL,
           f"{what}: program {got!r}, reference {want!r}")


def in_unit(x, what: str) -> None:
    expect(-1.0 - 1e-12 <= float(x) <= 1.0 + 1e-12,
           f"{what} = {x!r} outside [-1, 1]")


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def report_digest(report: dict) -> str:
    """Digest of a JSON report with timing fields removed."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items()
                    if k not in TIMING_KEYS}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    text = json.dumps(strip(report), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_checkpoint(path) -> None:
    """Parses, holds exactly the floats its config needs, all finite."""
    try:
        _, _, params = ref.read_checkpoint(path)
    except (ref.CheckpointError, KeyError, ValueError) as exc:
        raise Mismatch(f"checkpoint {path}: {exc}") from exc
    expect(all(np.isfinite(a).all() for a in params.values()),
           f"checkpoint {path} holds non-finite weights")


def check_losses(losses, epochs: int, what: str) -> None:
    expect(len(losses) == epochs, f"{what}: {len(losses)} epochs run, "
                                  f"{epochs} asked")
    expect(all(math.isfinite(x) for x in losses), f"{what}: non-finite loss")
    expect(losses[-1] < losses[0],
           f"{what}: last loss {losses[-1]} not below first {losses[0]}")


def invoke(cli, argv) -> tuple:
    """Run one command; (exit code, seconds, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    # start each command with no garbage left by the one before, as a fresh
    # process would; otherwise a collection of the previous command's
    # graphs lands in whichever command runs next
    gc.collect()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, perf_counter() - t0, err.getvalue()


class Round:
    """The fixed list of operations of one round, and their checks."""

    def __init__(self, prof, corpus_gt: dict, eval_gt: dict,
                 setup_ckpt: str, seed: int, step_clock: list):
        self.prof = prof
        self.corpus = corpus_gt
        self.ev = eval_gt
        self.ckpt = setup_ckpt
        self.ckpt_digest = sha256(setup_ckpt)
        self.seed = seed
        self.step_clock = step_clock
        self.paths = eval_gt["paths"]
        self.vectors = None
        self.dim = None

    # -- plumbing ----------------------------------------------------------

    def operations(self, warm_up: bool = False) -> list:
        """(name, argv, check) for one round, in order; each command once
        for the warm-up round.

        A command that runs k times per round appears in the first k
        passes over the list, so its samples spread over the round rather
        than running back to back.
        """
        reps = {} if warm_up else dict(self.prof.repeats)
        commands = self._commands()
        return [cmd for j in range(max(reps.values(), default=1))
                for cmd in commands if reps.get(cmd[0], 1) > j]

    def _commands(self) -> list:
        p, e, ck = self.paths, self.prof.tagger_epochs, self.ckpt
        tagger = ["--epochs", e, "--lr", TAGGER_LR,
                  "--params", "round/tagger_params.json"]
        return [
            ("preprocess", ["preprocess", "--in", self.corpus["dir"],
                            "--labels", self.corpus["labels"],
                            "--out", "round/lexicon.tsv"],
             self.check_preprocess),
            ("pretrain", ["pretrain", "--lexicon", "round/lexicon.tsv",
                          "--out", "round/model.ckpt", "--n-blocks", 2,
                          "--n-heads", 2, "--hidden", 16, "--batch-size", 16,
                          "--epochs", self.prof.pretrain_epochs,
                          "--seed", self.seed,
                          "--train-config", "round/train.json"],
             self.check_pretrain),
            ("encode", ["encode", "--ckpt", ck, "--words", p["words"],
                        "--out", "round/vectors.tsv"], self.check_encode),
            ("eval_morph", ["eval", "--task", "morph", "--embedder", ck,
                            "--data", p["clusters"],
                            "--out", "round/morph.json"], self.check_morph),
            ("eval_noise", ["eval", "--task", "noise", "--embedder", ck,
                            "--data", p["clusters"],
                            "--out", "round/noise.json"], self.check_noise),
            ("eval_probe", ["eval", "--task", "probe", "--embedder", ck,
                            "--data", p["probe"],
                            "--out", "round/probe.json"], self.check_probe),
            ("eval_compose_add", ["eval", "--task", "compose", "--kind", "Add",
                                  "--embedder", ck, "--data", p["compose"],
                                  "--out", "round/compose_add.json"],
             self.check_compose),
            ("eval_compose_mpcnc", ["eval", "--task", "compose",
                                    "--kind", "MpCnc", "--embedder", ck,
                                    "--data", p["compose"],
                                    "--out", "round/compose_mpcnc.json"],
             self.check_compose),
            ("eval_sim", ["eval", "--task", "sim", "--embedder", ck,
                          "--data", p["sim"], "--out", "round/sim.json"],
             self.check_sim),
            ("eval_tag", ["eval", "--task", "tag", "--embedder", ck,
                          "--data", p["tag"], "--out", "round/tag.json",
                          *tagger], self.check_tag),
            ("eval_pos", ["eval", "--task", "pos", "--embedder", ck,
                          "--data", p["pos"], "--out", "round/pos.json",
                          *tagger], self.check_pos),
            ("eval_sa", ["eval", "--task", "sa", "--embedder", ck,
                         "--data", p["sa"], "--out", "round/sa.json",
                         *tagger], self.check_sa),
            ("eval_pos_finetune", ["eval", "--task", "pos", "--mode",
                                   "finetune", "--embedder", ck,
                                   "--data", p["pos"],
                                   "--out", "round/pos_ft.json", *tagger],
             self.check_pos),
        ]

    # -- checks --------------------------------------------------------------

    def check_preprocess(self, argv) -> dict:
        got = ref.read_lexicon("round/lexicon.tsv")
        want = self.corpus["lexicon"]
        missing = sorted(set(want) - set(got))[:5]
        extra = sorted(set(got) - set(want))[:5]
        expect(not missing and not extra,
               f"lexicon: missing {missing}, unexpected {extra}")
        wrong = [w for w in want if got[w] != want[w]][:5]
        expect(not wrong, "lexicon counts differ for " + ", ".join(
            f"{w!r}: {got[w]} vs {want[w]}" for w in wrong))
        stats = load_json("round/lexicon.tsv.stats.json")
        expect(stats["total_words"] == len(want),
               f"stats total_words {stats['total_words']} != {len(want)}")
        return {"lexicon": sha256("round/lexicon.tsv")}

    def check_pretrain(self, argv) -> dict:
        check_checkpoint("round/model.ckpt")
        with open("round/model.ckpt.trainlog.jsonl", encoding="utf-8") as fh:
            log = [json.loads(line) for line in fh]
        totals = [rec["total"] for rec in log]
        n_words = len(self.corpus["lexicon"])
        steps = self.prof.pretrain_epochs * math.ceil(n_words / 16)
        expect(len(totals) == steps, f"trainlog has {len(totals)} steps, "
                                     f"expected {steps}")
        expect(all(math.isfinite(t) for t in totals), "non-finite loss")
        # one step's loss rests on 16 words and a random mask, so the last
        # step can sit above the first on a descending run; compare the
        # mean loss of the last epoch with that of the first
        first = [rec["total"] for rec in log if rec["epoch"] == 1]
        last = [rec["total"] for rec in log
                if rec["epoch"] == self.prof.pretrain_epochs]
        expect(first and last and np.mean(last) < np.mean(first),
               f"last epoch's mean loss {np.mean(last)} not below the "
               f"first epoch's {np.mean(first)}")
        digest = sha256("round/model.ckpt")
        # same lexicon, same flags: bit-identical to the set-up checkpoint
        expect(digest == self.ckpt_digest,
               "checkpoint differs from the set-up run of the same command")
        return {"checkpoint": digest}

    def check_encode(self, argv) -> dict:
        order, vec = ref.read_vectors("round/vectors.tsv")
        want = self.ev["encode_words"]
        expect(order == want, f"vectors TSV holds {len(order)} words, "
                              f"expected {len(want)} in input order")
        manifest = load_json("round/vectors.tsv.manifest.json")
        skipped = manifest["config"]["n_skipped"]
        expect(skipped == self.ev["encode_skipped"],
               f"skipped {skipped}, expected {self.ev['encode_skipped']}")
        enc = ref.Encoder(self.ckpt)
        rng = np.random.default_rng(self.seed)
        sample = rng.choice(len(order), size=min(N_SAMPLED, len(order)),
                            replace=False)
        for i in sample:
            w = order[i]
            expect(np.allclose(vec[w], enc.cls(w), rtol=VEC_RTOL,
                               atol=VEC_ATOL),
                   f"vector of {w!r} differs from the reference forward")
        self.vectors, self.dim = vec, enc.cfg["hidden"]
        return {"vectors": sha256("round/vectors.tsv")}

    def _report(self, argv) -> dict:
        return load_json(argv[argv.index("--out") + 1])

    def check_morph(self, argv) -> dict:
        rep = self._report(argv)
        res = rep["results"]
        want = ref.morph_scores(self.vectors, self.ev["clusters"])
        close(res["acs"], want["acs"], "morph acs")
        close(res["aed"], want["aed"], "morph aed")
        in_unit(res["silhouette"], "silhouette")
        in_unit(res["ari"], "ari")
        expect(res["n_clusters"] == len(self.ev["clusters"]), "n_clusters")
        expect(res["n_words"] == sum(len(m) for _, m in self.ev["clusters"]),
               "n_words")
        return {"morph": report_digest(rep)}

    def check_noise(self, argv) -> dict:
        rep = self._report(argv)
        res = rep["results"]
        modes = ("hash", "similar", "star")
        expect(sorted(res["tuple_acs"]) == list(modes), "noise modes")
        for m in modes:
            in_unit(res["tuple_acs"][m], f"noise {m} acs")
            in_unit(res["cluster"][m]["acs"], f"noise {m} cluster acs")
            in_unit(res["cluster"][m]["ari"], f"noise {m} ari")
        return {"noise": report_digest(rep)}

    def check_probe(self, argv) -> dict:
        rep = self._report(argv)
        res = rep["results"]
        expect(res["train_size"] + res["test_size"] == self.ev["probe_rows"],
               "probe split sizes do not add up to the rows")
        expect(0.0 <= res["macro_f1"] <= 1.0, "probe macro_f1 outside [0, 1]")
        return {"probe": report_digest(rep)}

    def check_compose(self, argv) -> dict:
        rep = self._report(argv)
        res = rep["results"]
        quads = self.ev["quads"]
        expect(res["n_evaluated"] == len(quads), "compose n_evaluated")
        if res["kind"] == "MpCnc":
            W = np.asarray(res["W"])
            expect(W.shape == (self.dim, 3 * self.dim), "MpCnc W shape")
            want = ref.compose_scores(self.vectors, quads, W)
        else:
            want = ref.compose_scores(self.vectors, quads)
        close(res["acs"], want["acs"], f"compose {res['kind']} acs")
        close(res["aed"], want["aed"], f"compose {res['kind']} aed")
        return {f"compose_{res['kind']}": report_digest(rep)}

    def check_sim(self, argv) -> dict:
        rep = self._report(argv)
        want = ref.sim_scores(self.vectors, self.ev["sim"])
        for k in ("pearson", "spearman", "kendall"):
            close(rep["results"][k], want[k], f"sim {k}")
        return {"sim": report_digest(rep)}

    def _frozen_unchanged(self) -> None:
        expect(sha256(self.ckpt) == self.ckpt_digest,
               "a frozen run changed the input checkpoint")

    def check_tag(self, argv) -> dict:
        rep = self._report(argv)
        res = rep["results"]
        n_train, n_test = self.ev["tag_split"]
        expect((res["train_size"], res["test_size"]) == (n_train, n_test),
               f"tag split {res['train_size']}/{res['test_size']}, "
               f"expected {n_train}/{n_test}")
        tagsets = {name: feat["tagset"]
                   for name, feat in res["features"].items()}
        expect(tagsets == self.ev["tag_tagsets"],
               f"tag tagsets {tagsets}, expected {self.ev['tag_tagsets']}")
        for name, feat in res["features"].items():
            expect(0.0 <= feat["accuracy"] <= 1.0,
                   f"tag {name} accuracy {feat['accuracy']} outside [0, 1]")
        check_losses(res["train_losses"], self.prof.tagger_epochs, "tag")
        self._frozen_unchanged()
        return {"tag": report_digest(rep)}

    def check_pos(self, argv) -> dict:
        rep = self._report(argv)
        res = rep["results"]
        n_train, n_test = self.ev["pos_split"]
        length = self.ev["pos_len"]
        expect((res["n_train_sentences"], res["n_test_sentences"])
               == (n_train, n_test), "pos sentence split")
        expect((res["n_train_tokens"], res["n_test_tokens"])
               == (n_train * length, n_test * length),
               f"pos tokens {res['n_train_tokens']}/{res['n_test_tokens']}, "
               f"expected {n_train * length}/{n_test * length}")
        expect(len(res["tagset"]) == self.ev["pos_tags"], "pos tagset")
        support = sum(t["support"] for t in res["per_tag"].values())
        expect(support == res["n_test_tokens"],
               "per-tag supports do not sum to the test tokens")
        check_losses(res["train_losses"], self.prof.tagger_epochs,
                     f"pos {rep['mode']}")
        out = {f"pos_{rep['mode']}": report_digest(rep)}
        if rep["mode"] == "finetune":
            tuned = rep["finetuned_checkpoint"]
            check_checkpoint(tuned)
            digest = sha256(tuned)
            expect(digest != self.ckpt_digest,
                   "finetuned checkpoint equals its input")
            out["pos_finetune_checkpoint"] = digest
        self._frozen_unchanged()
        return out

    def check_sa(self, argv) -> dict:
        rep = self._report(argv)
        res = rep["results"]
        for label, (n_train, n_test) in self.ev["sa_split"].items():
            got = (res["label_counts"]["train"][label],
                   res["label_counts"]["test"][label])
            expect(got == (n_train, n_test),
                   f"sa {label} split {got}, expected {(n_train, n_test)}")
        check_losses(res["train_losses"], self.prof.tagger_epochs, "sa")
        self._frozen_unchanged()
        return {"sa": report_digest(rep)}
