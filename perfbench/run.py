"""Benchmark for the chdzdt batch chain, driven through ``chdzdt.cli.main``.

    python3 perfbench/run.py --workload corpus-to-encoder --seed 1 \
        --seconds 32 --trace 0

Run from the repository root. The program is imported from ``src/`` next
to this directory; nothing is installed. Each round runs the operations of
``stages.Round`` in-process and checks every output. A warm-up round runs
first, outside the measured ``--seconds``; rounds then repeat until the
next one would overrun them. Times are probe-scaled (``calib.py``).

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead. A run record (versions, BLAS threads, operation counts,
output digests) and, when traced, the spans are written to
``.perfbench-out/``.
"""

from __future__ import annotations

import os

# one BLAS thread: the paper's single-core design point; set before NumPy
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                             "VECLIB_MAXIMUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import stages  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 9

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "preprocess_lines_per_s": ("lines/s", "higher"),
    "pretrain_samples_per_s": ("words/s", "higher"),
    "pretrain_step_ms_p50": ("ms", "lower"),
    "encode_words_per_s": ("words/s", "higher"),
    "eval_morph_s": ("s", "lower"),
    "eval_noise_s": ("s", "lower"),
    "eval_probe_s": ("s", "lower"),
    "eval_compose_s": ("s", "lower"),
    "eval_sim_s": ("s", "lower"),
    "eval_tag_s": ("s", "lower"),
    "eval_pos_s": ("s", "lower"),
    "eval_sa_s": ("s", "lower"),
    "eval_pos_finetune_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chdzdt.cli
from chdzdt.chartok import default_vocab
from chdzdt.encoder import load_checkpoint
from chdzdt.preprocess import NormRules
default_vocab()
NormRules.default()
load_checkpoint(sys.argv[2])
print(time.perf_counter() - t0)
"""


class SetupError(Exception):
    """The benchmark cannot run here (no program, or set-up failed)."""


def import_program():
    if not os.path.isfile(os.path.join(SRC, "chdzdt", "cli.py")):
        raise SetupError(f"no chdzdt sources under {SRC}")
    sys.path.insert(0, SRC)
    import chdzdt.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"chdzdt imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(ckpt: str, probe: calib.Probe) -> tuple:
    """Seconds to import chdzdt and load vocabulary, rules and checkpoint,
    each in a fresh interpreter (its start-up excluded), and the probe
    times taken after each."""
    env = {**os.environ, **BLAS_ENV}
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, ckpt],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        probes.append(probe())
        if proc.returncode != 0:
            raise SetupError(f"set-up timing failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times, probes


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info() -> dict:
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "threads_env": BLAS_ENV["OPENBLAS_NUM_THREADS"]}
    except (TypeError, KeyError):
        return {"name": "unknown", "threads_env": "1"}


def prepare(cli, workload: str, seed: int) -> tuple:
    """Generate inputs and the set-up checkpoint; returns (profile,
    corpus truth, eval truth). Runs inside the work directory."""
    prof = gen.PROFILES[workload]
    rng = np.random.default_rng([seed, 2509])
    corpus_gt = gen.corpus(rng, prof, "corpus")
    eval_gt = gen.evaluation(rng, prof, "eval")
    os.makedirs("setup", exist_ok=True)
    os.makedirs("round", exist_ok=True)
    for d in ("setup", "round"):
        with open(f"{d}/train.json", "w", encoding="utf-8") as fh:
            json.dump({"log_every": 1}, fh)
    with open("round/tagger_params.json", "w", encoding="utf-8") as fh:
        # a fixed number of epochs: no early stop on the loss
        json.dump({"loss_target": 0.0}, fh)
    for argv in (["preprocess", "--in", "corpus", "--labels",
                  corpus_gt["labels"], "--out", "setup/lexicon.tsv"],
                 ["pretrain", "--lexicon", "setup/lexicon.tsv",
                  "--out", "setup/model.ckpt", "--n-blocks", "2",
                  "--n-heads", "2", "--hidden", "16", "--batch-size", "16",
                  "--epochs", str(prof.pretrain_epochs), "--seed", str(seed),
                  "--train-config", "setup/train.json"]):
        code, _, err = stages.invoke(cli, argv)
        if code != 0:
            raise SetupError(f"set-up command {argv[0]} exited {code}: "
                             f"{err[-300:]}")
    return prof, corpus_gt, eval_gt


def run_rounds(cli, rnd: stages.Round, seconds: float, tracer,
               probe: calib.Probe, setup_probes: list) -> dict:
    """A warm-up round that runs each command once (checked, not timed),
    then whole rounds until the next would overrun ``seconds``; alternates
    untraced and traced rounds when a tracer is given. The probe runs after
    every command."""
    ops = rnd.operations()
    # per command: (seconds, index of the probe taken right after it)
    wall: dict = {name: [] for name, _, _ in ops}
    steps_ms: list = []  # (ms, index of the probe after its pretrain run)
    digests: dict = {}
    round_s: dict = {"plain": [], "traced": []}
    probes: list = list(setup_probes)
    state = {"attempted": 0, "failed": 0, "correct": True}
    errors: list = []

    def fail(name: str, why: str) -> None:
        state["failed"] += 1
        state["correct"] = False
        errors.append(f"{name}: {why}")

    def one_round(ops: list, timed: bool) -> float:
        busy = 0.0
        for name, argv, check in ops:
            state["attempted"] += 1
            del rnd.step_clock[:]
            try:
                code, dt, err = stages.invoke(cli, argv)
            except Exception:  # an escape is a failed operation
                code, dt, err = None, 0.0, traceback.format_exc(limit=3)
            probes.append(probe())
            busy += dt
            if code != 0:
                fail(name, f"exit {code}: {err[-300:]}")
                continue
            if timed:
                at = len(probes) - 1
                wall[name].append((dt, at))
                if name == "pretrain":
                    clock = rnd.step_clock
                    steps_ms.extend(((b - a) * 1e3, at)
                                    for a, b in zip(clock, clock[1:]))
            try:
                got = check(argv)
            except Exception as exc:  # a crashed check is a failed one
                fail(name, f"check failed: {exc!r}")
                continue
            for key, digest in got.items():
                if digests.setdefault(key, digest) != digest:
                    state["correct"] = False
                    errors.append(f"{name}: {key} digest changed between "
                                  "rounds")
        return busy

    one_round(rnd.operations(warm_up=True), timed=False)
    start = perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        if traced:
            layers.install(tracer)
        try:
            busy = one_round(ops, timed=not traced)
        finally:
            if traced:
                tracer.restore()
        round_s["traced" if traced else "plain"].append(busy)
        n += 1
        elapsed = perf_counter() - start
        need = 2 if tracer is not None else 1
        if n >= need and elapsed + elapsed / n > seconds:
            break
    return {"wall": wall, "steps_ms": steps_ms,
            "digests": digests, "round_s": round_s, "rounds": n,
            "probe_s": probes, "errors": errors, **state}


def end_to_end(res: dict, setup_times: list, corpus_gt: dict,
               eval_gt: dict, prof) -> dict:
    """Every end-to-end metric: medians of wall times, each sample
    multiplied by the host factor around it (``calib.local_factor``);
    set-up times by the run's (``calib.host_factor``)."""
    probes = res["probe_s"]

    def scaled(samples: list) -> float:
        if not samples:
            return float("nan")
        return statistics.median(x * calib.local_factor(probes, i)
                                 for x, i in samples)

    t = {k: scaled(v) for k, v in res["wall"].items()}
    values = {
        "setup_s": calib.host_factor(probes) * statistics.median(setup_times),
        "preprocess_lines_per_s": corpus_gt["lines"] / t["preprocess"],
        "pretrain_samples_per_s":
            prof.pretrain_epochs * corpus_gt["words"] / t["pretrain"],
        "pretrain_step_ms_p50": scaled(res["steps_ms"]),
        "encode_words_per_s": len(eval_gt["encode_words"]) / t["encode"],
        "eval_morph_s": t["eval_morph"],
        "eval_noise_s": t["eval_noise"],
        "eval_probe_s": t["eval_probe"],
        "eval_compose_s": t["eval_compose_add"] + t["eval_compose_mpcnc"],
        "eval_sim_s": t["eval_sim"],
        "eval_tag_s": t["eval_tag"],
        "eval_pos_s": t["eval_pos"],
        "eval_sa_s": t["eval_sa"],
        "eval_pos_finetune_s": t["eval_pos_finetune"],
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": values[k], "unit": END_TO_END[k][0]}
            for k in END_TO_END}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.PROFILES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        cli = import_program()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import chdzdt.pretrain as pretrain

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = os.path.join(WORK, tag)
    os.makedirs(work, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    here = os.getcwd()
    os.chdir(work)
    # step clock: a timestamp as each pretrain step starts drawing its batch
    step_clock: list = []
    mask_batch = pretrain.mask_batch

    def clocked(*a, **k):
        step_clock.append(perf_counter())
        return mask_batch(*a, **k)

    try:
        prof, corpus_gt, eval_gt = prepare(cli, args.workload, args.seed)
        probe = calib.Probe()
        setup_times, setup_probes = measure_setup("setup/model.ckpt", probe)
        rnd = stages.Round(prof, corpus_gt, eval_gt, "setup/model.ckpt",
                           args.seed, step_clock)
        tracer = Tracer() if args.trace else None
        pretrain.mask_batch = clocked
        try:
            res = run_rounds(cli, rnd, args.seconds, tracer, probe,
                             setup_probes)
        finally:
            pretrain.mask_batch = mask_batch
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        n_traced = len(res["round_s"]["traced"])
        overhead = 1e3 * (statistics.median(res["round_s"]["traced"])
                          - statistics.median(res["round_s"]["plain"]))
        metrics = {k: {"value": v, "unit": layers.METRICS[k][0]}
                   for k, v in layers.per_layer(tracer, n_traced,
                                                overhead).items()}
        tracer.write(os.path.join(OUT, tag + ".spans.tsv.gz"))
        layer_summary = tracer.summary()
    else:
        metrics = end_to_end(res, setup_times, corpus_gt, eval_gt, prof)
        layer_summary = None

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "peak_rss_mb": peak_rss_mb(),
        "rounds": res["rounds"], "attempted": res["attempted"],
        "failed": res["failed"], "errors": res["errors"],
        "digests": res["digests"], "round_s": res["round_s"],
        "op_seconds": {k: [dt for dt, _ in v]
                       for k, v in res["wall"].items()},
        "op_probe_index": {k: [i for _, i in v]
                           for k, v in res["wall"].items()},
        "probe_s": res["probe_s"],
        "host_factor": calib.host_factor(res["probe_s"]),
        "setup_s": setup_times,
        "pretrain_steps_ms": {"n": len(res["steps_ms"]),
                              "p50": statistics.median(
                                  ms for ms, _ in res["steps_ms"])
                              if res["steps_ms"] else None},
        "inputs": {"corpus_lines": corpus_gt["lines"],
                   "corpus_dropped": corpus_gt["dropped"],
                   "lexicon_words": corpus_gt["words"],
                   "encode_words": len(eval_gt["encode_words"]),
                   "encode_skipped": eval_gt["encode_skipped"]},
        "metrics": metrics, "layers": layer_summary,
    }
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, ensure_ascii=False)

    for err in res["errors"]:
        print(f"perfbench: {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"rounds {res['rounds']}  attempted {res['attempted']}  "
          f"failed {res['failed']}  correct {res['correct']}")
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
