"""Command-line interface: preprocess, pretrain, encode, eval, ablation.

Each invocation resolves its configuration as flags > config file >
defaults. A command writes no file: it returns its Outputs, which `main`
commits in one order: the JSON report first where there is one (a
non-finite value in it stops the run before any file is written), then
the primary outputs, then the manifest of input digests. Each file is
renamed into place from a temporary one, so none is left partial. Exit
codes: 0 success, 1 usage, 2 config/data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import glob
import hashlib
import io
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Callable
from datetime import datetime, timezone

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import BLAS_THREAD_VARS, __version__
from .chartok import default_vocab, load_vocab_spec
from .encoder import ModelConfig, save_checkpoint
from .errors import ConfigError, DataError, NumericalError
from .evalsuite.ablation import ablation_sweep, default_grid, variant_name
from .evalsuite.compose import KINDS, compose_eval, compose_fit, shift_positive
from .evalsuite.datasets import (
    TUPLE_MODES,
    read_affix_dataset,
    read_clusters,
    read_morph,
    read_pos,
    read_quadruples,
    read_sentiment,
    read_similarity,
    read_tuples,
)
from .evalsuite.embedder import (
    CheckpointEmbedder,
    embed_rows,
    load_embedder,
    write_embeddings_tsv,
)
from .evalsuite.metrics import cluster_report, similarity_corr
from .evalsuite.obfuscate import noise_report
from .evalsuite.probe import probe_train
from .evalsuite.taggers import morph_tagger, pos_tagger, sentiment_classifier
from .fileio import atomic_write, check_fields, read_json, read_lines
from .preprocess import (
    NormRules,
    SourceStream,
    build_lexicon,
    lexicon_stats,
    read_lexicon,
    write_lexicon,
)
from .pretrain import TrainConfig, train

logger = logging.getLogger(__name__)

DEFAULT_SEED = 42

class UsageError(Exception):
    """Flag combination the parser cannot catch; exits 1."""


@dataclass
class Outputs:
    """A command's result, which main commits: its files as (path, write)
    pairs in commit order, write(path) writing one; its manifest's path and
    share; the text for stdout and stderr once all are written; its exit
    code."""

    files: list
    manifest: str
    subcommand: str
    config: dict
    inputs: dict
    seed: int | None
    summary: str
    stderr: str = ""
    code: int = 0


@functools.cache
def _blas_kernel() -> str | None:
    """The kernel NumPy's bundled OpenBLAS picked for this CPU (or for
    OPENBLAS_CORETYPE), on which a matmul's bits depend; None where that
    library or its corename symbol is absent. Read once per process."""
    for lib in glob.glob(os.path.join(np.__path__[0], os.pardir,
                                      "numpy.libs", "*openblas*")):
        corename = getattr(ctypes.CDLL(lib),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return (corename() or b"").decode("ascii", "replace") or None
    return None


# glibc's mallopt(3) parameter numbers, from malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory() -> None:
    """Keep freed memory mapped in this process. glibc serves an array
    above its mmap threshold from a fresh mapping and trims the free top of
    the heap past its trim threshold, so each training epoch that frees
    MB-sized arrays hands their pages back and faults them in again.
    Arrays up to 32 MiB (glibc's own dynamic maximum on 64-bit) come from
    the heap, and up to 256 MiB of free heap top stays mapped. A libc
    without mallopt, or a platform with no C library to load by None
    (Windows), is left as it is. Set once per process."""
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], \
        ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _minor_faults() -> int | None:
    """ru_minflt of this process so far; None where resource is absent."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _start() -> tuple:
    """(UTC stamp, minor faults so far) at the start of a command."""
    return _utc_now(), _minor_faults()


def _digest_file(path) -> str:
    sha = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                sha.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return sha.hexdigest()


def _write_json(path, obj) -> None:
    try:
        text = json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=True,
                          allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}; nothing written") from exc
    _write_text(path, text + "\n")


def _write_text(path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _emit_manifest(run: Outputs, started: tuple, inputs: dict) -> None:
    """Write run's manifest: its share, the digests of its inputs (name ->
    SHA-256), the package version, UTC stamps from started (what _start()
    returned) to now, each BLAS thread variable and NumPy's OpenBLAS kernel
    (None if unknown) as the run saw them, and the ru_minflt since
    started."""
    stamp, faults = started
    _write_json(run.manifest, {
        "subcommand": run.subcommand, "config": run.config,
        "inputs": inputs,
        "seed": run.seed, "version": __version__,
        "started": stamp, "finished": _utc_now(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_kernel": _blas_kernel(),
        "minor_faults": None if faults is None else _minor_faults() - faults})


def _flatten(obj, prefix: str = "") -> list:
    rows = []
    if isinstance(obj, dict):
        for key in obj:
            rows += _flatten(obj[key], f"{prefix}{key}.")
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _cell(value) -> str:
    """A report or table value as printed."""
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        value = json.dumps(value, ensure_ascii=False)
        return value if len(value) <= 60 else value[:57] + "..."
    return str(value)


def _report_text(report: dict) -> str:
    """Dotted-key two-column table of a nested report."""
    rows = [(key, _cell(value)) for key, value in _flatten(report)]
    width = max((len(key) for key, _ in rows), default=0)
    return "".join(f"{key:<{width}}  {value}\n" for key, value in rows)


def _table_text(columns: list, rows: list) -> str:
    grid = [columns, *([_cell(row.get(c, "")) for c in columns]
                       for row in rows)]
    widths = [max(map(len, column)) for column in zip(*grid)]
    return "".join("  ".join(v.ljust(w) for v, w in zip(line, widths)) + "\n"
                   for line in grid)


def _config(path, what: str, args, names) -> dict:
    """The JSON object at path ({} when path is None), read as `what`, with
    each flag of args named in names that is set laid over it; a name with
    no flag reads None, as an unset flag does."""
    config = read_json(path, what) if path else {}
    config.update({k: v for k in names
                   if (v := vars(args).get(k)) is not None})
    return config


def _load_vocab(path):
    return load_vocab_spec(path) if path else default_vocab()


def _train_config(args) -> TrainConfig:
    """--train-config, overridden by the training flags the subcommand
    has."""
    return TrainConfig.from_dict(_config(
        args.train_config, "train config", args,
        [f.name for f in fields(TrainConfig)]))


def cmd_preprocess(args) -> Outputs:
    label_map = read_json(args.labels, "labels map")
    if not label_map:
        raise ConfigError(f"labels map {args.labels} must be a non-empty "
                          "JSON object of filename -> label")
    streams, inputs = [], {"labels": args.labels}
    for name in sorted(label_map):
        spec = label_map[name]
        if isinstance(spec, str):
            spec = {"label": spec}
        if not (isinstance(spec, dict) and "label" in spec):
            raise ConfigError(f"labels map entry {name!r} must be a label "
                              "string or an object with a 'label'")
        check_fields(spec, {"label": str, "kind": str}, f"labels map entry {name!r}")
        path = os.path.join(args.in_dir, name)
        if not os.path.isfile(path):
            raise DataError(f"input file {path} does not exist")
        streams.append(SourceStream(path=path, **spec))
        # a namespace of their own, so a corpus file named like a fixed
        # key ("labels", "rules") keeps both digests
        inputs[f"corpus/{name}"] = path
    rules = NormRules.from_file(args.rules) if args.rules \
        else NormRules.default()
    inputs["rules"] = args.rules

    entries = build_lexicon(streams, rules)
    stats = lexicon_stats(entries)
    combos = {k: v for k, v in stats["combinations"].items() if v}
    return Outputs(
        [(args.out + ".stats.json", lambda p: _write_json(p, stats)),
         (args.out, lambda p: write_lexicon(entries, p))],
        args.out + ".manifest.json", "preprocess",
        {"in": args.in_dir, "out": args.out, "rules": args.rules or "default",
         "sources": {n: label_map[n] for n in sorted(label_map)}},
        inputs, None,
        f"lexicon: {args.out} ({stats['total_words']} words)\n"
        + _report_text({"combinations": combos,
                        "length_histogram": stats["length_histogram"]}))


def cmd_pretrain(args) -> Outputs:
    vocab = _load_vocab(args.vocab)
    lexicon = read_lexicon(args.lexicon)

    # named, not ModelConfig's fields: --seed is the training seed
    model_d = _config(args.model_config, "model config", args,
                      ("n_blocks", "n_heads", "hidden", "dropout"))
    model_d.setdefault("vocab_size", vocab.size)
    model_config = ModelConfig.from_dict(model_d)

    train_config = _train_config(args)

    state, records = train(lexicon, model_config, train_config, vocab)
    summary = {"checkpoint": args.out, "params": state.flat.size,
               "words": len(lexicon), "steps": 0}
    if records:  # the last step always has a record
        summary["steps"] = records[-1]["step"]
        summary["final_total_loss"] = records[-1]["total"]
    return Outputs(
        [(args.out, lambda p: save_checkpoint(state, p)),
         (args.out + ".trainlog.jsonl", lambda p: _write_text(
            p, "".join(json.dumps(r) + "\n" for r in records)))],
        args.out + ".manifest.json", "pretrain",
        {"model": model_config.to_dict(), "train": train_config.to_dict(),
         "out": args.out},
        {"lexicon": args.lexicon, "vocab": args.vocab,
         "model_config": args.model_config,
         "train_config": args.train_config},
        train_config.seed, _report_text(summary))


def _read_word_lines(source):
    """(lines, SHA-256 of the bytes read from stdin or None) of a UTF-8
    words file, or of stdin for '-'. Both break lines as read_lines does,
    at a line feed, a carriage return or the pair only."""
    if source == "-":
        data = sys.stdin.buffer.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read stdin: {exc}") from exc
        lines = io.StringIO(text, newline=None)
        return ([line.rstrip("\n") for line in lines],
                hashlib.sha256(data).hexdigest())
    return [line for _, line in read_lines(source)], None


def cmd_encode(args) -> Outputs:
    embedder = CheckpointEmbedder.from_file(args.ckpt)
    lines, stdin_digest = _read_word_lines(args.words)

    words, skipped = [], 0
    seen = set()
    for lineno, raw in enumerate(lines, 1):
        word = raw.strip()
        if not word:
            continue
        if len(word.split()) > 1:
            logger.warning("line %d: %r is not a single word, skipped",
                           lineno, word)
            skipped += 1
            continue
        if word in seen:
            logger.warning("line %d: duplicate word %r, skipped", lineno,
                           word)
            skipped += 1
            continue
        seen.add(word)
        words.append(word)
    vectors = embed_rows(embedder, words, np.float64)
    return Outputs(
        [(args.out, lambda p: write_embeddings_tsv(p, words, vectors))],
        args.out + ".manifest.json", "encode",
        {"ckpt": args.ckpt, "words": args.words, "out": args.out,
         "n_written": len(words), "n_skipped": skipped,
         **({"stdin_sha256": stdin_digest} if stdin_digest else {})},
        {"ckpt": args.ckpt,
         "words": None if args.words == "-" else args.words},
        None, _report_text({"written": len(words), "skipped": skipped,
                            "dim": embedder.dim, "out": args.out}))


def _read_noise(path) -> dict:
    """noise_report data: clean-noisy pairs from a tuple file (the mode
    comes from its suffix), else clusters."""
    if str(path).endswith(tuple(TUPLE_MODES)):
        pairs, mode = read_tuples(path)
        return {"tuples": {mode: pairs}}
    return {"clusters": read_clusters(path)}


def _run_probe(embedder, rows, mode, kwargs) -> dict:
    embeddings = embed_rows(embedder, [w for w, _ in rows], np.float64)
    return probe_train(embeddings, [affixes for _, affixes in rows],
                       **kwargs)


def _run_compose(embedder, quads, mode, kwargs) -> dict:
    kind = kwargs.pop("kind", None)
    if kind is None:
        raise UsageError("--task compose needs --kind "
                         f"(one of {sorted(KINDS)})")
    triples = embed_rows(embedder, [w for quad in quads for w in quad],
                         np.float64).reshape(len(quads), 4, -1)
    shift = 0.0
    if kind == "WMul":
        triples, shift = shift_positive(triples)
    model = compose_fit(kind, triples, **kwargs)
    report = compose_eval(model, triples)
    report["shift"] = shift
    return report


def _noise_columns(report) -> dict:
    columns = {f"noise_{m}_acs": v for m, v in report["tuple_acs"].items()}
    columns.update({f"noise_{m}_ari": stats["ari"]
                    for m, stats in report["cluster"].items()})
    return columns


@dataclass(frozen=True)
class Task:
    """One evaluation task. read: data path -> data; run: (embedder, data,
    mode, kwargs) -> report; params: keyword -> int, float or str;
    finetune: whether --mode finetune applies; flag: the ablation flag
    naming the data, None if ablation skips the task; headline: report ->
    flat ablation columns."""

    read: Callable
    run: Callable
    params: dict
    finetune: bool = False
    flag: str | None = None
    headline: Callable | None = None


_SPLIT = {"fraction": float, "seed": int, "epochs": int, "lr": float,
          "loss_target": float}
_BIGRU = {**_SPLIT, "gru_hidden": int, "dense_dim": int, "max_words": int}
# the least value of each task keyword that bounds a count, a size or a rate
_MINIMUM = {"seed": 0, "epochs": 0, "lr": 0.0, "count": 1, "max_words": 1,
            "gru_hidden": 1, "dense_dim": 1, "shared_dim": 1}

# Runners look the task functions up by name in this module when called,
# so a name rebound on the module is the one that runs.
TASKS = {
    "morph": Task(read_clusters,
                  lambda e, d, m, kw: cluster_report(e, d, **kw),
                  {"seed": int}, flag="--clusters",
                  headline=lambda r: {f"morph_{k}": r[k] for k in
                                      ("acs", "aed", "silhouette", "ari")}),
    "noise": Task(_read_noise, lambda e, d, m, kw: noise_report(e, **d, **kw),
                  {"count": int, "seed": int}, flag="--clusters",
                  headline=_noise_columns),
    "probe": Task(read_affix_dataset, _run_probe,
                  {"fraction": float, "seed": int, "lr": float,
                   "epochs": int}),
    "compose": Task(read_quadruples, _run_compose,
                    {"kind": str, "objective": str, "lr": float,
                     "epochs": int, "seed": int}),
    "sim": Task(read_similarity,
                lambda e, d, m, kw: similarity_corr(e, d), {}),
    "tag": Task(read_morph,
                lambda e, d, m, kw: morph_tagger(e, d, mode=m, **kw),
                {**_SPLIT, "shared_dim": int}, finetune=True,
                flag="--tag-data",
                headline=lambda r: {"tag_overall": r["overall"]}),
    "pos": Task(read_pos, lambda e, d, m, kw: pos_tagger(e, d, mode=m, **kw),
                _BIGRU, finetune=True, flag="--pos-data",
                headline=lambda r: {"pos_accuracy": r["accuracy"],
                                    "pos_macro_f1": r["macro_f1"]}),
    "sa": Task(read_sentiment,
               lambda e, d, m, kw: sentiment_classifier(e, d, mode=m, **kw),
               _BIGRU, finetune=True, flag="--sa-data",
               headline=lambda r: {"sa_accuracy": r["accuracy"],
                                   "sa_macro_f1": r["macro_f1"]}),
}

ABLATION_TASKS = tuple(name for name, task in TASKS.items() if task.flag)


def _task_kwargs(name: str, params: dict, seed: int) -> dict:
    """params checked against TASKS[name].params and _MINIMUM, with seed as
    the default of a task that takes one."""
    check_fields(params, TASKS[name].params, f"task {name!r} parameter")
    kwargs = {"seed": seed, **params} if "seed" in TASKS[name].params \
        else dict(params)
    for key, low in _MINIMUM.items():
        if not low <= kwargs.get(key, low) < math.inf:
            raise ConfigError(f"task {name!r} parameter {key!r} must be "
                              f"finite and >= {low}, got {kwargs[key]!r}")
    return kwargs


def ablation_evaluate(data: dict, params: dict | None = None,
                      seed: int = DEFAULT_SEED):
    """ablation_sweep's evaluate: a frozen run of each task in data (an
    ABLATION_TASKS name -> what its reader returns) with its keywords from
    params (name -> dict), giving the headline columns. The keywords are
    checked here, before any variant trains."""
    runs = [(TASKS[name], task_data,
             _task_kwargs(name, (params or {}).get(name, {}), seed))
            for name, task_data in data.items()]

    def evaluate(embedder) -> dict:
        columns = {}
        for task, task_data, kwargs in runs:
            columns.update(task.headline(
                task.run(embedder, task_data, "frozen", dict(kwargs))))
        return columns

    return evaluate


def cmd_eval(args) -> Outputs:
    task = TASKS[args.task]
    if args.mode == "finetune" and not task.finetune:
        raise UsageError("--mode finetune only applies to tasks "
                         f"{[n for n, t in TASKS.items() if t.finetune]}")
    embedder = load_embedder(args.embedder)
    params = _config(args.params, "eval params", args, dict.fromkeys(
        k for t in TASKS.values() for k in t.params))
    kwargs = _task_kwargs(args.task, params, DEFAULT_SEED)
    seed = kwargs.get("seed", DEFAULT_SEED)

    results = task.run(embedder, task.read(args.data), args.mode,
                       dict(kwargs))
    payload = {"task": args.task,
               "mode": args.mode if task.finetune else None,
               "embedder": args.embedder, "data": args.data,
               "params": kwargs, "results": results}
    files = [(args.out, lambda p: _write_json(p, payload))]
    if args.mode == "finetune":
        root, _ = os.path.splitext(os.fspath(args.out))
        payload["finetuned_checkpoint"] = root + ".ckpt"
        files.append((payload["finetuned_checkpoint"],
                      lambda p: save_checkpoint(embedder.state, p)))
    return Outputs(files, args.out + ".manifest.json", "eval",
                   {"task": args.task, "mode": args.mode, "params": kwargs,
                    "out": args.out},
                   {"embedder": args.embedder, "data": args.data,
                    "params": args.params}, seed, _report_text(results))


def cmd_ablation(args) -> Outputs:
    vocab = _load_vocab(args.vocab)
    lexicon = read_lexicon(args.lexicon)

    if args.grid:
        grid = []
        for i, d in enumerate(read_json(args.grid, "grid", list)):
            if not isinstance(d, dict):
                raise ConfigError(f"grid {args.grid} entry {i} must be a "
                                  "JSON object of model-config fields")
            grid.append(ModelConfig.from_dict({"vocab_size": vocab.size,
                                               **d}))
    else:
        grid = default_grid(vocab.size)

    train_config = _train_config(args)

    tasks = [t for t in args.evals.split(",") if t]
    unknown = sorted(set(tasks) - set(ABLATION_TASKS))
    if unknown:
        raise UsageError(f"unknown eval tasks {unknown}; expected a subset "
                         f"of {list(ABLATION_TASKS)}")
    eval_params = _config(args.eval_params, "eval params", args, ())
    # a key naming a real task outside --evals is allowed, so one params
    # file can serve several sweeps; a misspelled one is not
    stray = sorted(set(eval_params) - set(ABLATION_TASKS))
    if stray:
        raise ConfigError(f"eval params {args.eval_params} name unknown "
                          f"tasks {stray}; expected keys from "
                          f"{list(ABLATION_TASKS)}")
    data = {}
    inputs = {"lexicon": args.lexicon, "grid": args.grid,
              "train_config": args.train_config, "vocab": args.vocab,
              "eval_params": args.eval_params}
    for name in tasks:
        flag = TASKS[name].flag
        path = vars(args)[flag[2:].replace("-", "_")]
        if path is None:
            raise UsageError(f"eval task {name!r} needs {flag}")
        if not isinstance(eval_params.get(name, {}), dict):
            raise ConfigError(f"eval params {args.eval_params} entry "
                              f"{name!r} must be a JSON object")
        data[name] = TASKS[name].read(path)
        inputs[flag.lstrip("-")] = path
    evaluate = ablation_evaluate(data, eval_params, train_config.seed)
    # --out is made once the sweep ends; one that cannot be fails now
    nearest = os.path.abspath(args.out)
    while not os.path.exists(nearest) and nearest != os.path.dirname(nearest):
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        raise DataError(f"cannot make directory {args.out}: {nearest} is "
                        "not a directory")

    report, states = ablation_sweep(grid, lexicon, vocab, train_config,
                                    evaluate)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot make directory {args.out}: {exc}") from exc
    columns = ["variant", "params", "wall_time", "samples_per_sec"]
    columns += report["metric_names"]
    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(report["table"])
    files = [(os.path.join(args.out, "ablation.json"),
              lambda p: _write_json(p, report)),
             (os.path.join(args.out, "ablation.csv"),
              lambda p: _write_text(p, table.getvalue()))]
    for row in report["variants"]:
        state = states.get(row["variant"])
        if state is not None:
            row["checkpoint"] = os.path.join(args.out,
                                             row["variant"] + ".ckpt")
            files.append((row["checkpoint"],
                          lambda p, state=state: save_checkpoint(state, p)))
    failed = report["n_failed"]
    return Outputs(files, os.path.join(args.out, "manifest.json"), "ablation",
                   {"grid": [variant_name(c) for c in grid],
                    "train": train_config.to_dict(), "evals": tasks,
                    "out": args.out},
                   inputs, train_config.seed,
                   _table_text(columns, report["table"]),
                   f"{failed} of {report['grid_size']} variants failed\n"
                   if failed else "", 2 if failed else 0)


def _training_flags(p) -> None:
    """The encoder-training flags pretrain and ablation share; the ones
    left unset keep the --train-config value."""
    p.add_argument("--lexicon", required=True, help="lexicon TSV file")
    p.add_argument("--vocab", help="character vocabulary spec JSON "
                                   "(default: built-in charset)")
    p.add_argument("--train-config",
                   help="train config JSON (flags override)")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--batch-size", type=int, help="examples per batch")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--seed", type=int,
                   help="training seed (default: the train config's, "
                        "else 42)")


def _preprocess_flags(p) -> None:
    p.add_argument("--in", dest="in_dir", required=True,
                   help="directory holding the input corpus files")
    p.add_argument("--labels", required=True,
                   help="JSON object mapping corpus filename to its "
                        "language label, or to {label, kind} with kind "
                        "social|standard")
    p.add_argument("--rules", help="normalization rules JSON "
                                   "(default: built-in rules)")
    p.add_argument("--out", required=True, help="output lexicon TSV path")
    p.set_defaults(func=cmd_preprocess)


def _pretrain_flags(p) -> None:
    _training_flags(p)
    p.add_argument("--model-config",
                   help="model config JSON (flags override)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--n-blocks", type=int, help="transformer block count")
    p.add_argument("--n-heads", type=int, help="attention head count")
    p.add_argument("--hidden", type=int, help="hidden width")
    p.add_argument("--dropout", type=float, help="dropout probability")
    p.add_argument("--mask-ratio", type=float,
                   help="fraction of characters masked")
    p.set_defaults(func=cmd_pretrain)


def _encode_flags(p) -> None:
    p.add_argument("--ckpt", required=True, help="encoder checkpoint")
    p.add_argument("--words", required=True,
                   help="file with one word per line, or - for stdin")
    p.add_argument("--out", required=True, help="output embeddings TSV")
    p.set_defaults(func=cmd_encode)


def _eval_flags(p) -> None:
    p.add_argument("--task", required=True, choices=tuple(TASKS),
                   help="evaluation task to run")
    p.add_argument("--embedder", required=True,
                   help="checkpoint or embeddings-TSV file")
    p.add_argument("--data", required=True,
                   help="task dataset file (format depends on the task)")
    p.add_argument("--mode", choices=("frozen", "finetune"),
                   default="frozen",
                   help="frozen embeddings or encoder fine-tuning "
                        "(tag/pos/sa only; default frozen)")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.add_argument("--params",
                   help="task parameters JSON (flags override)")
    p.add_argument("--seed", type=int, help="task seed (default 42)")
    p.add_argument("--count", type=int,
                   help="noise: characters substituted per word")
    p.add_argument("--kind", choices=sorted(KINDS),
                   help="compose: composition function")
    p.add_argument("--objective", choices=("mse", "cosine"),
                   help="compose: fitting objective (default mse)")
    p.add_argument("--fraction", type=float,
                   help="train fraction for split-based tasks")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--lr", type=float, help="learning rate")
    p.set_defaults(func=cmd_eval)


def _ablation_flags(p) -> None:
    _training_flags(p)
    p.add_argument("--grid", help="JSON array of model configs "
                                  "(default: the built-in 7-variant grid)")
    p.add_argument("--evals", required=True,
                   help="comma-separated eval tasks: "
                        + ",".join(ABLATION_TASKS))
    p.add_argument("--clusters", help="clusters TSV for morph/noise")
    p.add_argument("--tag-data", help="morph-tagging TSV for tag")
    p.add_argument("--pos-data", help="PoS file for pos")
    p.add_argument("--sa-data", help="sentiment TSV for sa")
    p.add_argument("--eval-params",
                   help="JSON object of per-task keyword arguments")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ablation)


# command name -> (its help line, the function that adds its flags)
COMMANDS = {
    "preprocess": ("normalize corpora into a labeled word lexicon",
                   _preprocess_flags),
    "pretrain": ("pre-train an encoder on a lexicon", _pretrain_flags),
    "encode": ("embed words from a checkpoint into a TSV", _encode_flags),
    "eval": ("run one evaluation task", _eval_flags),
    "ablation": ("train a variant grid and compare metrics",
                 _ablation_flags),
}


def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of `chdzdt name`, or with no name the full parser, whose
    subcommands are those same parsers."""
    if name is not None:
        parser = argparse.ArgumentParser(prog=f"chdzdt {name}")
        COMMANDS[name][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="chdzdt",
        description="Character-level word encoder: corpus preprocessing, "
                    "pre-training, encoding, evaluation, and architecture "
                    "sweeps.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, add_flags) in COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_line))
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """argv parsed by the named command's parser alone when argv[0] names
    a command, else by the full parser. Leftover arguments are reported
    under the full parser's usage, as its subcommands report them."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
    if rest:
        build_parser().error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv=None) -> int:
    _keep_freed_memory()
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        started = _start()
        run = args.func(args)
        # digests of the inputs as read, before an output can replace one
        inputs = {k: _digest_file(v) for k, v in run.inputs.items() if v}
        paths = [path for path, _ in run.files] + [run.manifest]
        real = [os.path.realpath(p) for p in paths]
        if len(set(real)) < len(real):
            same = [p for p, r in zip(paths, real) if real.count(r) > 1]
            raise DataError(f"outputs {', '.join(same)} name one file; "
                            "nothing written")
        for path, write in run.files:
            write(path)
        _emit_manifest(run, started, inputs)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(run.summary, end="")
    print(run.stderr, end="", file=sys.stderr)
    return run.code


if __name__ == "__main__":
    sys.exit(main())
