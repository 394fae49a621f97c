"""Command-line interface: preprocess, pretrain, encode, eval, ablation.

Each invocation resolves its configuration as flags > config file >
defaults, hashes every input file, and emits a RunManifest beside its
outputs. Primary outputs are written to a temporary file and renamed
into place, so a failed run leaves no partial files. Exit codes:
0 success, 1 usage, 2 config/data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable
from datetime import datetime, timezone

import numpy as np

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
from .fileio import atomic_write, check_fields, read_json, read_text
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
class RunManifest:
    """Reproducibility record emitted once per invocation."""

    subcommand: str
    config: dict
    inputs: dict
    seed: int | None
    version: str
    started: str
    finished: str
    blas_threads: dict  # each BLAS thread variable as the run saw it


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


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
    with atomic_write(path) as fh:
        fh.write(text + "\n")


def _emit_manifest(path, subcommand: str, config: dict, inputs: dict,
                   seed: int | None, started: str) -> None:
    manifest = RunManifest(subcommand=subcommand, config=config,
                           inputs={k: _digest_file(v)
                                   for k, v in inputs.items() if v},
                           seed=seed, version=__version__,
                           started=started, finished=_utc_now(),
                           blas_threads={var: os.environ.get(var)
                                         for var in BLAS_THREAD_VARS})
    _write_json(path, asdict(manifest))


def _flatten(obj, prefix: str = "") -> list:
    rows = []
    if isinstance(obj, dict):
        for key in obj:
            rows += _flatten(obj[key], f"{prefix}{key}.")
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _print_report(report: dict) -> None:
    """Dotted-key two-column table of a nested report."""
    rows = []
    for key, value in _flatten(report):
        if isinstance(value, float):
            value = f"{value:.6g}"
        elif isinstance(value, list):
            value = json.dumps(value, ensure_ascii=False)
            if len(value) > 60:
                value = value[:57] + "..."
        rows.append((key, value))
    if not rows:
        return
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")


def _print_table(columns: list, rows: list) -> None:
    def cell(v):
        return f"{v:.6g}" if isinstance(v, float) else str(v)

    grid = [[cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(c), *(len(g[i]) for g in grid)) if grid else len(c)
              for i, c in enumerate(columns)]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for g in grid:
        print("  ".join(v.ljust(w) for v, w in zip(g, widths)))


def _override(base: dict, flags: dict) -> dict:
    merged = dict(base)
    merged.update({k: v for k, v in flags.items() if v is not None})
    return merged


def _load_vocab(path):
    return load_vocab_spec(path) if path else default_vocab()


def _train_config(args) -> TrainConfig:
    """--train-config, overridden by the training flags the subcommand
    has."""
    train_d = read_json(args.train_config, "train config") \
        if args.train_config else {}
    flags = {k: vars(args).get(k) for k in ("epochs", "batch_size", "lr",
                                            "mask_ratio", "seed")}
    return TrainConfig.from_dict(_override(train_d, flags))


def cmd_preprocess(args) -> int:
    started = _utc_now()
    label_map = read_json(args.labels, "labels map")
    if not label_map:
        raise ConfigError(f"labels map {args.labels} must be a non-empty "
                          "JSON object of filename -> label")
    streams, inputs = [], {"labels": args.labels}
    for name in sorted(label_map):
        spec = label_map[name]
        if isinstance(spec, str):
            label, kind = spec, "standard"
        elif isinstance(spec, dict) and "label" in spec:
            check_fields(spec, {"label": str, "kind": str}, f"labels map entry {name!r}")
            label, kind = spec["label"], spec.get("kind", "standard")
        else:
            raise ConfigError(f"labels map entry {name!r} must be a label "
                              "string or an object with a 'label'")
        path = os.path.join(args.in_dir, name)
        if not os.path.isfile(path):
            raise DataError(f"input file {path} does not exist")
        streams.append(SourceStream(path=path, label=label, kind=kind))
        # a namespace of their own, so a corpus file named like a fixed
        # key ("labels", "rules") keeps both digests
        inputs[f"corpus/{name}"] = path
    rules = NormRules.from_file(args.rules) if args.rules \
        else NormRules.default()
    inputs["rules"] = args.rules

    entries = build_lexicon(streams, rules)
    stats = lexicon_stats(entries)
    write_lexicon(entries, args.out)
    stats_path = args.out + ".stats.json"
    _write_json(stats_path, stats)
    _emit_manifest(args.out + ".manifest.json", "preprocess",
                   {"in": args.in_dir, "out": args.out,
                    "rules": args.rules or "default",
                    "sources": {n: label_map[n] for n in sorted(label_map)}},
                   inputs, None, started)

    print(f"lexicon: {args.out} ({stats['total_words']} words)")
    combos = {k: v for k, v in stats["combinations"].items() if v}
    _print_report({"combinations": combos,
                   "length_histogram": stats["length_histogram"]})
    return 0


def cmd_pretrain(args) -> int:
    started = _utc_now()
    vocab = _load_vocab(args.vocab)
    lexicon = read_lexicon(args.lexicon)

    model_d = read_json(args.model_config, "model config") \
        if args.model_config else {}
    model_d = _override(model_d, {"n_blocks": args.n_blocks,
                                  "n_heads": args.n_heads,
                                  "hidden": args.hidden,
                                  "dropout": args.dropout})
    model_d.setdefault("vocab_size", vocab.size)
    model_config = ModelConfig.from_dict(model_d)

    train_config = _train_config(args)

    state, records = train(lexicon, model_config, train_config, vocab)
    save_checkpoint(state, args.out)
    with atomic_write(args.out + ".trainlog.jsonl") as fh:
        fh.write("".join(json.dumps(r) + "\n" for r in records))
    _emit_manifest(args.out + ".manifest.json", "pretrain",
                   {"model": model_config.to_dict(),
                    "train": train_config.to_dict(), "out": args.out},
                   {"lexicon": args.lexicon, "vocab": args.vocab,
                    "model_config": args.model_config,
                    "train_config": args.train_config},
                   train_config.seed, started)

    summary = {"checkpoint": args.out, "params": state.flat.size,
               "words": len(lexicon), "steps": len(records)}
    if records:
        summary["final_total_loss"] = records[-1]["total"]
    _print_report(summary)
    return 0


def _read_word_lines(source):
    if source == "-":
        data = sys.stdin.read()
        return data.splitlines(), hashlib.sha256(
            data.encode("utf-8")).hexdigest()
    return read_text(source).splitlines(), None


def cmd_encode(args) -> int:
    started = _utc_now()
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

    write_embeddings_tsv(args.out, words, vectors, dim=embedder.dim)
    _emit_manifest(args.out + ".manifest.json", "encode",
                   {"ckpt": args.ckpt, "words": args.words,
                    "out": args.out, "n_written": len(words),
                    "n_skipped": skipped,
                    **({"stdin_sha256": stdin_digest}
                       if stdin_digest else {})},
                   {"ckpt": args.ckpt,
                    "words": None if args.words == "-" else args.words},
                   None, started)
    _print_report({"written": len(words), "skipped": skipped,
                   "dim": embedder.dim, "out": args.out})
    return 0


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
    vectors = embed_rows(embedder, [w for quad in quads for w in quad],
                         np.float64)
    triples = [tuple(q) for q in vectors.reshape(len(quads), 4, -1)]
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
        if not kwargs.get(key, low) >= low:
            raise ConfigError(f"task {name!r} parameter {key!r} must be "
                              f">= {low}, got {kwargs[key]!r}")
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


def cmd_eval(args) -> int:
    started = _utc_now()
    task = TASKS[args.task]
    if args.mode == "finetune" and not task.finetune:
        raise UsageError("--mode finetune only applies to tasks "
                         f"{[n for n, t in TASKS.items() if t.finetune]}")
    embedder = load_embedder(args.embedder)
    file_params = read_json(args.params, "eval params") \
        if args.params else {}
    flags = {k: vars(args)[k] for k in ("seed", "count", "kind", "objective",
                                        "fraction", "epochs", "lr")}
    kwargs = _task_kwargs(args.task, _override(file_params, flags),
                          DEFAULT_SEED)
    seed = kwargs.get("seed", DEFAULT_SEED)

    results = task.run(embedder, task.read(args.data), args.mode,
                       dict(kwargs))
    payload = {"task": args.task,
               "mode": args.mode if task.finetune else None,
               "embedder": args.embedder, "data": args.data,
               "params": kwargs, "results": results}
    if args.mode == "finetune":
        root, _ = os.path.splitext(os.fspath(args.out))
        payload["finetuned_checkpoint"] = root + ".ckpt"
    # the report goes first: a non-finite value in it stops the run
    # before any file is written
    _write_json(args.out, payload)
    if args.mode == "finetune":
        save_checkpoint(embedder.state, payload["finetuned_checkpoint"])
    _emit_manifest(args.out + ".manifest.json", "eval",
                   {"task": args.task, "mode": args.mode,
                    "params": kwargs, "out": args.out},
                   {"embedder": args.embedder, "data": args.data,
                    "params": args.params}, seed, started)
    _print_report(results)
    return 0


def cmd_ablation(args) -> int:
    started = _utc_now()
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
    eval_params = read_json(args.eval_params, "eval params") \
        if args.eval_params else {}
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

    report = ablation_sweep(grid, lexicon, vocab, train_config, evaluate,
                            out_dir=args.out)

    _write_json(os.path.join(args.out, "ablation.json"), report)
    columns = ["variant", "params", "wall_time", "samples_per_sec"]
    columns += report["metric_names"]
    with atomic_write(os.path.join(args.out, "ablation.csv"),
                      newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(report["table"])
    _emit_manifest(os.path.join(args.out, "manifest.json"), "ablation",
                   {"grid": [variant_name(c) for c in grid],
                    "train": train_config.to_dict(), "evals": tasks,
                    "out": args.out},
                   inputs, train_config.seed, started)

    _print_table(columns, report["table"])
    if report["n_failed"]:
        print(f"{report['n_failed']} of {report['grid_size']} variants "
              "failed", file=sys.stderr)
        return 2
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chdzdt",
        description="Character-level word encoder: corpus preprocessing, "
                    "pre-training, encoding, evaluation, and architecture "
                    "sweeps.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("preprocess",
                       help="normalize corpora into a labeled word lexicon")
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

    p = sub.add_parser("pretrain",
                       help="pre-train an encoder on a lexicon")
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

    p = sub.add_parser("encode",
                       help="embed words from a checkpoint into a TSV")
    p.add_argument("--ckpt", required=True, help="encoder checkpoint")
    p.add_argument("--words", required=True,
                   help="file with one word per line, or - for stdin")
    p.add_argument("--out", required=True, help="output embeddings TSV")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", help="run one evaluation task")
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

    p = sub.add_parser("ablation",
                       help="train a variant grid and compare metrics")
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
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
