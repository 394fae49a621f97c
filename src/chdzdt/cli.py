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
import tempfile
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from importlib import metadata

import numpy as np

from .chartok import default_vocab, load_vocab_spec
from .encoder import ModelConfig, save_checkpoint
from .errors import ConfigError, DataError, NumericalError
from .evalsuite.ablation import (
    EVAL_TASKS,
    ablation_sweep,
    default_grid,
    variant_name,
)
from .evalsuite.compose import KINDS, compose_eval, compose_fit, shift_positive
from .evalsuite.datasets import (
    read_affix_dataset,
    read_clusters,
    read_morph,
    read_pos,
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

TUPLE_SUFFIXES = (".star", ".hash", ".sim")

FINETUNE_TASKS = ("tag", "pos", "sa")

TASK_PARAMS = {
    "morph": {"seed"},
    "noise": {"count", "seed"},
    "probe": {"fraction", "seed", "lr", "epochs"},
    "compose": {"kind", "objective", "lr", "epochs", "seed"},
    "sim": set(),
    "tag": {"fraction", "seed", "epochs", "lr", "shared_dim",
            "loss_target"},
    "pos": {"fraction", "seed", "epochs", "lr", "gru_hidden", "dense_dim",
            "max_words", "loss_target"},
    "sa": {"fraction", "seed", "epochs", "lr", "gru_hidden", "dense_dim",
           "max_words", "loss_target"},
}


class UsageError(Exception):
    """Flag combination the parser cannot catch; exits 1."""


@dataclass
class RunManifest:
    """Reproducibility record emitted once per invocation."""

    subcommand: str
    config: dict
    inputs: dict
    seed: int
    version: str
    started: str
    finished: str


def _tool_version() -> str:
    try:
        return metadata.version("chdzdt")
    except metadata.PackageNotFoundError:
        return "unknown"


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


def _atomic_write(path, write_fn) -> None:
    """Run write_fn against a temp path, then rename over the target."""
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=parent,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_json(path, obj) -> None:
    text = json.dumps(obj, indent=2, ensure_ascii=False, sort_keys=True)

    def write(tmp):
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")

    _atomic_write(path, write)


def _load_json(path, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _emit_manifest(path, subcommand: str, config: dict, inputs: dict,
                   seed: int, started: str) -> None:
    manifest = RunManifest(subcommand=subcommand, config=config,
                           inputs={k: _digest_file(v) if v else "-"
                                   for k, v in inputs.items()},
                           seed=seed, version=_tool_version(),
                           started=started, finished=_utc_now())
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


def _model_config_from(d: dict) -> ModelConfig:
    try:
        return ModelConfig.from_dict(d)
    except TypeError as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def _override(base: dict, flags: dict) -> dict:
    merged = dict(base)
    merged.update({k: v for k, v in flags.items() if v is not None})
    return merged


def _load_vocab(path):
    return load_vocab_spec(path) if path else default_vocab()


def cmd_preprocess(args) -> int:
    started = _utc_now()
    label_map = _load_json(args.labels, "labels map")
    if not isinstance(label_map, dict) or not label_map:
        raise ConfigError(f"labels map {args.labels} must be a non-empty "
                          "JSON object of filename -> label")
    streams, inputs = [], {"labels": args.labels}
    for name in sorted(label_map):
        spec = label_map[name]
        if isinstance(spec, str):
            label, kind = spec, "standard"
        elif isinstance(spec, dict) and "label" in spec:
            label, kind = spec["label"], spec.get("kind", "standard")
        else:
            raise ConfigError(f"labels map entry {name!r} must be a label "
                              "string or an object with a 'label'")
        path = os.path.join(args.in_dir, name)
        if not os.path.isfile(path):
            raise DataError(f"input file {path} does not exist")
        streams.append(SourceStream(path=path, label=label, kind=kind))
        inputs[name] = path
    rules = NormRules.from_file(args.rules) if args.rules \
        else NormRules.default()
    if args.rules:
        inputs["rules"] = args.rules

    entries = build_lexicon(streams, rules)
    stats = lexicon_stats(entries)
    _atomic_write(args.out, lambda tmp: write_lexicon(entries, tmp))
    stats_path = args.out + ".stats.json"
    _write_json(stats_path, stats)
    _emit_manifest(args.out + ".manifest.json", "preprocess",
                   {"in": args.in_dir, "out": args.out,
                    "rules": args.rules or "default",
                    "sources": {n: label_map[n] for n in sorted(label_map)}},
                   inputs, args.seed, started)

    print(f"lexicon: {args.out} ({stats['total_words']} words)")
    combos = {k: v for k, v in stats["combinations"].items() if v}
    _print_report({"combinations": combos,
                   "length_histogram": stats["length_histogram"]})
    return 0


def cmd_pretrain(args) -> int:
    started = _utc_now()
    vocab = _load_vocab(args.vocab)
    lexicon = read_lexicon(args.lexicon)

    model_d = _load_json(args.model_config, "model config") \
        if args.model_config else {}
    model_d = _override(model_d, {"n_blocks": args.n_blocks,
                                  "n_heads": args.n_heads,
                                  "hidden": args.hidden,
                                  "dropout": args.dropout})
    model_d.setdefault("vocab_size", vocab.size)
    model_config = _model_config_from(model_d)

    train_d = _load_json(args.train_config, "train config") \
        if args.train_config else {}
    train_d = _override(train_d, {"epochs": args.epochs,
                                  "batch_size": args.batch_size,
                                  "lr": args.lr,
                                  "mask_ratio": args.mask_ratio,
                                  "seed": args.seed})
    train_config = TrainConfig.from_dict(train_d)

    state, records = train(lexicon, model_config, train_config, vocab)
    _atomic_write(args.out, lambda tmp: save_checkpoint(state, tmp))
    log_path = args.out + ".trainlog.jsonl"
    log_text = "".join(json.dumps(r) + "\n" for r in records)

    def write_log(tmp):
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(log_text)

    _atomic_write(log_path, write_log)
    inputs = {"lexicon": args.lexicon}
    if args.model_config:
        inputs["model_config"] = args.model_config
    if args.train_config:
        inputs["train_config"] = args.train_config
    if args.vocab:
        inputs["vocab"] = args.vocab
    _emit_manifest(args.out + ".manifest.json", "pretrain",
                   {"model": model_config.to_dict(),
                    "train": train_config.to_dict(), "out": args.out},
                   inputs, train_config.seed, started)

    summary = {"checkpoint": args.out, "params": state.n_params(),
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
    try:
        with open(source, encoding="utf-8") as fh:
            return fh.read().splitlines(), None
    except OSError as exc:
        raise DataError(f"cannot read words file {source}: {exc}") from exc


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

    _atomic_write(args.out, lambda tmp: write_embeddings_tsv(
        tmp, words, vectors, dim=embedder.dim))
    inputs = {"ckpt": args.ckpt}
    if args.words != "-":
        inputs["words"] = args.words
    manifest_inputs = dict(inputs)
    _emit_manifest(args.out + ".manifest.json", "encode",
                   {"ckpt": args.ckpt, "words": args.words,
                    "out": args.out, "n_written": len(words),
                    "n_skipped": skipped,
                    **({"stdin_sha256": stdin_digest}
                       if stdin_digest else {})},
                   manifest_inputs, args.seed, started)
    _print_report({"written": len(words), "skipped": skipped,
                   "dim": embedder.dim, "out": args.out})
    return 0


def _read_quadruples(path):
    """word TAB word TAB word TAB word composition rows."""
    rows = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4 or not all(parts):
                raise DataError(f"{path}:{lineno}: expected 'prefix TAB "
                                "root TAB suffix TAB word'")
            rows.append(tuple(parts))
    if not rows:
        raise DataError(f"{path}: no rows found")
    return rows


def _eval_kwargs(task: str, args) -> dict:
    file_params = _load_json(args.params, "eval params") \
        if args.params else {}
    if not isinstance(file_params, dict):
        raise ConfigError(f"eval params {args.params} must be a JSON object")
    flags = {"seed": args.seed, "count": args.count, "kind": args.kind,
             "objective": args.objective, "fraction": args.fraction,
             "epochs": args.epochs, "lr": args.lr}
    kwargs = _override(file_params, flags)
    unknown = sorted(set(kwargs) - TASK_PARAMS[task])
    if unknown:
        raise ConfigError(f"task {task!r} does not accept parameters "
                          f"{unknown}; allowed: "
                          f"{sorted(TASK_PARAMS[task])}")
    if "seed" in TASK_PARAMS[task]:
        kwargs.setdefault("seed", DEFAULT_SEED)
    return kwargs


def _run_eval_task(task: str, embedder, data_path: str, mode: str,
                   kwargs: dict) -> dict:
    if task == "morph":
        return cluster_report(embedder, read_clusters(data_path), **kwargs)
    if task == "noise":
        if str(data_path).endswith(TUPLE_SUFFIXES):
            pairs, tuple_mode = read_tuples(data_path)
            return noise_report(embedder, tuples={tuple_mode: pairs},
                                **kwargs)
        return noise_report(embedder, clusters=read_clusters(data_path),
                            **kwargs)
    if task == "probe":
        rows = read_affix_dataset(data_path)
        embeddings = embed_rows(embedder, [w for w, _ in rows], np.float64)
        return probe_train(embeddings, [affixes for _, affixes in rows],
                           **kwargs)
    if task == "compose":
        kind = kwargs.pop("kind", None)
        if kind is None:
            raise UsageError("--task compose needs --kind "
                             f"(one of {sorted(KINDS)})")
        quads = _read_quadruples(data_path)
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
    if task == "sim":
        return similarity_corr(embedder, read_similarity(data_path))
    if task == "tag":
        return morph_tagger(embedder, read_morph(data_path), mode=mode,
                            **kwargs)
    if task == "pos":
        return pos_tagger(embedder, read_pos(data_path), mode=mode,
                          **kwargs)
    if task == "sa":
        return sentiment_classifier(embedder, read_sentiment(data_path),
                                    mode=mode, **kwargs)
    raise UsageError(f"unknown task {task!r}")


def cmd_eval(args) -> int:
    started = _utc_now()
    if args.mode == "finetune" and args.task not in FINETUNE_TASKS:
        raise UsageError("--mode finetune only applies to tasks "
                         f"{list(FINETUNE_TASKS)}")
    embedder = load_embedder(args.embedder)
    if args.mode == "finetune" and not embedder.is_trainable:
        raise ConfigError("finetune needs a checkpoint embedder; external "
                          "vector tables are frozen")
    kwargs = _eval_kwargs(args.task, args)
    seed = kwargs.get("seed", DEFAULT_SEED)

    results = _run_eval_task(args.task, embedder, args.data, args.mode,
                             dict(kwargs))
    payload = {"task": args.task, "mode": args.mode
               if args.task in FINETUNE_TASKS else None,
               "embedder": args.embedder, "data": args.data,
               "params": kwargs, "results": results}
    if args.mode == "finetune":
        ckpt_out = os.fspath(args.out)
        root, _ = os.path.splitext(ckpt_out)
        ckpt_out = root + ".ckpt"
        _atomic_write(ckpt_out,
                      lambda tmp: save_checkpoint(embedder.state, tmp))
        payload["finetuned_checkpoint"] = ckpt_out
    _write_json(args.out, payload)
    inputs = {"embedder": args.embedder, "data": args.data}
    if args.params:
        inputs["params"] = args.params
    _emit_manifest(args.out + ".manifest.json", "eval",
                   {"task": args.task, "mode": args.mode,
                    "params": kwargs, "out": args.out},
                   inputs, seed, started)
    _print_report(results)
    return 0


def cmd_ablation(args) -> int:
    started = _utc_now()
    vocab = _load_vocab(args.vocab)
    lexicon = read_lexicon(args.lexicon)

    if args.grid:
        raw = _load_json(args.grid, "grid")
        if not isinstance(raw, list):
            raise ConfigError(f"grid {args.grid} must be a JSON array of "
                              "model configs")
        grid = []
        for d in raw:
            d = dict(d)
            d.setdefault("vocab_size", vocab.size)
            grid.append(_model_config_from(d))
    else:
        grid = default_grid(vocab.size)

    train_d = _load_json(args.train_config, "train config") \
        if args.train_config else {}
    train_d = _override(train_d, {"epochs": args.epochs,
                                  "batch_size": args.batch_size,
                                  "lr": args.lr, "seed": args.seed})
    train_config = TrainConfig.from_dict(train_d)

    task_data = {"morph": args.clusters, "noise": args.clusters,
                 "tag": args.tag_data, "pos": args.pos_data,
                 "sa": args.sa_data}
    task_flags = {"morph": "--clusters", "noise": "--clusters",
                  "tag": "--tag-data", "pos": "--pos-data",
                  "sa": "--sa-data"}
    tasks = [t for t in args.evals.split(",") if t]
    unknown = sorted(set(tasks) - set(EVAL_TASKS))
    if unknown:
        raise UsageError(f"unknown eval tasks {unknown}; expected a subset "
                         f"of {list(EVAL_TASKS)}")
    eval_params = _load_json(args.eval_params, "eval params") \
        if args.eval_params else {}
    evals, inputs = {}, {"lexicon": args.lexicon}
    readers = {"morph": read_clusters, "noise": read_clusters,
               "tag": read_morph, "pos": read_pos, "sa": read_sentiment}
    for task in tasks:
        path = task_data[task]
        if path is None:
            raise UsageError(f"eval task {task!r} needs {task_flags[task]}")
        evals[task] = {"data": readers[task](path),
                       **eval_params.get(task, {})}
        inputs[task_flags[task].lstrip("-")] = path
    if args.grid:
        inputs["grid"] = args.grid
    if args.train_config:
        inputs["train_config"] = args.train_config
    if args.vocab:
        inputs["vocab"] = args.vocab
    if args.eval_params:
        inputs["eval_params"] = args.eval_params

    os.makedirs(args.out, exist_ok=True)
    report = ablation_sweep(grid, lexicon, vocab, train_config, evals,
                            seed=args.seed, out_dir=args.out)

    _write_json(os.path.join(args.out, "ablation.json"), report)
    columns = ["variant", "params", "wall_time", "samples_per_sec"]
    columns += report["metric_names"]
    csv_path = os.path.join(args.out, "ablation.csv")

    def write_csv(tmp):
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns,
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows(report["table"])

    _atomic_write(csv_path, write_csv)
    _emit_manifest(os.path.join(args.out, "manifest.json"), "ablation",
                   {"grid": [variant_name(c) for c in grid],
                    "train": train_config.to_dict(), "evals": tasks,
                    "out": args.out},
                   inputs, args.seed, started)

    _print_table(columns, report["table"])
    if report["n_failed"]:
        print(f"{report['n_failed']} of {report['grid_size']} variants "
              "failed", file=sys.stderr)
        return 2
    return 0


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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="echoed into the manifest (default 42)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pretrain",
                       help="pre-train an encoder on a lexicon")
    p.add_argument("--lexicon", required=True, help="lexicon TSV file")
    p.add_argument("--model-config",
                   help="model config JSON (flags override)")
    p.add_argument("--train-config",
                   help="train config JSON (flags override)")
    p.add_argument("--vocab", help="character vocabulary spec JSON "
                                   "(default: built-in charset)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--n-blocks", type=int, help="transformer block count")
    p.add_argument("--n-heads", type=int, help="attention head count")
    p.add_argument("--hidden", type=int, help="hidden width")
    p.add_argument("--dropout", type=float, help="dropout probability")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--batch-size", type=int, help="examples per batch")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--mask-ratio", type=float,
                   help="fraction of characters masked")
    p.add_argument("--seed", type=int,
                   help="training seed (default 42)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("encode",
                       help="embed words from a checkpoint into a TSV")
    p.add_argument("--ckpt", required=True, help="encoder checkpoint")
    p.add_argument("--words", required=True,
                   help="file with one word per line, or - for stdin")
    p.add_argument("--out", required=True, help="output embeddings TSV")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="echoed into the manifest (default 42)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", help="run one evaluation task")
    p.add_argument("--task", required=True,
                   choices=("morph", "noise", "probe", "compose", "sim",
                            "tag", "pos", "sa"),
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
    p.add_argument("--grid", help="JSON array of model configs "
                                  "(default: the built-in 7-variant grid)")
    p.add_argument("--lexicon", required=True, help="lexicon TSV file")
    p.add_argument("--vocab", help="character vocabulary spec JSON "
                                   "(default: built-in charset)")
    p.add_argument("--train-config",
                   help="train config JSON (flags override)")
    p.add_argument("--evals", required=True,
                   help="comma-separated eval tasks: morph,noise,tag,"
                        "pos,sa")
    p.add_argument("--clusters", help="clusters TSV for morph/noise")
    p.add_argument("--tag-data", help="morph-tagging TSV for tag")
    p.add_argument("--pos-data", help="PoS file for pos")
    p.add_argument("--sa-data", help="sentiment TSV for sa")
    p.add_argument("--eval-params",
                   help="JSON object of per-task keyword arguments")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--batch-size", type=int, help="examples per batch")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="sweep seed (default 42)")
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
