"""Architecture sweep: pre-train encoder variants, evaluate each with a
caller-supplied callable, and consolidate one comparable
metric-by-variant table.

The default grid varies one factor at a time around the N=2, H=2, d=16
base: depth N in {1,2,3}, heads H in {1,2,4}, width d in {8,16,32},
seven distinct configurations in total. Which tasks run, on which data,
is the caller's choice (the CLI builds it from its task table). Variant
failures are isolated: the sweep continues and the report marks every
cell of a failed row.
"""

from __future__ import annotations

import logging
import time

from ..encoder import ModelConfig, count_params
from ..errors import ConfigError
from ..pretrain import TrainConfig, train
from .embedder import CheckpointEmbedder

logger = logging.getLogger(__name__)

GRID_ROWS = (
    (1, 2, 16), (2, 2, 16), (3, 2, 16),
    (2, 1, 16), (2, 4, 16),
    (2, 2, 8), (2, 2, 32),
)

FAILED = "failed"


def variant_name(config: ModelConfig) -> str:
    return f"N{config.n_blocks}-H{config.n_heads}-d{config.hidden}"


def default_grid(vocab_size: int, **overrides) -> list:
    """The seven one-factor-at-a-time variants as ModelConfigs."""
    return [ModelConfig(vocab_size=vocab_size, n_blocks=n, n_heads=h,
                        hidden=d, **overrides)
            for n, h, d in GRID_ROWS]


def ablation_sweep(grid, lexicon, vocab, train_config: TrainConfig,
                   evaluate=None) -> tuple:
    """Train every variant on the shared lexicon and evaluate it; return
    (report, states), states mapping the name of each variant whose
    training succeeded to its trained EncoderState.

    evaluate(embedder) -> {column: value} runs once on each trained
    variant; without it the table holds only the efficiency columns.
    A failed variant is recorded with its error and the sweep continues;
    the consolidated table covers every (variant, metric) cell, marking
    the cells of failed variants. Each row's `checkpoint` is None, for
    the caller that saves the states to fill in.
    """
    grid = list(grid)
    if not grid:
        raise ConfigError("ablation grid is empty")
    names = [variant_name(c) for c in grid]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ConfigError(f"duplicate grid variants {dupes}")

    variants, states = [], {}
    for config in grid:
        row = {"variant": variant_name(config), "config": config.to_dict(),
               "params": count_params(config), "status": "ok", "error": None,
               "wall_time": None, "samples_per_sec": None, "metrics": {},
               "checkpoint": None}
        t0 = time.perf_counter()
        try:
            state, _ = train(lexicon, config, train_config, vocab)
            row["wall_time"] = time.perf_counter() - t0
            samples = len(lexicon) * train_config.epochs
            row["samples_per_sec"] = samples / max(row["wall_time"], 1e-9)
            states[row["variant"]] = state
            if evaluate is not None:
                row["metrics"] = evaluate(CheckpointEmbedder(state))
        except Exception as exc:
            row["status"] = FAILED
            row["error"] = f"{type(exc).__name__}: {exc}"
            logger.warning("variant %s failed: %s", row["variant"],
                           row["error"])
        variants.append(row)

    metric_names = sorted({name for row in variants
                           for name in row["metrics"]})
    table = []
    for row in variants:
        cells = {"variant": row["variant"], "params": row["params"]}
        failed = row["status"] == FAILED
        cells["wall_time"] = FAILED if failed else row["wall_time"]
        cells["samples_per_sec"] = (FAILED if failed
                                    else row["samples_per_sec"])
        for name in metric_names:
            cells[name] = (FAILED if failed
                           else row["metrics"].get(name, FAILED))
        table.append(cells)
    return {"variants": variants, "table": table,
            "metric_names": metric_names,
            "n_failed": sum(r["status"] == FAILED for r in variants),
            "grid_size": len(grid)}, states
