"""Architecture-sweep grid properties and consolidated reporting."""

import pytest

from chdzdt import cli
from chdzdt.chartok import CharVocab
from chdzdt.encoder import count_params
from chdzdt.errors import ConfigError
from chdzdt.evalsuite.ablation import (
    GRID_ROWS,
    ablation_sweep,
    default_grid,
    variant_name,
)
from chdzdt.preprocess import LexiconEntry
from chdzdt.pretrain import TrainConfig

VOC = CharVocab([(97, 122)])

ROOTS = ["tab", "lor", "mik", "dun", "vel", "pon"]
SUFFIXES = ("a", "o", "as", "os")


def toy_clusters():
    return [(r, [r + s for s in SUFFIXES]) for r in ROOTS]


def toy_lexicon():
    entries = []
    for root, members in toy_clusters():
        entries.append(LexiconEntry(root, ("EN",)))
        entries += [LexiconEntry(m, ("EN",)) for m in members]
    return entries


def quick_train_config():
    return TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=42,
                       log_every=1000)


class TestGrid:
    def test_seven_distinct_variants(self):
        grid = default_grid(VOC.size)
        names = [variant_name(c) for c in grid]
        assert len(grid) == 7
        assert len(set(names)) == 7
        assert "N2-H2-d16" in names

    def test_grid_rows_vary_one_factor_at_a_time(self):
        base = (2, 2, 16)
        for row in GRID_ROWS:
            differs = sum(a != b for a, b in zip(row, base))
            assert differs <= 1

    def test_params_invariant_across_head_row(self):
        grid = default_grid(VOC.size)
        counts = {count_params(c) for c in grid
                  if (c.n_blocks, c.hidden) == (2, 16)}
        assert len(counts) == 1

    def test_params_strictly_increase_along_depth_row(self):
        grid = default_grid(VOC.size)
        row = sorted((c.n_blocks, count_params(c)) for c in grid
                     if (c.n_heads, c.hidden) == (2, 16))
        assert [n for n, _ in row] == [1, 2, 3]
        assert row[0][1] < row[1][1] < row[2][1]

    def test_params_strictly_increase_along_width_row(self):
        grid = default_grid(VOC.size)
        row = sorted((c.hidden, count_params(c)) for c in grid
                     if (c.n_blocks, c.n_heads) == (2, 2))
        assert [d for d, _ in row] == [8, 16, 32]
        assert row[0][1] < row[1][1] < row[2][1]

    def test_overrides_forwarded(self):
        grid = default_grid(VOC.size, dropout=0.0, seed=7)
        assert all(c.dropout == 0.0 and c.seed == 7 for c in grid)


@pytest.fixture(scope="module")
def report():
    grid = default_grid(VOC.size, seed=0)[:2]
    report, _ = ablation_sweep(grid, toy_lexicon(), VOC,
                               quick_train_config(),
                               cli.ablation_evaluate(
                                   {"morph": toy_clusters()}, seed=0))
    return report


class TestSweep:
    def test_every_variant_reported(self, report):
        assert report["grid_size"] == 2
        assert report["n_failed"] == 0
        assert [r["variant"] for r in report["variants"]] == \
            [r["variant"] for r in report["table"]]

    def test_metric_columns_cover_every_cell(self, report):
        assert report["metric_names"] == ["morph_acs", "morph_aed",
                                          "morph_ari", "morph_silhouette"]
        for cells in report["table"]:
            for name in report["metric_names"]:
                assert isinstance(cells[name], float)

    def test_efficiency_columns_populated(self, report):
        for cells in report["table"]:
            assert cells["params"] > 0
            assert cells["wall_time"] > 0
            assert cells["samples_per_sec"] > 0

    def test_params_column_matches_closed_form(self, report):
        grid = default_grid(VOC.size, seed=0)[:2]
        for cells, config in zip(report["table"], grid):
            assert cells["params"] == count_params(config)

    def test_metrics_deterministic_given_seed(self, report):
        grid = default_grid(VOC.size, seed=0)[:2]
        again, _ = ablation_sweep(grid, toy_lexicon(), VOC,
                                  quick_train_config(),
                                  cli.ablation_evaluate(
                                      {"morph": toy_clusters()}, seed=0))
        for a, b in zip(report["variants"], again["variants"]):
            assert a["metrics"] == b["metrics"]

    def test_failed_variant_isolated(self, caplog):
        good = default_grid(VOC.size, seed=0)[0]
        bad = default_grid(VOC.size + 1, seed=0)[1]
        report, _ = ablation_sweep([good, bad], toy_lexicon(), VOC,
                                   quick_train_config(),
                                   cli.ablation_evaluate(
                                       {"morph": toy_clusters()}, seed=0))
        assert report["n_failed"] == 1
        ok_row, bad_row = report["variants"]
        assert ok_row["status"] == "ok"
        assert bad_row["status"] == "failed"
        assert "ConfigError" in bad_row["error"]
        cells = report["table"][1]
        assert cells["wall_time"] == "failed"
        assert all(cells[name] == "failed"
                   for name in report["metric_names"])

    def test_all_tasks_produce_columns(self):
        grid = default_grid(VOC.size, seed=0)[:1]
        tag_rows = [(r + s, {"number": "sing" if s in ("a", "o")
                             else "plur"})
                    for r in ROOTS for s in SUFFIXES]
        pos = [[(r + "a", "N"), (r + "o", "V")] for r in ROOTS] * 2
        sa = [("positive", f"{r}a {r}o") for r in ROOTS]
        sa += [("negative", f"{r}o {r}a") for r in ROOTS]
        sa += [("neutral", f"{r}a {r}a") for r in ROOTS]
        data = {"morph": toy_clusters(),
                "noise": {"clusters": toy_clusters()},
                "tag": tag_rows, "pos": pos, "sa": sa}
        params = {
            "noise": {"count": 1},
            "tag": {"shared_dim": 8, "epochs": 2, "lr": 0.05},
            "pos": {"gru_hidden": 4, "dense_dim": 4, "epochs": 2},
            "sa": {"gru_hidden": 4, "dense_dim": 4, "epochs": 2},
        }
        report, _ = ablation_sweep(grid, toy_lexicon(), VOC,
                                   quick_train_config(),
                                   cli.ablation_evaluate(data, params,
                                                         seed=0))
        assert report["n_failed"] == 0
        names = set(report["metric_names"])
        assert {"morph_acs", "morph_aed", "morph_silhouette",
                "morph_ari"} <= names
        assert {"noise_star_acs", "noise_hash_acs", "noise_similar_acs",
                "noise_star_ari", "noise_hash_ari",
                "noise_similar_ari"} <= names
        assert {"tag_overall", "pos_accuracy", "pos_macro_f1",
                "sa_accuracy", "sa_macro_f1"} <= names

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            ablation_sweep([], toy_lexicon(), VOC, quick_train_config())

    def test_duplicate_variants_rejected(self):
        grid = default_grid(VOC.size)
        with pytest.raises(ConfigError, match="duplicate"):
            ablation_sweep([grid[0], grid[0]], toy_lexicon(), VOC,
                           quick_train_config())

    def test_task_names_match_declared_set(self):
        assert cli.ABLATION_TASKS == ("morph", "noise", "tag", "pos", "sa")
