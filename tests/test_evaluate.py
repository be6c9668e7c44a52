import csv
import dataclasses
import os
import pickle
import re
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeye import CoEyeConfig, Dataset, __version__
from coeye import evaluate
from coeye.errors import SeriesLengthMismatch, UnknownLabel
from coeye.evaluate import (
    BENCHMARK_MODES,
    CSV_COLUMNS,
    EvalReport,
    build_version,
    metrics,
    nn1_euclidean,
    run_benchmark,
    run_single,
)
from tests.conftest import SMALL_CONFIG, synth_dataset


class TestMetrics:
    def test_hand_counted_example(self):
        report = metrics([1, 1, 2, 2], [1, 2, 2, 2], classes=[1, 2])
        assert report.accuracy == pytest.approx(0.75)
        assert report.per_class[1]["precision"] == pytest.approx(1.0)
        assert report.per_class[1]["recall"] == pytest.approx(0.5)
        assert report.per_class[2]["precision"] == pytest.approx(2 / 3)
        assert report.per_class[2]["recall"] == pytest.approx(1.0)
        assert report.macro_f1 == pytest.approx((2 / 3 + 4 / 5) / 2)

    def test_perfect_predictions(self):
        report = metrics([1, 2, 3], [1, 2, 3], classes=[1, 2, 3])
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0

    def test_all_one_class_predictions(self):
        report = metrics([1, 1, 2, 2], [1, 1, 1, 1], classes=[1, 2])
        assert report.per_class[1]["recall"] == 1.0
        assert report.per_class[2]["recall"] == 0.0
        assert report.per_class[2]["precision"] == 0.0
        assert report.per_class[2]["f1"] == 0.0

    def test_per_class_scores_are_frozen_python_floats(self):
        report = metrics([1, 1, 2, 2], [1, 2, 2, 2], classes=[1, 2])
        # each class's scores used to be a plain dict of numpy floats that took any assignment
        with pytest.raises(TypeError):
            report.per_class[1]["precision"] = 7.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.per_class[1].precision = 7.0
        with pytest.raises(KeyError):
            report.per_class[1]["accuracy"]
        scores = [(s.precision, s.recall, s.f1) for s in report.per_class.values()]
        assert scores == [(1.0, 0.5, 2 / 3), (2 / 3, 1.0, 0.8)]
        assert {type(v) for row in scores for v in row} | {type(report.accuracy)} == {float}
        clone = pickle.loads(pickle.dumps(report))
        assert clone.per_class == report.per_class
        with pytest.raises(TypeError):
            clone.per_class[2]["f1"] = 0.0

    def test_unknown_label_rejected(self):
        with pytest.raises(UnknownLabel):
            metrics([1, 2], [1, 7], classes=[1, 2])
        with pytest.raises(UnknownLabel):
            metrics([1, 3], [1, 1], classes=[1, 2])

    def test_micro_equals_accuracy_for_single_label(self):
        report = metrics([1, 1, 2, 3], [1, 2, 2, 3], classes=[1, 2, 3])
        assert report.micro_f1 == pytest.approx(report.accuracy)

    @given(
        y=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60)
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_independent_recomputation(self, y):
        y_true = [a for a, _ in y]
        y_pred = [b for _, b in y]
        classes = [0, 1, 2, 3]
        report = metrics(y_true, y_pred, classes)

        assert report.accuracy == pytest.approx(
            np.mean(np.asarray(y_true) == np.asarray(y_pred))
        )
        for i, label in enumerate(classes):
            assert report.confusion[i].sum() == sum(1 for t in y_true if t == label)

        # macro F1 recomputed from scratch by a second formula path
        f1s = []
        for label in classes:
            tp = sum(1 for t, p in zip(y_true, y_pred) if t == label and p == label)
            fp = sum(1 for t, p in zip(y_true, y_pred) if t != label and p == label)
            fn = sum(1 for t, p in zip(y_true, y_pred) if t == label and p != label)
            f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
        assert report.macro_f1 == pytest.approx(float(np.mean(f1s)))


class TestNn1:
    def test_exact_match_returns_its_label(self, waves):
        for i in (0, 5, 15):
            assert nn1_euclidean(waves, waves.X[i]) == waves.y[i]

    def test_equidistant_tie_takes_lowest_index(self):
        ds = Dataset(np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([7, 8]))
        assert nn1_euclidean(ds, np.array([0.0, 0.0])) == 7

    def test_length_mismatch(self, waves):
        with pytest.raises(SeriesLengthMismatch):
            nn1_euclidean(waves, np.zeros(waves.n - 1))

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.normal(size=(20, 8)), rng.integers(0, 3, size=20))
        for _ in range(25):
            probe = rng.normal(size=8)
            best_i, best_d = 0, float("inf")
            for i in range(len(ds)):
                d = float(sum((ds.X[i][j] - probe[j]) ** 2 for j in range(8)))
                if d < best_d:
                    best_i, best_d = i, d
            assert nn1_euclidean(ds, probe) == ds.y[best_i]


@pytest.fixture(scope="module")
def splits():
    return synth_dataset("waves", seed=1), synth_dataset("waves", seed=2)


class TestRunSingle:

    def config(self):
        return CoEyeConfig(seed=0, **SMALL_CONFIG)

    def test_coeye_mode(self, splits):
        train_set, test_set = splits
        report = run_single(train_set, test_set, "coeye", seed=0, config=self.config())
        assert report.status == "ok"
        assert 0.0 <= report.accuracy <= 1.0
        assert report.n_sax_lenses >= 1 and report.n_sfa_lenses >= 1
        assert set(report.timings) == {"search_sax", "search_sfa", "train", "predict", "total"}

    def test_phase_timings_account_for_total(self, splits):
        train_set, test_set = splits
        report = run_single(train_set, test_set, "coeye", seed=0, config=self.config())
        t = report.timings
        parts = t["search_sax"] + t["search_sfa"] + t["train"] + t["predict"]
        assert t["total"] >= parts * 0.95

    def test_ablation_modes_run(self, splits):
        train_set, test_set = splits
        for mode in ("sax_only", "sfa_only", "random_lenses"):
            report = run_single(train_set, test_set, mode, seed=0, config=self.config())
            assert report.status == "ok"
            assert 0.0 <= report.accuracy <= 1.0

    def test_ed1nn_mode(self, splits):
        train_set, test_set = splits
        report = run_single(train_set, test_set, "ed1nn", seed=0, config=self.config())
        assert report.status == "ok"
        assert report.n_sax_lenses == 0 and report.n_sfa_lenses == 0
        assert report.accuracy >= 0.8  # separable fixture

    def test_unknown_mode_rejected(self, splits):
        train_set, test_set = splits
        with pytest.raises(ValueError):
            run_single(train_set, test_set, "nonsense", seed=0)


class TestRunBenchmark:
    def config(self):
        return CoEyeConfig(seed=0, trees=10, sax_alphas=(3, 4), sfa_alphas=(3, 4))

    def test_rows_and_schema(self, ucr_dir, tmp_path):
        out = tmp_path / "results.csv"
        reports = run_benchmark(ucr_dir, ["waves", "trends"], "coeye", [0, 1], out, self.config())
        assert len(reports) == 4
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["dataset"] for r in rows] == ["waves", "waves", "trends", "trends"]
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["version"] == build_version() for r in rows)

    def test_missing_dataset_becomes_error_row(self, ucr_dir, tmp_path):
        out = tmp_path / "results.csv"
        reports = run_benchmark(ucr_dir, ["missing"], "coeye", [0], out, self.config())
        assert len(reports) == 1
        assert reports[0].status.startswith("error")
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["accuracy"] == ""
        assert rows[0]["status"].startswith("error")

    def test_each_split_parsed_once_per_dataset(self, ucr_dir, tmp_path, monkeypatch):
        parsed, load_ucr = [], evaluate.load_ucr

        def counting(path, *args, **kwargs):
            parsed.append(path)
            return load_ucr(path, *args, **kwargs)

        monkeypatch.setattr(evaluate, "load_ucr", counting)
        reports = run_benchmark(ucr_dir, ["waves", "trends"], "ed1nn", [0, 1, 2], tmp_path / "r.csv", self.config())
        assert len(parsed) == 4
        assert [(r.dataset, r.seed, r.status) for r in reports] == [
            (name, seed, "ok") for name in ("waves", "trends") for seed in (0, 1, 2)
        ]

    def test_missing_dataset_gives_one_error_row_per_seed(self, ucr_dir, tmp_path):
        reports = run_benchmark(ucr_dir, ["missing"], "coeye", [0, 1], tmp_path / "r.csv", self.config())
        assert [r.seed for r in reports] == [0, 1]
        assert all(r.dataset == "missing" and r.status.startswith("error: no missing_TRAIN") for r in reports)

    def test_one_git_describe_per_process(self, ucr_dir, tmp_path, monkeypatch):
        commands, run = [], subprocess.run

        def counting(cmd, *args, **kwargs):
            commands.append(cmd)
            return run(cmd, *args, **kwargs)

        build_version.cache_clear()
        monkeypatch.setattr(subprocess, "run", counting)
        out = tmp_path / "r.csv"
        run_benchmark(ucr_dir, ["waves", "trends"], "ed1nn", [0, 1], out, self.config())
        assert sum(cmd[0] == "git" for cmd in commands) == 1
        with open(out) as fh:
            assert {r["version"] for r in csv.DictReader(fh)} == {build_version()}

    def test_source_hash_outside_a_git_checkout(self, tmp_path, monkeypatch):
        def no_git(*args, **kwargs):
            raise OSError("no git")

        # a copy of the package's sources, as a git archive leaves them
        package = tmp_path / "coeye"
        shutil.copytree(os.path.dirname(evaluate.__file__), package, ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(subprocess, "run", no_git)
        monkeypatch.setattr(evaluate, "__file__", str(package / "evaluate.py"))
        try:
            build_version.cache_clear()
            version = build_version()
            assert re.fullmatch(rf"{re.escape(__version__)}\+src\.[0-9a-f]{{12}}", version)
            source = package / "data.py"
            source.write_bytes(source.read_bytes() + b" ")
            build_version.cache_clear()
            assert build_version() != version
        finally:
            build_version.cache_clear()

    def test_append_only(self, ucr_dir, tmp_path):
        out = tmp_path / "results.csv"
        run_benchmark(ucr_dir, ["waves"], "ed1nn", [0], out, self.config())
        run_benchmark(ucr_dir, ["waves"], "ed1nn", [1], out, self.config())
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert [r["seed"] for r in rows] == ["0", "1"]

    def test_deterministic_excluding_timings(self, ucr_dir, tmp_path):
        timing_cols = {c for c in CSV_COLUMNS if c.startswith("t_")}

        def stable_rows(path):
            with open(path) as fh:
                return [
                    tuple(v for c, v in row.items() if c not in timing_cols)
                    for row in csv.DictReader(fh)
                ]

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_benchmark(ucr_dir, ["waves"], "coeye", [3], a, self.config())
        run_benchmark(ucr_dir, ["waves"], "coeye", [3], b, self.config())
        assert stable_rows(a) == stable_rows(b)


class TestMultiModeBenchmark:
    """One ``run_benchmark`` call scores every mode of a seed from one model per lens strategy."""

    def config(self):
        return CoEyeConfig(seed=0, trees=10, sax_alphas=(3, 4), sfa_alphas=(3, 4))

    @staticmethod
    def stable(path):
        with open(path) as fh:
            return [{c: v for c, v in row.items() if not c.startswith("t_")} for row in csv.DictReader(fh)]

    @staticmethod
    def counting_train(monkeypatch, fail=None):
        calls, train = [], evaluate.train

        def counting(train_set, config, lens_strategy="search"):
            calls.append((train_set.name, config.seed, lens_strategy))
            if lens_strategy == fail:
                raise ValueError(f"no {fail} model")
            return train(train_set, config, lens_strategy=lens_strategy)

        monkeypatch.setattr(evaluate, "train", counting)
        return calls

    def test_one_train_per_dataset_and_seed(self, ucr_dir, tmp_path, monkeypatch):
        calls = self.counting_train(monkeypatch)
        modes = ["coeye", "sax_only", "sfa_only"]
        reports = run_benchmark(ucr_dir, ["waves", "trends"], modes, [0, 1], tmp_path / "r.csv", self.config())
        assert calls == [(name, seed, "search") for name in ("waves", "trends") for seed in (0, 1)]
        assert [(r.dataset, r.seed, r.mode, r.status) for r in reports] == [
            (name, seed, mode, "ok") for name in ("waves", "trends") for seed in (0, 1) for mode in modes
        ]

    def test_rows_equal_one_mode_runs(self, ucr_dir, tmp_path):
        both = tmp_path / "all.csv"
        run_benchmark(ucr_dir, ["waves"], BENCHMARK_MODES, [0, 1], both, self.config())
        single = []
        for mode in BENCHMARK_MODES:
            run_benchmark(ucr_dir, ["waves"], mode, [0, 1], tmp_path / f"{mode}.csv", self.config())
            single.extend(self.stable(tmp_path / f"{mode}.csv"))
        key = lambda row: (row["seed"], BENCHMARK_MODES.index(row["mode"]))
        assert self.stable(both) == sorted(single, key=key)
        assert len(single) == 2 * len(BENCHMARK_MODES)

    def test_every_row_accounts_for_its_total(self, ucr_dir, tmp_path):
        reports = run_benchmark(ucr_dir, ["waves"], BENCHMARK_MODES, [0], tmp_path / "r.csv", self.config())
        for r in reports:
            t = r.timings
            assert r.status == "ok"
            assert t["total"] >= 0.95 * (t["search_sax"] + t["search_sfa"] + t["train"] + t["predict"])
        by_mode = {r.mode: r.timings for r in reports}
        shared = [{k: by_mode[m][k] for k in ("search_sax", "search_sfa", "train")}
                  for m in ("coeye", "sax_only", "sfa_only")]
        assert shared[0] == shared[1] == shared[2]

    def test_a_failed_train_fails_only_its_modes(self, ucr_dir, tmp_path, monkeypatch):
        calls = self.counting_train(monkeypatch, fail="search")
        reports = run_benchmark(ucr_dir, ["waves"], BENCHMARK_MODES, [0], tmp_path / "r.csv", self.config())
        status = {r.mode: r.status for r in reports}
        assert status == {"coeye": "error: no search model", "sax_only": "error: no search model",
                          "sfa_only": "error: no search model", "random_lenses": "ok", "ed1nn": "ok"}
        assert [strategy for _, _, strategy in calls] == ["search", "random"]
        with open(tmp_path / "r.csv") as fh:
            assert [row["status"] for row in csv.DictReader(fh)] == [status[m] for m in BENCHMARK_MODES]

    def test_rows_appended_as_each_dataset_finishes(self, ucr_dir, tmp_path, monkeypatch):
        out, written = tmp_path / "r.csv", []
        append_rows = evaluate.append_rows

        def recording(path, reports):
            written.append([r.dataset for r in reports])
            append_rows(path, reports)

        monkeypatch.setattr(evaluate, "append_rows", recording)
        run_benchmark(ucr_dir, ["waves", "trends"], ["ed1nn", "coeye"], [0], out, self.config())
        assert written == [["waves", "waves"], ["trends", "trends"]]

    @pytest.mark.parametrize("modes, seeds", [([], [0]), ("coeye", []), (["coeye", "bogus"], [0])])
    def test_empty_or_unknown_refused_before_the_file(self, ucr_dir, tmp_path, modes, seeds):
        with pytest.raises(ValueError):
            run_benchmark(ucr_dir, ["waves"], modes, seeds, tmp_path / "r.csv", self.config())
        assert not (tmp_path / "r.csv").exists()

    def test_negative_seed_refused_before_the_file(self, ucr_dir, tmp_path):
        # ed1nn trains nothing, so the seed was never checked and the run wrote its rows
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            run_benchmark(ucr_dir, ["waves"], ["ed1nn"], [0, -1], tmp_path / "r.csv", self.config())
        assert not (tmp_path / "r.csv").exists()

    def test_run_single_keeps_raising(self, splits, monkeypatch):
        self.counting_train(monkeypatch, fail="search")
        with pytest.raises(ValueError, match="no search model"):
            run_single(*splits, "sax_only", seed=0, config=self.config())
        assert run_single(*splits, "ed1nn", seed=0, config=self.config()).status == "ok"


class TestErrorRow:
    def test_error_report_blank_metrics(self):
        row = EvalReport(dataset="x", mode="coeye", seed=1, status="error: boom").csv_row()
        assert row["accuracy"] == "" and row["t_total_s"] == ""
        assert row["dataset"] == "x"

    def test_error_row_cells(self):
        row = EvalReport(dataset="x", mode="ed1nn", seed=3, accuracy=0.5, status="error: boom").csv_row()
        assert row == {**dict.fromkeys(CSV_COLUMNS, ""), "dataset": "x", "mode": "ed1nn", "seed": 3,
                       "status": "error: boom", "version": build_version()}


def test_csv_row_cells():
    report = EvalReport(
        dataset="waves", mode="sax_only", seed=7, accuracy=0.25, macro_precision=1 / 3, macro_recall=0.5,
        macro_f1=0.4, micro_f1=0.25, n_sax_lenses=4, n_sfa_lenses=9, smote_pct=0.125,
        timings={"search_sax": 1.23456, "search_sfa": 2.0, "train": 0.0004, "predict": 0.5, "total": 3.7346},
    )
    assert list(report.csv_row().items()) == [
        ("dataset", "waves"), ("mode", "sax_only"), ("seed", 7), ("accuracy", "0.250000"),
        ("macro_precision", "0.333333"), ("macro_recall", "0.500000"), ("macro_f1", "0.400000"),
        ("micro_f1", "0.250000"), ("n_sax_lenses", 4), ("n_sfa_lenses", 9), ("smote_pct", "0.125000"),
        ("t_search_sax_s", "1.235"), ("t_search_sfa_s", "2.000"), ("t_train_s", "0.000"), ("t_predict_s", "0.500"),
        ("t_total_s", "3.735"), ("status", "ok"), ("version", build_version()),
    ]
    assert EvalReport().csv_row()["t_total_s"] == "0.000"  # a phase the timings lack reads as zero
