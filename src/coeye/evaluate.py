"""Metrics, the nearest-neighbour sanity baseline, and the benchmark harness.

The harness trains on ``<Name>_TRAIN`` and scores ``<Name>_TEST`` files
for each (dataset, seed, mode), appending one row per run to a
schema-stable CSV. Modes: ``coeye`` (full ensemble), ``sax_only`` /
``sfa_only`` (vote restricted to one representation block),
``random_lenses`` (uniform lens sampling instead of the CV search), and
``ed1nn`` (1-nearest-neighbour on raw Euclidean distance).
"""

from __future__ import annotations

import csv
import os
import subprocess
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cache

import numpy as np

from . import __version__
from .config import CoEyeConfig
from .data import DATA_EXTENSIONS, Dataset, load_ucr
from .ensemble import predict_dataset, train
from .errors import Record, SeriesLengthMismatch, UnknownLabel

BENCHMARK_MODES = ("coeye", "sax_only", "sfa_only", "random_lenses", "ed1nn")

CSV_COLUMNS = [
    "dataset", "mode", "seed", "accuracy",
    "macro_precision", "macro_recall", "macro_f1", "micro_f1",
    "n_sax_lenses", "n_sfa_lenses", "smote_pct",
    "t_search_sax_s", "t_search_sfa_s", "t_train_s", "t_predict_s", "t_total_s",
    "status", "version",
]


@dataclass(frozen=True)
class ClassScores(Record):
    """One class's precision, recall and F1, also read by name: ``scores["f1"]``."""

    precision: float
    recall: float
    f1: float

    def __getitem__(self, name: str) -> float:
        return asdict(self)[name]


@dataclass(frozen=True, eq=False)
class EvalReport(Record):
    dataset: str = ""
    mode: str = ""
    seed: int = 0
    accuracy: float = 0.0
    per_class: dict[int, ClassScores] = field(default_factory=dict)
    macro_precision: float = 0.0
    macro_recall: float = 0.0
    macro_f1: float = 0.0
    micro_f1: float = 0.0
    confusion: np.ndarray | None = field(default=None, metadata={"dtype": np.int64})
    smote_pct: float = 0.0
    n_sax_lenses: int = 0
    n_sfa_lenses: int = 0
    timings: dict = field(default_factory=dict)
    status: str = "ok"

    def csv_row(self) -> dict:
        t = self.timings
        if self.status != "ok":
            row = {c: "" for c in CSV_COLUMNS}
            row.update(dataset=self.dataset, mode=self.mode, seed=self.seed,
                       status=self.status, version=build_version())
            return row
        return {
            "dataset": self.dataset,
            "mode": self.mode,
            "seed": self.seed,
            "accuracy": f"{self.accuracy:.6f}",
            "macro_precision": f"{self.macro_precision:.6f}",
            "macro_recall": f"{self.macro_recall:.6f}",
            "macro_f1": f"{self.macro_f1:.6f}",
            "micro_f1": f"{self.micro_f1:.6f}",
            "n_sax_lenses": self.n_sax_lenses,
            "n_sfa_lenses": self.n_sfa_lenses,
            "smote_pct": f"{self.smote_pct:.6f}",
            "t_search_sax_s": f"{t.get('search_sax', 0.0):.3f}",
            "t_search_sfa_s": f"{t.get('search_sfa', 0.0):.3f}",
            "t_train_s": f"{t.get('train', 0.0):.3f}",
            "t_predict_s": f"{t.get('predict', 0.0):.3f}",
            "t_total_s": f"{t.get('total', 0.0):.3f}",
            "status": self.status,
            "version": build_version(),
        }


@cache
def build_version() -> str:
    """git describe of the working tree when available, else the package version.

    Computed once per process, not once per CSV row.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"{__version__}+{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def metrics(y_true, y_pred, classes) -> EvalReport:
    """Confusion matrix, accuracy, per-class and macro/micro P/R/F1.

    Per-class precision TP/(TP+FP) and recall TP/(TP+FN) are 0 when their
    denominator is 0; F1 is their harmonic mean (0 when both are 0); macro
    scores are unweighted class means.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.shape[0] == 0:
        raise ValueError("y_true and y_pred must be equal-length and non-empty")
    classes = np.asarray(sorted(int(c) for c in classes))
    index = {int(c): i for i, c in enumerate(classes)}
    for v in np.unique(np.concatenate([y_true, y_pred])):
        if int(v) not in index:
            raise UnknownLabel(f"label {int(v)} outside the declared classes")

    c = classes.shape[0]
    confusion = np.zeros((c, c), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[index[int(t)], index[int(p)]] += 1

    tp, predicted, actual = np.diag(confusion), confusion.sum(axis=0), confusion.sum(axis=1)
    precision = np.divide(tp, predicted, out=np.zeros(c), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros(c), where=actual > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(c), where=both > 0)
    scores = np.column_stack([precision, recall, f1]).tolist()
    per_class = {label: ClassScores(*row) for label, row in zip(classes.tolist(), scores)}

    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalReport(
        accuracy=accuracy,
        per_class=per_class,
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        micro_f1=accuracy,  # single-label multiclass: micro P = R = F1 = accuracy
        confusion=confusion,
    )


def nn1_euclidean(train: Dataset, ts) -> int:
    """Label of the training series nearest in squared Euclidean distance.

    Distance ties resolve to the lowest training index.
    """
    values = np.asarray(ts.values if hasattr(ts, "values") else ts, dtype=np.float64)
    if values.shape[0] != train.n:
        raise SeriesLengthMismatch(f"expected length {train.n}, got {values.shape[0]}")
    d2 = ((train.X - values) ** 2).sum(axis=1)
    return int(train.y[int(np.argmin(d2))])


def find_split(data_dir, name: str, split: str) -> str:
    for ext in DATA_EXTENSIONS:
        path = os.path.join(str(data_dir), f"{name}_{split}{ext}")
        if os.path.exists(path):
            return path
        nested = os.path.join(str(data_dir), name, f"{name}_{split}{ext}")
        if os.path.exists(nested):
            return nested
    raise FileNotFoundError(f"no {name}_{split} file under {data_dir}")


def run_single(train_set: Dataset, test_set: Dataset, mode: str, seed: int,
               config: CoEyeConfig | None = None) -> EvalReport:
    """Train and score one (dataset, mode, seed) combination."""
    if mode not in BENCHMARK_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    cfg = replace(config or CoEyeConfig(), seed=seed)
    report = dict(dataset=train_set.name or "dataset", mode=mode, seed=seed)

    t_start = time.perf_counter()
    if mode == "ed1nn":
        t0 = time.perf_counter()
        y_pred = [nn1_euclidean(train_set, test_set.X[i]) for i in range(len(test_set))]
        report["timings"] = {"search_sax": 0.0, "search_sfa": 0.0, "train": 0.0,
                             "predict": time.perf_counter() - t0}
    else:
        strategy = "random" if mode == "random_lenses" else "search"
        model = train(train_set, cfg, lens_strategy=strategy)
        representation = {"sax_only": "sax", "sfa_only": "sfa"}.get(mode, "both")
        t0 = time.perf_counter()
        preds = predict_dataset(model, test_set, representation=representation)
        y_pred = [p.label for p in preds]
        report.update(
            timings=dict(model.timings, predict=time.perf_counter() - t0),
            smote_pct=model.smote_report.smote_percentage if model.smote_report else 0.0,
            n_sax_lenses=model.sax_count,
            n_sfa_lenses=model.sfa_count,
        )
    report["timings"]["total"] = time.perf_counter() - t_start

    classes = sorted(set(train_set.class_labels) | set(test_set.class_labels))
    return replace(metrics(test_set.y, y_pred, classes), **report)


def run_benchmark(data_dir, names, mode: str, seeds, out_csv,
                  config: CoEyeConfig | None = None) -> list[EvalReport]:
    """Append one CSV row per (dataset, seed); failures become status=error rows."""
    if mode not in BENCHMARK_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    reports = []
    for name in names:
        failure = None
        try:
            splits = [load_ucr(find_split(data_dir, name, split)) for split in ("TRAIN", "TEST")]
        except Exception as exc:
            failure = exc
        for seed in seeds:
            try:
                if failure is not None:
                    raise failure
                report = run_single(*splits, mode, seed, config)
            except Exception as exc:
                report = EvalReport(dataset=name, mode=mode, seed=seed,
                                    status=f"error: {exc}")
            reports.append(report)
    append_rows(out_csv, reports)
    return reports


def append_rows(out_csv, reports) -> None:
    """Single-writer CSV append; writes the header only on file creation."""
    new_file = not os.path.exists(str(out_csv)) or os.path.getsize(str(out_csv)) == 0
    with open(out_csv, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if new_file:
            writer.writeheader()
        for report in reports:
            writer.writerow(report.csv_row())
