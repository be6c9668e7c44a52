"""Metrics, the nearest-neighbour sanity baseline, and the benchmark harness.

The harness trains on ``<Name>_TRAIN`` and scores ``<Name>_TEST`` files,
appending one row per (dataset, seed, mode) to a schema-stable CSV. Modes
(``MODES``): ``coeye`` (full ensemble), ``sax_only`` / ``sfa_only`` (vote
restricted to one representation block of the same model),
``random_lenses`` (uniform lens sampling instead of the CV search), and
``ed1nn`` (1-nearest-neighbour on raw Euclidean distance).
"""

from __future__ import annotations

import csv
import hashlib
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

# each mode's (lens strategy of ``train``, representation block it votes); ed1nn trains nothing
MODES = {"coeye": ("search", "both"), "sax_only": ("search", "sax"), "sfa_only": ("search", "sfa"),
         "random_lenses": ("random", "both"), "ed1nn": (None, None)}
_UNTRAINED = {"search_sax": 0.0, "search_sfa": 0.0, "train": 0.0, "total": 0.0}  # ed1nn's model timings

CSV_COLUMNS = [
    "dataset", "mode", "seed", "accuracy",
    "macro_precision", "macro_recall", "macro_f1", "micro_f1",
    "n_sax_lenses", "n_sfa_lenses", "smote_pct",
    "t_search_sax_s", "t_search_sfa_s", "t_train_s", "t_predict_s", "t_total_s",
    "status", "version",
]
_ERROR_COLUMNS = ("dataset", "mode", "seed", "status", "version")  # an error row leaves the rest blank


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
        """One cell per ``CSV_COLUMNS`` entry: a float to 6 places, ``t_<phase>_s`` as ``timings[phase]`` to 3."""
        row = dict.fromkeys(CSV_COLUMNS, "")
        for c in CSV_COLUMNS if self.status == "ok" else _ERROR_COLUMNS:
            if c.startswith("t_"):
                row[c] = f"{self.timings.get(c[2:-2], 0.0):.3f}"
            else:
                value = build_version() if c == "version" else getattr(self, c)
                row[c] = f"{value:.6f}" if isinstance(value, float) else value
        return row


@cache
def build_version() -> str:
    """git describe of the working tree when available, else the package
    version and the first 12 hex digits of the sha256 over the package's
    ``*.py`` files, each as its name, a NUL and its bytes, in name order.

    Computed once per process, not once per CSV row.
    """
    package = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=package,
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0 and out.stdout.strip():
            return f"{__version__}+{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for name in sorted(name for name in os.listdir(package) if name.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return f"{__version__}+src.{digest.hexdigest()[:12]}"


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


def _modes(modes) -> tuple[str, ...]:
    """One mode name or a sequence of them, as a tuple; ValueError if it is empty or names an unknown mode."""
    modes = (modes,) if isinstance(modes, str) else tuple(modes)
    for mode in modes or ("",):  # an empty sequence is refused as the empty name
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {', '.join(MODES)}")
    return modes


def _outcome(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _train(train_set: Dataset, strategy: str | None, config: CoEyeConfig):
    """The model of one lens strategy under ``config``; ed1nn's strategy ``None`` trains nothing."""
    return None if strategy is None else train(train_set, config, lens_strategy=strategy)


def _score(splits, mode: str, seed: int, model) -> EvalReport:
    """``mode``'s report on (train, test) ``splits`` from ``_train``'s outcome; its predict time adds to the model's."""
    if isinstance(model, Exception):
        raise model
    train_set, test_set = splits
    t0 = time.perf_counter()
    if model is None:
        y_pred, fit = [nn1_euclidean(train_set, row) for row in test_set.X], {}
    else:
        y_pred = [p.label for p in predict_dataset(model, test_set, representation=MODES[mode][1])]
        fit = dict(smote_pct=model.smote_report.smote_percentage, n_sax_lenses=model.sax_count,
                   n_sfa_lenses=model.sfa_count)
    predict = time.perf_counter() - t0
    timings = dict(_UNTRAINED if model is None else model.timings, predict=predict)
    timings["total"] += predict
    classes = sorted(set(train_set.class_labels) | set(test_set.class_labels))
    return replace(metrics(test_set.y, y_pred, classes), dataset=train_set.name or "dataset", mode=mode, seed=seed,
                   timings=timings, **fit)


def run_benchmark(data_dir, names, modes, seeds, out_csv,
                  config: CoEyeConfig | None = None) -> list[EvalReport]:
    """Append one CSV row per (dataset, seed, mode), in that nesting, a dataset's rows when it is done.
    ``modes`` is one mode name or a sequence. Each split is parsed once and each lens strategy the modes
    need trains once per seed; a mode whose split, train or scoring fails gets a status=error row.
    Every seed's config is built before any split is read, so a refused seed raises ValueError."""
    modes = _modes(modes)
    if not seeds:
        raise ValueError("provide at least one seed")
    configs = {seed: replace(config or CoEyeConfig(), seed=seed) for seed in seeds}
    reports = []
    for name in names:
        splits = _outcome(lambda: [load_ucr(find_split(data_dir, name, split)) for split in ("TRAIN", "TEST")])
        rows = []
        for seed in seeds:
            models = {s: splits if isinstance(splits, Exception) else _outcome(_train, splits[0], s, configs[seed])
                      for s in dict.fromkeys(MODES[m][0] for m in modes)}
            for m in modes:
                r = _outcome(_score, splits, m, seed, models[MODES[m][0]])
                rows.append(r if isinstance(r, EvalReport) else
                            EvalReport(dataset=name, mode=m, seed=seed, status=f"error: {r}"))
        append_rows(out_csv, rows)
        reports.extend(rows)
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
