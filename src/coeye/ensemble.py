"""The compound-eye classifier: one forest per selected lens.

Training balances the data, picks the frequency-domain DC convention and
the lens sets by cross-validated search, then fits one binning + forest
pair per lens (all SAX eyes first, then SFA). Training and serving reject
NaN and infinite values. Classification symbolizes an instance once per
eye, stacks the per-eye class-probability rows into a
(k, c) matrix, and applies a two-round vote:

* round 1 — each representation nominates the label of its most confident
  row (most frequent on ties at that confidence); agreement decides.
* round 2 — on disagreement, the representations' second-best labels are
  compared (the runner-up label at the top confidence when it was
  disputed, otherwise the next-most-confident row's label).
* fallback — the representation with the strictly higher round-1
  confidence wins; an exact tie is settled by a seeded random draw.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import CoEyeConfig
from .data import Dataset, TimeSeries
from .errors import (
    EmptyEnsemble,
    EmptyTrainingSet,
    ModelParseError,
    NoMinorityClass,
    NonFiniteSeries,
    SeriesLengthMismatch,
    UnsupportedModelVersion,
)
from .forest import RandomForestModel, fit_forest, forest_from_dict, forest_to_dict, predict_proba
from .lenses import (
    SAX,
    SFA,
    Lens,
    LensGrid,
    _derived_seed,
    _NS_SMOTE,
    _NS_TRAIN,
    search_lenses,
    search_lenses_random,
    search_sfa_with_normalization,
)
from .resample import SmoteReport, smote
from .symbolic import McbTable, SaxBinning, binning_from_dict, check_binning, fit_lens, symbolize

MODEL_FORMAT_VERSION = 1

_NS_VOTE = 6

ROUND_FIRST = "first"
ROUND_SECOND = "second"
ROUND_FALLBACK = "fallback"


@dataclass(eq=False)
class Eye:
    """One lens, its fitted quantisation, and its forest."""

    lens: Lens
    binning: SaxBinning | McbTable
    forest: RandomForestModel


@dataclass(eq=False)
class CoEyeModel:
    eyes: list[Eye]
    class_labels: np.ndarray
    n: int
    config: CoEyeConfig
    dataset_name: str = ""
    smote_report: SmoteReport | None = None
    timings: dict = field(default_factory=dict)

    @property
    def sax_count(self) -> int:
        return sum(1 for e in self.eyes if e.lens.s == SAX)

    @property
    def sfa_count(self) -> int:
        return len(self.eyes) - self.sax_count


@dataclass(frozen=True)
class Prediction:
    label: int
    confidence: float
    round: str
    per_eye: np.ndarray | None = None
    sax_label: int | None = None
    sfa_label: int | None = None


def _require_finite(X: np.ndarray) -> None:
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise NonFiniteSeries(f"series {int(np.argmax(bad))} holds NaN or infinite values")


def _fit_eye(task) -> Eye:
    """Fit one lens's forest; module-level so worker processes can pickle it."""
    lens, binning, symbols, y, trees, seed = task
    return Eye(lens, binning, fit_forest(symbols, y, n_trees=trees, seed=seed))


def eye_probabilities(model: CoEyeModel, X) -> np.ndarray:
    """Per-eye class probabilities for each row: shape (rows, k, c)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.shape[1] != model.n:
        raise SeriesLengthMismatch(f"expected series of length {model.n}, got {X.shape[1]}")
    _require_finite(X)
    out = np.empty((X.shape[0], len(model.eyes), model.class_labels.shape[0]))
    for j, eye in enumerate(model.eyes):
        out[:, j, :] = predict_proba(eye.forest, symbolize(X, eye.lens, eye.binning))
    return out


def _block_best(block: np.ndarray, rng):
    """(best label, best confidence, second label, second confidence) for one block."""
    row_max = block.max(axis=1)
    row_arg = block.argmax(axis=1)
    best = row_max.max()
    at_best = row_arg[row_max == best]
    labels, freqs = np.unique(at_best, return_counts=True)

    top = labels[freqs == freqs.max()]
    first = int(top[0]) if top.shape[0] == 1 else int(rng.choice(top))

    if labels.shape[0] > 1:
        rest = labels != first
        rest_labels, rest_freqs = labels[rest], freqs[rest]
        runners = rest_labels[rest_freqs == rest_freqs.max()]
        second = int(runners[0]) if runners.shape[0] == 1 else int(rng.choice(runners))
        return first, float(best), second, float(best)

    below = row_max < best
    if not below.any():
        return first, float(best), None, None
    next_best = row_max[below].max()
    at_next = row_arg[below & (row_max == next_best)]
    labels2, freqs2 = np.unique(at_next, return_counts=True)
    top2 = labels2[freqs2 == freqs2.max()]
    second = int(top2[0]) if top2.shape[0] == 1 else int(rng.choice(top2))
    return first, float(best), second, float(next_best)


def vote(pred, sax_count: int, seed: int = 0, class_labels=None) -> Prediction:
    """Two-round most-confident-lens vote over a (k, c) probability matrix.

    Rows 0..sax_count-1 are the SAX eyes, the rest SFA. When only one
    representation is present its round-1 label is returned directly.
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 2 or pred.shape[0] == 0:
        raise EmptyEnsemble("the probability matrix has no rows")
    if not 0 <= sax_count <= pred.shape[0]:
        raise ValueError("sax_count outside the matrix")

    rng = np.random.default_rng(np.random.SeedSequence([seed, _NS_VOTE]))
    blocks = [pred[:sax_count], pred[sax_count:]]
    results = [_block_best(b, rng) if b.shape[0] else None for b in blocks]

    def emit(label_idx, confidence, rnd):
        sax_label = results[0][0] if results[0] else None
        sfa_label = results[1][0] if results[1] else None
        if class_labels is not None:
            labels = np.asarray(class_labels)
            return Prediction(
                int(labels[label_idx]),
                confidence,
                rnd,
                sax_label=None if sax_label is None else int(labels[sax_label]),
                sfa_label=None if sfa_label is None else int(labels[sfa_label]),
            )
        return Prediction(int(label_idx), confidence, rnd, sax_label=sax_label, sfa_label=sfa_label)

    present = [r for r in results if r is not None]
    if len(present) == 1:
        first, conf, _, _ = present[0]
        return emit(first, conf, ROUND_FIRST)

    (sax_first, sax_conf, sax_second, sax_sconf) = results[0]
    (sfa_first, sfa_conf, sfa_second, sfa_sconf) = results[1]

    if sax_first == sfa_first:
        return emit(sax_first, max(sax_conf, sfa_conf), ROUND_FIRST)

    if sax_second is not None and sfa_second is not None and sax_second == sfa_second:
        return emit(sax_second, max(sax_sconf, sfa_sconf), ROUND_SECOND)

    if sax_conf > sfa_conf:
        return emit(sax_first, sax_conf, ROUND_FALLBACK)
    if sfa_conf > sax_conf:
        return emit(sfa_first, sfa_conf, ROUND_FALLBACK)
    pick = int(rng.integers(2))
    return emit((sax_first, sfa_first)[pick], sax_conf, ROUND_FALLBACK)


def train(train_raw: Dataset, config: CoEyeConfig | None = None, lens_strategy: str = "search") -> CoEyeModel:
    """Fit the full ensemble on a labeled training set.

    ``lens_strategy`` is ``search`` (cross-validated grid search, the
    default) or ``random`` (uniform lens sampling at half the grid size,
    the ablation baseline). Deterministic given config.seed.
    """
    config = config or CoEyeConfig()
    if len(train_raw) < 2:
        raise EmptyTrainingSet("training needs at least two series")
    if len(train_raw.class_counts()) < 2:
        raise NoMinorityClass("training needs at least two classes")
    _require_finite(train_raw.X)
    if lens_strategy not in ("search", "random"):
        raise ValueError(f"unknown lens strategy {lens_strategy!r}")

    t_start = time.perf_counter()
    if config.smote:
        balanced, report = smote(train_raw, k=config.smote_k, seed=_derived_seed(config.seed, _NS_SMOTE))
    else:
        balanced, report = train_raw, SmoteReport.empty(train_raw.class_counts())

    grid = LensGrid.from_config(config)

    t0 = time.perf_counter()
    if lens_strategy == "search":
        sax_lenses = search_lenses(
            balanced, SAX, grid, seed=config.seed, trees=config.trees,
            sax_mode=config.sax_mode, workers=config.threads,
        )
    else:
        budget = max(1, (len(grid.sax_pairs(balanced.n)) + 1) // 2)
        sax_lenses = search_lenses_random(balanced, SAX, budget, seed=config.seed, grid=grid)
    t_search_sax = time.perf_counter() - t0

    t0 = time.perf_counter()
    if lens_strategy == "search":
        drop_dc, sfa_lenses = search_sfa_with_normalization(
            balanced, grid, seed=config.seed, trees=config.trees, workers=config.threads,
        )
    else:
        budget = max(1, (len(grid.sfa_pairs(balanced.n)) + 1) // 2)
        drop_dc = False
        sfa_lenses = search_lenses_random(balanced, SFA, budget, seed=config.seed, grid=grid, drop_dc=drop_dc)
    t_search_sfa = time.perf_counter() - t0

    t0 = time.perf_counter()
    tasks = []
    for lens in sax_lenses + sfa_lenses:
        binning, symbols = fit_lens(balanced.X, lens, config.sax_mode)
        seed = _derived_seed(config.seed, _NS_TRAIN, lens.s, lens.alpha, lens.w, int(lens.drop_dc))
        tasks.append((lens, binning, symbols, balanced.y, config.trees, seed))

    if config.threads is not None and config.threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            eyes = list(pool.map(_fit_eye, tasks, chunksize=1))
    else:
        eyes = [_fit_eye(task) for task in tasks]
    t_train = time.perf_counter() - t0

    return CoEyeModel(
        eyes=eyes,
        class_labels=np.unique(balanced.y),
        n=balanced.n,
        config=config,
        dataset_name=train_raw.name,
        smote_report=report,
        timings={
            "search_sax": t_search_sax,
            "search_sfa": t_search_sfa,
            "train": t_train,
            "total": time.perf_counter() - t_start,
        },
    )


def _restrict(matrix: np.ndarray, sax_count: int, representation: str) -> tuple[np.ndarray, int]:
    if representation == "both":
        return matrix, sax_count
    if representation == "sax":
        return matrix[:sax_count], sax_count
    if representation == "sfa":
        return matrix[sax_count:], 0
    raise ValueError(f"unknown representation {representation!r}")


def classify(model: CoEyeModel, ts, representation: str = "both", include_per_eye: bool = False) -> Prediction:
    """Predict one instance; ``representation`` may restrict the vote to one block."""
    values = ts.values if isinstance(ts, TimeSeries) else np.asarray(ts, dtype=np.float64)
    matrix = eye_probabilities(model, values.reshape(1, -1))[0]
    sliced, sax_count = _restrict(matrix, model.sax_count, representation)
    result = vote(sliced, sax_count, seed=model.config.seed, class_labels=model.class_labels)
    if include_per_eye:
        return Prediction(
            result.label, result.confidence, result.round,
            per_eye=matrix, sax_label=result.sax_label, sfa_label=result.sfa_label,
        )
    return result


def predict_dataset(model: CoEyeModel, data, representation: str = "both") -> list[Prediction]:
    """Predict every row of a Dataset or a raw (rows, n) matrix."""
    X = data.X if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    matrices = eye_probabilities(model, X)
    out = []
    for i in range(X.shape[0]):
        sliced, sax_count = _restrict(matrices[i], model.sax_count, representation)
        out.append(vote(sliced, sax_count, seed=model.config.seed, class_labels=model.class_labels))
    return out


def save_model(model: CoEyeModel, path) -> None:
    """Serialize to versioned JSON; identical models produce identical bytes."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "library_version": __version__,
        "dataset_name": model.dataset_name,
        "n": model.n,
        "class_labels": [int(c) for c in model.class_labels],
        "config": model.config.to_dict(),
        "smote_report": None if model.smote_report is None else model.smote_report.to_dict(),
        "eyes": [
            {
                "lens": eye.lens.to_dict(),
                "binning": eye.binning.to_dict(),
                "forest": forest_to_dict(eye.forest),
            }
            for eye in model.eyes
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))


def load_model(path) -> CoEyeModel:
    """Read a model file back; raises on corrupt files or unknown versions."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelParseError(f"{path}: not a valid model file ({exc})") from None
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise ModelParseError(f"{path}: missing format_version")
    if payload["format_version"] != MODEL_FORMAT_VERSION:
        raise UnsupportedModelVersion(
            f"{path}: format version {payload['format_version']!r}, expected {MODEL_FORMAT_VERSION}"
        )
    try:
        report = payload["smote_report"]
        smote_report = None
        if report is not None:
            smote_report = SmoteReport(
                {int(k): int(v) for k, v in report["original_counts"].items()},
                {int(k): int(v) for k, v in report["added_counts"].items()},
                float(report["smote_percentage"]),
            )
        eyes = [
            Eye(
                Lens.from_dict(e["lens"]),
                binning_from_dict(e["binning"]),
                forest_from_dict(e["forest"]),
            )
            for e in payload["eyes"]
        ]
        class_labels = np.asarray(payload["class_labels"], dtype=np.int64)
        for i, eye in enumerate(eyes):
            if eye.forest.n_features != eye.lens.w or not np.array_equal(eye.forest.class_labels, class_labels):
                raise ModelParseError(f"eye {i}: forest does not match its lens width or the class labels")
            check_binning(eye.lens, eye.binning)
        return CoEyeModel(
            eyes=eyes,
            class_labels=class_labels,
            n=int(payload["n"]),
            config=CoEyeConfig.from_dict(payload["config"]),
            dataset_name=payload["dataset_name"],
            smote_report=smote_report,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelParseError(f"{path}: malformed model payload ({exc})") from None
    except ModelParseError as exc:
        raise ModelParseError(f"{path}: {exc}") from None
