"""The compound-eye classifier: one forest per selected lens.

Training balances the data, picks the lens sets by cross-validated search
(SFA lenses keep the DC window), then fits one binning + forest pair per
lens (SAX eyes first), all on one worker pool. Training and
serving reject NaN and infinite values. Serving is one pass over the
whole model: the rows are znormalized once, each distinct word is built
once and digitized per eye, the trees of all eyes are routed together,
and the per-eye class-probability rows of each series, a (k, c) matrix,
go to a two-round vote that handles all rows at once:

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
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property

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
    model_array,
    model_field,
    model_record,
)
from .forest import (
    PackedForest,
    RandomForestModel,
    fit_forest,
    forest_from_dict,
    pack_forests,
    predict_packed,
)
from .lenses import (
    SAX,
    SFA,
    Lens,
    LensGrid,
    _derived_seed,
    _NS_SMOTE,
    _NS_TRAIN,
    _pool_map,
    _pool_workers,
    _score_grid,
    search_lenses_random,
)
from .resample import SmoteReport, smote
from .symbolic import McbTable, SaxBinning, check_binning, digitize, fit_lens, lens_words, word_fits

MODEL_FORMAT_VERSION = 3

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

    @cached_property
    def packed(self) -> PackedForest:
        """Every eye's trees as one pack, feature columns eye after eye; built on first use."""
        return pack_forests([eye.forest for eye in self.eyes])


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
    """Per-eye class probabilities for each row: shape (rows, k, c).

    A 1-D ``X`` is one row. The rows are znormalized once, each distinct
    word is built once and digitized against each eye's binning, and the
    trees of every eye are routed in one walk over the model's pack.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != model.n:
        raise SeriesLengthMismatch(f"expected series of length {model.n}, got an array of shape {X.shape}")
    _require_finite(X)
    if not model.eyes:
        raise EmptyEnsemble("the model has no eyes")
    packed = model.packed
    symbols = np.empty((X.shape[0], packed.n_features), dtype=np.int64)
    col = 0
    for eye, words in zip(model.eyes, lens_words(X, [eye.lens for eye in model.eyes])):
        symbols[:, col:col + eye.forest.n_features] = digitize(words, eye.binning.cuts)
        col += eye.forest.n_features
    return predict_packed(packed, symbols)


def _draw(candidates: np.ndarray, rng) -> int:
    """The one candidate label of a boolean mask, or a seeded draw among several."""
    labels = np.flatnonzero(candidates)
    return int(labels[0]) if labels.shape[0] == 1 else int(rng.choice(labels))


def _block_best(block: np.ndarray, rng_of):
    """(best label, best confidence, second label or -1, second confidence) per row of a (rows, k, c) block.

    A tie among labels is drawn from the row's stream ``rng_of(row)``, the
    best label's draw before the second's.
    """
    classes = np.arange(block.shape[2])
    row_max = block.max(axis=2)
    votes = block.argmax(axis=2)[..., None] == classes
    best = row_max.max(axis=1)
    at_best = row_max == best[:, None]
    # how many eyes at the best confidence vote each label
    freq = (votes & at_best[..., None]).sum(axis=1)
    top_freq = freq.max(axis=1)
    top = freq == top_freq[:, None]
    first = top.argmax(axis=1)
    # the runner-up label at the best when it is disputed, else the label
    # of the next confidence down
    disputed = at_best.sum(axis=1) > top_freq
    next_best = np.where(at_best, -np.inf, row_max).max(axis=1)
    freq_next = (votes & (row_max == next_best[:, None])[..., None]).sum(axis=1)
    runner_freq = np.where(disputed[:, None], freq * (classes != first[:, None]), freq_next)
    runner_top = runner_freq.max(axis=1)
    runners = (runner_freq == runner_top[:, None]) & (runner_top > 0)[:, None]
    has_second = runner_top > 0
    second = np.where(has_second, runners.argmax(axis=1), -1)
    second_conf = np.where(disputed, best, next_best)
    for i in np.flatnonzero((top.sum(axis=1) > 1) | (runners.sum(axis=1) > 1)).tolist():
        rng = rng_of(i)
        first[i] = _draw(top[i], rng)
        if disputed[i]:
            rest = freq[i] * (classes != first[i])
            runners[i] = rest == rest.max()
        if has_second[i]:
            second[i] = _draw(runners[i], rng)
    return first, best, second, second_conf


def vote(pred, sax_count: int, seed: int = 0, class_labels=None) -> Prediction | list[Prediction]:
    """Two-round most-confident-lens vote over a (k, c) probability matrix.

    Rows 0..sax_count-1 are the SAX eyes, the rest SFA. When only one
    representation is present its round-1 label is returned directly.
    A (rows, k, c) stack of matrices is voted in one pass and gives a list
    of Predictions. Every row that needs a tie draw draws from its own
    stream seeded by ``seed``: SAX's labels first, then SFA's, then the
    fallback's pick.
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim not in (2, 3) or pred.shape[-2] == 0:
        raise EmptyEnsemble("the probability matrix has no rows")
    k = pred.shape[-2]
    if not 0 <= sax_count <= k:
        raise ValueError("sax_count outside the matrix")
    stack = pred if pred.ndim == 3 else pred[None]
    rows = stack.shape[0]

    rngs = {}

    def rng_of(row):
        if row not in rngs:
            rngs[row] = np.random.default_rng(np.random.SeedSequence([seed, _NS_VOTE]))
        return rngs[row]

    sax = _block_best(stack[:, :sax_count], rng_of) if sax_count else None
    sfa = _block_best(stack[:, sax_count:], rng_of) if sax_count < k else None
    if sax is None or sfa is None:
        label, confidence, _, _ = sfa if sax is None else sax
        rnd = np.zeros(rows, dtype=np.int64)
    else:
        (sax_first, sax_conf, sax_second, sax_sconf), (sfa_first, sfa_conf, sfa_second, sfa_sconf) = sax, sfa
        agree = sax_first == sfa_first
        second = ~agree & (sax_second >= 0) & (sax_second == sfa_second)
        rnd = np.where(agree, 0, np.where(second, 1, 2))
        fallback = np.where(sax_conf >= sfa_conf, sax_first, sfa_first)
        label = np.where(agree, sax_first, np.where(second, sax_second, fallback))
        confidence = np.where(second, np.maximum(sax_sconf, sfa_sconf), np.maximum(sax_conf, sfa_conf))
        # the fallback settles an exact confidence tie by a seeded draw
        for i in np.flatnonzero((rnd == 2) & (sax_conf == sfa_conf)).tolist():
            label[i] = (sax_first[i], sfa_first[i])[rng_of(i).integers(2)]

    names = None if class_labels is None else np.asarray(class_labels).astype(np.int64)

    def named(idx):
        return (idx if names is None else names[idx]).tolist()

    sax_labels = named(sax[0]) if sax is not None else [None] * rows
    sfa_labels = named(sfa[0]) if sfa is not None else [None] * rows
    rounds = (ROUND_FIRST, ROUND_SECOND, ROUND_FALLBACK)
    out = [
        Prediction(l, c, rounds[r], sax_label=a, sfa_label=b)
        for l, c, r, a, b in zip(named(label), confidence.tolist(), rnd.tolist(), sax_labels, sfa_labels)
    ]
    return out if pred.ndim == 3 else out[0]


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
    # one pool for the SAX grid, the SFA grid and the eye fits, in that order
    workers = _pool_workers(config.threads)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        t_sax = time.perf_counter()
        if lens_strategy == "search":
            sax_lenses = _score_grid(balanced, SAX, grid, config.seed, config.trees, config.sax_mode, pool)
            t_sfa = time.perf_counter()
            sfa_lenses = _score_grid(balanced, SFA, grid, config.seed, config.trees, config.sax_mode, pool)
        else:
            sax_lenses = search_lenses_random(balanced, SAX, seed=config.seed, grid=grid)
            t_sfa = time.perf_counter()
            sfa_lenses = search_lenses_random(balanced, SFA, seed=config.seed, grid=grid)
        t_fit = time.perf_counter()
        tasks = []
        for lens in sax_lenses + sfa_lenses:
            binning, symbols = fit_lens(balanced.X, lens, config.sax_mode)
            seed = _derived_seed(config.seed, _NS_TRAIN, lens.s, lens.alpha, lens.w, int(lens.drop_dc))
            tasks.append((lens, binning, symbols, balanced.y, config.trees, seed))
        eyes = _pool_map(pool, _fit_eye, tasks)
        t_end = time.perf_counter()

    return CoEyeModel(
        eyes=eyes,
        class_labels=np.unique(balanced.y),
        n=balanced.n,
        config=config,
        dataset_name=train_raw.name,
        smote_report=report,
        timings={
            "search_sax": t_sfa - t_sax,
            "search_sfa": t_fit - t_sfa,
            "train": t_end - t_fit,
            "total": time.perf_counter() - t_start,
        },
    )


def _restrict(matrix: np.ndarray, sax_count: int, representation: str) -> tuple[np.ndarray, int]:
    """The eyes of one representation from a (k, c) matrix or a (rows, k, c) stack."""
    if representation == "both":
        return matrix, sax_count
    if representation == "sax":
        return matrix[..., :sax_count, :], sax_count
    if representation == "sfa":
        return matrix[..., sax_count:, :], 0
    raise ValueError(f"unknown representation {representation!r}")


def classify(model: CoEyeModel, ts, representation: str = "both", include_per_eye: bool = False) -> Prediction:
    """Predict one instance; ``representation`` may restrict the vote to one block."""
    values = ts.values if isinstance(ts, TimeSeries) else np.asarray(ts, dtype=np.float64)
    if values.ndim != 1:
        raise SeriesLengthMismatch(
            f"classify takes one series of length {model.n}, got an array of shape {values.shape}"
        )
    matrix = eye_probabilities(model, values)[0]
    sliced, sax_count = _restrict(matrix, model.sax_count, representation)
    result = vote(sliced, sax_count, seed=model.config.seed, class_labels=model.class_labels)
    return replace(result, per_eye=matrix) if include_per_eye else result


def predict_dataset(model: CoEyeModel, data, representation: str = "both") -> list[Prediction]:
    """Predict every row of a Dataset or a raw (rows, n) matrix; a 1-D array is one row."""
    X = data.X if isinstance(data, Dataset) else data
    sliced, sax_count = _restrict(eye_probabilities(model, X), model.sax_count, representation)
    return vote(sliced, sax_count, seed=model.config.seed, class_labels=model.class_labels)


def _json_default(obj):
    """How ``save_model`` writes what JSON has no type for: an array or a
    numpy scalar as its ``tolist()``, and a record, a forest's node store
    included, as its dataclass fields (the mirror of ``model_record``)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def save_model(model: CoEyeModel, path) -> None:
    """Serialize to versioned JSON; identical models produce identical bytes.

    Every record is written as its fields, except: the config leaves out
    ``threads`` (a run setting), a binning adds its ``kind``, and SMOTE
    labels become string keys that sort as text.
    """
    config = _json_default(model.config)
    del config["threads"]
    report = model.smote_report and {
        key: {str(label): n for label, n in value.items()} if isinstance(value, dict) else value
        for key, value in _json_default(model.smote_report).items()
    }
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "library_version": __version__,
        "dataset_name": model.dataset_name,
        "n": model.n,
        "class_labels": model.class_labels,
        "config": config,
        "smote_report": report,
        "eyes": [
            {"lens": eye.lens, "forest": eye.forest,
             "binning": {"kind": "sax" if isinstance(eye.binning, SaxBinning) else "mcb", **_json_default(eye.binning)}}
            for eye in model.eyes
        ],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_binning(payload: dict) -> SaxBinning | McbTable:
    if payload["kind"] == "sax":
        return model_record(SaxBinning, payload, cuts=np.float64)
    if payload["kind"] == "mcb":
        return model_record(McbTable, payload, breakpoints=np.float64)
    raise ModelParseError(f"unknown binning kind {payload['kind']!r}")


def load_model(path) -> CoEyeModel:
    """Read a model file back; raises on corrupt files or unknown versions."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelParseError(f"{path}: not a valid model file ({exc})") from None
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise ModelParseError(f"{path}: missing format_version")
    try:
        version = model_field(payload, "format_version")
        if version != MODEL_FORMAT_VERSION:
            raise UnsupportedModelVersion(f"{path}: format version {version}, expected {MODEL_FORMAT_VERSION}")
        report = payload["smote_report"]
        # train writes np.unique output; a repeated label would split one class's votes
        class_labels = model_array(payload["class_labels"], "class_labels", np.int64)
        if class_labels.ndim != 1 or not class_labels.size or np.any(np.diff(class_labels) <= 0):
            raise ModelParseError("class_labels must be non-empty and strictly increasing")
        n = model_field(payload, "n")
        if n < 1:
            raise ModelParseError(f"series length n must be at least 1, got {n}")
        # save_model leaves out the config's threads, a run setting
        config = model_record(CoEyeConfig, {**payload["config"], "threads": None})
        eyes = [Eye(model_record(Lens, e["lens"]), _read_binning(e["binning"]), forest_from_dict(e["forest"]))
                for e in payload["eyes"]]
        if not eyes:
            raise ModelParseError("the model has no eyes")
        for i, eye in enumerate(eyes):
            # train grows config.trees trees per eye, and the model's pack needs one tree count
            shape = (eye.forest.n_features, eye.forest.n_trees, eye.forest.class_labels.tolist())
            if shape != (eye.lens.w, config.trees, class_labels.tolist()):
                raise ModelParseError(f"eye {i}: forest (width, trees, class labels) {shape} does not fit the model")
            check_binning(eye.lens, eye.binning)
            if not word_fits(eye.lens.s, eye.lens.w, n):
                raise ModelParseError(f"eye {i}: a {eye.lens.representation} lens of width {eye.lens.w} "
                                      f"cannot be built from series of length {n}")
        # the vote reads the first sax_count eyes as the SAX block
        is_sax = [eye.lens.s == SAX for eye in eyes]
        if is_sax != sorted(is_sax, reverse=True):
            raise ModelParseError("every SAX eye must come before the first SFA eye")
        return CoEyeModel(
            eyes=eyes,
            class_labels=class_labels,
            n=n,
            config=config,
            dataset_name=model_field(payload, "dataset_name", str),
            smote_report=None if report is None else model_record(SmoteReport, report),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelParseError(f"{path}: malformed model payload ({exc})") from None
    except ModelParseError as exc:
        raise ModelParseError(f"{path}: {exc}") from None
