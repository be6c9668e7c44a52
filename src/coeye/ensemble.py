"""The compound-eye classifier: one forest per selected lens.

Training balances the data, chooses each representation's lenses in one
step (a cross-validated search keeping SFA's DC window, or a random draw),
then grows one forest per lens (SAX eyes first) from the binning and
symbols that step fitted, all on one worker pool. NaN and infinite values
are refused before balancing, and in serving where ``symbolize`` builds words.
Serving is one pass over the whole model: ``symbolize`` sets every eye's
symbols side by side, the trees of all eyes are routed together, and the
per-eye class-probability rows of each series, a (k, c) matrix, go to a
two-round vote that handles all rows at once:

* round 1 — each representation nominates the label of its most confident
  row (most frequent on ties at that confidence); agreement decides.
* round 2 — on disagreement, the representations' second-best labels are
  compared, each by the same rule: the best label of the eyes left once the
  winner's eyes at the top confidence are set aside.
* fallback — the representation with the strictly higher round-1
  confidence wins; an exact tie is settled by a seeded random draw.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

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
    Record,
    SeriesLengthMismatch,
    UnsupportedModelVersion,
    _is_int,
    file_fields,
    model_record,
)
from .forest import (
    PackedForest,
    RandomForestModel,
    _pool_workers,
    check_labels,
    fit_forest,
    pack_forests,
    predict_packed,
)
from .lenses import (
    _derived_seed,
    _NS_SMOTE,
    _NS_TRAIN,
    _NS_VOTE,
    _choose_lenses,
    _pool_map,
)
from .resample import SmoteReport, smote
from .symbolic import SAX, SFA, Lens, McbTable, SaxBinning, symbolize, word_fits

MODEL_FORMAT_VERSION = 4

ROUND_FIRST = "first"
ROUND_SECOND = "second"
ROUND_FALLBACK = "fallback"


@dataclass(frozen=True, eq=False)
class Eye(Record):
    """One lens, its fitted quantisation of the lens's kind, alphabet, width
    and DC convention, and its forest, which reads ``lens.w`` features."""

    lens: Lens
    binning: SaxBinning | McbTable
    forest: RandomForestModel

    def check(self):
        lens, binning = self.lens, self.binning
        fits = (isinstance(binning, SaxBinning) if lens.s == SAX else
                isinstance(binning, McbTable) and (binning.w, binning.drop_dc) == (lens.w, lens.drop_dc))
        if not fits or binning.alpha != lens.alpha:
            raise ValueError(f"binning does not fit its {lens.representation} lens (alpha={lens.alpha}, w={lens.w})")
        if self.forest.n_features != lens.w:
            raise ValueError(f"a forest of width {self.forest.n_features} does not fit a lens of width {lens.w}")


@dataclass(frozen=True, eq=False)
class CoEyeModel(Record):
    """Eyes, SAX eyes first, whose forests all hold ``config.trees`` trees over
    ``class_labels``, on series of length ``n``: the vote reads the first
    ``sax_count`` eyes as the SAX block, and the pack sums every forest over one tree count."""

    eyes: tuple[Eye, ...]
    class_labels: np.ndarray = field(metadata={"dtype": np.int64})
    n: int
    config: CoEyeConfig
    dataset_name: str = ""
    smote_report: SmoteReport | None = None
    timings: dict = field(default_factory=dict, metadata={"saved": False})  # never saved: same model, same bytes

    def check(self):
        check_labels(self.class_labels)
        if self.n < 1:
            raise ValueError(f"series length n must be at least 1, got {self.n}")
        if not self.eyes:
            raise ValueError("the model has no eyes")
        labels = self.class_labels.tolist()
        for i, eye in enumerate(self.eyes):
            trees, forest_labels = eye.forest.n_trees, eye.forest.class_labels.tolist()
            if (trees, forest_labels) != (self.config.trees, labels):
                raise ValueError(f"eye {i}: a forest of {trees} trees over {forest_labels} where the config's "
                                 f"tree count is {self.config.trees} and the labels {labels}")
            if not word_fits(eye.lens.s, eye.lens.w, self.n):
                raise ValueError(f"eye {i}: a {eye.lens.representation} lens of width {eye.lens.w} "
                                 f"cannot be built from series of length {self.n}")
        is_sax = [eye.lens.s == SAX for eye in self.eyes]
        if is_sax != sorted(is_sax, reverse=True):
            raise ValueError("every SAX eye must come before the first SFA eye")

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
class Prediction(Record):
    label: int
    confidence: float
    round: str
    sax_label: int | None = None
    sfa_label: int | None = None


def _require_finite(X: np.ndarray) -> None:
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise NonFiniteSeries(f"series {int(np.argmax(bad))} holds NaN or infinite values")


def eye_probabilities(model: CoEyeModel, X) -> np.ndarray:
    """Per-eye class probabilities for each row: shape (rows, k, c).

    A 1-D ``X`` is one row. ``symbolize`` sets every eye's symbols side by
    side, as the model's pack reads them, and the trees of every eye are
    routed in one walk over the pack.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != model.n:
        raise SeriesLengthMismatch(f"expected series of length {model.n}, got an array of shape {X.shape}")
    symbols = symbolize(X, [eye.lens for eye in model.eyes], [eye.binning for eye in model.eyes])
    return predict_packed(model.packed, symbols)


def _top_label(row_max: np.ndarray, votes: np.ndarray, rng_of):
    """(label, confidence, eyes at that confidence) per row of eyes with confidences ``row_max`` (rows, k)
    and label votes ``votes`` (rows, k, c): the label most eyes vote among those at the row's highest
    confidence, a tie drawn from the row's stream ``rng_of(row)``, or -1 where no eye votes."""
    best = row_max.max(axis=1)
    at_best = row_max == best[:, None]
    freq = (votes & at_best[..., None]).sum(axis=1)
    top = (freq == freq.max(axis=1)[:, None]) & (freq > 0)
    n_top = top.sum(axis=1)
    label = np.where(n_top > 0, top.argmax(axis=1), -1)
    for i in np.flatnonzero(n_top > 1).tolist():
        label[i] = rng_of(i).choice(np.flatnonzero(top[i]))
    return label, best, at_best


def _block_best(block: np.ndarray, rng_of):
    """(best label, best confidence, second label or -1, second confidence) per row of a (rows, k, c) block.

    Each eye votes its most probable label. Both labels are ``_top_label``'s:
    the best over every eye, the second over the eyes left once the winner's
    eyes at the top confidence are set aside, its tie drawn after the best's.
    """
    arg = block.argmax(axis=2)
    row_max = block.max(axis=2)
    votes = arg[..., None] == np.arange(block.shape[2])
    first, best, at_best = _top_label(row_max, votes, rng_of)
    aside = at_best & (arg == first[:, None])
    second, second_conf, _ = _top_label(np.where(aside, -np.inf, row_max), votes & ~aside[..., None], rng_of)
    return first, best, second, second_conf


def vote(pred, sax_count: int, seed: int = 0, class_labels=None) -> Prediction | list[Prediction]:
    """Two-round most-confident-lens vote over a (k, c) probability matrix.

    Rows 0..sax_count-1 are the SAX eyes, the rest SFA. When only one
    representation is present its round-1 label is returned directly.
    A (rows, k, c) stack of matrices is voted in one pass and gives a list
    of Predictions. Every row that needs a tie draw draws from its own
    stream seeded by ``seed``: SAX's labels first, then SFA's, then the
    fallback's pick. ``class_labels``, if given, names each of the c
    classes, in class index order. Every entry must be a finite number in [0, 1].
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim not in (2, 3) or 0 in pred.shape[-2:]:
        raise EmptyEnsemble("the probability matrix has no rows or no class columns")
    k = pred.shape[-2]
    if not _is_int(sax_count):  # a bool would read as 0 or 1 SAX eyes
        raise ValueError(f"sax_count must be an integer, got {sax_count!r}")
    if not 0 <= sax_count <= k:
        raise ValueError("sax_count outside the matrix")
    names = None if class_labels is None else np.asarray(class_labels)
    if names is not None and (names.shape != pred.shape[-1:] or names.dtype.kind not in "iu"):
        raise ValueError(f"class_labels must be {pred.shape[-1]} integers, one per class, got {class_labels!r}")
    bad = ~((pred >= 0) & (pred <= 1)).all(axis=-1)  # NaN fails both comparisons
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"row {at[-1]}{f' of matrix {at[0]}' if pred.ndim == 3 else ''} holds {pred[at].tolist()}: "
                         "every probability must be a finite number in [0, 1]")
    stack = pred if pred.ndim == 3 else pred[None]
    rows = stack.shape[0]

    rng_of = defaultdict(lambda: np.random.default_rng(np.random.SeedSequence([seed, _NS_VOTE]))).__getitem__
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

    # one pool for the SAX grid, the SFA grid and the eye fits, in that order
    workers = _pool_workers(config.threads)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        t_sax = time.perf_counter()
        sax = _choose_lenses(balanced, SAX, config, pool, lens_strategy)
        t_sfa = time.perf_counter()
        sfa = _choose_lenses(balanced, SFA, config, pool, lens_strategy)
        t_fit = time.perf_counter()
        kept, binnings, symbols = zip(*sax, *sfa)
        seeds = [_derived_seed(config.seed, _NS_TRAIN, lens.s, lens.alpha, lens.w, int(lens.drop_dc)) for lens in kept]
        forests = _pool_map(pool, fit_forest, symbols, repeat(balanced.y), repeat(config.trees), seeds)
        t_end = time.perf_counter()

    return CoEyeModel(
        eyes=[Eye(lens, binning, forest) for lens, binning, forest in zip(kept, binnings, forests)],
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


def _restrict(stack: np.ndarray, sax_count: int, representation: str) -> tuple[np.ndarray, int]:
    """The eyes of one representation from a (rows, k, c) stack."""
    if representation == "both":
        return stack, sax_count
    if representation == "sax":
        return stack[:, :sax_count], sax_count
    if representation == "sfa":
        return stack[:, sax_count:], 0
    raise ValueError(f"unknown representation {representation!r}")


def classify(model: CoEyeModel, ts, representation: str = "both") -> Prediction:
    """``predict_dataset`` of one series; ``representation`` may restrict the vote to one block."""
    values = ts.values if isinstance(ts, TimeSeries) else np.asarray(ts, dtype=np.float64)
    if values.ndim != 1:
        raise SeriesLengthMismatch(
            f"classify takes one series of length {model.n}, got an array of shape {values.shape}"
        )
    return predict_dataset(model, values, representation)[0]


def predict_dataset(model: CoEyeModel, data, representation: str = "both") -> list[Prediction]:
    """Predict every row of a Dataset or a raw (rows, n) matrix; a 1-D array is one row."""
    X = data.X if isinstance(data, Dataset) else data
    sliced, sax_count = _restrict(eye_probabilities(model, X), model.sax_count, representation)
    return vote(sliced, sax_count, seed=model.config.seed, class_labels=model.class_labels)


def save_model(model: CoEyeModel, path) -> None:
    """Serialize to versioned JSON, each record as ``errors.file_fields``
    writes it; identical models produce identical bytes.

    The text goes to a new file beside ``path``, which then replaces
    ``path`` in one step: a write that fails part-way leaves any earlier
    file at ``path`` as it was, and removes its own. An empty ``path`` or
    a directory at ``path`` is refused before any file is made."""
    if not os.fspath(path):
        raise FileNotFoundError("cannot save the model to an empty path")
    if os.path.isdir(path):
        raise IsADirectoryError(f"cannot save the model to {path}: it is a directory")
    payload = {"format_version": MODEL_FORMAT_VERSION, "library_version": __version__, **file_fields(model)}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)
    # a short hidden name in the same directory: the rename stays one step, and a name at the length limit fits
    temporary = os.path.join(os.path.dirname(os.fspath(path)), f".{os.urandom(8).hex()}.tmp")
    fh = open(temporary, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise


def load_model(path) -> CoEyeModel:
    """Read a model file back; raises on corrupt files or unknown versions.

    JSON becomes records, which check themselves as in memory; a record's
    TypeError or ValueError becomes a ModelParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ModelParseError(f"{path}: not a valid model file ({exc})") from None
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise ModelParseError(f"{path}: missing format_version")
    try:
        version = payload["format_version"]
        if type(version) is not int:
            raise ModelParseError(f"format_version must be an integer, got {version!r}")
        if version != MODEL_FORMAT_VERSION:
            raise UnsupportedModelVersion(f"{path}: format version {version}, expected {MODEL_FORMAT_VERSION}")
        return model_record(CoEyeModel, payload)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelParseError(f"{path}: malformed model payload ({exc})") from None
    except ModelParseError as exc:
        raise ModelParseError(f"{path}: {exc}") from None
