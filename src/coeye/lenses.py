"""Hyper-parameter search over (alphabet size, word size) pairs.

A search builds one fold plan (``fold_plan``) from a seeded, stratified
k-fold assignment of the training set; a class's single row trains every
fold and is never held out. Every feasible pair of a representation's
grid is scored by its forests' accuracy through that plan, and for each
alphabet all word sizes within 0.01 of its best score are kept as
lenses. SFA lenses keep the DC window: a znormalized series has a zero
DC term, so the drop-DC window of width w is the keep-DC window shifted
by one coefficient pair and would score nearly the same features twice.
A grid is fitted here by one ``fit_lenses`` call (each SFA alphabet once,
at its widest word) and each point is one task on the caller's process
pool, whose results come back in task order, so scheduling changes nothing.
The random strategy fits only the half of the grid it draws. Either way one
step returns each chosen lens with the binning and symbols it was chosen with.
Both draw from ``LensGrid.pairs``, which keeps one SFA alphabet at or above the
row count: equal-depth binning on s rows has at most s bins per column.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from itertools import repeat

import numpy as np

from .config import CoEyeConfig, check_grid
from .data import Dataset
from .errors import NoFeasibleLens, Record
from .forest import BATCH_SLOTS, fit_forests, predict
from .symbolic import SAX, SFA, Lens, fit_lenses, word_fits

ACCURACY_MARGIN = 0.01
_MARGIN_SLACK = 1e-12

# namespace tags keeping derived seed streams disjoint
_NS_SEARCH = 1
_NS_TRAIN = 2
_NS_SMOTE = 3
_NS_FOLDS = 4
_NS_RANDOM_LENSES = 5
_NS_VOTE = 6


@dataclass(frozen=True)
class LensGrid(Record):
    """Candidate (alpha, w) pairs per representation, before feasibility filtering.

    ``None`` word lengths mean the defaults: a single uniform SAX word of
    min(n, 128), and even SFA words 10..min(130, n) step 10.
    """

    sax_alphas: tuple[int, ...] = CoEyeConfig.sax_alphas
    sax_word_lengths: tuple[int, ...] | None = CoEyeConfig.sax_word_lengths
    sfa_alphas: tuple[int, ...] = CoEyeConfig.sfa_alphas
    sfa_word_lengths: tuple[int, ...] | None = CoEyeConfig.sfa_word_lengths
    folds: int = CoEyeConfig.folds

    def check(self):
        check_grid(self)

    @staticmethod
    def from_config(config: CoEyeConfig) -> "LensGrid":
        return LensGrid(**{f.name: getattr(config, f.name) for f in fields(LensGrid)})

    def sax_pairs(self, n: int) -> list[tuple[int, int]]:
        words = [min(n, 128)] if self.sax_word_lengths is None else self.sax_word_lengths
        return _feasible_pairs(SAX, self.sax_alphas, words, n)

    def sfa_pairs(self, n: int) -> list[tuple[int, int]]:
        words = range(10, min(130, n) + 1, 10) if self.sfa_word_lengths is None else self.sfa_word_lengths
        return _feasible_pairs(SFA, self.sfa_alphas, words, n)

    def pairs(self, representation: int, n: int, rows: int) -> list[tuple[int, int]]:
        """Pairs for ``rows`` series of length ``n``. SFA keeps one alphabet at or above ``rows``:
        each cuts a column between every two distinct values, so all give one partition, unless values
        a few ulps apart meet the upward repair of duplicate cuts, which can split them otherwise."""
        if representation == SAX:
            pairs = self.sax_pairs(n)
        else:
            cap = min((a for a in self.sfa_alphas if a >= rows), default=rows)
            pairs = [(a, w) for a, w in self.sfa_pairs(n) if a <= cap]
        if not pairs:
            raise NoFeasibleLens(f"no feasible (alpha, w) pairs for series length {n}")
        return pairs


def _feasible_pairs(s: int, alphas, words, n: int) -> list[tuple[int, int]]:
    """Each (alpha, w) pair once, in sorted order, whose word fits series of length ``n``."""
    fitting = sorted({w for w in words if word_fits(s, w, n)})
    return [(a, w) for a in sorted(set(alphas)) for w in fitting]


def _rep_flag(representation) -> int:
    """``SAX`` or ``SFA``, given as itself or by name in any case."""
    flag = {"sax": SAX, "sfa": SFA}.get(str(representation).lower(), representation)
    if flag not in (SAX, SFA):
        raise ValueError(f"unknown representation {representation!r}")
    return flag


def _derived_seed(*components) -> int:
    return int(np.random.SeedSequence(list(components)).generate_state(1)[0])


def stratified_fold_assignment(y, n_folds: int, seed: int) -> np.ndarray:
    """Seeded fold ids; per-fold class counts deviate from even by <= 1."""
    y = np.asarray(y)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _NS_FOLDS]))
    fold = np.empty(y.shape[0], dtype=np.int64)
    for rank, label in enumerate(np.unique(y)):
        idx = np.nonzero(y == label)[0]
        rng.shuffle(idx)
        fold[idx] = (np.arange(idx.shape[0]) + rank) % n_folds
    return fold


def fold_plan(y, fold_ids) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(fold id, training rows, held-out rows) per fold with a row to hold out, by ascending id.

    A class's only row trains every fold and is never held out. Raises ValueError
    unless ``fold_ids`` holds one id per row of ``y`` and at least two distinct ids.
    """
    y, fold_ids = np.asarray(y), np.asarray(fold_ids)
    if fold_ids.shape != y.shape:
        raise ValueError(f"need one fold id per row of y: {fold_ids.size} ids for {y.shape[0]} rows")
    if np.unique(fold_ids).shape[0] < 2:
        raise ValueError("cross-validation needs at least two distinct fold ids: one fold leaves no training rows")
    _, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
    scored = counts[inverse] > 1
    return [(int(f), np.flatnonzero((fold_ids != f) | ~scored), np.flatnonzero((fold_ids == f) & scored))
            for f in np.unique(fold_ids[scored])]


def cross_val_accuracy(symbols, y, plan, trees, seed) -> float:
    """Accuracy over the rows that ``plan``, a ``fold_plan``, holds out; 0.0 if none.

    Fold ``f`` grows on its training rows with seed ``_derived_seed(seed, f)``, as many
    folds per batch as fit ``BATCH_SLOTS`` bootstrap rows of the plan's largest training set.
    """
    symbols, y = np.asarray(symbols), np.asarray(y)
    if not plan:
        return 0.0
    step = max(1, BATCH_SLOTS // max(1, trees * max(len(rows) for _, rows, _ in plan)))
    correct = 0
    for lo in range(0, len(plan), step):
        ids, row_sets, held = zip(*plan[lo:lo + step])
        models = fit_forests(symbols, y, row_sets, [_derived_seed(seed, f) for f in ids], n_trees=trees)
        for rows, model in zip(held, models):
            correct += int(np.sum(predict(model, symbols[rows]) == y[rows]))
    return correct / sum(len(held) for _, _, held in plan)


def select_within_margin(accuracies):
    """Indices of all grid points scoring >= max - ACCURACY_MARGIN."""
    accs = np.asarray(accuracies, dtype=np.float64)
    threshold = accs.max() - ACCURACY_MARGIN - _MARGIN_SLACK
    return [i for i in range(accs.shape[0]) if accs[i] >= threshold]


def select_per_alpha(pairs, accuracies):
    """Margin selection applied within each alphabet's word-length row.

    For every alphabet, all word sizes scoring within ``ACCURACY_MARGIN``
    of that alphabet's best are kept; the union over alphabets (in grid
    order) is returned. Every alphabet therefore contributes at least its
    best word size.
    """
    accs = np.asarray(accuracies, dtype=np.float64)
    keep = []
    for alpha in sorted({a for a, _ in pairs}):
        row = [i for i, (a, _) in enumerate(pairs) if a == alpha]
        keep.extend(row[j] for j in select_within_margin(accs[row]))
    return sorted(keep)


def _pool_workers(threads: int | None) -> int:
    """Worker processes for ``threads``, capped at the core count; 1 means this process only."""
    return min(threads or 1, os.cpu_count() or 1)


def _pool_map(pool, fn, *args) -> list:
    """``fn`` over the zipped argument lists in order, on ``pool`` or, when it is ``None``, in this process."""
    return list(map(fn, *args) if pool is None else pool.map(fn, *args, chunksize=1))


def _choose_lenses(train, representation, grid, seed, trees, sax_mode, pool, strategy="search") -> list[tuple]:
    """The one selection step: each chosen lens of one representation as (lens, binning, training symbols).

    ``random`` fits only the points ``search_lenses_random`` draws; ``search`` fits the whole grid, scores
    each point as one task on ``pool`` through one fold plan and keeps each alphabet's margin band.
    """
    rep = _rep_flag(representation)
    if strategy == "random":
        lenses = search_lenses_random(train, rep, seed, grid)
        return [(lens, *fit) for lens, fit in zip(lenses, fit_lenses(train.X, lenses, sax_mode))]
    pairs = grid.pairs(rep, train.n, len(train))
    plan = fold_plan(train.y, stratified_fold_assignment(train.y, grid.folds, seed))
    lenses = [Lens(rep, alpha, w) for alpha, w in pairs]
    binnings, symbols = zip(*fit_lenses(train.X, lenses, sax_mode))
    # the stream omits drop_dc: the pinned model bytes were written with
    # this seed, so adding the flag would move every model
    seeds = [_derived_seed(seed, _NS_SEARCH, rep, alpha, w) for alpha, w in pairs]
    accs = _pool_map(pool, cross_val_accuracy, symbols, repeat(train.y), repeat(plan), repeat(trees), seeds)
    return [(replace(lenses[i], cv_accuracy=float(accs[i])), binnings[i], symbols[i])
            for i in select_per_alpha(pairs, accs)]


def search_lenses(
    train: Dataset,
    representation,
    grid: LensGrid | None = None,
    seed: int = 0,
    trees: int = 100,
    sax_mode: str = "minmax",
    workers: int | None = None,
) -> list[Lens]:
    """Score the representation's grid by CV accuracy, keep the 1% bands.

    The margin is applied per alphabet: for each alpha, every word size
    within 0.01 of that alpha's best cross-validation accuracy is kept.
    Returns lenses ordered by ascending alpha then w, each carrying its
    cv_accuracy. Raises NoFeasibleLens when feasibility filtering empties
    the grid.
    """
    size = _pool_workers(workers)
    with ProcessPoolExecutor(max_workers=size) if size > 1 else nullcontext() as pool:
        chosen = _choose_lenses(train, representation, grid or LensGrid(), seed, trees, sax_mode, pool)
    return [lens for lens, _, _ in chosen]


def search_lenses_random(
    train: Dataset,
    representation,
    seed: int = 0,
    grid: LensGrid | None = None,
) -> list[Lens]:
    """Sample half the feasible grid pairs (rounded up), distinct and uniform, skipping CV entirely.

    Ablation baseline; the sampled lenses carry cv_accuracy 0. No word is built.
    """
    rep = _rep_flag(representation)
    pairs = (grid or LensGrid()).pairs(rep, train.n, len(train))
    rng = np.random.default_rng(np.random.SeedSequence([seed, _NS_RANDOM_LENSES, rep]))
    chosen = sorted(rng.choice(len(pairs), size=(len(pairs) + 1) // 2, replace=False))
    return [Lens(rep, pairs[i][0], pairs[i][1]) for i in chosen]
