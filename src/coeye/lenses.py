"""Hyper-parameter search over (alphabet size, word size) pairs.

A search builds one fold plan, ``fold_plan(y, folds, seed)``: a seeded,
stratified k-fold split of the training set in which a class's single row
trains every fold and is never held out. Every feasible pair of a representation's
grid is scored by its forests' accuracy through that plan, and for each
alphabet all word sizes within 0.01 of its best score are kept as
lenses. SFA lenses keep the DC window: a znormalized series has a zero
DC term, so the drop-DC window of width w is the keep-DC window shifted
by one coefficient pair and would score nearly the same features twice.
A grid is fitted here by one ``fit_lenses`` call (each SFA alphabet once,
at its widest word) and each point is one task on the caller's process
pool, whose results come back in task order, so scheduling changes nothing.
The random strategy, the ablation that skips the search, draws half of the
grid in the same step and fits only what it draws. Either way ``_choose_lenses``
is the one step that makes lenses: it returns each chosen lens with the binning
and symbols it was chosen with. Both strategies take the config's ``LensGrid.pairs``
of the rows ``train`` balanced, which keeps one SFA alphabet at or above the row
count: equal-depth binning on s rows has at most s bins per column.
"""

from __future__ import annotations

# unused here (``ensemble.train`` opens the one pool): perfbench/tracing.py rebinds
# ``lenses.ProcessPoolExecutor`` to count pool starts and tests/test_bench_trace.py
# asserts the name, so it stays until the benchmark stops tracing it
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import replace
from itertools import repeat

import numpy as np

from .config import CoEyeConfig, LensGrid  # noqa: F401  (LensGrid re-exported: ``from coeye.lenses import LensGrid``)
from .data import Dataset
from .forest import BATCH_SLOTS, fit_forests, predict
from .symbolic import Lens, fit_lenses

ACCURACY_MARGIN = 0.01
_MARGIN_SLACK = 1e-12

# namespace tags keeping derived seed streams disjoint
_NS_SEARCH = 1
_NS_TRAIN = 2
_NS_SMOTE = 3
_NS_FOLDS = 4
_NS_RANDOM_LENSES = 5
_NS_VOTE = 6


def _derived_seed(*components) -> int:
    return int(np.random.SeedSequence(list(components)).generate_state(1)[0])


def fold_plan(y, folds: int, seed: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(fold id, training rows, held-out rows) per fold with a row to hold out, by ascending id.

    The seeded, stratified plan: each class, in label order, shuffles its rows once and deals them to
    folds ``(arange(count) + rank) % folds``. A class's only row trains every fold and is never held out.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _NS_FOLDS]))
    _, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
    fold = np.empty(inverse.shape[0], dtype=np.int64)
    for rank, count in enumerate(counts.tolist()):
        rows = np.flatnonzero(inverse == rank)
        rng.shuffle(rows)
        fold[rows] = (np.arange(count) + rank) % folds
    scored = counts[inverse] > 1
    return [(int(f), np.flatnonzero((fold != f) | ~scored), np.flatnonzero((fold == f) & scored))
            for f in np.unique(fold[scored])]


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


def _pool_map(pool, fn, *args) -> list:
    """``fn`` over the zipped argument lists in order, on ``pool`` or, when it is ``None``, in this process."""
    return list(map(fn, *args) if pool is None else pool.map(fn, *args, chunksize=1))


def _choose_lenses(train: Dataset, rep: int, config: CoEyeConfig, pool, strategy="search") -> list[tuple]:
    """The one selection step: each chosen lens of representation ``rep`` (``SAX`` or ``SFA``) as
    (lens, binning, training symbols).

    Both strategies take the grid of ``train``'s rows. ``random`` draws half its points (rounded up),
    distinct and uniform, and fits only those, with cv_accuracy 0; ``search`` fits the whole grid, scores
    each point as one task on ``pool`` through one fold plan and keeps each alphabet's margin band.
    """
    pairs = config.pairs(rep, train.n, len(train))
    if strategy == "random":
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _NS_RANDOM_LENSES, rep]))
        pairs = [pairs[i] for i in sorted(rng.choice(len(pairs), size=(len(pairs) + 1) // 2, replace=False))]
    lenses = [Lens(rep, alpha, w) for alpha, w in pairs]
    binnings, symbols = zip(*fit_lenses(train.X, lenses, config.sax_mode))
    if strategy == "random":
        return list(zip(lenses, binnings, symbols))
    plan = fold_plan(train.y, config.folds, config.seed)
    # the stream omits drop_dc: the pinned model bytes were written with
    # this seed, so adding the flag would move every model
    seeds = [_derived_seed(config.seed, _NS_SEARCH, rep, alpha, w) for alpha, w in pairs]
    accs = _pool_map(pool, cross_val_accuracy, symbols, repeat(train.y), repeat(plan), repeat(config.trees), seeds)
    return [(replace(lenses[i], cv_accuracy=float(accs[i])), binnings[i], symbols[i])
            for i in select_per_alpha(pairs, accs)]
