"""Reference forest: the per-node grower and the per-tree router, kept as a test oracle.

This is the straightforward implementation that ``coeye.forest``'s batched
engine must reproduce exactly: same nodes, same thresholds, same counts,
and bit-identical probabilities. It grows one tree at a time, one node at a
time, and routes one tree at a time. A node splits at the first strict
maximum of the exact (``Fraction``) Gini gain, in (feature, threshold)
order, when that gain is positive. Its forest is built from the
per-tree arrays it grows, laid end to end as the engine's node store: a
split's threshold is the largest symbol it sends left, and its right
child, made right after its left, is ``left + 1``. Each tree grows one
entry per node in every array and then keeps, in node order, thresholds and
left children at split nodes and class counts at leaves.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from coeye.forest import DecisionTree, RandomForestModel


def _gini(counts):
    """Exact Gini impurity of a node's class counts."""
    n = int(counts.sum())
    return 1 - sum(Fraction(int(c), n) ** 2 for c in counts)


def exact_best_split(cols, y, n_values, n_classes):
    """(column, threshold) of the first strict maximum of the exact Gini gain
    over the columns of ``cols``, values in [0, n_values), in (column,
    threshold) order; None when no split has a positive gain."""
    n, width = cols.shape
    node_counts = np.bincount(y, minlength=n_classes)
    codes = (np.arange(width) * n_values + cols) * n_classes + y[:, None]
    cum = np.bincount(codes.ravel(), minlength=width * n_values * n_classes)
    cum = cum.reshape(width, n_values, n_classes).cumsum(axis=1)
    best, best_gain = None, Fraction(0)
    for fi in range(width):
        for v in range(n_values - 1):
            n_left = int(cum[fi, v].sum())
            if 0 < n_left < n:
                gain = (_gini(node_counts)
                        - Fraction(n_left, n) * _gini(cum[fi, v])
                        - Fraction(n - n_left, n) * _gini(node_counts - cum[fi, v]))
                if gain > best_gain:
                    best, best_gain = (fi, v), gain
    return best


def _grow_tree(Xb, yb, n_values, n_classes, max_features, rng):
    """Grow one unpruned CART tree on a bootstrap sample."""
    feature, threshold, left, counts = [], [], [], []

    def alloc():
        feature.append(-1)
        threshold.append(0)
        left.append(-1)
        counts.append(None)
        return len(feature) - 1

    root = alloc()
    stack = [(np.arange(Xb.shape[0]), root)]
    while stack:
        rows, idx = stack.pop()
        node_counts = np.bincount(yb[rows], minlength=n_classes)
        counts[idx] = node_counts
        n_node = rows.shape[0]
        nonzero = np.count_nonzero(node_counts)
        if n_node < 2 or nonzero <= 1:
            continue

        feats = np.sort(rng.choice(Xb.shape[1], size=max_features, replace=False))
        cols = Xb[rows][:, feats]
        best = exact_best_split(cols, yb[rows], n_values, n_classes)
        if best is None:
            continue
        fi, v = best
        best_f = int(feats[fi])
        best_t = v
        best_mask = cols[:, fi] <= best_t
        feature[idx] = best_f
        threshold[idx] = best_t
        li, ri = alloc(), alloc()
        left[idx] = li
        stack.append((rows[best_mask], li))
        stack.append((rows[~best_mask], ri))

    inner = np.asarray(feature) >= 0
    return (
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.int64)[inner],
        np.asarray(left, dtype=np.int32)[inner],
        np.vstack(counts).astype(np.int64)[~inner],
    )


def _fit_one_tree(X, y_enc, n_values, n_classes, max_features, seed, tree_index):
    rng = np.random.default_rng(np.random.SeedSequence([seed, tree_index]))
    boot = rng.integers(0, X.shape[0], size=X.shape[0])
    return _grow_tree(X[boot], y_enc[boot], n_values, n_classes, max_features, rng)


def reference_fit_forest(X, y, n_trees=100, seed=0) -> RandomForestModel:
    X = np.ascontiguousarray(X, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    class_labels = np.unique(y)
    y_enc = np.searchsorted(class_labels, y)
    n_values = int(X.max()) + 1
    max_features = max(1, math.ceil(math.sqrt(X.shape[1])))
    trees = [
        _fit_one_tree(X, y_enc, n_values, class_labels.shape[0], max_features, seed, t)
        for t in range(n_trees)
    ]
    sizes = np.array([feature.shape[0] for feature, *_ in trees], dtype=np.int64)
    return RandomForestModel(*map(np.concatenate, zip(*trees)), sizes, class_labels, X.shape[1], int(seed))


def _route(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Leaf reached by each row, as its row of the tree's ``counts``."""
    inner = tree.feature >= 0
    # each node's place among the split nodes (its threshold and left child) and among the leaves
    split_of, leaf_of = np.cumsum(inner) - 1, np.cumsum(~inner) - 1
    idx = np.zeros(X.shape[0], dtype=np.int32)
    active = inner[idx]
    while active.any():
        rows = np.nonzero(active)[0]
        nd = idx[rows]
        s = split_of[nd]
        go_left = X[rows, tree.feature[nd]] <= tree.threshold[s]
        idx[rows] = np.where(go_left, tree.left[s], tree.left[s] + 1)
        active[rows] = inner[idx[rows]]
    return leaf_of[idx]


def reference_predict_proba(model: RandomForestModel, X) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.int64)
    acc = np.zeros((X.shape[0], model.n_classes))
    for tree in model.trees:
        leaf_counts = tree.counts[_route(tree, X)]
        acc += leaf_counts / leaf_counts.sum(axis=1, keepdims=True)
    return acc / len(model.trees)
