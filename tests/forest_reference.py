"""Reference forest: the per-node grower and the per-tree router, kept as a test oracle.

This is the straightforward implementation that ``coeye.forest``'s batched
engine must reproduce exactly: same nodes, same thresholds, same counts,
and bit-identical probabilities. It grows one tree at a time, one node at a
time, and routes one tree at a time. Its forest is built from the
per-tree arrays it grows, laid end to end as the engine's node store: a
split's threshold is the largest symbol it sends left, and its right
child, made right after its left, is ``left + 1``.
"""

from __future__ import annotations

import math

import numpy as np

from coeye.forest import DecisionTree, RandomForestModel

_MIN_DECREASE = 1e-12


def _gini_from_counts(counts, n):
    return 1.0 - np.sum((counts / n) ** 2)


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

        parent_gini = _gini_from_counts(node_counts, n_node)
        feats = np.sort(rng.choice(Xb.shape[1], size=max_features, replace=False))
        cols = Xb[rows][:, feats]
        codes = (np.arange(feats.shape[0]) * n_values + cols) * n_classes + yb[rows][:, None]
        hist = np.bincount(codes.ravel(), minlength=feats.shape[0] * n_values * n_classes)
        hist = hist.reshape(feats.shape[0], n_values, n_classes)
        cum = hist.cumsum(axis=1)[:, :-1, :].astype(np.float64)
        n_left = cum.sum(axis=2)
        n_right = n_node - n_left
        valid = (n_left > 0) & (n_right > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_l = 1.0 - np.sum((cum / n_left[..., None]) ** 2, axis=2)
            gini_r = 1.0 - np.sum(((node_counts - cum) / n_right[..., None]) ** 2, axis=2)
            dec = parent_gini - (n_left * gini_l + n_right * gini_r) / n_node
        dec[~valid] = -np.inf
        if dec.size == 0:
            continue
        flat = int(np.argmax(dec))
        fi, v = divmod(flat, n_values - 1)
        if not np.isfinite(dec[fi, v]) or dec[fi, v] <= _MIN_DECREASE:
            continue
        best_f = int(feats[fi])
        best_t = v
        best_mask = cols[:, fi] <= best_t
        feature[idx] = best_f
        threshold[idx] = best_t
        li, ri = alloc(), alloc()
        left[idx] = li
        stack.append((rows[best_mask], li))
        stack.append((rows[~best_mask], ri))

    return (
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.int64),
        np.asarray(left, dtype=np.int32),
        np.vstack(counts).astype(np.int64),
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
    """Leaf index reached by each row."""
    idx = np.zeros(X.shape[0], dtype=np.int32)
    active = tree.feature[idx] >= 0
    while active.any():
        rows = np.nonzero(active)[0]
        nd = idx[rows]
        go_left = X[rows, tree.feature[nd]] <= tree.threshold[nd]
        idx[rows] = np.where(go_left, tree.left[nd], tree.left[nd] + 1)
        active[rows] = tree.feature[idx[rows]] >= 0
    return idx


def reference_predict_proba(model: RandomForestModel, X) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.int64)
    acc = np.zeros((X.shape[0], model.n_classes))
    for tree in model.trees:
        leaf_counts = tree.counts[_route(tree, X)]
        acc += leaf_counts / leaf_counts.sum(axis=1, keepdims=True)
    return acc / len(model.trees)
