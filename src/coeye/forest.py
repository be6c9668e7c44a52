"""CART decision trees and random forests over symbolic feature vectors.

Features are symbol indices, i.e. small ordered integers, so split search
uses threshold tests with candidate thresholds at midpoints between
consecutive values present at a node. Determinism contract: a forest is a
pure function of (X, y, n_trees, seed) — each tree draws from its own RNG
stream derived from (seed, tree_index), so results do not depend on the
worker count, on scheduling, or on which other trees grow beside it.

Draw order. Tree ``t`` of a forest seeded ``s`` draws from
``default_rng(SeedSequence([s, t]))``: first its bootstrap,
``integers(0, n, n)``, then one ``choice(d, m, replace=False)`` feature
subset per node that has at least 2 rows and more than one class. Nodes
are visited depth first, the root first and then the right subtree before
the left. A split node's children take the next two node ids, left first.
No ``Generator`` is made: ``coeye.stream`` computes these streams in one
vectorised pass per batch, bit-identical to that generator's, and
``tests/test_stream.py`` pins them against the installed numpy. All
bootstraps of a batch are drawn in one call, and each growth round draws
the subsets of the nodes it tries to split in one call.

Growth. ``_grow`` grows the trees of several forests together, in rounds:
every unfinished tree pops the next node of its own depth-first stack, and
the round computes class counts, (node, feature, value, class) histograms,
Gini decreases and row partitions for all popped nodes with a few NumPy
calls. Rows live in one flat sample array per batch; a node owns a
[start, end) range of it, partitioned in place when the node splits. A
batch holds at most ``BATCH_SLOTS`` bootstrap rows (trees times rows), so
a large forest grows as several tree ranges. Each tree still pops its own
nodes in the order above, so its draws, and hence its bytes, are the same
as when it grows alone.

Packed layout. For routing, the trees of one or more forests are
concatenated into flat node arrays (``feature``, ``threshold``, ``left``,
``right``) whose child indices are global offsets into those arrays, plus
per-node leaf class probabilities ``counts / counts.sum(1)``; ``roots``
holds the first node of each tree. The forests read their feature columns
side by side, so a split feature is offset by the widths of the forests
before its own. ``tree_table[t, f]`` is the pack index of tree ``t`` of
forest ``f``; a forest with fewer trees is padded with a tree whose leaf
probabilities are zero. One ``_leaves`` walk routes every row through
every tree of the pack, and each forest's probabilities are summed over
its own trees in tree order, so they are bit-identical to routing that
forest alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyTrainingSet, FeatureMismatch, ModelParseError, model_int
from .stream import Streams

_MIN_DECREASE = 1e-12
# histogram cells plus gathered sample values per split-search chunk:
# bounds the grower's transient memory
_CHUNK_CELLS = 1 << 16
# tree-row pairs per routing chunk: a model-wide pack routes many trees at
# once, and each walk step holds about a dozen arrays of this length
_ROUTE_PAIRS = 1 << 14
# bootstrap slots (trees times rows) grown in one batch: the batch state is
# a few integer arrays over all slots, so this bounds its memory; a 5-fold
# search of a few hundred rows still fits in one batch
BATCH_SLOTS = 1 << 17


@dataclass(eq=False)
class DecisionTree:
    """Flat-array tree: feature < 0 marks a leaf; counts holds per-node class counts."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]


@dataclass(frozen=True, eq=False)
class PackedForest:
    """The trees of one or more forests as flat node arrays with global child
    offsets, reading side-by-side feature columns (see the module docstring)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    proba: np.ndarray
    roots: np.ndarray
    tree_table: np.ndarray
    tree_counts: np.ndarray
    n_features: int


@dataclass(eq=False)
class RandomForestModel:
    trees: list[DecisionTree]
    class_labels: np.ndarray
    n_features: int
    seed: int

    @property
    def n_classes(self) -> int:
        return self.class_labels.shape[0]


def pack_forests(forests: list[RandomForestModel]) -> PackedForest:
    """Pack the trees of ``forests``, which must share their class labels, for one routing walk."""
    if not forests or any(not np.array_equal(f.class_labels, forests[0].class_labels) for f in forests):
        raise ValueError("a pack needs at least one forest, and its forests must share their class labels")
    trees = [t for f in forests for t in f.trees]
    feature, threshold, left, right, counts = (
        np.concatenate([getattr(t, name) for t in trees])
        for name in ("feature", "threshold", "left", "right", "counts")
    )
    n_nodes = np.array([t.n_nodes for t in trees])
    roots = np.cumsum(n_nodes) - n_nodes
    offset = np.repeat(roots, n_nodes)
    # one row per node, plus a last zero row that pads the short forests of tree_table
    proba = np.zeros((counts.shape[0] + 1, counts.shape[1]))
    np.divide(counts, counts.sum(axis=1, keepdims=True), out=proba[:-1], where=(feature < 0)[:, None])
    widths = np.array([f.n_features for f in forests])
    tree_counts = np.array([len(f.trees) for f in forests])
    first_tree = np.cumsum(tree_counts) - tree_counts
    t = np.arange(tree_counts.max())[:, None]
    tree_table = np.where(t < tree_counts, first_tree + t, len(trees))
    # a split reads its own forest's columns, which sit after the earlier forests' columns
    column = np.repeat(np.repeat(np.cumsum(widths) - widths, tree_counts), n_nodes)
    feature = np.where(feature >= 0, feature + column, feature).astype(np.intp)
    return PackedForest(feature, threshold, left + offset, right + offset, proba, roots, tree_table, tree_counts,
                        int(widths.sum()))


@dataclass(frozen=True, eq=False)
class _ForestSpec:
    """One forest of a growth batch: its training rows of X and its trees."""

    rows: np.ndarray
    y_enc: np.ndarray
    n_values: int
    n_classes: int
    seed: int
    trees: range


def _segments(starts, sizes):
    """(segment id, position) of every slot of the ranges [start, start + size)."""
    seg = np.repeat(np.arange(sizes.shape[0]), sizes)
    pos = np.arange(seg.shape[0]) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return seg, pos


def _best_splits(X, sample_row, sample_cls, starts, sizes, counts, feats, n_values, n_classes):
    """Best (feature slot, value) of each node, or slot -1 for a leaf.

    Nodes are given by their sample ranges, class counts, sorted feature
    subsets ``feats`` (nodes, m) and their forests' class counts. Rows of
    each split node are partitioned in place, left rows first; returns
    (slot, value, left row count) per node. ``n_values`` is the largest
    alphabet of the batch: a boundary beyond a forest's own alphabet leaves
    no row on the right, so it is never valid and never chosen.
    """
    m = feats.shape[1]
    slot = np.full(sizes.shape[0], -1)
    value = np.zeros(sizes.shape[0], dtype=np.int64)
    n_left_rows = np.zeros(sizes.shape[0], dtype=np.int64)
    if n_values < 2:
        return slot, value, n_left_rows
    # nodes of forests with different class counts are searched apart, so
    # every Gini sum runs over exactly its forest's classes
    for c in np.unique(n_classes):
        group = np.flatnonzero(n_classes == c)
        cost = m * n_values * c + sizes[group] * m
        chunk = (np.cumsum(cost) - cost) // _CHUNK_CELLS
        for nodes in np.split(group, np.flatnonzero(np.diff(chunk)) + 1):
            q = nodes.shape[0]
            n_node = sizes[nodes]
            seg, pos = _segments(starts[nodes], n_node)
            cls = sample_cls[pos]
            vals = X[sample_row[pos][:, None], feats[nodes][seg]]
            codes = ((seg[:, None] * m + np.arange(m)) * n_values + vals) * c + cls[:, None]
            hist = np.bincount(codes.ravel(), minlength=q * m * n_values * c).reshape(q, m, n_values, c)
            # candidate boundary after value v: left bin = values <= v, threshold v + 0.5
            cum = hist.cumsum(axis=2)[:, :, :-1, :].astype(np.float64)
            node_counts = counts[nodes, :c].astype(np.float64)
            parent_gini = 1.0 - np.sum((node_counts / n_node[:, None]) ** 2, axis=1)
            n_left = cum.sum(axis=3)
            n_right = n_node[:, None, None] - n_left
            valid = (n_left > 0) & (n_right > 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                gini_l = 1.0 - np.sum((cum / n_left[..., None]) ** 2, axis=3)
                gini_r = 1.0 - np.sum(((node_counts[:, None, None, :] - cum) / n_right[..., None]) ** 2, axis=3)
                dec = parent_gini[:, None, None] - (n_left * gini_l + n_right * gini_r) / n_node[:, None, None]
            dec[~valid] = -np.inf
            dec = dec.reshape(q, -1)
            # first maximum: lowest feature (subsets are sorted), then lowest threshold
            flat = dec.argmax(axis=1)
            best = dec[np.arange(q), flat]
            split = np.isfinite(best) & (best > _MIN_DECREASE)
            fi, v = np.divmod(flat, n_values - 1)
            slot[nodes[split]] = fi[split]
            value[nodes[split]] = v[split]

            moved = split[seg]
            seg, pos = seg[moved], pos[moved]
            go_left = vals[moved, fi[seg]] <= v[seg]
            order = np.argsort(seg * 2 + ~go_left, kind="stable")
            sample_row[pos] = sample_row[pos[order]]
            sample_cls[pos] = sample_cls[pos[order]]
            n_left_rows[nodes] = np.bincount(seg[go_left], minlength=q)
    return slot, value, n_left_rows


def _grow(X, specs: list[_ForestSpec], max_features: int) -> list[list[DecisionTree]]:
    """Grow every tree of every spec together; returns each spec's trees in order."""
    if not specs:
        return []
    d = X.shape[1]
    tree_spec = np.repeat(np.arange(len(specs)), [len(s.trees) for s in specs])
    n_trees = tree_spec.shape[0]
    tree_classes = np.array([s.n_classes for s in specs])[tree_spec]
    n_classes = int(tree_classes.max())
    n_values = max(s.n_values for s in specs)

    # bootstraps, mapped to rows of X, laid out tree after tree; trees of one
    # bootstrap size draw together
    spec_sizes = np.array([s.rows.shape[0] for s in specs])
    sizes = spec_sizes[tree_spec]
    starts = np.cumsum(sizes) - sizes
    sample_row = np.empty(int(sizes.sum()), dtype=np.intp)
    sample_cls = np.empty_like(sample_row)
    streams = Streams([(spec.seed, spec.trees) for spec in specs])
    spec_rows = np.concatenate([s.rows for s in specs])
    spec_cls = np.concatenate([s.y_enc for s in specs])
    spec_first = np.cumsum(spec_sizes) - spec_sizes
    for n in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == n)
        boot = (spec_first[tree_spec[group], None] + streams.draw(group, np.full(n, n))).ravel()
        slot = (starts[group, None] + np.arange(n)).ravel()
        sample_row[slot] = spec_rows[boot]
        sample_cls[slot] = spec_cls[boot]

    # one depth-first stack of (start, end, node id) per tree
    stack = np.zeros((n_trees, 8, 3), dtype=np.int64)
    stack[:, 0] = np.column_stack([starts, starts + sizes, np.zeros(n_trees, dtype=np.int64)])
    depth = np.ones(n_trees, dtype=np.int64)
    n_nodes = np.ones(n_trees, dtype=np.int64)
    record = []
    while True:
        live = np.flatnonzero(depth)
        if live.shape[0] == 0:
            break
        depth[live] -= 1
        lo, hi, node = stack[live, depth[live]].T
        size = hi - lo
        seg, pos = _segments(lo, size)
        counts = np.bincount(seg * n_classes + sample_cls[pos], minlength=live.shape[0] * n_classes)
        counts = counts.reshape(-1, n_classes)
        feature = np.full(live.shape[0], -1, dtype=np.int32)
        threshold = np.zeros(live.shape[0])
        left = np.full(live.shape[0], -1, dtype=np.int32)

        cand = np.flatnonzero((size >= 2) & (np.count_nonzero(counts, axis=1) > 1))
        if cand.shape[0]:
            cand_trees = live[cand]
            feats = streams.subsets(cand_trees, d, max_features)
            slot, value, n_left = _best_splits(
                X, sample_row, sample_cls, lo[cand], size[cand], counts[cand], feats, n_values,
                tree_classes[cand_trees],
            )
            split = slot >= 0
            at, trees = cand[split], live[cand[split]]
            feature[at] = feats[split, slot[split]]
            threshold[at] = value[split] + 0.5
            left[at] = n_nodes[trees]
            n_nodes[trees] += 2
            if depth.max() + 2 > stack.shape[1]:
                stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
            mid = lo[at] + n_left[split]
            # push left, then right: the right child is grown first
            stack[trees, depth[trees]] = np.column_stack([lo[at], mid, left[at]])
            stack[trees, depth[trees] + 1] = np.column_stack([mid, hi[at], left[at] + 1])
            depth[trees] += 2
        record.append((live, node, feature, threshold, left, counts))

    tree_start = np.cumsum(n_nodes) - n_nodes
    total = int(n_nodes.sum())
    feature = np.empty(total, dtype=np.int32)
    threshold = np.empty(total)
    left = np.empty(total, dtype=np.int32)
    counts = np.empty((total, n_classes))
    for live, node, f, t, l, c in record:
        at = tree_start[live] + node
        feature[at], threshold[at], left[at], counts[at] = f, t, l, c
    right = np.where(left >= 0, left + 1, -1).astype(np.int32)

    out = []
    for k, spec in enumerate(specs):
        first = np.flatnonzero(tree_spec == k)
        base, stop = tree_start[first[0]], tree_start[first[-1]] + n_nodes[first[-1]]
        spec_counts = np.ascontiguousarray(counts[base:stop, :spec.n_classes])
        trees = []
        for i in first.tolist():
            a, b = tree_start[i], tree_start[i] + n_nodes[i]
            trees.append(DecisionTree(feature[a:b], threshold[a:b], left[a:b], right[a:b],
                                      spec_counts[a - base:b - base]))
        out.append(trees)
    return out


def _batches(specs: list[_ForestSpec], max_slots: int):
    """Split the trees of ``specs`` into consecutive batches of at most
    ``max_slots`` bootstrap slots (at least one tree each); yields lists of
    (spec index, spec restricted to a tree range)."""
    batch, used = [], 0
    for k, spec in enumerate(specs):
        n = spec.rows.shape[0]
        start = spec.trees.start
        while start < spec.trees.stop:
            room = (max_slots - used) // n
            if room < 1 and batch:
                yield batch
                batch, used = [], 0
                continue
            stop = min(spec.trees.stop, start + max(room, 1))
            batch.append((k, replace(spec, trees=range(start, stop))))
            used += (stop - start) * n
            start = stop
    if batch:
        yield batch


def _grow_bounded(X, specs: list[_ForestSpec], max_features: int) -> list[list[DecisionTree]]:
    """``_grow`` over batches of at most ``BATCH_SLOTS`` slots; the trees do not depend on the split."""
    out = [[] for _ in specs]
    for batch in _batches(specs, BATCH_SLOTS):
        for (k, _), trees in zip(batch, _grow(X, [spec for _, spec in batch], max_features)):
            out[k].extend(trees)
    return out


def fit_forests(X, y, row_sets, seeds, n_trees: int = 100, threads: int | None = None) -> list[RandomForestModel]:
    """Fit one forest per row set of (X, y), grown together in batches.

    Forest ``k`` is exactly ``fit_forest(X[row_sets[k]], y[row_sets[k]],
    n_trees, seeds[k])``. A batch holds at most ``BATCH_SLOTS`` bootstrap
    rows, which bounds the growth state; the returned forests are the
    caller's to bound. With ``threads`` > 1 the trees are split into ranges
    grown by the same engine on a thread pool; the forests do not depend on
    either split.
    """
    X = np.ascontiguousarray(X, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyTrainingSet("training set must contain at least one row")
    if y.shape != (X.shape[0],):
        raise ValueError("y length must match rows of X")
    if len(seeds) != len(row_sets):
        raise ValueError("need one seed per row set")
    if n_trees < 1:
        raise ValueError("need at least one tree")
    if any(seed < 0 for seed in seeds):
        raise ValueError("seed must be non-negative")
    max_features = max(1, math.ceil(math.sqrt(X.shape[1])))

    labels, specs = [], []
    for rows, seed in zip(row_sets, seeds):
        rows = np.asarray(rows, dtype=np.intp)
        if rows.shape[0] == 0:
            raise EmptyTrainingSet("training set must contain at least one row")
        class_labels, y_enc = np.unique(y[rows], return_inverse=True)
        labels.append(class_labels)
        specs.append(_ForestSpec(rows, y_enc, int(X[rows].max()) + 1, class_labels.shape[0], int(seed),
                                 range(n_trees)))

    if threads is not None and threads > 1:
        bounds = np.linspace(0, n_trees, threads + 1).astype(int)
        jobs = [[replace(s, trees=range(a, b)) for s in specs] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda job: _grow_bounded(X, job, max_features), jobs))
    else:
        parts = [_grow_bounded(X, specs, max_features)]
    return [
        RandomForestModel([tree for part in parts for tree in part[k]], labels[k], X.shape[1], spec.seed)
        for k, spec in enumerate(specs)
    ]


def fit_forest(X, y, n_trees: int = 100, seed: int = 0, threads: int | None = None) -> RandomForestModel:
    """Fit ``n_trees`` bootstrap CART trees with sqrt-width feature subsets.

    Trees are grown until pure or until no split improves Gini impurity; no
    depth limit, minimum split size 2. Tie-breaks go to the lowest feature
    index, then the lowest threshold.
    """
    X = np.asarray(X)
    n_rows = X.shape[0] if X.ndim == 2 else 0
    return fit_forests(X, y, [np.arange(n_rows)], [seed], n_trees, threads)[0]


def _leaves(packed: PackedForest, X: np.ndarray) -> np.ndarray:
    """Global leaf index reached by each (tree, row), tree-major."""
    rows, width = X.shape
    node = np.repeat(packed.roots, rows)
    flat = X.ravel()
    active = np.flatnonzero(packed.feature[node] >= 0)
    while active.shape[0]:
        at = node[active]
        go_left = flat[(active % rows) * width + packed.feature[at]] <= packed.threshold[at]
        nxt = np.where(go_left, packed.left[at], packed.right[at])
        node[active] = nxt
        active = active[packed.feature[nxt] >= 0]
    return node


def predict_packed(packed: PackedForest, X) -> np.ndarray:
    """Class probabilities of each row under each forest of a pack: shape (rows, forests, classes).

    ``X`` holds the forests' feature columns side by side. Each forest
    averages the leaf class frequencies of its own trees; rows sum to 1.
    """
    X = np.ascontiguousarray(X, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != packed.n_features:
        raise FeatureMismatch(
            f"expected {packed.n_features} features, got {X.shape[1] if X.ndim == 2 else 'non-matrix'}"
        )
    n_trees = packed.roots.shape[0]
    out = np.empty((X.shape[0], packed.tree_counts.shape[0], packed.proba.shape[1]))
    step = max(1, _ROUTE_PAIRS // n_trees)
    for lo in range(0, X.shape[0], step):
        chunk = X[lo:lo + step]
        leaves = _leaves(packed, chunk).reshape(n_trees, chunk.shape[0])
        # tree_table's padding row reaches the zero row of proba
        leaves = np.vstack([leaves, np.full((1, chunk.shape[0]), packed.proba.shape[0] - 1)])
        # (tree, forest, row, class): each forest summed over its own trees in
        # tree order, as routing that forest alone would
        sums = packed.proba[leaves[packed.tree_table]].sum(axis=0)
        out[lo:lo + step] = (sums / packed.tree_counts[:, None, None]).transpose(1, 0, 2)
    return out


def predict_proba(model: RandomForestModel, X) -> np.ndarray:
    """Average leaf class frequencies over trees; rows sum to 1."""
    return predict_packed(pack_forests([model]), X)[:, 0]


def predict(model: RandomForestModel, X) -> np.ndarray:
    """Argmax class labels (lowest label wins intra-row probability ties)."""
    proba = predict_proba(model, X)
    return model.class_labels[np.argmax(proba, axis=1)]


def forest_to_dict(model: RandomForestModel) -> dict:
    return {
        "seed": model.seed,
        "n_features": model.n_features,
        "class_labels": [int(c) for c in model.class_labels],
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "counts": tree.counts.tolist(),
            }
            for tree in model.trees
        ],
    }


def _check_forest(model: RandomForestModel) -> None:
    """Raise ModelParseError unless every tree is a well-formed, finite routing graph.

    Array shapes are checked per tree, the rest on a pack of the forest
    that is dropped afterwards: a loaded model routes through its own pack.
    """
    if not model.trees:
        raise ModelParseError("forest has no trees")
    for i, tree in enumerate(model.trees):
        n = tree.feature.shape[0] if tree.feature.ndim == 1 else 0
        if n == 0 or any(a.shape != (n,) for a in (tree.threshold, tree.left, tree.right)):
            raise ModelParseError(f"tree {i}: node arrays are empty or differ in length")
        if tree.counts.shape != (n, model.n_classes):
            raise ModelParseError(f"tree {i}: counts shape {tree.counts.shape}, expected ({n}, {model.n_classes})")
    with np.errstate(divide="ignore", invalid="ignore"):
        packed = pack_forests([model])
    total = packed.feature.shape[0]
    n_nodes = np.diff(np.append(packed.roots, total))
    start = np.repeat(packed.roots, n_nodes)
    end = start + np.repeat(n_nodes, n_nodes)
    node = np.arange(total)
    inner = packed.feature >= 0
    # children above their parent and inside the tree: routing always terminates
    children_ok = all(np.all((c[inner] > node[inner]) & (c[inner] < end[inner])) for c in (packed.left, packed.right))
    no_leaf_children = all(np.all(c[~inner] == start[~inner] - 1) for c in (packed.left, packed.right))
    if not (children_ok and no_leaf_children):
        raise ModelParseError("tree child pointers must point forward within the tree, at inner nodes only")
    if np.any(packed.feature[inner] >= model.n_features):
        raise ModelParseError(f"split feature outside [0, {model.n_features})")
    if not np.all(np.isfinite(packed.threshold)):
        raise ModelParseError("a split threshold is not finite")
    counts = np.concatenate([t.counts for t in model.trees])
    if not (np.all(np.isfinite(counts)) and np.all(counts >= 0) and np.all(counts[~inner].sum(axis=1) > 0)):
        raise ModelParseError("class counts must be finite and non-negative, with rows at every leaf")


def forest_from_dict(payload: dict) -> RandomForestModel:
    """Rebuild a forest from ``forest_to_dict`` output; raises ModelParseError if malformed."""
    trees = [
        DecisionTree(
            np.asarray(t["feature"], dtype=np.int32),
            np.asarray(t["threshold"], dtype=np.float64),
            np.asarray(t["left"], dtype=np.int32),
            np.asarray(t["right"], dtype=np.int32),
            np.asarray(t["counts"], dtype=np.float64),
        )
        for t in payload["trees"]
    ]
    model = RandomForestModel(
        trees,
        np.asarray(payload["class_labels"], dtype=np.int64),
        model_int(payload, "n_features"),
        int(payload["seed"]),
    )
    _check_forest(model)
    return model
