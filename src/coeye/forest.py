"""CART decision trees and random forests over symbolic feature vectors.

Features are symbol indices, i.e. small ordered integers, so a split sends
a row left when its symbol is at most the split's threshold, a symbol
present at the node. Determinism contract: a forest is a pure function
of (X, y, n_trees, seed) — each tree draws from its own RNG stream derived
from (seed, tree_index), so results do not depend on the worker count, on
scheduling, or on which other trees grow beside it.

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

Growth. ``_grow`` grows the trees of several forests of one class count
together, in rounds. Each tree's depth-first stack holds only its split
candidates, with their class counts: a node is recorded when it is made,
a root at set-up and a child when its parent splits, and one that cannot
split is a leaf at once. Every unfinished tree pops its next candidate, so a
batch runs as many rounds as its busiest tree has candidates, and the round
searches all popped nodes with a few NumPy calls. Class-major histograms over
value ranks give an exact integer score that ranks every split, and the
float Gini decrease picks among the near-best (see ``_best_splits``). Rows
live in one flat sample array per batch; a node owns a [start, end) range
of it, partitioned in place when the node splits. A batch holds at most
``BATCH_SLOTS`` bootstrap rows (trees times rows), so a large forest grows
as several tree ranges, and threads grow the same batches, cut smaller.
Each tree still pops its own candidates in the order above, so its draws,
and hence its bytes, are the same as when it grows alone.

Node store. A forest holds the nodes of all its trees, tree after tree, in
four integer arrays (``feature``, -1 at a leaf, ``threshold``, 0 at a leaf,
``left`` and class ``counts``) with tree-local child ids, and each tree's
node count. A split's children are made together, so the right child is
``left + 1`` and is not stored. The model file writes these fields as they
are, and its reader checks the store once (see ``forest_from_dict``).

Packed layout. For routing, the stores of forests of one tree count are
concatenated, with global left-child ids and leaf class probabilities ``counts /
counts.sum(1)``: pack tree ``f * n_trees + t`` is tree ``t`` of forest
``f``. The forests read their feature columns side by side, so a split
feature is offset by the widths of the forests before its own. One
``_leaves`` walk routes every row through every tree of the pack, from node
``i`` to ``left[i] + (x > threshold[i])``, and each forest sums its own
trees in tree order, bit-identical to routing it alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import EmptyTrainingSet, FeatureMismatch, ModelParseError, model_record
from .stream import Streams

_MIN_DECREASE = 1e-12
# class-major histogram cells, score cells and gathered sample values per
# split-search chunk: bounds the grower's transient memory
_CHUNK_CELLS = 1 << 16
# tree-row pairs per routing chunk: a model-wide pack routes many trees at
# once, and each walk step holds about a dozen arrays of this length
_ROUTE_PAIRS = 1 << 14
# bootstrap slots (trees times rows) grown in one batch: the batch state is
# a few integer arrays over all slots, so this bounds its memory; a 5-fold
# search of a few hundred rows still fits in one batch
BATCH_SLOTS = 1 << 17


# the node arrays of a forest's store, as the model file writes them, with their dtypes
_NODE_ARRAYS = {"feature": np.int32, "threshold": np.int64, "left": np.int32, "counts": np.int64}


@dataclass(eq=False)
class DecisionTree:
    """One tree's slice of a forest's node store (see ``RandomForestModel.trees``)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    counts: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]


@dataclass(frozen=True, eq=False)
class PackedForest:
    """Forests of ``n_trees`` trees each as flat node arrays with global child
    offsets, reading side-by-side feature columns (see the module docstring)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    proba: np.ndarray
    roots: np.ndarray
    n_trees: int
    n_features: int


@dataclass(eq=False)
class RandomForestModel:
    """A forest as one node store (see the module docstring)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    counts: np.ndarray
    tree_sizes: np.ndarray
    class_labels: np.ndarray
    n_features: int
    seed: int

    @property
    def n_classes(self) -> int:
        return self.class_labels.shape[0]

    @property
    def n_trees(self) -> int:
        return self.tree_sizes.shape[0]

    @property
    def trees(self) -> list[DecisionTree]:
        """Each tree's slice of the store, in tree order."""
        cuts = np.cumsum(self.tree_sizes)[:-1]
        return [DecisionTree(*arrays) for arrays in zip(*(np.split(getattr(self, a), cuts) for a in _NODE_ARRAYS))]


def pack_forests(forests: list[RandomForestModel]) -> PackedForest:
    """Pack ``forests``, which must share their class labels and their tree count, for one routing walk."""
    first = forests[0] if forests else None
    if first is None or any(f.n_trees != first.n_trees or not np.array_equal(f.class_labels, first.class_labels)
                            for f in forests):
        raise ValueError("a pack needs at least one forest, and its forests must share class labels and tree count")
    feature, threshold, left, counts, sizes = (np.concatenate([getattr(f, name) for f in forests])
                                               for name in (*_NODE_ARRAYS, "tree_sizes"))
    roots = np.cumsum(sizes) - sizes
    offset = np.repeat(roots, sizes)
    proba = np.zeros(counts.shape)
    np.divide(counts, counts.sum(axis=1, keepdims=True), out=proba, where=(feature < 0)[:, None])
    widths = np.array([f.n_features for f in forests])
    # a split reads its own forest's columns, which sit after the earlier forests' columns
    column = np.repeat(np.cumsum(widths) - widths, [f.feature.shape[0] for f in forests])
    feature = np.where(feature >= 0, feature + column, feature).astype(np.intp)
    return PackedForest(feature, threshold, left + offset, proba, roots, first.n_trees, int(widths.sum()))


@dataclass(frozen=True, eq=False)
class _ForestSpec:
    """One forest of a growth batch: its training rows of X and its trees."""

    rows: np.ndarray
    y_enc: np.ndarray
    n_classes: int
    seed: int
    trees: range


def _best_splits(X, sample_row, sample_cls, starts, sizes, counts, feats, n_values, n_classes):
    """Best (feature slot, value) of each node, or slot -1 for a leaf.

    Nodes are given by their sample ranges, class counts and sorted feature
    subsets ``feats`` (nodes, m); all belong to forests of ``n_classes``
    classes. Rows of each split node are partitioned in place, left rows
    first; returns (slot, value, left class counts) per node. ``X`` holds
    value ranks and ``n_values`` is the number of distinct values: a
    boundary beyond a forest's own values leaves no row on the right, so it
    is never valid and never chosen.

    The boundary after value (rank) v is ranked by S = (A n_r
    + B n_l) / (n_l n_r), where A and B sum the squared integer class
    counts left and right of it: the Gini decrease is parent_gini - 1 + S / n.
    Only the boundaries after present values within a relative 1e-9 of the
    node's best S get the float Gini decrease, whose first maximum wins, so
    ties break as that float breaks them. S >= n / c, so any other boundary
    trails the best decrease by over 1e-9 / c, far above the float's error.
    """
    m, c = feats.shape[1], n_classes
    slot = np.full(sizes.shape[0], -1)
    value = np.zeros(sizes.shape[0], dtype=np.int64)
    left_counts = np.zeros_like(counts)
    if n_values < 2:
        return slot, value, left_counts
    cost = m * n_values * (c + 1) + sizes * m
    chunk = (np.cumsum(cost) - cost) // _CHUNK_CELLS
    for nodes in np.split(np.arange(sizes.shape[0]), np.flatnonzero(np.diff(chunk)) + 1):
        q = nodes.shape[0]
        n_node = sizes[nodes]
        # (node, sample position) of every row of the chunk's nodes
        seg = np.repeat(np.arange(q), n_node)
        pos = np.arange(seg.shape[0]) + np.repeat(starts[nodes] - (np.cumsum(n_node) - n_node), n_node)
        cls = sample_cls[pos]
        vals = X[sample_row[pos][:, None], feats[nodes][seg]]
        # class-major (class, node, feature * value) cells: a class sum is a whole-array add
        codes = ((cls[:, None] * q + seg[:, None]) * m + np.arange(m)) * n_values + vals
        hist = np.bincount(codes.ravel(), minlength=c * q * m * n_values).reshape(c, q, m, n_values)
        cum = hist.cumsum(axis=3).reshape(c, q, -1)
        n_l = cum.sum(axis=0)
        n_r = n_node[:, None] - n_l
        a, b = np.square(cum).sum(axis=0), np.square(counts[nodes].T[:, :, None] - cum).sum(axis=0)
        # an invalid boundary (n_l or n_r zero) has A * n_r + B * n_l = 0 and scores 0
        score = (a * n_r.astype(np.float64) + b * n_l.astype(np.float64)) / np.maximum(n_l * n_r, 1)
        near = np.flatnonzero(score > score.max(axis=1, keepdims=True) * (1 - 1e-9))
        near = near[(near % n_values == 0) | (n_l.flat[near] > n_l.flat[near - 1])]
        at = near // (m * n_values)
        cum_near = np.ascontiguousarray(cum.reshape(c, -1)[:, near].T, dtype=np.float64)
        node_counts = counts[nodes].astype(np.float64)
        parent_gini = 1.0 - np.sum((node_counts / n_node[:, None]) ** 2, axis=1)
        n_left = cum_near.sum(axis=1)
        n_right = n_node[at] - n_left
        gini_l = 1.0 - np.sum((cum_near / n_left[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum(((node_counts[at] - cum_near) / n_right[:, None]) ** 2, axis=1)
        dec = np.full(score.shape, -np.inf)
        dec.flat[near] = parent_gini[at] - (n_left * gini_l + n_right * gini_r) / n_node[at]
        # first maximum: lowest feature (subsets are sorted), then lowest threshold
        flat = dec.argmax(axis=1)
        split = dec[np.arange(q), flat] > _MIN_DECREASE
        fi, v = np.divmod(flat, n_values)
        slot[nodes[split]] = fi[split]
        value[nodes[split]] = v[split]
        left_counts[nodes[split]] = cum[:, split, flat[split]].T

        moved = split[seg]
        seg, pos = seg[moved], pos[moved]
        go_left = vals[moved, fi[seg]] <= v[seg]
        order = np.argsort(seg * 2 + ~go_left, kind="stable")
        sample_row[pos] = sample_row[pos[order]]
        sample_cls[pos] = sample_cls[pos[order]]
    return slot, value, left_counts


def _grow(X, specs: list[_ForestSpec], max_features: int, values: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Grow every tree of every spec, all of one class count, together, on
    the value ranks ``X`` of the sorted distinct ``values``; returns each
    spec's node store: its four node arrays and its trees' node counts."""
    d = X.shape[1]
    tree_spec = np.repeat(np.arange(len(specs)), [len(s.trees) for s in specs])
    n_trees = tree_spec.shape[0]
    n_classes = specs[0].n_classes

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

    # one depth-first stack of split candidates (start, end, node id, class counts) per tree, level-major;
    # a tree's pending candidates own disjoint ranges of at least 2 rows each
    stack = np.zeros((int(sizes.max()) // 2, n_trees, 3 + n_classes), dtype=np.int64)
    depth = np.zeros(n_trees, dtype=np.int64)
    n_nodes = np.ones(n_trees, dtype=np.int64)
    placed, splits = [], [(np.zeros(0, dtype=np.int64),) * 5]

    def place(trees, lo, hi, node, counts):
        """Record each node's class counts, and push the nodes that can split
        (two classes, hence two rows) on their trees' stacks: the rest are leaves."""
        placed.append((trees, node, counts))
        cand = np.count_nonzero(counts, axis=1) > 1
        trees = trees[cand]
        stack[depth[trees], trees] = np.column_stack([lo[cand], hi[cand], node[cand], counts[cand]])
        depth[trees] += 1

    roots = np.arange(n_trees)
    root_counts = np.bincount(np.repeat(roots, sizes) * n_classes + sample_cls, minlength=n_trees * n_classes)
    place(roots, starts, starts + sizes, np.zeros(n_trees, dtype=np.int64), root_counts.reshape(n_trees, -1))
    while True:
        live = np.flatnonzero(depth)
        if live.shape[0] == 0:
            break
        depth[live] -= 1
        top = stack[depth[live], live]
        lo, hi, node, counts = top[:, 0], top[:, 1], top[:, 2], top[:, 3:]
        feats = streams.subsets(live, d, max_features)
        slot, value, left_counts = _best_splits(
            X, sample_row, sample_cls, lo, hi - lo, counts, feats, values.shape[0], n_classes,
        )
        split = slot >= 0
        trees, lo, hi, counts, left_counts = live[split], lo[split], hi[split], counts[split], left_counts[split]
        left = n_nodes[trees]
        n_nodes[trees] += 2
        splits.append((trees, node[split], feats[split, slot[split]], values[value[split]], left))
        mid = lo + left_counts.sum(axis=1)
        # push left, then right: the right child is grown first
        place(trees, lo, mid, left, left_counts)
        place(trees, mid, hi, left + 1, counts - left_counts)

    # the batch's store: tree t holds nodes bounds[t]:bounds[t + 1], in node id order
    bounds = np.concatenate([[0], np.cumsum(n_nodes)])
    trees, node, node_counts = map(np.concatenate, zip(*placed))
    counts, threshold = np.empty((bounds[-1], n_classes), dtype=np.int64), np.zeros(bounds[-1], dtype=np.int64)
    counts[bounds[trees] + node] = node_counts
    feature, left = np.full(bounds[-1], -1, dtype=np.int32), np.full(bounds[-1], -1, dtype=np.int32)
    trees, node, split_feature, split_threshold, split_left = map(np.concatenate, zip(*splits))
    at = bounds[trees] + node
    feature[at], threshold[at], left[at] = split_feature, split_threshold, split_left
    # a spec's trees, and so its nodes, are contiguous
    first_tree = [0, *accumulate(len(spec.trees) for spec in specs)]
    first_node = bounds[first_tree].tolist()
    return [(feature[a:b], threshold[a:b], left[a:b], counts[a:b], n_nodes[i:j])
            for i, j, a, b in zip(first_tree, first_tree[1:], first_node, first_node[1:])]


def _batches(specs: list[_ForestSpec], max_slots: int):
    """Split the trees of ``specs``, taken in stable class-count order, into
    batches of one class count and at most ``max_slots`` bootstrap slots (at
    least one tree each); yields lists of (spec index, spec restricted to a
    tree range)."""
    batch, used = [], 0
    for k, spec in sorted(enumerate(specs), key=lambda item: item[1].n_classes):
        if batch and batch[-1][1].n_classes != spec.n_classes:
            yield batch
            batch, used = [], 0
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


def _check_symbols(values: np.ndarray) -> None:
    """Raise ValueError unless every symbol is an integer in [0, 2**52), which casts to
    one exact int64 from an int or a float and so compares exactly with the thresholds. NaN fails."""
    if not (np.all((values >= 0) & (values < 2**52)) and np.all(values % 1 == 0)):
        raise ValueError("symbol values must be non-negative integers below 2**52")


def fit_forests(X, y, row_sets, seeds, n_trees: int = 100, threads: int | None = None) -> list[RandomForestModel]:
    """Fit one forest per row set of (X, y), grown together in batches.

    Forest ``k`` is exactly ``fit_forest(X[row_sets[k]], y[row_sets[k]],
    n_trees, seeds[k])``; seeds lie in [0, 2**32). A batch holds forests of
    one class count and at most ``BATCH_SLOTS`` bootstrap rows, which bounds
    the growth state; the returned forests are the caller's to bound. With
    ``threads`` > 1 batches of at most a thread's share of the rows grow on
    a pool of that many threads. The forests do not depend on the batches.
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or 0 in X.shape:
        raise EmptyTrainingSet("training set must contain at least one row and one column")
    if y.shape != (X.shape[0],):
        raise ValueError("y length must match rows of X")
    if len(seeds) != len(row_sets):
        raise ValueError("need one seed per row set")
    if not 1 <= n_trees <= 1 << 32:
        raise ValueError("need between 1 and 2**32 trees: the forest stream keys a tree by one 32-bit word")
    if any(not 0 <= seed < 1 << 32 for seed in seeds):
        raise ValueError("seeds must lie in [0, 2**32)")
    # growth runs on value ranks, so its memory follows the distinct values
    values, ranks = np.unique(X, return_inverse=True)
    _check_symbols(values)
    values = values.astype(np.int64)
    ranks = ranks.reshape(X.shape)
    max_features = max(1, math.ceil(math.sqrt(X.shape[1])))

    labels, specs = [], []
    for rows, seed in zip(row_sets, seeds):
        rows = np.asarray(rows, dtype=np.intp)
        if rows.shape[0] == 0:
            raise EmptyTrainingSet("training set must contain at least one row")
        class_labels, y_enc = np.unique(y[rows], return_inverse=True)
        labels.append(class_labels)
        specs.append(_ForestSpec(rows, y_enc, class_labels.shape[0], int(seed), range(n_trees)))

    workers = max(threads or 1, 1)
    slots = n_trees * sum(spec.rows.shape[0] for spec in specs)
    batches = list(_batches(specs, min(BATCH_SLOTS, -(-slots // workers))))

    def grow(batch):
        return _grow(ranks, [spec for _, spec in batch], max_features, values)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            grown = list(pool.map(grow, batches))
    else:
        grown = map(grow, batches)
    stores = [[] for _ in specs]
    for batch, parts in zip(batches, grown):
        for (k, _), part in zip(batch, parts):
            stores[k].append(part)
    # a forest split across batches is the concatenation of its parts, in tree order
    return [RandomForestModel(*map(np.concatenate, zip(*stores[k])), labels[k], X.shape[1], spec.seed)
            for k, spec in enumerate(specs)]


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
        nxt = packed.left[at] + (flat[(active % rows) * width + packed.feature[at]] > packed.threshold[at])
        node[active] = nxt
        active = active[packed.feature[nxt] >= 0]
    return node


def predict_packed(packed: PackedForest, X) -> np.ndarray:
    """Class probabilities of each row under each forest of a pack: shape (rows, forests, classes).

    ``X`` holds the forests' feature columns side by side. Each forest
    averages the leaf class frequencies of its own trees; rows sum to 1.
    Symbols not of a signed integer dtype must be integers in [0, 2**52), as in growth.
    """
    X = np.asarray(X)
    if X.dtype.kind != "i":
        _check_symbols(X)
    X = np.ascontiguousarray(X, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != packed.n_features:
        raise FeatureMismatch(f"expected {packed.n_features} features, "
                              f"got {X.shape[1] if X.ndim == 2 else 'non-matrix'}")
    n_forests = packed.roots.shape[0] // packed.n_trees
    out = np.empty((X.shape[0], n_forests, packed.proba.shape[1]))
    step = max(1, _ROUTE_PAIRS // packed.roots.shape[0])
    for lo in range(0, X.shape[0], step):
        chunk = X[lo:lo + step]
        leaves = _leaves(packed, chunk).reshape(n_forests, packed.n_trees, chunk.shape[0])
        # (forest, tree, row, class): each forest summed over its own trees in
        # tree order, as routing that forest alone would
        sums = packed.proba[leaves].sum(axis=1)
        out[lo:lo + step] = (sums / packed.n_trees).transpose(1, 0, 2)
    return out


def predict_proba(model: RandomForestModel, X) -> np.ndarray:
    """Average leaf class frequencies over trees; rows sum to 1."""
    return predict_packed(pack_forests([model]), X)[:, 0]


def predict(model: RandomForestModel, X) -> np.ndarray:
    """Argmax class labels (lowest label wins intra-row probability ties)."""
    return model.class_labels[np.argmax(predict_proba(model, X), axis=1)]


def _check_forest(model: RandomForestModel) -> None:
    """Raise ModelParseError unless the node store holds one well-formed routing
    graph per tree, checked on tree-local ids, and leaf counts of exact probabilities."""
    sizes, n = model.tree_sizes, model.feature.size
    # every size in [1, n] before anything sums or repeats the sizes: read from a file, they can wrap an int64 sum
    sized = sizes.ndim == 1 and sizes.size and np.all((sizes >= 1) & (sizes <= n))
    shapes = [a.shape for a in (model.feature, model.threshold, model.left, model.counts)]
    if not sized or shapes != [(sizes.sum(),)] * 3 + [(n, model.n_classes)]:
        raise ModelParseError(f"a forest needs tree sizes in [1, {n}] that sum to its node count; node arrays "
                              f"of shapes {shapes} do not hold {n} nodes of {model.n_classes} classes")
    # each node's id within its tree, and its tree's node count
    node, end = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes), np.repeat(sizes, sizes)
    inner = model.feature >= 0
    # both children, left and left + 1, above their parent and inside the tree: routing always terminates
    left = model.left
    if not (np.all((left[inner] > node[inner]) & (left[inner] < end[inner] - 1)) and np.all(left[~inner] == -1)):
        raise ModelParseError("tree child pointers must point forward within the tree, at inner nodes only")
    if np.any(model.feature[inner] >= model.n_features):
        raise ModelParseError(f"split feature outside [0, {model.n_features})")
    # below 2**52 a leaf's int64 count sum cannot wrap, and the float64 division into probabilities is exact
    counts, total = model.counts, model.counts[~inner].sum(axis=1, dtype=np.float64)
    if not (np.all((counts >= 0) & (counts < 2**52)) and np.all((total > 0) & (total < 2**52))):
        raise ModelParseError("class counts must lie in [0, 2**52), with rows at every leaf, below 2**52 in all")


def forest_from_dict(payload: dict) -> RandomForestModel:
    """Rebuild a forest from its model-file fields, read as every record is
    read; raises ModelParseError if malformed."""
    model = model_record(RandomForestModel, payload, **_NODE_ARRAYS, tree_sizes=np.int64, class_labels=np.int64)
    _check_forest(model)
    return model
