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

Growth. ``_grow`` grows the trees of several forests together, in rounds, on
the class axis of its widest forest, where a class that a forest lacks counts
zero and so moves none of its splits. Each tree's depth-first stack holds only
its split candidates, with their class counts: a node is recorded when it is
made, a root at set-up and a child when its parent splits, and one that cannot
split is a leaf at once. Every unfinished tree pops its next candidate, so a
batch runs as many rounds as its busiest tree has candidates, and the round
searches all popped nodes with a few NumPy calls. Class-major histograms over
value ranks give an exact integer score that ranks every split, and its
first maximum is the split (see ``_best_splits``). Rows
live in one flat sample array per batch; a node owns a [start, end) range
of it, partitioned in place when the node splits. A batch holds at most
``BATCH_SLOTS`` bootstrap rows (trees times rows), so a large forest grows as
several tree ranges, and threads, at most one per core, grow the same batches,
cut smaller. Each tree still pops its own candidates in the order above, so
its draws, and hence its bytes, are the same as when it grows alone.

Node store. A forest holds the nodes of all its trees, tree after tree, in
node order within each tree, with tree-local child ids, and each tree's node
count. Each array holds only what routing reads: ``feature`` has one entry
per node, -1 at a leaf; ``threshold`` and ``left`` have one entry per split
node, in node order; class ``counts`` have one row per leaf, in node order.
A split's children are made together, so the right child is ``left + 1`` and
is not stored, and a split node's counts, the sum of its leaves', are not
stored either. The forest record declares each array's dtype, and, like every
record, holds its arrays read-only. The model file writes these fields as
they are, and every forest record checks its store (``check_store``), so a
grown, hand-built or read forest routes every row to a leaf.

Packed layout. For routing, the stores of forests of one tree count are
spread back to one entry per node and concatenated, with global left-child
ids and class probabilities ``counts / counts.sum(1)`` at leaves, 0
elsewhere: pack tree ``f * n_trees + t`` is tree ``t`` of forest ``f``. The
forests read their feature columns side by side, so a split feature is offset
by the widths of the forests before its own. A leaf routes to itself, as in
branch-free traversal (QuickScorer, Lucchese et al., SIGIR 2015): its ``left``
is its own id, its ``feature`` its forest's first column and its
``threshold`` the int64 maximum, which no symbol exceeds. That self-loop is
what makes a node a leaf: no split's left child is itself. One
``_leaves`` walk routes every row through every tree of the pack, from node
``i`` to ``left[i] + (x > threshold[i])``, and each forest sums its own trees
in tree order, bit-identical to routing it alone. The walk moves a chunk's
(tree, row) pairs a level at a time (Asadi, Lin & de Vries, IEEE TKDE 2014):
the root level reads whole columns of X, then level steps move every pair at
once, a pair at a leaf staying by its own route, while at least half of the
pairs sit at a split node. The pairs left at a split then walk on alone,
compacted each step until each sits at a leaf. Both read X through each pair's
row offset, built once per chunk size.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import EmptyTrainingSet, FeatureMismatch, Record, _is_int
from .stream import Streams

# class-major histogram cells, score cells and gathered sample values per
# split-search chunk: bounds the grower's transient memory
_CHUNK_CELLS = 1 << 16
# tree-row pairs per routing chunk: a model-wide pack routes many trees at
# once, and each walk step holds about a dozen arrays of this length, the
# pairs' row offsets among them; the leaf-probability gather holds one float
# per pair and class
_ROUTE_PAIRS = 1 << 14
# bootstrap slots (trees times rows) grown in one batch: the batch state is
# a few integer arrays over all slots, so this bounds its memory; a 5-fold
# search of a few hundred rows still fits in one batch
BATCH_SLOTS = 1 << 17


def check_labels(labels: np.ndarray) -> None:
    """Raise ValueError unless the integer ``labels`` are a non-empty, strictly increasing row, as np.unique gives."""
    if labels.ndim != 1 or not labels.size or np.any(np.diff(labels) <= 0):
        raise ValueError("class_labels must be non-empty and strictly increasing integers")


@dataclass(frozen=True, eq=False)
class DecisionTree(Record):
    """One tree's slice of a forest's node store (see ``RandomForestModel.trees``):
    ``feature`` per node, ``threshold`` and ``left`` per split node, ``counts`` per leaf."""

    feature: np.ndarray = field(metadata={"dtype": np.int32})
    threshold: np.ndarray = field(metadata={"dtype": np.int64})
    left: np.ndarray = field(metadata={"dtype": np.int32})
    counts: np.ndarray = field(metadata={"dtype": np.int64})

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]


@dataclass(frozen=True, eq=False)
class PackedForest(Record):
    """Forests of ``n_trees`` trees each as flat node arrays with global child
    offsets, reading side-by-side feature columns (see the module docstring)."""

    feature: np.ndarray = field(metadata={"dtype": np.intp})
    threshold: np.ndarray = field(metadata={"dtype": np.int64})
    left: np.ndarray = field(metadata={"dtype": np.int64})
    proba: np.ndarray = field(metadata={"dtype": np.float64})
    roots: np.ndarray = field(metadata={"dtype": np.int64})
    n_trees: int
    n_features: int


@dataclass(frozen=True, eq=False)
class RandomForestModel(Record):
    """A forest as one node store (see the module docstring)."""

    feature: np.ndarray = field(metadata={"dtype": np.int32})
    threshold: np.ndarray = field(metadata={"dtype": np.int64})
    left: np.ndarray = field(metadata={"dtype": np.int32})
    counts: np.ndarray = field(metadata={"dtype": np.int64})
    tree_sizes: np.ndarray = field(metadata={"dtype": np.int64})
    class_labels: np.ndarray = field(metadata={"dtype": np.int64})
    n_features: int
    seed: int

    def check(self):
        check_labels(self.class_labels)
        if self.n_features < 1:
            raise ValueError(f"a forest reads at least one feature, got n_features={self.n_features}")
        self.check_store()

    @property
    def n_classes(self) -> int:
        return self.class_labels.shape[0]

    @property
    def n_trees(self) -> int:
        return self.tree_sizes.shape[0]

    @property
    def trees(self) -> list[DecisionTree]:
        """Each tree's slice of the store, in tree order."""
        nodes = np.cumsum(self.tree_sizes)[:-1]
        # the split nodes before each tree's first node, and so the leaves
        split = np.searchsorted(np.flatnonzero(self.feature >= 0), nodes)
        cuts = {"feature": nodes, "threshold": split, "left": split, "counts": nodes - split}
        parts = (np.split(getattr(self, f.name), cuts[f.name]) for f in fields(DecisionTree))
        return [DecisionTree(*arrays) for arrays in zip(*parts)]

    def check_store(self) -> None:
        """Raise ValueError unless the node store holds one well-formed routing
        graph per tree, checked on tree-local ids, with a threshold and a left
        child per split node and leaf counts of exact probabilities, one row per leaf."""
        sizes, n = self.tree_sizes, self.feature.size
        # every size in [1, n] before anything sums or repeats the sizes: read from a file, they can wrap an int64 sum
        sized = sizes.ndim == 1 and sizes.size and np.all((sizes >= 1) & (sizes <= n))
        split = np.flatnonzero(self.feature >= 0)
        n_splits = split.shape[0]
        shapes = [a.shape for a in (self.feature, self.threshold, self.left, self.counts)]
        if not sized or shapes != [(sizes.sum(),), (n_splits,), (n_splits,), (n - n_splits, self.n_classes)]:
            raise ValueError(f"a forest needs tree sizes in [1, {n}] that sum to its node count, a threshold and "
                             f"a left child per split node and a class count row per leaf; arrays of shapes "
                             f"{shapes} do not hold {n} nodes, {n_splits} of them splits, of {self.n_classes} "
                             "classes")
        # each split node's id within its tree, and its tree's node count
        node = split - np.repeat(np.cumsum(sizes) - sizes, sizes).take(split)
        end = np.repeat(sizes, sizes).take(split)
        # both children, left and left + 1, above their parent and inside the tree: routing always terminates
        if not np.all((self.left > node) & (self.left < end - 1)):
            raise ValueError("tree child pointers must point forward within the tree")
        if np.any(self.feature >= self.n_features):
            raise ValueError(f"split feature outside [0, {self.n_features})")
        # below 2**52 a leaf's int64 count sum cannot wrap, and the float64 division into probabilities is exact;
        # the float total is exact below 2**53 in any summation order and never rounds a total of 2**52 below it
        counts = self.counts
        total = counts @ np.ones(counts.shape[1])
        if not (counts.min() >= 0 and counts.max() < 2**52 and total.min() > 0 and total.max() < 2**52):
            raise ValueError("class counts must lie in [0, 2**52), with a positive row at every leaf, "
                             "below 2**52 in all")


def pack_forests(forests: list[RandomForestModel]) -> PackedForest:
    """Pack ``forests``, at least one, of one tree count and class labels (as a model's are), for one routing walk.

    The stores are concatenated and spread to one entry per node: split
    fields are scattered to the split nodes and leaf probabilities to the
    leaves, each found once with ``flatnonzero``."""
    feature, threshold, left, counts, sizes = (np.concatenate([getattr(f, name) for f in forests])
                                               for name in ("feature", "threshold", "left", "counts", "tree_sizes"))
    n = feature.shape[0]
    roots = np.cumsum(sizes) - sizes
    split, leaf = np.flatnonzero(feature >= 0), np.flatnonzero(feature < 0)
    proba = np.zeros((n, counts.shape[1]))
    proba[leaf] = counts / counts.sum(axis=1, keepdims=True)
    widths = np.array([f.n_features for f in forests])
    # every node reads its own forest's columns, which sit after the earlier forests' columns; a leaf
    # routes to itself: it reads its forest's first column, and no int64 symbol exceeds its threshold
    packed_feature = np.repeat(np.cumsum(widths) - widths, [f.feature.shape[0] for f in forests])
    packed_feature[split] += feature.take(split)
    packed_threshold = np.full(n, np.iinfo(np.int64).max)
    packed_threshold[split] = threshold
    packed_left = np.arange(n)
    packed_left[split] = left + np.repeat(roots, sizes).take(split)
    return PackedForest(packed_feature, packed_threshold, packed_left, proba, roots, forests[0].n_trees,
                        int(widths.sum()))


class _ForestSpec(NamedTuple):
    """One forest of a growth batch: its training rows of X and their class ids (intp arrays), and its trees."""

    rows: np.ndarray
    y_enc: np.ndarray
    n_classes: int
    seed: int
    trees: range


def _best_splits(X, sample_row, sample_cls, starts, sizes, counts, feats, n_values, n_classes):
    """Best (feature slot, value) of each node, or slot -1 for a leaf.

    Nodes are given by their sample ranges, class counts over ``n_classes``
    columns (zero for a class the node's forest lacks) and sorted feature
    subsets ``feats`` (nodes, m). Rows of each split node are partitioned in
    place, left rows first; returns (slot, value, left class counts) per
    node. ``X`` holds value ranks and ``n_values`` is the number of distinct
    values: a boundary beyond a forest's own values leaves no row on the
    right, so it is never valid and never chosen.

    The boundary after value (rank) v is ranked by S = (A n_r
    + B n_l) / (n_l n_r), where A and B sum the squared integer class
    counts left and right of it: the Gini decrease is parent_gini - 1 + S / n.
    The first maximum of S wins, lowest feature slot, then lowest value; a
    boundary after a value absent from the node repeats the score before it,
    so the winner follows a present value. The node splits there when the
    decrease is positive: n**2 n_l n_r times it is the sum over classes of
    (L_c n_r - R_c n_l)**2, so the test compares int64 products of at most
    n**2, and a boundary with an empty side never passes. S's int64
    numerator and denominator are exact in float64 and the division rounds
    correctly, so equal scores stay equal; distinct ones differ by at least
    16 / n**4, above S's float spacing n 2**-52 for nodes of up to about
    2,350 rows, where the float argmax is the exact first maximum.
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
        cls = sample_cls.take(pos)
        vals = X.take(sample_row.take(pos)[:, None] * X.shape[1] + feats.take(nodes, axis=0).take(seg, axis=0))
        # class-major (class, node, feature * value) cells: a class sum is a whole-array add
        codes = ((cls[:, None] * q + seg[:, None]) * m + np.arange(m)) * n_values + vals
        hist = np.bincount(codes.ravel(), minlength=c * q * m * n_values).reshape(c, q, m, n_values)
        cum = hist.cumsum(axis=3).reshape(c, q, -1)
        n_l = cum.sum(axis=0)
        n_r = n_node[:, None] - n_l
        node_counts = counts.take(nodes, axis=0).T
        a, b = np.square(cum).sum(axis=0), np.square(node_counts[:, :, None] - cum).sum(axis=0)
        # an invalid boundary (n_l or n_r zero) has A * n_r + B * n_l = 0 and scores 0
        score = (a * n_r + b * n_l) / np.maximum(n_l * n_r, 1)
        # first maximum: lowest feature (subsets are sorted), then lowest threshold
        flat = score.argmax(axis=1)
        left = cum[:, np.arange(q), flat]
        n_left = n_l[np.arange(q), flat]
        # a positive decrease: some class's left share differs from its right share
        split = np.any(left * (n_node - n_left) != (node_counts - left) * n_left, axis=0)
        fi, v = np.divmod(flat, n_values)
        slot[nodes[split]] = fi[split]
        value[nodes[split]] = v[split]
        left_counts[nodes[split]] = left[:, split].T

        moved = np.flatnonzero(split.take(seg))
        seg, pos = seg.take(moved), pos.take(moved)
        go_left = vals.take(moved * m + fi.take(seg)) <= v.take(seg)
        order = np.argsort(seg * 2 + ~go_left, kind="stable")
        sample_row[pos] = sample_row[pos[order]]
        sample_cls[pos] = sample_cls[pos[order]]
    return slot, value, left_counts


def _grow(X, specs: list[_ForestSpec], max_features: int, values: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Grow every tree of every spec together, on the value ranks ``X`` of the
    sorted distinct ``values``; returns each spec's node store: its four store
    arrays, leaf counts cut to its own classes, and its trees' node counts."""
    d = X.shape[1]
    tree_spec = np.repeat(np.arange(len(specs)), [len(s.trees) for s in specs])
    n_trees = tree_spec.shape[0]
    n_classes = max(spec.n_classes for spec in specs)

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

    # the batch's nodes: tree t holds nodes bounds[t]:bounds[t + 1], in node id order
    bounds = np.concatenate([[0], np.cumsum(n_nodes)])
    trees, node, node_counts = map(np.concatenate, zip(*placed))
    counts, threshold = np.empty((bounds[-1], n_classes), dtype=np.int64), np.empty(bounds[-1], dtype=np.int64)
    counts[bounds[trees] + node] = node_counts
    feature, left = np.full(bounds[-1], -1, dtype=np.int32), np.empty(bounds[-1], dtype=np.int32)
    trees, node, split_feature, split_threshold, split_left = map(np.concatenate, zip(*splits))
    at = bounds[trees] + node
    feature[at], threshold[at], left[at] = split_feature, split_threshold, split_left
    # the store keeps split fields at split nodes and counts at leaves, each in node order
    split, leaf = np.flatnonzero(feature >= 0), np.flatnonzero(feature < 0)
    threshold, left, counts = threshold.take(split), left.take(split), counts.take(leaf, axis=0)
    # a spec's trees, and so its nodes, its splits and its leaves, are contiguous
    first_tree = [0, *accumulate(len(spec.trees) for spec in specs)]
    first_node = bounds[first_tree]
    first_split = np.searchsorted(split, first_node)
    edges = np.column_stack([first_tree, first_node, first_split, first_node - first_split]).tolist()
    return [(feature[n0:n1], threshold[s0:s1], left[s0:s1], counts[l0:l1, :spec.n_classes], n_nodes[t0:t1])
            for spec, (t0, n0, s0, l0), (t1, n1, s1, l1) in zip(specs, edges, edges[1:])]


def _batches(specs: list[_ForestSpec], max_slots: int):
    """Split the trees of ``specs``, in order, into batches of at most
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
            batch.append((k, spec._replace(trees=range(start, stop))))
            used += (stop - start) * n
            start = stop
    if batch:
        yield batch


def _pool_workers(threads: int | None) -> int:
    """The one worker rule, for threads and processes alike: ``threads``, at least 1 and at most the
    core count; 1 means this thread only."""
    return max(1, min(threads or 1, os.cpu_count() or 1))


def _check_symbols(values: np.ndarray) -> None:
    """Raise ValueError unless every symbol is an integer in [0, 2**52), which casts to
    one exact int64 from an int or a float and so compares exactly with the thresholds. NaN fails."""
    if not (np.all((values >= 0) & (values < 2**52)) and np.all(values % 1 == 0)):
        raise ValueError("symbol values must be non-negative integers below 2**52")


def fit_forests(X, y, row_sets, seeds, n_trees: int = 100, threads: int | None = None) -> list[RandomForestModel]:
    """Fit one forest per row set of (X, y), grown together in batches.

    Forest ``k`` is exactly ``fit_forest(X[row_sets[k]], y[row_sets[k]],
    n_trees, seeds[k])``; seeds lie in [0, 2**32). A batch holds consecutive
    forests' trees, of any class counts, up to ``BATCH_SLOTS`` bootstrap rows,
    which bounds the growth state; the returned forests are the caller's to
    bound. With ``threads`` > 1, capped at the core count (``_pool_workers``),
    batches of at most a thread's share of the rows grow on a pool of that
    many threads. The forests do not depend on the batches.
    """
    X = np.asarray(X)
    y = np.asarray(y)
    # a float or bool label would be cast quietly, and a uint64 one above int64 would wrap
    if y.dtype.kind not in "iu" or y.dtype.kind == "u" and y.size and y.max() >= 1 << 63:
        raise ValueError(f"class labels must be integers within int64, got {y.dtype}: {y.ravel()[:5].tolist()}")
    y = y.astype(np.int64)
    if X.ndim != 2 or 0 in X.shape:
        raise EmptyTrainingSet("training set must contain at least one row and one column")
    if y.shape != (X.shape[0],):
        raise ValueError("y length must match rows of X")
    if len(seeds) != len(row_sets):
        raise ValueError("need one seed per row set")
    # a bool or a fraction would be read as a count or a seed quietly, 1.5 as 1
    if not _is_int(n_trees) or not 1 <= n_trees <= 1 << 32:
        raise ValueError(f"n_trees must be an integer in [1, 2**32], got {n_trees!r}: the forest stream keys a "
                         "tree by one 32-bit word")
    bad = [seed for seed in seeds if not _is_int(seed) or not 0 <= seed < 1 << 32]
    if bad:
        raise ValueError(f"seeds must be integers in [0, 2**32), got {bad[0]!r}")
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

    workers = _pool_workers(threads)
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
    depth limit, minimum split size 2. Exact ties in Gini decrease go to the
    lowest feature index, then the lowest threshold, for nodes of up to
    about 2,350 bootstrap rows (see ``_best_splits``).
    """
    X = np.asarray(X)
    n_rows = X.shape[0] if X.ndim == 2 else 0
    return fit_forests(X, y, [np.arange(n_rows)], [seed], n_trees, threads)[0]


def _leaves(packed: PackedForest, X: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Global leaf index reached by each (tree, row), tree-major; ``offset``
    holds each pair's offset of its row in the flat ``X``.

    Every node, a leaf too, routes from ``i`` to ``left[i] + (x > threshold[i])``,
    a leaf to itself. The root level takes every pair's root step at once from
    whole columns of ``X``. While at least half of the pairs sit at a split
    node, a level step moves every pair one level down. Once fewer do, the walk
    moves only the pairs still at a split, dropping each pair that reaches a
    leaf. A pair is at a leaf when ``left`` of its node is that node, read from
    the ``left`` gather the next step uses; every gather is a ``take``.
    """
    roots = packed.roots
    feature, left, threshold = packed.feature, packed.left, packed.threshold
    right = X.T.take(feature.take(roots), axis=0) > threshold.take(roots)[:, None]
    node = (left.take(roots)[:, None] + right).ravel()
    flat = X.ravel()
    step = left.take(node)
    while 2 * np.count_nonzero(step == node) <= node.shape[0]:
        node = step + (flat.take(offset + feature.take(node)) > threshold.take(node))
        step = left.take(node)
    active = np.flatnonzero(step != node)
    while active.shape[0]:
        at = node.take(active)
        nxt = left.take(at) + (flat.take(offset.take(active) + feature.take(at)) > threshold.take(at))
        node[active] = nxt
        active = active[left.take(nxt) != nxt]
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
    n_pack = packed.roots.shape[0]
    n_forests = n_pack // packed.n_trees
    out = np.empty((X.shape[0], n_forests, packed.proba.shape[1]))
    step = max(1, _ROUTE_PAIRS // n_pack)
    offset = None
    for lo in range(0, X.shape[0], step):
        chunk = X[lo:lo + step]
        # each pair's row offset, built again only for a ragged last chunk
        if offset is None or offset.shape[0] != n_pack * chunk.shape[0]:
            offset = np.tile(np.arange(0, chunk.size, X.shape[1]), n_pack)
        leaves = _leaves(packed, chunk, offset).reshape(n_forests, packed.n_trees, chunk.shape[0])
        # (forest, tree, row, class): each forest summed over its own trees in
        # tree order, as routing that forest alone would. Not class-major: when
        # one forest routes one row, that layout puts the tree axis innermost,
        # and numpy sums an innermost axis pairwise, in another order.
        out[lo:lo + step] = packed.proba.take(leaves, axis=0).sum(axis=1).transpose(1, 0, 2)
    out /= packed.n_trees
    return out


def predict_proba(model: RandomForestModel, X) -> np.ndarray:
    """Average leaf class frequencies over trees; rows sum to 1."""
    return predict_packed(pack_forests([model]), X)[:, 0]


def predict(model: RandomForestModel, X) -> np.ndarray:
    """Argmax class labels (lowest label wins intra-row probability ties)."""
    return model.class_labels[np.argmax(predict_proba(model, X), axis=1)]

