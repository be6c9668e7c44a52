import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeye import forest, lenses
from coeye.ensemble import _json_default
from coeye.errors import EmptyTrainingSet, FeatureMismatch
from coeye.forest import (
    _batches,
    _ForestSpec,
    fit_forest,
    fit_forests,
    forest_from_dict,
    predict,
    predict_proba,
)
from coeye.stream import Streams
from tests.forest_reference import reference_fit_forest, reference_predict_proba


def reloaded(model):
    """``model`` written as the model file writes a forest, and read back."""
    return forest_from_dict(json.loads(json.dumps(model, default=_json_default)))


def candidate_fixture():
    """(X, y, row sets) of three 3-class forests that grow in one batch: binary
    columns and random labels, so many nodes find no split in their subset."""
    rng = np.random.default_rng(5)
    X = rng.integers(0, 2, size=(40, 16))
    y = rng.integers(0, 3, size=40)
    return X, y, [np.arange(40), np.arange(0, 40, 2), np.arange(5, 35)]


def separable_fixture(seed=0, rows_per_class=50, width=10):
    """Two symbol populations with disjoint value ranges."""
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.integers(0, 3, size=(rows_per_class, width)),
            rng.integers(4, 7, size=(rows_per_class, width)),
        ]
    )
    y = np.array([1] * rows_per_class + [2] * rows_per_class)
    return X, y


class TestFit:
    def test_single_class_pure_probability(self):
        X = np.random.default_rng(0).integers(0, 4, size=(12, 6))
        y = np.full(12, 3)
        model = fit_forest(X, y, n_trees=10, seed=1)
        proba = predict_proba(model, X)
        assert np.array_equal(proba, np.ones((12, 1)))
        assert np.all(predict(model, X) == 3)

    def test_separable_fixture_perfect_train_accuracy(self):
        X, y = separable_fixture()
        model = fit_forest(X, y, n_trees=100, seed=7)
        assert np.mean(predict(model, X) == y) == 1.0
        proba = predict_proba(model, X)
        assert np.all(np.argmax(proba, axis=1) == (y == 2).astype(int))

    def test_deterministic_given_seed(self):
        X, y = separable_fixture(seed=3)
        probe = np.random.default_rng(9).integers(0, 7, size=(20, 10))
        a = predict_proba(fit_forest(X, y, n_trees=30, seed=5), probe)
        b = predict_proba(fit_forest(X, y, n_trees=30, seed=5), probe)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        X, y = separable_fixture(seed=3)
        probe = np.random.default_rng(9).integers(0, 7, size=(50, 10))
        a = predict_proba(fit_forest(X, y, n_trees=5, seed=1), probe)
        b = predict_proba(fit_forest(X, y, n_trees=5, seed=2), probe)
        assert not np.array_equal(a, b)

    def test_worker_counts_bit_identical(self):
        import os

        X, y = separable_fixture(seed=4)
        probe = np.random.default_rng(2).integers(0, 7, size=(25, 10))
        reference = predict_proba(fit_forest(X, y, n_trees=40, seed=11, threads=1), probe)
        for threads in (2, os.cpu_count()):
            got = predict_proba(fit_forest(X, y, n_trees=40, seed=11, threads=threads), probe)
            assert np.array_equal(reference, got)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            fit_forest(np.empty((0, 4), dtype=int), np.empty(0, dtype=int))
        with pytest.raises(EmptyTrainingSet):
            fit_forest(np.empty((4, 0), dtype=int), np.array([0, 1, 0, 1]))

    def test_seeds_must_be_one_32_bit_word(self):
        X, y = separable_fixture(rows_per_class=5)
        with pytest.raises(ValueError):
            fit_forest(X, y, n_trees=2, seed=2**32)
        with pytest.raises(ValueError):
            fit_forests(X, y, [np.arange(10)], seeds=[2**32], n_trees=2)
        assert fit_forest(X, y, n_trees=2, seed=2**32 - 1).seed == 2**32 - 1

    def test_tree_count(self):
        X, y = separable_fixture(rows_per_class=5)
        assert len(fit_forest(X, y, n_trees=17, seed=0).trees) == 17

    def test_tree_count_capped_at_what_the_stream_keys(self):
        # refused before any growth: a tree is keyed by one 32-bit word
        X, y = separable_fixture(rows_per_class=5)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            fit_forests(X, y, [np.arange(10)], seeds=[0], n_trees=2**32 + 1)

    @pytest.mark.parametrize("call", ["fit_forest(X, y, 3, 0)", "fit_forests(X, y, [np.arange(4)], [0], 3)"],
                             ids=["fit_forest", "fit_forests"])
    def test_negative_symbols_refused_promptly(self, call):
        # a negative symbol lands in another feature's histogram cells; growth
        # then chose a split that sent every row left, and the child chose it
        # again, without end
        src = Path(forest.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        code = ("import numpy as np\nfrom coeye.forest import fit_forest, fit_forests\n"
                "X, y = np.array([[-1, 2], [3, -4], [0, 1], [2, 2]]), np.array([0, 1, 0, 1])\n" + call)
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
        assert result.returncode == 1
        assert "ValueError: symbol values must be non-negative" in result.stderr

    @pytest.mark.parametrize("X", [[[0.4], [0.6], [0.45], [0.7]], [[0, 1], [3, 0], [2.25, 1], [2, 0]],
                                   [[0, 1], [np.nan, 0], [2, 1], [2, 0]], [[0, 1], [np.inf, 0], [2, 1], [2, 0]],
                                   [[0, 1], [2.0**52, 0], [2, 1], [2, 0]], [[0, 1], [2**60, 0], [2, 1], [2, 0]]],
                             ids=["fractions", "one_fraction", "nan", "inf", "float_2**52", "int_2**60"])
    def test_non_integer_and_huge_symbols_refused(self, X):
        # fractions were cast to integers: the separable first case became all
        # zeros and grew one-leaf trees; below 2**52 every accepted symbol,
        # float or int, is one exact int64 and compares exactly with the thresholds
        with pytest.raises(ValueError, match="symbol values must be non-negative integers below 2\\*\\*52"):
            fit_forest(np.array(X), np.array([0, 1, 0, 1]), 3, 0)

    def test_integral_float_and_largest_symbols_accepted(self):
        X, y = separable_fixture(seed=4, rows_per_class=8)
        assert_same_forest(fit_forest(X, y, 6, 2), fit_forest(X.astype(np.float64), y, 6, 2))
        top = 2**52 - 1
        got = fit_forest(np.array([[top], [top - 1], [top], [top - 1]]), np.array([0, 1, 0, 1]), 1, 0)
        assert got.threshold[0] == top - 1

    def test_split_search_memory_follows_distinct_values(self):
        # the split histograms were dense over max(X) + 1 values: at 10**12
        # times a small problem's values they asked for terabytes
        src = Path(forest.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import numpy as np\nfrom coeye.forest import fit_forest\n"
            "rng = np.random.default_rng(3)\n"
            "X, y = rng.integers(0, 4, size=(30, 5)), rng.integers(0, 3, size=30)\n"
            "small, big = fit_forest(X, y, 10, 7), fit_forest(X * 10**12, y, 10, 7)\n"
            "inner = small.feature >= 0\n"
            "assert inner.any() and np.array_equal(small.feature, big.feature)\n"
            "assert np.array_equal(small.counts, big.counts) and np.array_equal(small.tree_sizes, big.tree_sizes)\n"
            "assert np.array_equal(small.threshold[inner] * 10**12, big.threshold[inner])\n"
            "assert np.all(big.threshold[~inner] == 0)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    def test_leaf_counts_positive(self):
        X, y = separable_fixture(seed=8, rows_per_class=10)
        model = fit_forest(X, y, n_trees=20, seed=0)
        for tree in model.trees:
            leaves = tree.feature < 0
            assert np.all(tree.counts[leaves].sum(axis=1) > 0)


class TestPredict:
    def test_rows_sum_to_one(self):
        X, y = separable_fixture(seed=2)
        model = fit_forest(X, y, n_trees=25, seed=3)
        probe = np.random.default_rng(0).integers(0, 7, size=(40, 10))
        proba = predict_proba(model, probe)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proba >= 0)

    def test_single_tree_pure_leaf_one_hot(self):
        X = np.array([[0, 0], [5, 5]])
        y = np.array([1, 2])
        model = fit_forest(X, y, n_trees=1, seed=21)
        proba = predict_proba(model, np.array([[0, 0], [5, 5]]))
        for row in proba:
            assert set(row.tolist()) <= {0.0, 1.0}

    def test_width_mismatch(self):
        X, y = separable_fixture()
        model = fit_forest(X, y, n_trees=2, seed=0)
        with pytest.raises(FeatureMismatch):
            predict_proba(model, np.zeros((3, 4), dtype=int))

    def test_non_integer_symbols_refused(self):
        # routing cast to int64, so 0.9 was routed as 0, NaN
        # became an arbitrary integer and the uint64 2**63 became -2**63
        model = fit_forest(np.array([[0], [1], [0], [1]]), np.array([0, 1, 0, 1]), n_trees=3, seed=0)
        for bad in (np.array([[0.9]]), np.array([[np.nan]]), np.array([[2**63]], dtype=np.uint64)):
            with pytest.raises(ValueError, match="symbol values must be non-negative integers"):
                predict(model, bad)
        assert predict(model, np.array([[1.0], [0.0]])).tolist() == [1, 0]
        assert predict(model, np.array([[1], [0]], dtype=np.uint8)).tolist() == [1, 0]

    @given(st.integers(0, 2**31 - 1), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_probability_rows_always_normalized(self, seed, n_classes):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 6, size=(20, 5))
        y = rng.integers(0, n_classes, size=20)
        model = fit_forest(X, y, n_trees=10, seed=seed)
        proba = predict_proba(model, rng.integers(0, 6, size=(10, 5)))
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)


class TestSerialization:
    def test_round_trip_predictions(self):
        X, y = separable_fixture(seed=6)
        model = fit_forest(X, y, n_trees=15, seed=2)
        clone = reloaded(model)
        assert_same_forest(model, clone)
        probe = np.random.default_rng(1).integers(0, 7, size=(30, 10))
        assert np.array_equal(predict_proba(model, probe), predict_proba(clone, probe))

    def test_file_holds_the_node_store_as_it_is(self):
        X, y = separable_fixture(seed=2)
        model = fit_forest(X, y, n_trees=6, seed=1)
        written = json.loads(json.dumps(model, default=_json_default))
        assert set(written) == {"feature", "threshold", "left", "counts", "tree_sizes", "class_labels", "n_features",
                                "seed"}
        assert written["tree_sizes"] == model.tree_sizes.tolist()
        assert written["left"] == model.left.tolist()
        # thresholds and class counts are whole numbers, written as JSON integers
        assert {type(v) for v in written["threshold"]} == {type(c) for row in written["counts"] for c in row} == {int}

    def test_trees_view_slices_the_store_in_tree_order(self):
        X, y = separable_fixture(seed=2)
        model = fit_forest(X, y, n_trees=6, seed=1)
        trees = model.trees
        assert [tree.n_nodes for tree in trees] == model.tree_sizes.tolist()
        for name in ("feature", "threshold", "left", "counts"):
            assert np.array_equal(np.concatenate([getattr(tree, name) for tree in trees]), getattr(model, name))


def assert_same_forest(expected, got):
    """Node stores, their dtypes and labels all equal."""
    assert np.array_equal(expected.class_labels, got.class_labels)
    assert (expected.n_features, expected.seed) == (got.n_features, got.seed)
    for name in ("feature", "threshold", "left", "counts", "tree_sizes"):
        x, y = getattr(expected, name), getattr(got, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name


def assert_same_proba(expected, got, probe):
    """Bit-identical probabilities, for the whole probe and for single rows."""
    assert np.array_equal(reference_predict_proba(expected, probe), predict_proba(got, probe))
    for row in probe[:3]:
        one = row.reshape(1, -1)
        assert np.array_equal(reference_predict_proba(expected, one), predict_proba(got, one))


@st.composite
def symbol_problems(draw, duplicated=False):
    rows = draw(st.integers(1, 40))
    width = draw(st.integers(1, 16))
    n_values = draw(st.integers(1, 7))
    n_classes = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, n_values, size=(rows, width))
    constant = rng.random(width) < 0.3
    X[:, constant] = rng.integers(0, n_values)
    if duplicated:
        # columns drawn with replacement: equal columns tie exactly across features
        X = X[:, rng.integers(0, width, size=width)]
    y = rng.integers(0, n_classes, size=rows) * 5 - 2
    return X, y, draw(st.integers(0, 10**6)), draw(st.integers(1, 12))


class TestEngineMatchesReference:
    """The batched engine reproduces the per-node reference grower and router exactly."""

    @given(symbol_problems())
    @settings(max_examples=60, deadline=None)
    def test_single_forest(self, problem):
        X, y, seed, trees = problem
        expected = reference_fit_forest(X, y, trees, seed)
        got = fit_forest(X, y, n_trees=trees, seed=seed)
        assert_same_forest(expected, got)
        probe = np.random.default_rng(seed).integers(0, X.max() + 2, size=(9, X.shape[1]))
        assert_same_proba(expected, got, probe)

    @given(symbol_problems(duplicated=True))
    @settings(max_examples=40, deadline=None)
    def test_duplicated_columns(self, problem):
        # the first maximum goes to the lowest feature slot among exact ties
        X, y, seed, trees = problem
        assert_same_forest(reference_fit_forest(X, y, trees, seed), fit_forest(X, y, n_trees=trees, seed=seed))

    def test_ten_classes_keep_the_float_sum_order(self):
        # numpy sums a contiguous axis of eight or more in pairwise blocks, not
        # left to right; with ten classes some exact ties between boundaries
        # round apart, and the engine must break them as the reference does
        rng = np.random.default_rng(2)
        X, y = rng.integers(0, 4, size=(40, 3)), rng.integers(0, 10, size=40)
        assert_same_forest(reference_fit_forest(X, y, 10, 2), fit_forest(X, y, n_trees=10, seed=2))

    @given(symbol_problems(), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_thread_ranges(self, problem, threads):
        X, y, seed, trees = problem
        assert_same_forest(reference_fit_forest(X, y, trees, seed),
                           fit_forest(X, y, n_trees=trees, seed=seed, threads=threads))

    @given(symbol_problems())
    @settings(max_examples=30, deadline=None)
    def test_fold_batch(self, problem):
        X, y, seed, trees = problem
        folds = np.arange(X.shape[0]) % 3
        row_sets = [np.flatnonzero(folds != f) for f in range(3)]
        row_sets = [rows for rows in row_sets if rows.shape[0]]
        seeds = [seed + k for k in range(len(row_sets))]
        for rows, s, got in zip(row_sets, seeds, fit_forests(X, y, row_sets, seeds, n_trees=trees)):
            expected = reference_fit_forest(X[rows], y[rows], trees, s)
            assert_same_forest(expected, got)
            assert_same_proba(expected, got, X)

    def test_leave_one_out_batch_mixes_class_and_value_counts(self):
        # row 0 holds the only class-9 label and the only symbol 6, so one
        # call grows the fold without it, with one class fewer and a smaller
        # alphabet, beside eleven folds with both
        rng = np.random.default_rng(4)
        X = rng.integers(0, 3, size=(12, 9))
        X[0, 4] = 6
        y = np.array([9] + [1, 2] * 5 + [1])
        row_sets = [np.delete(np.arange(12), k) for k in range(12)]
        models = fit_forests(X, y, row_sets, list(range(12)), n_trees=15)
        assert models[0].n_classes == 2 and models[1].n_classes == 3
        for k, rows in enumerate(row_sets):
            expected = reference_fit_forest(X[rows], y[rows], 15, k)
            assert_same_forest(expected, models[k])
            assert_same_proba(expected, models[k], X)

    def test_small_batches_split_trees_and_folds(self, monkeypatch):
        # 60 slots per batch: a 20-row forest of 7 trees spans three batches,
        # and two 4-row forests share one
        monkeypatch.setattr(forest, "BATCH_SLOTS", 60)
        rng = np.random.default_rng(8)
        X = rng.integers(0, 5, size=(24, 6))
        y = rng.integers(0, 3, size=24)
        row_sets = [np.arange(20), np.arange(20, 24), np.arange(18, 22)]
        for k, (rows, got) in enumerate(zip(row_sets, fit_forests(X, y, row_sets, [3, 4, 5], n_trees=7))):
            assert_same_forest(reference_fit_forest(X[rows], y[rows], 7, 3 + k), got)

    @pytest.mark.parametrize("rows, width", [(1, 5), (30, 1), (90, 12)])
    def test_small_batches_and_deep_trees(self, monkeypatch, rows, width):
        # a batch holds three full forests' rows
        monkeypatch.setattr(forest, "BATCH_SLOTS", 3 * rows)
        rng = np.random.default_rng(rows)
        X = rng.integers(0, 9, size=(rows, width))
        y = rng.integers(0, 4, size=rows)
        row_sets = [np.arange(rows), np.arange(rows)[::-2]]
        models = fit_forests(X, y, row_sets, [6, 7], n_trees=8)
        for k, (rs, got) in enumerate(zip(row_sets, models)):
            assert_same_forest(reference_fit_forest(X[rs], y[rs], 8, 6 + k), got)
        # random labels grow deep trees, which draw subsets over many rounds
        assert rows < 90 or models[0].tree_sizes.max() > 40

    def test_subsets_drawn_only_for_candidate_nodes(self, monkeypatch):
        # every node with two or more rows of two or more classes draws one
        # subset, whether it splits or stays an impure leaf; no other draws
        drawn = []
        subsets = Streams.subsets

        def counting(self, rows, *args):
            drawn.append(len(rows))
            return subsets(self, rows, *args)

        monkeypatch.setattr(Streams, "subsets", counting)
        models = fit_forests(*candidate_fixture(), [1, 2, 3], n_trees=30)
        leaf = np.concatenate([model.feature < 0 for model in models])
        impure = np.count_nonzero(np.concatenate([model.counts for model in models]), axis=1) >= 2
        assert np.count_nonzero(leaf & impure) > 10
        assert sum(drawn) == np.count_nonzero(~leaf) + np.count_nonzero(leaf & impure)

    def test_one_round_per_split_candidate_of_the_busiest_tree(self, monkeypatch):
        # leaves are recorded when their parent splits, so each round pops one
        # split candidate (an inner node or an impure leaf) of every unfinished
        # tree, and a batch runs as many rounds as its busiest tree has candidates
        rounds, batches = [], []
        best_splits, grow = forest._best_splits, forest._grow
        monkeypatch.setattr(forest, "_best_splits", lambda *args: rounds.append(1) or best_splits(*args))
        monkeypatch.setattr(forest, "_grow", lambda *args: batches.append(1) or grow(*args))
        models = fit_forests(*candidate_fixture(), [1, 2, 3], n_trees=30)
        candidates = [np.count_nonzero((tree.feature >= 0) | (np.count_nonzero(tree.counts, axis=1) >= 2))
                      for model in models for tree in model.trees]
        assert len(batches) == 1
        assert len(rounds) == max(candidates)

    def test_all_columns_constant(self):
        X = np.full((10, 4), 2)
        y = np.array([0, 1] * 5)
        expected = reference_fit_forest(X, y, 8, 3)
        got = fit_forest(X, y, n_trees=8, seed=3)
        assert_same_forest(expected, got)
        assert np.all(got.tree_sizes == 1)
        assert_same_proba(expected, got, X)

    def test_many_rows_many_trees(self):
        X, y = separable_fixture(seed=12, rows_per_class=60, width=14)
        y[::7] = 3
        expected = reference_fit_forest(X, y, 60, 21)
        got = fit_forest(X, y, n_trees=60, seed=21)
        assert_same_forest(expected, got)
        probe = np.random.default_rng(3).integers(0, 8, size=(1500, 14))
        assert_same_proba(expected, got, probe)

    def test_loaded_forest_routes_like_reference(self):
        X, y = separable_fixture(seed=5, rows_per_class=20)
        clone = reloaded(fit_forest(X, y, n_trees=12, seed=4))
        assert_same_proba(reference_fit_forest(X, y, 12, 4), clone, X)


def _spec(rows, trees, n_classes=1):
    return _ForestSpec(np.arange(rows), np.zeros(rows, dtype=np.int64), n_classes, 0, range(trees))


class TestBatches:
    def test_slots_bounded_and_every_tree_once(self):
        specs = [_spec(300, 100), _spec(5, 100), _spec(299, 100)]
        seen = {k: [] for k in range(len(specs))}
        for batch in _batches(specs, 4000):
            assert sum(len(part.trees) * part.rows.shape[0] for _, part in batch) <= 4000
            for k, part in batch:
                seen[k].extend(part.trees)
        assert all(seen[k] == list(range(100)) for k in seen)

    def test_tree_larger_than_bound_grows_alone(self):
        batches = list(_batches([_spec(50, 3)], 10))
        assert [[list(part.trees) for _, part in batch] for batch in batches] == [[[0]], [[1]], [[2]]]

    def test_batches_hold_one_class_count_in_class_count_order(self):
        # a leave-one-out call: the fold without a singleton class has one class fewer
        specs = [_spec(30, 10, 3), _spec(29, 10, 2), _spec(30, 10, 3)]
        seen = {k: [] for k in range(len(specs))}
        counts = []
        for batch in _batches(specs, 500):
            assert sum(len(part.trees) * part.rows.shape[0] for _, part in batch) <= 500
            assert len({part.n_classes for _, part in batch}) == 1
            counts.append(batch[0][1].n_classes)
            for k, part in batch:
                seen[k].extend(part.trees)
        assert counts == sorted(counts) and set(counts) == {2, 3}
        assert all(seen[k] == list(range(10)) for k in seen)


class TestLeaveOneOutMemory:
    """Leave-one-out grows and holds only a few forests at a time, with the same accuracy."""

    def test_groups_bounded_and_accuracy_unchanged(self, monkeypatch):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 6, size=(30, 8))
        y = rng.integers(0, 2, size=30)
        folds, trees = np.arange(30), 10
        calls = []

        def recording(X_, y_, row_sets, seeds, n_trees=100, threads=None):
            calls.append(sum(n_trees * len(rows) for rows in row_sets))
            return fit_forests(X_, y_, row_sets, seeds, n_trees, threads)

        monkeypatch.setattr(lenses, "BATCH_SLOTS", 1000)
        monkeypatch.setattr(lenses, "fit_forests", recording)
        acc = lenses.cross_val_accuracy(X, y, folds, trees, 5)
        assert len(calls) == 10 and max(calls) <= 1000
        correct = 0
        for f in range(30):
            rows = np.flatnonzero(folds != f)
            model = reference_fit_forest(X[rows], y[rows], trees, lenses._derived_seed(5, f))
            correct += int(model.class_labels[np.argmax(reference_predict_proba(model, X[f:f + 1]))] == y[f])
        assert acc == correct / 30
