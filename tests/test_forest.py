import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeye import forest, lenses
from coeye.errors import EmptyTrainingSet, FeatureMismatch, file_fields, model_record
from coeye.forest import (
    RandomForestModel,
    _batches,
    _ForestSpec,
    fit_forest,
    fit_forests,
    pack_forests,
    predict,
    predict_packed,
    predict_proba,
)
from coeye.stream import Streams
from tests.forest_reference import exact_best_split, reference_fit_forest, reference_predict_proba
from tests.test_ensemble import _recording_executor


def reloaded(model):
    """``model`` written as the model file writes a forest, and read back."""
    return model_record(RandomForestModel, json.loads(json.dumps(file_fields(model), default=np.ndarray.tolist)))


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

    def test_threads_capped_at_core_count(self, monkeypatch):
        pools = []
        monkeypatch.setattr(forest, "ThreadPoolExecutor", _recording_executor(pools))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        X, y = separable_fixture(rows_per_class=10, width=8)
        reference = predict_proba(fit_forest(X, y, n_trees=100, seed=3, threads=1), X)
        got = predict_proba(fit_forest(X, y, n_trees=100, seed=3, threads=64), X)
        assert pools == [2]
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

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, np.float64(1.0), "1"])
    def test_seeds_must_be_integers(self, seed):
        # 1.5 grew and recorded seed 1, and True grew as seed 1
        X, y = separable_fixture(rows_per_class=5)
        with pytest.raises(ValueError, match=re.escape(f"seeds must be integers in [0, 2**32), got {seed!r}")):
            fit_forest(X, y, n_trees=2, seed=seed)
        with pytest.raises(ValueError, match="seeds must be integers"):
            fit_forests(X, y, [np.arange(10), np.arange(4)], seeds=[0, seed], n_trees=2)

    @pytest.mark.parametrize("n_trees", [True, 2.0, 2.5, np.float64(2.0)])
    def test_tree_count_must_be_an_integer(self, n_trees):
        # True grew one tree
        X, y = separable_fixture(rows_per_class=5)
        with pytest.raises(ValueError, match=re.escape(f"n_trees must be an integer in [1, 2**32], got {n_trees!r}")):
            fit_forest(X, y, n_trees=n_trees, seed=0)

    def test_numpy_integer_seed_and_tree_count_accepted(self):
        X, y = separable_fixture(rows_per_class=5)
        model = fit_forest(X, y, n_trees=np.int64(3), seed=np.uint32(7))
        assert (model.n_trees, model.seed) == (3, 7)

    @pytest.mark.parametrize("y, row_sets, seeds, error, message", [
        (np.array([1, 2, 1]), [np.arange(4)], [0], ValueError, "y length must match rows of X"),
        (np.array([1, 2, 1, 2]), [np.arange(4), np.arange(2)], [0], ValueError, "need one seed per row set"),
        (np.array([1, 2, 1, 2]), [np.arange(4), np.arange(0)], [0, 1], EmptyTrainingSet, "at least one row$"),
    ], ids=["y_length", "seed_count", "empty_row_set"])
    def test_forests_refuse_mismatched_inputs(self, y, row_sets, seeds, error, message):
        with pytest.raises(error, match=message):
            fit_forests(np.array([[0, 1], [3, 0], [2, 1], [2, 0]]), y, row_sets, seeds, n_trees=2)

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

    @pytest.mark.parametrize("y", [[0.5, 1.5, 0.5, 1.5], [True, False, True, False], [0, np.nan, 0, 1],
                                   [0, 2**63, 0, 1], [0.0, 1.0, 0.0, 1.0],
                                   np.array([0, 2**63, 0, 1], dtype=np.uint64)],
                             ids=["fractions", "bool", "nan", "2**63", "whole_floats", "uint64_2**63"])
    def test_labels_must_be_integers_within_int64(self, y):
        # fractions were cast to 0 and 1, bools and whole floats trained as
        # integers, and NaN and 2**63 failed inside numpy's cast
        with pytest.raises(ValueError, match="^class labels must be integers within int64, got "):
            fit_forest(np.array([[0, 1], [3, 0], [2, 1], [2, 0]]), y, 3, 0)

    def test_labels_of_any_integer_dtype_accepted(self):
        X, y = separable_fixture(seed=5, rows_per_class=6)
        for dtype in (np.uint8, np.int32, np.uint64):
            assert_same_forest(fit_forest(X, y, 4, 1), fit_forest(X, y.astype(dtype), 4, 1))

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
            "assert np.any(small.feature >= 0) and np.array_equal(small.feature, big.feature)\n"
            "assert np.array_equal(small.counts, big.counts) and np.array_equal(small.tree_sizes, big.tree_sizes)\n"
            "assert np.array_equal(small.threshold * 10**12, big.threshold)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    def test_leaf_counts_positive(self):
        X, y = separable_fixture(seed=8, rows_per_class=10)
        model = fit_forest(X, y, n_trees=20, seed=0)
        for tree in model.trees:
            assert tree.counts.shape[0] == np.count_nonzero(tree.feature < 0)
            assert np.all(tree.counts.sum(axis=1) > 0)


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
    def test_hand_built_store_that_loops_refused(self):
        # a split whose left child is its own parent: routing a row never reached a leaf
        with pytest.raises(ValueError, match="point forward"):
            RandomForestModel(feature=[0, 0, -1], threshold=[0, 0], left=[1, 0], counts=[[1, 0]], tree_sizes=[3],
                              class_labels=[1, 2], n_features=1, seed=0)

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
        written = json.loads(json.dumps(file_fields(model), default=np.ndarray.tolist))
        assert set(written) == {"feature", "threshold", "left", "counts", "tree_sizes", "class_labels", "n_features",
                                "seed"}
        assert written["tree_sizes"] == model.tree_sizes.tolist()
        assert written["left"] == model.left.tolist()
        # thresholds and class counts are whole numbers, written as JSON integers
        assert {type(v) for v in written["threshold"]} == {type(c) for row in written["counts"] for c in row} == {int}

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_trees_view_slices_the_store_in_tree_order(self, data):
        X, y, seed, n_trees = data.draw(symbol_problems())
        model = fit_forest(X, y, n_trees=n_trees, seed=seed)
        trees = model.trees
        assert len(trees) == n_trees
        assert [tree.n_nodes for tree in trees] == model.tree_sizes.tolist()
        for name in ("feature", "threshold", "left", "counts"):
            assert np.array_equal(np.concatenate([getattr(tree, name) for tree in trees]), getattr(model, name))
        for tree in trees:
            splits = np.count_nonzero(tree.feature >= 0)
            # one threshold and left child per split node, one class count row per leaf
            assert tree.threshold.shape == tree.left.shape == (splits,)
            assert tree.counts.shape == (tree.n_nodes - splits, model.n_classes)


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
        # left to right; with ten classes a float Gini sum rounds some exact
        # ties apart, and the engine must still break them in the documented order
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
        splits = sum(np.count_nonzero(model.feature >= 0) for model in models)
        # the store keeps counts at leaves only
        impure_leaves = sum(np.count_nonzero(np.count_nonzero(model.counts, axis=1) >= 2) for model in models)
        assert impure_leaves > 10
        assert sum(drawn) == splits + impure_leaves

    def test_one_round_per_split_candidate_of_the_busiest_tree(self, monkeypatch):
        # leaves are recorded when their parent splits, so each round pops one
        # split candidate (an inner node or an impure leaf) of every unfinished
        # tree, and a batch runs as many rounds as its busiest tree has candidates
        rounds, batches = [], []
        best_splits, grow = forest._best_splits, forest._grow
        monkeypatch.setattr(forest, "_best_splits", lambda *args: rounds.append(1) or best_splits(*args))
        monkeypatch.setattr(forest, "_grow", lambda *args: batches.append(1) or grow(*args))
        models = fit_forests(*candidate_fixture(), [1, 2, 3], n_trees=30)
        candidates = [np.count_nonzero(tree.feature >= 0) + np.count_nonzero(np.count_nonzero(tree.counts, axis=1) >= 2)
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


def split_search(X, sample_row, y, feats, n_values, n_classes):
    """``_best_splits`` on one node holding the rows ``sample_row`` of the value ranks ``X``,
    classes ``y`` by sample; returns (slot, value, left counts, partitioned rows)."""
    sample_row, sample_cls = np.array(sample_row), np.array(y)
    counts = np.bincount(sample_cls, minlength=n_classes)[None]
    slot, value, left_counts = forest._best_splits(
        np.ascontiguousarray(X), sample_row, sample_cls, np.array([0]), np.array([sample_row.shape[0]]),
        counts, np.array([feats]), n_values, n_classes)
    return int(slot[0]), int(value[0]), left_counts[0].tolist(), sample_row


class TestBestSplits:
    """Every split is the first maximum of the exact Gini decrease, lowest feature slot, then lowest value."""

    def test_exact_tie_goes_to_the_lowest_feature_slot(self):
        # (f0, <= 1) and (f1, <= 1) both score S = 6 exactly
        X = np.array([[0, 1, 0, 1, 0, 0, 2, 0, 1], [2, 2, 0, 1, 1, 1, 0, 1, 2]]).T
        y = [0, 0, 1, 1, 1, 1, 0, 1, 1]
        assert exact_best_split(X, np.array(y), 3, 2) == (0, 1)
        slot, value, left_counts, rows = split_search(X, np.arange(9), y, [0, 1], 3, 2)
        assert (slot, value, left_counts) == (0, 1, [2, 6])
        # left rows first, each part in its old order
        assert rows.tolist() == [0, 1, 2, 3, 4, 5, 7, 8, 6]

    @given(st.integers(2, 12), st.integers(1, 4), st.integers(1, 4), st.integers(2, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_first_maximum_of_the_exact_gain(self, n, width, n_values, n_classes, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, n_values, size=(n, width))
        # columns drawn with replacement, so equal columns tie exactly
        X = X[:, rng.integers(0, width, size=width)]
        sample_row = rng.integers(0, n, size=n)
        y = rng.integers(0, n_classes, size=n)
        feats = np.sort(rng.choice(width, size=rng.integers(1, width + 1), replace=False))
        slot, value, left_counts, rows = split_search(X, sample_row, y, feats, n_values, n_classes)
        assert (slot, value) == (exact_best_split(X[sample_row][:, feats], y, n_values, n_classes) or (-1, 0))
        if slot >= 0:
            n_left = sum(left_counts)
            assert left_counts == np.bincount(y[X[sample_row, feats[slot]] <= value], minlength=n_classes).tolist()
            assert np.all(X[rows[:n_left], feats[slot]] <= value) and np.all(X[rows[n_left:], feats[slot]] > value)
        else:
            assert np.array_equal(rows, sample_row)


def random_tree(rng, shape, width, n_values, n_classes, depth):
    """One tree's store arrays, each split's children made together, left first.

    ``stump``: the root is a leaf; ``chain``: only left children split, down
    to ``depth``; ``complete``: every node above ``depth`` splits; ``random``:
    a node above ``depth`` splits with probability 0.6.
    """
    feature, threshold, left, level = [-1], [0], [-1], [0]
    node = 0
    while node < len(feature):
        d = level[node]
        # left children take odd ids
        splits = d < depth and (
            shape == "complete" or (shape == "chain" and (node == 0 or node % 2 == 1))
            or (shape == "random" and rng.random() < 0.6))
        if splits:
            feature[node], threshold[node], left[node] = int(rng.integers(width)), int(rng.integers(n_values)), len(feature)
            feature += [-1, -1]
            threshold += [0, 0]
            left += [-1, -1]
            level += [d + 1, d + 1]
        node += 1
    inner = np.array(feature) >= 0
    leaves = np.count_nonzero(~inner)
    counts = rng.integers(0, 4, size=(leaves, n_classes))
    counts[np.arange(leaves), rng.integers(n_classes, size=leaves)] += 1
    return (np.array(feature, dtype=np.int32), np.array(threshold, dtype=np.int64)[inner],
            np.array(left, dtype=np.int32)[inner], counts.astype(np.int64))


def random_forest(rng, shapes, width, n_values, n_classes, depth):
    """A forest of one tree per entry of ``shapes``, its store checked as a model file's is."""
    trees = [random_tree(rng, shape, width, n_values, n_classes, depth) for shape in shapes]
    sizes = np.array([tree[0].shape[0] for tree in trees], dtype=np.int64)
    model = RandomForestModel(*map(np.concatenate, zip(*trees)), sizes, np.arange(n_classes), width, 0)
    model.check_store()
    return model


class TestPackedRouting:
    """Routing a pack of forests, root level, level steps and compacted walk,
    gives each forest the reference router's probabilities bit for bit."""

    @staticmethod
    def assert_routes_like_reference(forests, X, route_pairs):
        widths = np.cumsum([0] + [f.n_features for f in forests])
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(forest, "_ROUTE_PAIRS", route_pairs)
            got = predict_packed(pack_forests(forests), X)
        for k, model in enumerate(forests):
            assert np.array_equal(got[:, k], reference_predict_proba(model, X[:, widths[k]:widths[k + 1]]))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_packs(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # past numpy's 8-term pairwise block, so a change of tree-summation order shows
        n_trees = data.draw(st.integers(1, 12))
        n_classes = data.draw(st.integers(2, 4))
        n_values = data.draw(st.integers(1, 6))
        depth = data.draw(st.integers(1, 8))
        shape = st.sampled_from(["stump", "chain", "complete", "random"])
        forests = [random_forest(rng, data.draw(st.lists(shape, min_size=n_trees, max_size=n_trees)),
                                 data.draw(st.integers(1, 5)), n_values, n_classes, depth)
                   for _ in range(data.draw(st.integers(1, 4)))]
        rows = data.draw(st.integers(1, 40))
        X = rng.integers(0, n_values, size=(rows, sum(f.n_features for f in forests)))
        # small chunks: a forest's rows span several of them, the last one ragged
        route_pairs = data.draw(st.integers(1, 3 * n_trees * len(forests)))
        self.assert_routes_like_reference(forests, X, route_pairs)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_leaves_are_the_self_loops(self, data):
        # the walk reads a leaf only from left[i] == i, and the vote only from leaf rows
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_trees, n_classes = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 4))
        shape = st.sampled_from(["stump", "chain", "complete", "random"])
        forests = [random_forest(rng, data.draw(st.lists(shape, min_size=n_trees, max_size=n_trees)),
                                 data.draw(st.integers(1, 5)), 6, n_classes, data.draw(st.integers(1, 6)))
                   for _ in range(data.draw(st.integers(1, 3)))]
        packed = pack_forests(forests)
        leaf = np.concatenate([f.feature for f in forests]) < 0
        counts = np.concatenate([f.counts for f in forests])
        assert np.array_equal(packed.left == np.arange(leaf.shape[0]), leaf)
        assert not packed.proba[~leaf].any()
        # the store's counts hold one row per leaf, in node order
        for row, i in enumerate(np.flatnonzero(leaf).tolist()):
            assert np.array_equal(packed.proba[i], counts[row] / counts[row].sum())

    def test_no_level_step(self):
        # after the root level, stumps and depth-1 trees leave no pair at a split
        rng = np.random.default_rng(1)
        forests = [random_forest(rng, ["stump", "complete", "stump"], 3, 4, 3, 1) for _ in range(3)]
        self.assert_routes_like_reference(forests, rng.integers(0, 4, size=(25, 9)), 1 << 14)

    def test_level_steps_reach_the_deepest_leaf(self):
        # complete trees keep every pair at a split until all reach their leaves together
        rng = np.random.default_rng(2)
        forests = [random_forest(rng, ["complete"] * 4, 5, 6, 2, 7) for _ in range(2)]
        self.assert_routes_like_reference(forests, rng.integers(0, 6, size=(30, 10)), 1 << 14)

    def test_leaf_roots_beside_deep_chains(self):
        # stump roots keep their node while chains leave most pairs to the compacted walk
        rng = np.random.default_rng(3)
        forests = [random_forest(rng, ["stump", "chain", "stump", "chain"], 2, 3, 2, 12) for _ in range(2)]
        self.assert_routes_like_reference(forests, rng.integers(0, 3, size=(17, 4)), 5)

    @pytest.mark.parametrize("shapes, depth, route_pairs", [
        (["stump", "complete", "complete"], 5, 1 << 14),  # leaf pairs ride along in the level steps
        (["stump", "chain", "chain", "stump"], 12, 7),  # and in the root level before the compacted walk
    ])
    def test_extreme_signed_symbols_stay_at_leaves(self, shapes, depth, route_pairs):
        # signed-integer symbols skip the symbol check, so no int64 may move a pair off its leaf,
        # which reads its forest's first column
        rng = np.random.default_rng(4)
        forests = [random_forest(rng, shapes, 3, 5, 3, depth) for _ in range(2)]
        extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, 2, 4])
        self.assert_routes_like_reference(forests, rng.choice(extremes, size=(29, 6)), route_pairs)


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

    def test_batches_follow_spec_order_and_mix_class_counts(self):
        # a class a forest lacks counts zero in a wider batch, so forests of any class counts grow together
        specs = [_spec(30, 10, 3), _spec(29, 10, 2), _spec(30, 10, 3)]
        seen = {k: [] for k in range(len(specs))}
        order, mixed = [], False
        for batch in _batches(specs, 500):
            assert sum(len(part.trees) * part.rows.shape[0] for _, part in batch) <= 500
            mixed |= len({part.n_classes for _, part in batch}) == 2
            for k, part in batch:
                order.append(k)
                seen[k].extend(part.trees)
        assert order == sorted(order) and mixed
        assert all(seen[k] == list(range(10)) for k in seen)


class TestLeaveOneOutMemory:
    """A plan of as many folds as rows, which replaced leave-one-out, grows and holds only a few forests at a
    time, with the same accuracy."""

    def test_groups_bounded_and_accuracy_unchanged(self, monkeypatch):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 6, size=(30, 8))
        y = rng.integers(0, 2, size=30)
        plan, trees = lenses.fold_plan(y, 30, 5), 10
        calls = []

        def recording(X_, y_, row_sets, seeds, n_trees=100, threads=None):
            calls.append(sum(n_trees * len(rows) for rows in row_sets))
            return fit_forests(X_, y_, row_sets, seeds, n_trees, threads)

        monkeypatch.setattr(lenses, "BATCH_SLOTS", 1000)
        monkeypatch.setattr(lenses, "fit_forests", recording)
        acc = lenses.cross_val_accuracy(X, y, plan, trees, 5)
        # 1000 slots hold the 10 trees of at most three 29-row training sets
        per_call = 1000 // (trees * max(len(rows) for _, rows, _ in plan))
        assert len(plan) > per_call and len(calls) == -(-len(plan) // per_call) and max(calls) <= 1000
        correct = 0
        for f, rows, held in plan:
            model = reference_fit_forest(X[rows], y[rows], trees, lenses._derived_seed(5, f))
            correct += int(np.sum(model.class_labels[np.argmax(reference_predict_proba(model, X[held]), axis=1)]
                                  == y[held]))
        assert acc == correct / 30
