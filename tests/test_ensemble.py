import contextlib
import dataclasses
import errno
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coeye import (
    CoEyeConfig,
    Dataset,
    classify,
    load_model,
    load_ucr,
    predict_dataset,
    save_model,
    train,
    vote,
)
import coeye
from coeye import ensemble, lenses, symbolic
from coeye.cli import main
from coeye.ensemble import MODEL_FORMAT_VERSION, CoEyeModel, Eye, _restrict, eye_probabilities
from coeye.errors import (
    EmptyEnsemble,
    EmptyTrainingSet,
    EqualDepthDegenerate,
    ModelParseError,
    NoMinorityClass,
    NonFiniteSeries,
    SeriesLengthMismatch,
    UnsupportedModelVersion,
)
from coeye.forest import RandomForestModel, _grow, fit_forest, predict_proba
from coeye.lenses import SAX, SFA, Lens, LensGrid, _choose_lenses, search_lenses_random
from coeye.symbolic import fit_lenses, fit_sax_binning, symbolize
from tests.conftest import SMALL_CONFIG, synth_dataset
from tests.forest_reference import reference_predict_proba
from tests.vote_reference import vote_reference

UCR_DIR = Path(__file__).parent / "data" / "ucr"


def two_class_rows(*rows):
    """Build a (k, 2) probability matrix from per-row (winner, confidence)."""
    out = []
    for winner, conf in rows:
        row = [1 - conf, 1 - conf]
        row[winner] = conf
        out.append(row)
    return np.asarray(out) / np.asarray(out).sum(axis=1, keepdims=True)


class TestVote:
    def test_worked_example_second_round(self):
        # SAX: C1@0.8, C2@0.9 | SFA: C1@0.8, C2@0.6, C1@0.7 -> C1 in round two
        matrix = np.array(
            [
                [0.8, 0.2],
                [0.1, 0.9],
                [0.8, 0.2],
                [0.4, 0.6],
                [0.7, 0.3],
            ]
        )
        result = vote(matrix, sax_count=2, seed=0, class_labels=[1, 2])
        assert result.label == 1
        assert result.round == "second"

    def test_unanimous_first_round(self):
        matrix = np.array(
            [
                [0.1, 0.1, 0.8],
                [0.2, 0.2, 0.6],
                [0.3, 0.1, 0.6],
            ]
        )
        result = vote(matrix, sax_count=1, seed=0)
        assert result.label == 2
        assert result.round == "first"
        assert result.confidence == pytest.approx(0.8)

    def test_fallback_higher_confidence_wins(self):
        # SAX best C1@0.9 (second C3); SFA best C2@0.7 (second C1): disagree
        # twice, SAX's greater round-1 confidence settles it
        matrix = np.array(
            [
                [0.90, 0.05, 0.05],
                [0.10, 0.20, 0.70],
                [0.10, 0.70, 0.20],
                [0.60, 0.30, 0.10],
            ]
        )
        result = vote(matrix, sax_count=2, seed=0)
        assert result.label == 0
        assert result.round == "fallback"
        assert result.confidence == pytest.approx(0.9)

    def test_internal_tie_settled_by_other_representation(self):
        # SFA rows tie at 0.61 voting different classes while SAX points at
        # class 0 with more confidence: outcome is class 0 on every path
        matrix = np.array(
            [
                [0.90, 0.10],
                [0.80, 0.20],
                [0.61, 0.39],
                [0.39, 0.61],
            ]
        )
        for seed in range(25):
            assert vote(matrix, sax_count=2, seed=seed).label == 0

    def test_single_representation_returned_directly(self):
        matrix = two_class_rows((1, 0.7), (0, 0.6))
        sax_only = vote(matrix, sax_count=2, seed=0)
        assert sax_only.label == 1 and sax_only.round == "first"
        sfa_only = vote(matrix, sax_count=0, seed=0)
        assert sfa_only.label == 1 and sfa_only.round == "first"

    def test_round1_agreement_dominates(self):
        # both blocks' best rows vote class 1; the rest votes class 0 loudly
        matrix = np.array(
            [
                [0.2, 0.8],
                [0.55, 0.45],
                [0.25, 0.75],
                [0.6, 0.4],
                [0.6, 0.4],
            ]
        )
        result = vote(matrix, sax_count=2, seed=0)
        assert result.label == 1
        assert result.round == "first"
        assert result.confidence == pytest.approx(0.8)

    def test_disputed_best_uses_frequency(self):
        # SAX has three rows tied at 0.8: two vote class 0, one votes class 2
        matrix = np.array(
            [
                [0.8, 0.1, 0.1],
                [0.8, 0.15, 0.05],
                [0.1, 0.1, 0.8],
                [0.7, 0.2, 0.1],
            ]
        )
        result = vote(matrix, sax_count=3, seed=0)
        assert result.label == 0
        assert result.round == "first"

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyEnsemble):
            vote(np.empty((0, 2)), sax_count=0, seed=0)

    @pytest.mark.parametrize("shape", [(3, 0), (2, 3, 0)])
    def test_matrix_without_class_columns_rejected(self, shape):
        # it used to fail in numpy's max with "zero-size array to reduction operation"
        with pytest.raises(EmptyEnsemble, match="no class columns"):
            vote(np.zeros(shape), sax_count=1, seed=0)

    @pytest.mark.parametrize("sax_count", [-1, 3])
    def test_sax_count_outside_the_matrix_refused(self, sax_count):
        with pytest.raises(ValueError, match="^sax_count outside the matrix$"):
            vote(two_class_rows((0, 0.9), (1, 0.8)), sax_count=sax_count, seed=0)

    @pytest.mark.parametrize("sax_count", [True, False, 1.5, 1.0, "1"])
    def test_sax_count_must_be_an_integer(self, sax_count):
        # True was read as one SAX eye, and 1.5 failed inside numpy's slicing
        with pytest.raises(ValueError, match=re.escape(f"sax_count must be an integer, got {sax_count!r}")):
            vote(two_class_rows((0, 0.9), (1, 0.8)), sax_count=sax_count, seed=0)

    def test_numpy_integer_sax_count_accepted(self):
        matrix = two_class_rows((0, 0.9), (1, 0.8))
        assert vote(matrix, sax_count=np.int64(1), seed=0) == vote(matrix, sax_count=1, seed=0)

    @pytest.mark.parametrize("class_labels", [[5], [5, 9, 11], [[5, 9]], [1.5, 2.7]])
    def test_class_labels_must_name_each_class(self, class_labels):
        # one label too few used to raise an untyped IndexError, one too many was ignored,
        # and a fraction was truncated, so 2.7 was served as 2
        with pytest.raises(ValueError, match="class_labels"):
            vote([[0.2, 0.8], [0.3, 0.7]], 1, class_labels=class_labels)

    @pytest.mark.parametrize("matrix, row", [
        (np.full((3, 2), np.nan), 0),
        ([[0.3, 0.7], [np.inf, 0.5]], 1),
        ([[0.3, 0.7], [0.5, -np.inf]], 1),
        ([[0.3, 0.7], [-1.0, 2.0]], 1),
        ([[0.3, 0.7], [0.2, 0.8], [0.0, 1.0 + 2**-52]], 2),
        # alone it voted 0, in a stack 1
        ([[0.3, 0.7], [np.nan, 0.5], [0.2, 0.8]], 1),
    ])
    def test_non_probabilities_refused_naming_the_row(self, matrix, row):
        # each used to give a label, with a confidence of nan, inf or 2.0
        matrix = np.asarray(matrix, dtype=np.float64)
        with pytest.raises(ValueError, match=rf"^row {row} holds"):
            vote(matrix, 1)
        stack = np.stack([np.full_like(matrix, 0.5), matrix])
        with pytest.raises(ValueError, match=rf"^row {row} of matrix 1 holds"):
            vote(stack, 1)

    def test_certain_rows_accepted(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert vote(matrix, 1, seed=0).confidence == 1.0
        assert len(vote(np.stack([matrix, matrix]), 1, seed=0)) == 2

    def test_class_labels_mapped(self):
        matrix = two_class_rows((0, 0.9), (0, 0.8))
        result = vote(matrix, sax_count=1, seed=0, class_labels=[5, 9])
        assert result.label == 5
        assert result.sax_label == 5 and result.sfa_label == 5

    def test_seeded_tie_break_deterministic(self):
        # exact confidence tie with disagreeing labels on both rounds
        matrix = np.array(
            [
                [0.7, 0.3],
                [0.3, 0.7],
            ]
        )
        outcomes = {vote(matrix, sax_count=1, seed=3).label for _ in range(5)}
        assert len(outcomes) == 1

    @given(
        matrix=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 8), st.integers(2, 4)),
            elements=st.floats(0.01, 1.0, width=64),
        ),
        seed=st.integers(0, 100),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_permutation_invariant_within_blocks(self, matrix, seed, data):
        matrix = matrix / matrix.sum(axis=1, keepdims=True)
        k = matrix.shape[0]
        sax_count = data.draw(st.integers(0, k))
        rng = np.random.default_rng(data.draw(st.integers(0, 999)))
        shuffled = matrix.copy()
        rng.shuffle(shuffled[:sax_count])
        rng.shuffle(shuffled[sax_count:])
        a = vote(matrix, sax_count, seed=seed)
        b = vote(shuffled, sax_count, seed=seed)
        assert (a.label, a.round, a.confidence) == (b.label, b.round, b.confidence)

    @given(
        matrix=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 8), st.just(2)),
            elements=st.floats(0.01, 1.0, width=64),
        ),
        sax_count=st.integers(1, 7),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=120, deadline=None)
    def test_binary_result_is_one_of_the_block_bests(self, matrix, sax_count, seed):
        matrix = matrix / matrix.sum(axis=1, keepdims=True)
        sax_count = min(sax_count, matrix.shape[0] - 1)
        result = vote(matrix, sax_count, seed=seed)
        assert result.label in {result.sax_label, result.sfa_label}


def _assert_matches_reference(stack, sax_count, seed, class_labels):
    """Batch and one-row votes equal the reference vote in every field, or all raise EmptyEnsemble."""
    if stack.shape[1] == 0:
        with pytest.raises(EmptyEnsemble):
            vote(stack, sax_count, seed=seed, class_labels=class_labels)
        with pytest.raises(EmptyEnsemble):
            vote_reference(stack[0], sax_count, seed=seed, class_labels=class_labels)
        return
    expected = [vote_reference(m, sax_count, seed=seed, class_labels=class_labels) for m in stack]
    batch = vote(stack, sax_count, seed=seed, class_labels=class_labels)
    singles = [vote(m, sax_count, seed=seed, class_labels=class_labels) for m in stack]
    assert batch == expected
    assert singles == expected
    for p in batch + singles:
        assert type(p.label) is int and type(p.confidence) is float
        assert all(label is None or type(label) is int for label in (p.sax_label, p.sfa_label))


class TestVoteMatchesReference:
    """The batch vote and its one-row call reproduce the scalar reference vote, tie draws included."""

    @given(
        stack=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(2, 4)),
            # a coarse grid, so that equal confidences and tie draws are common
            elements=st.integers(0, 4).map(lambda v: v / 4),
        ),
        seed=st.integers(0, 50),
        representation=st.sampled_from(["both", "sax", "sfa"]),
        labelled=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_every_field_matches(self, stack, seed, representation, labelled, data):
        sax_count = data.draw(st.integers(0, stack.shape[1]))
        class_labels = [3 * j + 10 for j in range(stack.shape[2])] if labelled else None
        sliced, sax_count = _restrict(stack, sax_count, representation)
        _assert_matches_reference(sliced, sax_count, seed, class_labels)

    @pytest.mark.parametrize("classes", [2, 3])
    def test_many_rows_every_sax_count(self, classes):
        rng = np.random.default_rng(classes)
        stack = rng.integers(0, 5, size=(300, 7, classes)) / 4
        for sax_count in range(8):
            for representation in ("both", "sax", "sfa"):
                sliced, count = _restrict(stack, sax_count, representation)
                _assert_matches_reference(sliced, count, 4, None)

    def test_tie_draws_follow_each_row_stream(self):
        # every row needs draws: SAX ties at the best, SFA ties at the best,
        # and equal round-1 confidences send disagreeing rows to the coin flip
        stack = np.array([[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]] * 5)
        expected = [vote_reference(m, 2, seed=9) for m in stack]
        assert vote(stack, 2, seed=9) == expected
        assert len({(p.label, p.sax_label, p.sfa_label) for p in expected}) == 1


class TestTrain:
    def test_balanced_training_reports_zero_smote(self, waves, small_config):
        model = train(waves, small_config)
        assert model.smote_report.smote_percentage == 0.0
        assert model.n == waves.n
        assert np.array_equal(model.class_labels, [1, 2])

    def test_eye_count_identity_and_order(self, waves, small_config):
        model = train(waves, small_config)
        assert len(model.eyes) == model.sax_count + model.sfa_count
        assert model.sax_count >= 1 and model.sfa_count >= 1
        flags = [e.lens.s for e in model.eyes]
        assert flags == sorted(flags)  # all SAX eyes precede all SFA eyes

    def test_same_seed_byte_identical_models(self, waves, small_config, tmp_path):
        train(waves, small_config)
        save_model(train(waves, small_config), tmp_path / "a.json")
        save_model(train(waves, small_config), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_imbalanced_training_oversamples(self):
        ds = synth_dataset("waves", seed=5, per_class=8)
        unbalanced = Dataset(np.vstack([ds.X, ds.X[:2]]), np.concatenate([ds.y, [3, 3]]))
        config = CoEyeConfig(seed=1, **SMALL_CONFIG)
        model = train(unbalanced, config)
        assert model.smote_report.smote_percentage > 0
        assert np.array_equal(model.class_labels, [1, 2, 3])

    def test_smote_off(self):
        ds = synth_dataset("waves", seed=5, per_class=8)
        unbalanced = Dataset(np.vstack([ds.X, ds.X[:2]]), np.concatenate([ds.y, [3, 3]]))
        config = CoEyeConfig(seed=1, smote=False, **SMALL_CONFIG)
        model = train(unbalanced, config)
        assert model.smote_report.smote_percentage == 0.0

    @pytest.mark.parametrize("k", [0, -3])
    def test_smote_k_below_one_refused(self, k):
        # numpy used to fail inside the neighbour draw, with its own message
        with pytest.raises(ValueError, match="smote_k"):
            CoEyeConfig(smote_k=k)

    @pytest.mark.parametrize("field, value", [
        ("seed", True), ("trees", True), ("folds", 5.0), ("smote_k", False), ("threads", True), ("threads", 2.5),
        ("sax_alphas", (3.0,)), ("sfa_alphas", (True, 4)), ("sax_word_lengths", (8.0,)),
        ("sfa_word_lengths", ("10",)), ("smote", 1),
        # folds=None trained until the fold assignment divided by it; threads=False read as 1
        ("folds", None), ("threads", False),
    ])
    def test_config_refuses_non_integer_and_bool_fields(self, field, value):
        # seed=True trained and saved a file that load_model refused, and an
        # alphabet of 3.0 failed inside the search with numpy's own TypeError
        with pytest.raises(TypeError, match=r"must be integers|smote must be a bool|CoEyeConfig\.\w+ must be"):
            CoEyeConfig(**{field: value})

    @pytest.mark.parametrize("rows, strategy, error, message", [
        (1, "search", EmptyTrainingSet, "at least two series"),
        (20, "grid", ValueError, "unknown lens strategy 'grid'"),
    ], ids=["one_series", "unknown_strategy"])
    def test_refused_before_any_work(self, waves, small_config, rows, strategy, error, message):
        with pytest.raises(error, match=message):
            train(Dataset(waves.X[:rows], waves.y[:rows]), small_config, lens_strategy=strategy)

    def test_single_class_rejected(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(6, 16)), np.ones(6, dtype=int))
        with pytest.raises(NoMinorityClass):
            train(ds, CoEyeConfig(seed=0, **SMALL_CONFIG))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, waves, small_config, bad):
        X = waves.X.copy()
        X[3, 5] = bad
        with pytest.raises(NonFiniteSeries):
            train(Dataset(X, waves.y), small_config)

    def test_each_grid_point_scored_once_and_sfa_lenses_keep_dc(self, waves, small_config, monkeypatch):
        score, fit = lenses.cross_val_accuracy, symbolic.fit_lenses
        scored, fitted = [], []

        def counted(symbols, *args):
            scored.append(symbols.shape)
            return score(symbols, *args)

        def counted_fit(X, lens_set, *args):
            fitted.append(len(lens_set))
            return fit(X, lens_set, *args)

        monkeypatch.setattr(lenses, "cross_val_accuracy", counted)
        for module in (lenses, coeye.ensemble):  # ensemble no longer imports it: a refit there would be counted
            monkeypatch.setattr(module, "fit_lenses", counted_fit, raising=False)
        model = train(waves, dataclasses.replace(small_config, threads=1))
        monkeypatch.undo()
        grid = LensGrid.from_config(small_config)
        assert model.smote_report.smote_percentage == 0.0  # the search saw waves itself
        assert len(scored) == len(grid.sax_pairs(waves.n)) + len(grid.sfa_pairs(waves.n))
        # one fit for the SAX grid and one for the SFA grid, whose binnings the eyes keep
        assert fitted == [len(grid.sax_pairs(waves.n)), len(grid.sfa_pairs(waves.n))]
        sfa_lenses = [e.lens for e in model.eyes if e.lens.s == SFA]
        assert sfa_lenses and not any(lens.drop_dc for lens in sfa_lenses)
        assert sfa_lenses == [lens for lens, _, _ in _choose_lenses(waves, SFA, small_config, None)]

    def test_warnings_do_not_depend_on_the_worker_count(self):
        # the search used to fit each grid point in a worker, whose warnings reached only its own stderr
        train_set = load_ucr(UCR_DIR / "BeetleFly_TRAIN.tsv")
        grid = dict(sax_alphas=(4, 22), sfa_alphas=(4, 21, 22), sfa_word_lengths=(10, 50, 90))
        seen = {}
        for threads in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                train(train_set, CoEyeConfig(seed=0, threads=threads, **grid))
            seen[threads] = [(w.category, str(w.message)) for w in caught]
        assert seen[1] == seen[2]
        # 20 rows: alphabet 21 warns once, in the one fit of its grid; 22 gives 21's view and is never fitted
        assert [message for _, message in seen[1]] == [
            f"equal-depth binning with 20 series and {alpha} bins is degenerate" for alpha in (21,)]
        assert {category for category, _ in seen[1]} == {EqualDepthDegenerate}

    @pytest.mark.parametrize("strategy", ["search", "random"])
    def test_one_fit_per_representation_and_the_eyes_keep_it(self, waves, small_config, monkeypatch, strategy):
        # train fitted the chosen lenses again, after the search had fitted its grid
        fit, choose, grow = symbolic.fit_lenses, lenses._choose_lenses, coeye.ensemble.fit_forest
        fitted, chosen, grown = [], [], []

        def counted_fit(X, lens_set, *args):
            fitted.append({lens.s for lens in lens_set})
            return fit(X, lens_set, *args)

        def recorded_choose(*args):
            out = choose(*args)
            chosen.extend(out)
            return out

        def recorded_grow(symbols, *args):
            grown.append(symbols)
            return grow(symbols, *args)

        monkeypatch.setattr(lenses, "fit_lenses", counted_fit)
        monkeypatch.setattr(coeye.ensemble, "_choose_lenses", recorded_choose)
        monkeypatch.setattr(coeye.ensemble, "fit_forest", recorded_grow)
        model = train(waves, dataclasses.replace(small_config, threads=1), lens_strategy=strategy)
        monkeypatch.undo()
        assert fitted == [{SAX}, {SFA}]
        assert [eye.lens for eye in model.eyes] == [lens for lens, _, _ in chosen]
        for eye, (_, binning, symbols), grown_on in zip(model.eyes, chosen, grown, strict=True):
            assert eye.binning is binning and grown_on is symbols
        if strategy == "random":
            assert [eye.lens for eye in model.eyes] == [
                lens for rep in (SAX, SFA) for lens in search_lenses_random(waves, rep, small_config)]

    def test_random_strategy_trains(self, waves):
        config = CoEyeConfig(seed=2, **SMALL_CONFIG)
        model = train(waves, config, lens_strategy="random")
        assert len(model.eyes) >= 1
        assert all(l.cv_accuracy == 0.0 for l in (e.lens for e in model.eyes))


class TestClassify:
    def test_prediction_fields(self, waves, small_config):
        model = train(waves, small_config)
        pred = classify(model, waves.X[0])
        per_eye = eye_probabilities(model, waves.X[0])[0]
        assert pred.label in model.class_labels
        assert 0.0 <= pred.confidence <= 1.0
        assert pred.round in ("first", "second", "fallback")
        assert per_eye.shape == (len(model.eyes), 2)
        assert np.allclose(per_eye.sum(axis=1), 1.0, atol=1e-9)

    def test_accurate_on_separable_fixture(self, waves, small_config):
        model = train(waves, small_config)
        test = synth_dataset("waves", seed=99)
        preds = predict_dataset(model, test)
        accuracy = np.mean([p.label == y for p, y in zip(preds, test.y)])
        assert accuracy >= 0.9

    def test_length_mismatch(self, waves, small_config):
        model = train(waves, small_config)
        with pytest.raises(SeriesLengthMismatch):
            classify(model, np.zeros(waves.n + 1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, waves, small_config, bad):
        model = train(waves, small_config)
        row = waves.X[0].copy()
        row[7] = bad
        with pytest.raises(NonFiniteSeries):
            classify(model, row)
        with pytest.raises(NonFiniteSeries):
            predict_dataset(model, np.vstack([waves.X[1], row]))

    def test_single_eye_model_is_argmax(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.integers(0, 2, (10, 4)), rng.integers(2, 4, (10, 4))])
        y = np.array([0] * 10 + [1] * 10)
        lens = Lens(SAX, 4, 4)
        binning = fit_sax_binning(np.array([-2.0, 2.0]), 4, "gaussian")
        forest = fit_forest(X, y, n_trees=10, seed=0)
        model = CoEyeModel(
            eyes=[Eye(lens, binning, forest)],
            class_labels=np.array([0, 1]),
            n=4,
            config=CoEyeConfig(seed=0, trees=10),
        )
        probe = np.array([5.0, -1.0, 2.0, 0.5])
        pred = classify(model, probe)
        assert pred.label == int(np.argmax(eye_probabilities(model, probe)[0, 0]))

    def test_representation_restriction(self, waves, small_config):
        model = train(waves, small_config)
        matrix = eye_probabilities(model, waves.X[:1])[0]
        full = classify(model, waves.X[0])
        sax_only = classify(model, waves.X[0], representation="sax")
        sfa_only = classify(model, waves.X[0], representation="sfa")
        assert sax_only.label == vote(matrix[: model.sax_count], model.sax_count,
                                      seed=model.config.seed, class_labels=model.class_labels).label
        assert sfa_only.label == vote(matrix[model.sax_count :], 0,
                                      seed=model.config.seed, class_labels=model.class_labels).label
        assert full.label in {sax_only.label, sfa_only.label}
        with pytest.raises(ValueError, match="unknown representation 'SAX'"):
            predict_dataset(model, waves.X[:2], representation="SAX")

    def test_deterministic_across_calls(self, waves, small_config):
        model = train(waves, small_config)
        batch = [p.label for p in predict_dataset(model, waves)]
        singles = [classify(model, waves.X[i]).label for i in range(len(waves))]
        assert batch == singles


    def test_one_dimensional_array_is_one_row(self, waves, small_config):
        model = train(waves, small_config)
        preds = predict_dataset(model, waves.X[3])
        assert preds == [classify(model, waves.X[3])]

    def test_classify_rejects_a_matrix_naming_its_shape(self, waves, small_config):
        model = train(waves, small_config)
        with pytest.raises(SeriesLengthMismatch, match=r"\(2, 32\)"):
            classify(model, waves.X[:2])


@pytest.fixture(scope="module")
def ucr_models():
    """Small models of the bundled Chinatown and BeetleFly sets, with their test splits."""
    out = {}
    for name, extra in (("Chinatown", {}), ("BeetleFly", {"sfa_word_lengths": (10, 50, 130)})):
        train_set = load_ucr(UCR_DIR / f"{name}_TRAIN.tsv")
        out[name] = (train(train_set, CoEyeConfig(seed=1, **SMALL_CONFIG, **extra)),
                     load_ucr(UCR_DIR / f"{name}_TEST.tsv"))
    return out


def _per_eye(model, X):
    """Per-eye probabilities the slow way: each eye symbolizes the rows and routes its own forest."""
    return np.stack([predict_proba(eye.forest, symbolize(X, [eye.lens], [eye.binning])) for eye in model.eyes],
                    axis=1)


class TestServingMatchesPerEye:
    """One serving pass over the model gives what each eye gives on its own, bit for bit."""

    @pytest.mark.parametrize("name", ["Chinatown", "BeetleFly"])
    def test_bundled_models(self, ucr_models, name):
        model, test_set = ucr_models[name]
        assert np.array_equal(eye_probabilities(model, test_set.X), _per_eye(model, test_set.X))

    def test_eyes_of_different_widths_and_tree_counts(self):
        data = synth_dataset("waves", seed=3, n=24)
        # shuffled labels on short words of small alphabets leave impure
        # leaves, so the order in which tree probabilities are summed shows
        y = np.random.default_rng(5).permutation(data.y)
        eyes = []
        # a model holds its SAX eyes first and config.trees trees per eye
        for lens in (Lens(SAX, 2, 3), Lens(SAX, 5, 24), Lens(SFA, 3, 10), Lens(SFA, 2, 2, drop_dc=True),
                     Lens(SFA, 4, 10)):
            ((binning, symbols),) = fit_lenses(data.X, [lens])
            eyes.append(Eye(lens, binning, fit_forest(symbols, y, n_trees=20, seed=lens.w)))
        config = CoEyeConfig(seed=0, trees=20)
        model = CoEyeModel(eyes=eyes, class_labels=np.array([1, 2]), n=24, config=config)
        probe = synth_dataset("waves", seed=4, n=24).X
        assert model.packed.n_features == 3 + 24 + 10 + 2 + 10
        got = eye_probabilities(model, probe)
        assert np.array_equal(got, _per_eye(model, probe))
        # and the per-tree reference router, which sums each forest's trees in order
        reference = [reference_predict_proba(eye.forest, symbolize(probe, [eye.lens], [eye.binning])) for eye in eyes]
        assert np.array_equal(got, np.stack(reference, axis=1))
        # every forest of the pack is summed over one tree count, so an eye with another count is refused
        eyes[-1] = dataclasses.replace(eyes[-1], forest=fit_forest(symbols, y, n_trees=3, seed=10))
        with pytest.raises(ValueError, match="tree count"):
            CoEyeModel(eyes=eyes, class_labels=np.array([1, 2]), n=24, config=config)

    def test_classify_equals_predict_dataset_on_every_row(self, ucr_models):
        model, test_set = ucr_models["Chinatown"]
        batch = predict_dataset(model, test_set)
        matrices = eye_probabilities(model, test_set.X)
        for i, expected in enumerate(batch):
            single = classify(model, test_set.X[i])
            assert (single.label, single.confidence, single.round, single.sax_label, single.sfa_label) == (
                expected.label, expected.confidence, expected.round, expected.sax_label, expected.sfa_label)
            assert np.array_equal(eye_probabilities(model, test_set.X[i])[0], matrices[i])

    def test_one_fft_and_one_znormalize_per_call(self, ucr_models, monkeypatch):
        model, test_set = ucr_models["Chinatown"]
        sfa_words = {(e.lens.w, e.lens.drop_dc) for e in model.eyes if e.lens.s == SFA}
        assert len(sfa_words) > 1 and model.sax_count > 1
        calls = {"fft": 0, "znormalize_rows": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
        monkeypatch.setattr(symbolic, "znormalize_rows", counted("znormalize_rows", symbolic.znormalize_rows))
        eye_probabilities(model, test_set.X[:5])
        assert calls == {"fft": 1, "znormalize_rows": 1}
        classify(model, test_set.X[0])
        assert calls == {"fft": 2, "znormalize_rows": 2}


class TestPersistence:
    def test_round_trip_prediction_identical(self, waves, small_config, tmp_path):
        model = train(waves, small_config)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        rng = np.random.default_rng(0)
        probes = rng.normal(size=(100, waves.n))
        before = [classify(model, p) for p in probes]
        after = [classify(clone, p) for p in probes]
        assert [(p.label, p.confidence, p.round) for p in before] == [
            (p.label, p.confidence, p.round) for p in after
        ]

    def test_version_field_required_and_checked(self, waves, small_config, tmp_path):
        model = train(waves, small_config)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 4

        payload["format_version"] = 999
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(UnsupportedModelVersion):
            load_model(bad)

        # format 3 wrote every forest array per node: no reader is kept for it
        payload["format_version"] = 3
        for eye in payload["eyes"]:
            _format_3_forest(eye["forest"])
        old = tmp_path / "v3.json"
        old.write_text(json.dumps(payload))
        with pytest.raises(UnsupportedModelVersion, match="format version 3, expected 4"):
            load_model(old)
        series = tmp_path / "series.tsv"
        series.write_text("\t".join(["0.5"] * waves.n) + "\n")
        assert main(["predict", "--model", str(old), "--input", str(series)]) == 2

    def test_version_1_file_refused(self, waves, small_config, tmp_path):
        # format 1 wrote each forest as one record per tree; no reader is kept for it
        path = tmp_path / "model.json"
        save_model(train(waves, small_config), path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 1
        for eye in payload["eyes"]:
            forest = _format_3_forest(eye["forest"])
            forest["right"] = [child + 1 if child >= 0 else -1 for child in forest["left"]]
            cuts = np.cumsum(forest.pop("tree_sizes"))[:-1]
            columns = {name: np.split(np.array(forest.pop(name)), cuts)
                       for name in ("feature", "threshold", "left", "right", "counts")}
            forest["trees"] = [dict(zip(columns, arrays)) for arrays in zip(*columns.values())]
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(payload, default=np.ndarray.tolist))
        with pytest.raises(UnsupportedModelVersion):
            load_model(old)
        series = tmp_path / "series.tsv"
        series.write_text("\t".join(["0.5"] * waves.n) + "\n")
        assert main(["predict", "--model", str(old), "--input", str(series)]) == 2

    def test_version_2_file_refused(self, waves, small_config, tmp_path):
        # format 2 wrote a right child array, thresholds as symbol + 0.5 and float class counts
        path = tmp_path / "model.json"
        save_model(train(waves, small_config), path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 2
        for eye in payload["eyes"]:
            forest = _format_3_forest(eye["forest"])
            forest["right"] = [child + 1 if child >= 0 else -1 for child in forest["left"]]
            forest["threshold"] = [t + 0.5 if f >= 0 else 0.0 for f, t in zip(forest["feature"], forest["threshold"])]
            forest["counts"] = [[float(c) for c in row] for row in forest["counts"]]
        old = tmp_path / "v2.json"
        old.write_text(json.dumps(payload))
        with pytest.raises(UnsupportedModelVersion, match="format version 2, expected 4"):
            load_model(old)
        series = tmp_path / "series.tsv"
        series.write_text("\t".join(["0.5"] * waves.n) + "\n")
        assert main(["predict", "--model", str(old), "--input", str(series)]) == 2

    def test_failed_save_keeps_the_earlier_file(self, waves, small_config, tmp_path, monkeypatch):
        # the file was opened with "w", so a write that failed part-way left half a model and no earlier one
        path = tmp_path / "model.json"
        model = train(waves, small_config)
        save_model(model, path)
        before = path.read_bytes()

        class HalfWriter:
            """A file that writes half its text, then fails as a full disk does."""

            def __init__(self, *args, **kwargs):
                self.fh = open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ensemble, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_model(dataclasses.replace(model, dataset_name="other"), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        monkeypatch.undo()
        save_model(dataclasses.replace(model, dataset_name="other"), path)
        assert load_model(path).dataset_name == "other"
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_directory_target_named_and_left_clean(self, waves, small_config, tmp_path):
        # the error named the temporary file beside the directory, not the directory
        target = tmp_path / "out.json"
        target.mkdir()
        model = train(waves, small_config)
        with pytest.raises(IsADirectoryError, match="out.json: it is a directory") as caught:
            save_model(model, target)
        assert ".tmp" not in str(caught.value)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert not any(target.iterdir())

    def test_empty_path_refused_before_any_file(self, waves, small_config, tmp_path, monkeypatch):
        # it wrote a temporary file in the working directory, then failed to rename it to ""
        monkeypatch.chdir(tmp_path)
        model = train(waves, small_config)
        opened = []
        monkeypatch.setattr(ensemble, "open", lambda *a, **k: opened.append(a) or open(*a, **k), raising=False)
        with pytest.raises(FileNotFoundError, match="^cannot save the model to an empty path$"):
            save_model(model, "")
        assert opened == [] and not any(tmp_path.iterdir())

    def test_longest_legal_name_saved(self, waves, small_config, tmp_path):
        # the temporary file was named "<path>.<16 hex>.tmp", 21 bytes past a name the file system takes
        name = "m" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 5) + ".json"
        model = train(waves, small_config)
        save_model(model, tmp_path / name)
        assert load_model(tmp_path / name).eyes[0].lens == model.eyes[0].lens
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_truncated_file_rejected(self, waves, small_config, tmp_path):
        model = train(waves, small_config)
        path = tmp_path / "model.json"
        save_model(model, path)
        data = path.read_bytes()
        trunc = tmp_path / "trunc.json"
        trunc.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelParseError):
            load_model(trunc)

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("definitely not json {{{")
        with pytest.raises(ModelParseError):
            load_model(path)

    def test_deeply_nested_file_rejected(self, tmp_path):
        # json.load gave up with RecursionError, an untyped error
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ModelParseError, match="not a valid model file"):
            load_model(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "noversion.json"
        path.write_text(json.dumps({"eyes": []}))
        with pytest.raises(ModelParseError):
            load_model(path)

    def test_malformed_payload_rejected(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"format_version": MODEL_FORMAT_VERSION, "eyes": [{"lens": {}}]}))
        with pytest.raises(ModelParseError):
            load_model(path)


def _format_3_forest(forest):
    """Rewrite a format-4 forest as format 3 wrote it, every array per node: a
    leaf's threshold 0 and left child -1, a split node's counts the sum of its children's."""
    feature = forest["feature"]
    threshold, left, counts = (iter(forest[name]) for name in ("threshold", "left", "counts"))
    per_node = {"threshold": [next(threshold) if f >= 0 else 0 for f in feature],
                "left": [next(left) if f >= 0 else -1 for f in feature],
                "counts": [None if f >= 0 else next(counts) for f in feature]}
    root = 0
    for size in forest["tree_sizes"]:
        # children follow their parent, so each split node sums children already summed
        for node in reversed(range(root, root + size)):
            if feature[node] >= 0:
                child = root + per_node["left"][node]
                per_node["counts"][node] = [a + b for a, b in zip(*per_node["counts"][child:child + 2])]
        root += size
    forest.update(per_node)
    return forest


def _corrupt_first_split(payload, mutate):
    """Apply ``mutate(forest, tree, root, split)`` to the first tree whose root
    splits: ``root`` is that tree's first node in the forest's ``feature``
    array, and the tree's child ids count from it; ``split`` is the root's
    entry in ``threshold`` and ``left``."""
    for eye in payload["eyes"]:
        forest, root = eye["forest"], 0
        for tree, size in enumerate(forest["tree_sizes"]):
            if forest["feature"][root] >= 0:
                mutate(forest, tree, root, sum(f >= 0 for f in forest["feature"][:root]))
                return payload
            root += size
    raise AssertionError("no split tree in the model")


def _first_leaf(forest, root):
    """(node, counts row) of the first leaf at or after node ``root``."""
    leaf = forest["feature"].index(-1, root)
    return leaf, sum(f < 0 for f in forest["feature"][:leaf])


def _self_loop(forest, tree, root, split):
    forest["left"][split] = 0


def _child_out_of_range(forest, tree, root, split):
    forest["left"][split] = forest["tree_sizes"][tree] + 5


def _right_child_out_of_tree(forest, tree, root, split):
    # the left child is the tree's last node, so the right child, left + 1, lies past the tree
    forest["left"][split] = forest["tree_sizes"][tree] - 1


def _feature_out_of_range(forest, tree, root, split):
    forest["feature"][root] = forest["n_features"]


def _ragged_arrays(forest, tree, root, split):
    # one threshold fewer than split nodes
    forest["threshold"].pop()


def _left_short_of_a_split(forest, tree, root, split):
    forest["left"].pop()


def _counts_short_of_a_leaf(forest, tree, root, split):
    forest["counts"].pop()


def _split_made_a_leaf(forest, tree, root, split):
    # its threshold and left child stay, so both arrays hold one entry more than split nodes, and
    # counts one row fewer than leaves
    forest["feature"][root] = -1


def _per_node_arrays(forest, tree, root, split):
    # a format 3 forest under format 4's version: thresholds, children and counts at every node
    _format_3_forest(forest)


def _node_shifted_between_trees(forest, tree, root, split):
    # the sizes still sum to the node count, so only the per-tree checks see the moved node
    forest["tree_sizes"][tree] -= 1
    forest["tree_sizes"][tree + 1] += 1


def _zero_tree_size(forest, tree, root, split):
    # the sizes still sum to the node count
    forest["tree_sizes"][tree + 1] += forest["tree_sizes"][tree]
    forest["tree_sizes"][tree] = 0


def _tree_sizes_short_of_a_tree(forest, tree, root, split):
    forest["tree_sizes"].pop()


def _nested_tree_sizes(forest, tree, root, split):
    forest["tree_sizes"] = [forest["tree_sizes"]]


def _wrapping_tree_sizes(forest, tree, root, split):
    # four sizes of 2**62 wrap an int64 sum back to 0, so the sizes sum to the node count
    sizes = forest["tree_sizes"]
    ones = len(sizes) - 5
    sizes[:] = [2**62] * 4 + [1] * ones + [len(forest["feature"]) - ones]


def _leaf_with_child(forest, tree, root, split):
    # a left child written for a leaf, in node order: one entry more than split nodes
    leaf, _ = _first_leaf(forest, root)
    forest["left"].insert(sum(f >= 0 for f in forest["feature"][:leaf]), leaf - root + 1)


def _empty_leaf(forest, tree, root, split):
    _, row = _first_leaf(forest, root)
    forest["counts"][row] = [0] * len(forest["counts"][row])


def _negative_count(forest, tree, root, split):
    _, row = _first_leaf(forest, root)
    forest["counts"][row][0] = -1
    forest["counts"][row][1] += 2


def _infinite_count(forest, tree, root, split):
    forest["counts"][_first_leaf(forest, root)[1]][0] = float("inf")


def _huge_counts(forest, tree, root, split):
    # unbounded, their int64 sum wraps to -2**63 and routing gives the leaf probabilities of -0.5
    _, row = _first_leaf(forest, root)
    forest["counts"][row] = [2**62] * len(forest["counts"][row])


def _nan_threshold(forest, tree, root, split):
    forest["threshold"][split] = float("nan")


def _fractional_threshold(forest, tree, root, split):
    forest["threshold"][split] = 1.5


def _first_binning(payload, kind, alpha=None):
    return next(e["binning"] for e in payload["eyes"]
                if e["binning"]["kind"] == kind and alpha in (None, e["binning"]["alpha"]))


def _flip_mcb_drop_dc(payload):
    binning = _first_binning(payload, "mcb")
    binning["drop_dc"] = not binning["drop_dc"]


def _one_sax_cut(payload):
    binning = _first_binning(payload, "sax")
    binning["cuts"] = binning["cuts"][:1]


def _nan_sax_cut(payload):
    _first_binning(payload, "sax")["cuts"][0] = float("nan")


def _decreasing_mcb_row(payload):
    row = _first_binning(payload, "mcb")["breakpoints"][-1]
    row.reverse()


def _sax_binning_on_sfa_lens(payload):
    sfa_eye = next(e for e in payload["eyes"] if e["binning"]["kind"] == "mcb")
    sfa_eye["binning"] = dict(_first_binning(payload, "sax", sfa_eye["lens"]["alpha"]))


def _float_n(payload):
    payload["n"] += 0.9


def _zero_n(payload):
    payload["n"] = 0


def _n_below_sax_width(payload):
    # the fixture's SAX lenses are 32 wide, as wide as its series, so n = 10 cannot build them
    payload["n"] = 10


def _float_lens_alpha(payload):
    payload["eyes"][0]["lens"]["alpha"] += 0.7


def _string_lens_width(payload):
    lens = payload["eyes"][0]["lens"]
    lens["w"] = str(lens["w"])


def _bool_lens_representation(payload):
    next(e for e in payload["eyes"] if e["lens"]["s"] == SFA)["lens"]["s"] = True


def _float_binning_alpha(payload):
    binning = _first_binning(payload, "sax")
    binning["alpha"] = float(binning["alpha"])


def _float_mcb_width(payload):
    binning = _first_binning(payload, "mcb")
    binning["w"] = float(binning["w"])


def _string_forest_width(payload):
    forest = payload["eyes"][0]["forest"]
    forest["n_features"] = str(forest["n_features"])


def _widen_sfa_eye(payload, w):
    """Give the first SFA eye width ``w``, with its binning and forest widened to match."""
    eye = next(e for e in payload["eyes"] if e["lens"]["s"] == SFA)
    eye["lens"]["w"] = eye["binning"]["w"] = eye["forest"]["n_features"] = w
    rows = eye["binning"]["breakpoints"]
    rows.extend(rows[-1:] * (w - len(rows)))


def _odd_sfa_width(payload):
    _widen_sfa_eye(payload, next(e["lens"]["w"] for e in payload["eyes"] if e["lens"]["s"] == SFA) + 1)


def _sfa_wider_than_n(payload):
    _widen_sfa_eye(payload, payload["n"] + 2)


def _string_drop_dc(payload):
    # bool("false") is True, and lens and binning still agree, so every SFA eye would serve drop-DC words
    for eye in payload["eyes"]:
        if eye["lens"]["s"] == SFA:
            eye["lens"]["drop_dc"] = eye["binning"]["drop_dc"] = "false"


def _string_sax_degenerate(payload):
    _first_binning(payload, "sax")["degenerate"] = "false"


def _float_config_seed(payload):
    payload["config"]["seed"] += 0.9


def _float_config_trees(payload):
    payload["config"]["trees"] += 0.7


def _string_config_smote(payload):
    payload["config"]["smote"] = "no"


def _bool_config_smote_k(payload):
    payload["config"]["smote_k"] = True


def _float_config_alpha(payload):
    payload["config"]["sfa_alphas"][0] += 0.5


def _float_forest_seed(payload):
    payload["eyes"][0]["forest"]["seed"] += 0.5


def _float_smote_count(payload):
    counts = payload["smote_report"]["original_counts"]
    label = next(iter(counts))
    counts[label] += 0.5


def _string_smote_percentage(payload):
    payload["smote_report"]["smote_percentage"] = str(payload["smote_report"]["smote_percentage"])


def _float_split_feature(payload):
    def mutate(forest, tree, root, split):
        forest["feature"][root] += 0.5

    _corrupt_first_split(payload, mutate)


def _string_threshold(payload):
    def mutate(forest, tree, root, split):
        forest["threshold"][split] = str(forest["threshold"][split])

    _corrupt_first_split(payload, mutate)


def _string_count(payload):
    def mutate(forest, tree, root, split):
        _, row = _first_leaf(forest, root)
        forest["counts"][row][0] = str(forest["counts"][row][0])

    _corrupt_first_split(payload, mutate)


def _threshold_past_int64(payload):
    def mutate(forest, tree, root, split):
        forest["threshold"][split] = 2**63

    _corrupt_first_split(payload, mutate)


def _float_tree_size(payload):
    payload["eyes"][0]["forest"]["tree_sizes"][0] += 0.5


def _float_class_label(payload):
    payload["class_labels"][-1] += 0.5


def _string_sax_cut(payload):
    cuts = _first_binning(payload, "sax")["cuts"]
    cuts[0] = str(cuts[0])


def _string_cv_accuracy(payload):
    lens = payload["eyes"][0]["lens"]
    lens["cv_accuracy"] = str(lens["cv_accuracy"])


def _bool_cv_accuracy(payload):
    payload["eyes"][0]["lens"]["cv_accuracy"] = True


def _bool_split_feature(payload):
    def mutate(forest, tree, root, split):
        forest["feature"][root] = True

    _corrupt_first_split(payload, mutate)


def _bool_left_child(payload):
    # the root's left child is node 1, so true would route exactly as before
    def mutate(forest, tree, root, split):
        forest["left"][split] = True

    _corrupt_first_split(payload, mutate)


def _bool_count(payload):
    def mutate(forest, tree, root, split):
        forest["counts"][_first_leaf(forest, root)[1]][0] = True

    _corrupt_first_split(payload, mutate)


def _bool_tree_size(payload):
    # the first tree has at least one node, so true would read as a size of 1
    payload["eyes"][0]["forest"]["tree_sizes"][0] = True


def _bool_class_label(payload):
    # the fixture's labels are [1, 2], so [true, 2] would read as the same labels
    payload["class_labels"][0] = True


def _bool_forest_class_label(payload):
    payload["eyes"][0]["forest"]["class_labels"][0] = True


def _bool_format_version(payload):
    payload["format_version"] = True


def _float_format_version(payload):
    payload["format_version"] = 1.0


def _underscored_smote_label(payload):
    # int("1_0") is 10
    counts = payload["smote_report"]["original_counts"]
    label = next(iter(counts))
    counts[label + "_0"] = counts.pop(label)


def _padded_smote_label(payload):
    counts = payload["smote_report"]["added_counts"]
    label = next(iter(counts))
    counts[" " + label] = counts.pop(label)


def _int_sax_mode(payload):
    _first_binning(payload, "sax")["mode"] = 7


def _unknown_sax_mode(payload):
    _first_binning(payload, "sax")["mode"] = "uniform"


def _int_dataset_name(payload):
    payload["dataset_name"] = 5


def _sax_lens_drops_dc(payload):
    # a SAX lens records drop_dc false, so true would load as false and re-save differently
    next(e for e in payload["eyes"] if e["lens"]["s"] == SAX)["lens"]["drop_dc"] = True


# a missing field is refused even where its record has a default to fill it from
def _missing_cv_accuracy(payload):
    del payload["eyes"][0]["lens"]["cv_accuracy"]


def _missing_sax_degenerate(payload):
    del _first_binning(payload, "sax")["degenerate"]


def _missing_config_smote_k(payload):
    del payload["config"]["smote_k"]


def _nested_config_grid(payload):
    payload["config"]["sfa_word_lengths"] = [[10]]


def _unknown_binning_kind(payload):
    payload["eyes"][0]["binning"]["kind"] = "xyz"


def _negative_smote_count(payload):
    counts = payload["smote_report"]["original_counts"]
    counts[next(iter(counts))] = -5


def _negative_smote_percentage(payload):
    payload["smote_report"]["smote_percentage"] = -3.0


def _infinite_smote_percentage(payload):
    # a JSON number of 1e309 parses as inf too
    payload["smote_report"]["smote_percentage"] = float("1e309")


def _smote_counts_of_another_class(payload):
    payload["smote_report"]["added_counts"]["7"] = 3


def _config_alpha_over_26(payload):
    payload["config"]["sax_alphas"] = [30]


def _config_folds_past_int64(payload):
    payload["config"]["folds"] = 10**30


def _config_trees_past_the_stream(payload):
    payload["config"]["trees"] = 10**30


def _forest_short_of_a_tree(payload):
    # a well-formed forest of one tree fewer than the config grows
    forest = payload["eyes"][-1]["forest"]
    size = forest["tree_sizes"].pop()
    splits = sum(f >= 0 for f in forest["feature"][-size:])
    for name, entries in (("feature", size), ("threshold", splits), ("left", splits), ("counts", size - splits)):
        del forest[name][len(forest[name]) - entries:]


def _negative_cv_accuracy(payload):
    payload["eyes"][0]["lens"]["cv_accuracy"] = -5.0


def _infinite_cv_accuracy(payload):
    # json.dumps writes inf as Infinity, and json.load reads it back as inf
    payload["eyes"][0]["lens"]["cv_accuracy"] = float("inf")


@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging: a corrupt tree used to make routing loop forever."""

    def hang(signum, frame):
        raise AssertionError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestCorruptForests:
    """Structurally corrupt trees are refused at load, before any routing."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("corrupt") / "model.json"
        save_model(train(synth_dataset("waves", seed=11), CoEyeConfig(seed=42, **SMALL_CONFIG)), path)
        return path

    @pytest.mark.parametrize("mutate", [
        _self_loop, _child_out_of_range, _right_child_out_of_tree, _feature_out_of_range, _ragged_arrays,
        _left_short_of_a_split, _counts_short_of_a_leaf, _split_made_a_leaf, _per_node_arrays,
        _node_shifted_between_trees, _zero_tree_size, _tree_sizes_short_of_a_tree, _nested_tree_sizes,
        _leaf_with_child, _empty_leaf, _negative_count, _huge_counts, _infinite_count, _nan_threshold,
        _fractional_threshold,
    ])
    def test_rejected_promptly(self, saved, tmp_path, mutate):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_corrupt_first_split(json.loads(saved.read_text()), mutate)))
        with _deadline(5), pytest.raises(ModelParseError):
            load_model(bad)

    def test_wrapping_tree_sizes_refused_under_a_memory_cap(self, saved, tmp_path):
        # sizes whose int64 sum wraps back to the node count made np.repeat
        # crash with SIGSEGV under a 2 GB address-space cap
        bad = tmp_path / "wrap.json"
        bad.write_text(json.dumps(_corrupt_first_split(json.loads(saved.read_text()), _wrapping_tree_sizes)))
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                "from coeye import load_model\nfrom coeye.errors import ModelParseError\n"
                "try:\n    load_model(sys.argv[1])\nexcept ModelParseError:\n    sys.exit(0)\nsys.exit(1)\n")
        src = Path(coeye.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
                   OPENBLAS_NUM_THREADS="1")
        result = subprocess.run([sys.executable, "-c", code, str(bad)], env=env, capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr

    def test_forest_width_must_match_lens(self, saved, tmp_path):
        payload = json.loads(saved.read_text())
        payload["eyes"][0]["lens"]["w"] += 1
        bad = tmp_path / "width.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ModelParseError):
            load_model(bad)

    @pytest.mark.parametrize("mutate", [
        _flip_mcb_drop_dc, _one_sax_cut, _nan_sax_cut, _decreasing_mcb_row, _sax_binning_on_sfa_lens,
    ])
    def test_binning_must_fit_its_lens(self, saved, tmp_path, mutate):
        payload = json.loads(saved.read_text())
        mutate(payload)
        bad = tmp_path / "binning.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ModelParseError):
            load_model(bad)

    @pytest.mark.parametrize("mutate", [
        _float_n, _zero_n, _n_below_sax_width, _float_lens_alpha, _string_lens_width, _bool_lens_representation,
        _float_binning_alpha, _float_mcb_width, _string_forest_width, _odd_sfa_width, _sfa_wider_than_n,
        _negative_smote_count, _negative_smote_percentage, _infinite_smote_percentage, _smote_counts_of_another_class,
        _config_alpha_over_26, _config_folds_past_int64, _config_trees_past_the_stream, _forest_short_of_a_tree,
        _negative_cv_accuracy, _infinite_cv_accuracy,
    ])
    def test_sizes_must_be_integers_that_fit_the_series(self, saved, tmp_path, mutate):
        payload = json.loads(saved.read_text())
        mutate(payload)
        bad = tmp_path / "sizes.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ModelParseError):
            load_model(bad)

    @pytest.mark.parametrize("mutate", [
        _string_drop_dc, _string_sax_degenerate, _float_config_seed, _float_config_trees, _string_config_smote,
        _bool_config_smote_k, _float_config_alpha, _float_forest_seed, _float_smote_count,
        _string_smote_percentage, _float_split_feature, _string_threshold, _string_count, _float_tree_size,
        _float_class_label, _string_sax_cut, _string_cv_accuracy, _bool_cv_accuracy, _bool_split_feature,
        _bool_left_child, _bool_count, _bool_tree_size,
        _bool_class_label, _bool_forest_class_label, _bool_format_version, _float_format_version,
        _underscored_smote_label, _padded_smote_label, _int_sax_mode, _unknown_sax_mode, _int_dataset_name,
        _sax_lens_drops_dc, _missing_cv_accuracy, _missing_sax_degenerate, _missing_config_smote_k,
        _unknown_binning_kind, _nested_config_grid, _threshold_past_int64,
    ])
    def test_fields_are_read_by_their_json_type(self, saved, tmp_path, mutate):
        # most of these were cast by int(), float(), bool() or np.asarray and served; a missing
        # field and an unknown binning kind are what a reader of dataclass fields could let through
        payload = json.loads(saved.read_text())
        mutate(payload)
        bad = tmp_path / "types.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ModelParseError):
            load_model(bad)

    @pytest.mark.parametrize("labels", [[1, 2**63], [1, 2**70], [-1, 2**64]])
    def test_integers_past_int64_are_named_so(self, saved, tmp_path, labels):
        # numpy infers float64 or object for these lists, which read as "must hold only JSON integers"
        payload = json.loads(saved.read_text())
        payload["class_labels"] = labels
        bad = tmp_path / "int64.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ModelParseError, match="class_labels holds an integer outside the range of int64"):
            load_model(bad)

    def test_cli_refuses_a_string_flag(self, saved, tmp_path):
        payload = json.loads(saved.read_text())
        _string_drop_dc(payload)
        bad = tmp_path / "flag.json"
        bad.write_text(json.dumps(payload))
        series = tmp_path / "series.tsv"
        series.write_text("\t".join(["0.5"] * 32) + "\n")
        assert main(["predict", "--model", str(bad), "--input", str(series)]) == 2

    def test_cli_blames_the_model_not_the_input(self, saved, tmp_path):
        # the series has the length the model was trained on; the model's n is what is wrong
        payload = json.loads(saved.read_text())
        _n_below_sax_width(payload)
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(payload))
        series = tmp_path / "series.tsv"
        series.write_text("\t".join(["0.5"] * 32) + "\n")
        assert main(["predict", "--model", str(bad), "--input", str(series)]) == 2

    def test_cli_exit_code_2(self, saved, tmp_path):
        bad = tmp_path / "loop.json"
        bad.write_text(json.dumps(_corrupt_first_split(json.loads(saved.read_text()), _self_loop)))
        series = tmp_path / "series.tsv"
        series.write_text("\t".join(["0.5"] * 32) + "\n")
        assert main(["predict", "--model", str(saved), "--input", str(series)]) == 0
        with _deadline(5):
            assert main(["predict", "--model", str(bad), "--input", str(series)]) == 2

    @pytest.mark.parametrize("labels", [[1, 1], [2, 1], []])
    def test_class_labels_must_be_strictly_increasing(self, saved, tmp_path, labels):
        # a repeated label splits one class's votes and still serves confident labels
        payload = json.loads(saved.read_text())
        payload["class_labels"] = labels
        for eye in payload["eyes"]:
            eye["forest"]["class_labels"] = labels
        bad = tmp_path / "labels.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ModelParseError, match="class_labels"):
            load_model(bad)
        series = tmp_path / "series.tsv"
        series.write_text("\t".join(["0.5"] * 32) + "\n")
        assert main(["predict", "--model", str(bad), "--input", str(series)]) == 2

    def test_model_without_eyes_rejected(self, saved, tmp_path):
        # it used to load and fail in serving with EmptyEnsemble, a training error (exit 3)
        payload = json.loads(saved.read_text())
        payload["eyes"] = []
        bad = tmp_path / "no_eyes.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ModelParseError, match="no eyes"):
            load_model(bad)
        series = tmp_path / "series.tsv"
        series.write_text("\t".join(["0.5"] * 32) + "\n")
        assert main(["predict", "--model", str(bad), "--input", str(series)]) == 2

    def test_valid_model_loads(self, saved):
        assert load_model(saved).eyes

    def test_eyes_out_of_vote_order_rejected(self, saved, tmp_path):
        # the vote reads the first sax_count eyes as SAX, so SFA eyes first would change labels
        payload = json.loads(saved.read_text())
        assert {e["lens"]["s"] for e in payload["eyes"]} == {SAX, SFA}
        payload["eyes"].reverse()
        bad = tmp_path / "reversed.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ModelParseError, match="SAX eye"):
            load_model(bad)
        series = tmp_path / "series.tsv"
        series.write_text("\t".join(["0.5"] * 32) + "\n")
        assert main(["predict", "--model", str(bad), "--input", str(series)]) == 2

    @pytest.mark.parametrize("kept", [SAX, SFA])
    def test_one_representation_models_load(self, saved, tmp_path, kept):
        payload = json.loads(saved.read_text())
        payload["eyes"] = [e for e in payload["eyes"] if e["lens"]["s"] == kept]
        path = tmp_path / "one.json"
        path.write_text(json.dumps(payload))
        model = load_model(path)
        assert len(model.eyes) == len(payload["eyes"]) > 0
        assert model.sax_count == (len(model.eyes) if kept == SAX else 0)

    def test_loaded_forests_keep_no_pack_of_their_own(self, saved):
        # validation checks each node store without packing it; serving reads only the
        # model's pack, so a loaded forest holds its dataclass fields and nothing else
        model = load_model(saved)
        fields = {field.name for field in dataclasses.fields(RandomForestModel)}
        assert all(set(vars(eye.forest)) == fields for eye in model.eyes)


# sha256 of the model file below; growth changes must keep it. Re-based when
# format 2 wrote each forest as its node store, when format 3 wrote it as
# four integer arrays, and when format 4 kept split fields at split nodes and
# counts at leaves only: the forests are unchanged
PINNED_CHINATOWN_SHA256 = "5a27685e3287230217f2eb549692593ec7654ec1adc97a60cf64e2fbfe9d1878"


@pytest.mark.parametrize("threads", [None, 2])
def test_model_bytes_pinned(tmp_path, threads):
    train_set = load_ucr(Path(__file__).parent / "data" / "ucr" / "Chinatown_TRAIN.tsv")
    path = tmp_path / "chinatown.json"
    save_model(train(train_set, CoEyeConfig(seed=1, threads=threads, **SMALL_CONFIG)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CHINATOWN_SHA256


# sha256 of the model file below: gaussian SAX cuts, which the pin above
# (minmax cuts) does not cover; re-based for formats 3 and 4 as the pin above,
# and when every split became the first maximum of the exact Gini score
PINNED_CHINATOWN_GAUSSIAN_SHA256 = "61002cef58be47c91d58bdea6a5ac0568e9a63b488be13653da0ffda09618dd1"


def test_model_bytes_pinned_gaussian(tmp_path):
    train_set = load_ucr(Path(__file__).parent / "data" / "ucr" / "Chinatown_TRAIN.tsv")
    model = train(train_set, CoEyeConfig(seed=2, sax_mode="gaussian", **SMALL_CONFIG))
    assert all(e.binning.mode == "gaussian" for e in model.eyes if e.lens.s == SAX)
    path = tmp_path / "chinatown.json"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CHINATOWN_GAUSSIAN_SHA256


# sha256 of a train where class 9 has a single row: it stays in every
# training fold and is never held out, so every fold forest holds all 3 classes;
# re-based when every split became the first maximum of the exact Gini score,
# and for format 4 as the pins above (35,756 -> 25,543 bytes, same trees)
PINNED_SINGLETON_CLASS_SHA256 = "f097a8cbd3d623a02c42c186a5124d42bad48ba6bf1249c6281b1f670c7ad3c7"


@pytest.mark.parametrize("threads", [None, 2])
def test_singleton_class_model_bytes_pinned(tmp_path, monkeypatch, threads):
    data = synth_dataset("waves", seed=3)
    y = data.y.copy()
    y[0] = 9
    batch_classes = []

    def recording(X, specs, *args):
        batch_classes.append({spec.n_classes for spec in specs})
        return _grow(X, specs, *args)

    monkeypatch.setattr("coeye.forest._grow", recording)
    path = tmp_path / "singleton.json"
    save_model(train(Dataset(data.X, y, name="waves_singleton"), CoEyeConfig(seed=1, threads=threads, **SMALL_CONFIG)),
               path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SINGLETON_CLASS_SHA256
    assert path.stat().st_size == 25_543
    if threads is None:
        # every forest, fold and eye alike, is grown on all three classes
        assert set().union(*batch_classes) == {3}


# sha256 of a train where every class has a single row: no row can be held
# out, so every grid point scores 0.0 and is kept; leave-one-out wrote the same bytes.
# Re-based when the grid kept one SFA alphabet at or above the row count: on
# 4 rows alphabet 5 repeated alphabet 4's view, so its 3 SFA eyes are gone;
# re-based for format 4 as the pins above, same trees
PINNED_ALL_SINGLETONS_SHA256 = "7e4b59e5efe5638d8709c691f6bdd34496fe3337d75c8032a400785bf550a4d6"


@pytest.mark.parametrize("threads", [None, 2])
def test_all_singleton_classes_model_bytes_pinned(tmp_path, threads):
    data = synth_dataset("waves", seed=3)
    model = train(Dataset(data.X[[0, 10, 1, 11]], np.arange(4), name="waves_singletons"),
                  CoEyeConfig(seed=1, threads=threads, **SMALL_CONFIG))
    assert len(model.eyes) == 9 and all(eye.lens.cv_accuracy == 0.0 for eye in model.eyes)
    path = tmp_path / "singletons.json"
    save_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_ALL_SINGLETONS_SHA256


def _recording_executor(made: list):
    class RecordingExecutor:
        """Stands in for a pool executor: records each pool's size, runs map() here, starts no process or thread."""

        def __init__(self, max_workers=None):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    return RecordingExecutor


class TestOnePool:
    """A train opens at most one worker pool, in ensemble, sized at most the core count."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = {"ensemble": [], "lenses": []}
        for module, log in made.items():
            monkeypatch.setattr(f"coeye.{module}.ProcessPoolExecutor", _recording_executor(log))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return made

    @pytest.mark.parametrize("strategy", ["search", "random"])
    def test_train_opens_one_pool_in_ensemble(self, pools, waves, strategy):
        model = train(waves, CoEyeConfig(seed=0, threads=2, **SMALL_CONFIG), lens_strategy=strategy)
        assert model.sax_count and model.sfa_count
        assert pools == {"ensemble": [2], "lenses": []}

    @pytest.mark.parametrize("threads", [None, 1])
    def test_serial_train_opens_none(self, pools, waves, threads):
        train(waves, CoEyeConfig(seed=0, threads=threads, **SMALL_CONFIG))
        assert pools == {"ensemble": [], "lenses": []}

    def test_pool_capped_at_core_count(self, pools, waves):
        train(waves, CoEyeConfig(seed=0, threads=10_000, **SMALL_CONFIG), lens_strategy="random")
        assert pools == {"ensemble": [2], "lenses": []}

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_refused(self, threads):
        with pytest.raises(ValueError):
            CoEyeConfig(threads=threads)
