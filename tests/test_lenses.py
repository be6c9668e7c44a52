import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coeye import CoEyeConfig, Dataset, lenses, load_ucr, train
from coeye.errors import EqualDepthDegenerate, NoFeasibleLens, file_fields
from coeye.lenses import LensGrid, cross_val_accuracy, fold_plan, select_per_alpha, select_within_margin
from coeye.symbolic import SAX, SFA, Lens, fit_lenses, lens_words
from tests.conftest import chosen_lenses, synth_dataset
from tests.forest_reference import reference_fit_forest, reference_predict_proba

UCR_DIR = Path(__file__).parent / "data" / "ucr"


def rank_pattern(values) -> bytes:
    """Each column's values replaced by their rank among the column's distinct values: the partition a split sees."""
    return np.stack([np.unique(col, return_inverse=True)[1].ravel() for col in np.asarray(values).T], axis=1).tobytes()


class TestSelectionRule:
    def test_margin_example(self):
        # one alphabet, word sizes scoring {10: 0.90, 20: 0.895, 30: 0.70}
        selected = select_within_margin([0.90, 0.895, 0.70])
        assert selected == [0, 1]

    def test_single_pair_always_selected(self):
        assert select_within_margin([0.12]) == [0]

    def test_exact_boundary_included(self):
        assert select_within_margin([1.0, 0.99, 0.9899999]) == [0, 1]

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_selected_equals_within_margin_set(self, accs):
        selected = set(select_within_margin(accs))
        best = max(accs)
        expected = {i for i, a in enumerate(accs) if a >= best - 0.01 - 1e-12}
        assert selected == expected
        assert selected  # the max itself always qualifies

    def test_per_alpha_rows_filtered_independently(self):
        pairs = [(3, 10), (3, 20), (4, 10), (4, 20), (5, 10), (5, 20)]
        accs = [0.90, 0.895, 0.70, 0.80, 0.50, 0.50]
        # alpha 3 keeps both, alpha 4 keeps only w=20, alpha 5 ties keep both
        assert select_per_alpha(pairs, accs) == [0, 1, 3, 4, 5]

    def test_per_alpha_every_alphabet_contributes(self):
        rng = np.random.default_rng(0)
        pairs = [(a, w) for a in (3, 4, 5, 6) for w in (10, 20, 30)]
        for _ in range(50):
            accs = rng.uniform(0, 1, len(pairs))
            keep = select_per_alpha(pairs, accs)
            assert {pairs[i][0] for i in keep} == {3, 4, 5, 6}
            for alpha in (3, 4, 5, 6):
                row = [i for i, (a, _) in enumerate(pairs) if a == alpha]
                row_best = max(accs[i] for i in row)
                expected = {i for i in row if accs[i] >= row_best - 0.01 - 1e-12}
                assert set(keep) & set(row) == expected


class TestGrid:
    def test_default_sax_single_uniform_word(self):
        grid = LensGrid()
        assert grid.sax_pairs(64) == [(a, 64) for a in range(3, 27)]
        assert grid.sax_pairs(500) == [(a, 128) for a in range(3, 27)]

    def test_default_sfa_words(self):
        grid = LensGrid(sfa_alphas=(3,))
        assert grid.sfa_pairs(24) == [(3, 10), (3, 20)]
        assert grid.sfa_pairs(512) == [(3, w) for w in range(10, 131, 10)]

    def test_pairs_refuse_an_empty_grid(self):
        grid = LensGrid(sfa_word_lengths=(200,))
        assert grid.pairs(SAX, 16, 6) == grid.sax_pairs(16)
        assert grid.sfa_pairs(16) == []
        with pytest.raises(NoFeasibleLens, match=r"^no feasible \(alpha, w\) pairs for series length 16$"):
            grid.pairs(SFA, 16, 6)
        tiny = Dataset(np.random.default_rng(0).normal(size=(6, 16)), np.array([0, 0, 0, 1, 1, 1]))
        for strategy in ("search", "random"):
            with pytest.raises(NoFeasibleLens, match="for series length 16$"):
                chosen_lenses(tiny, SFA, CoEyeConfig(sfa_word_lengths=(200,), seed=0), strategy=strategy)

    def test_sfa_words_filtered_to_even_and_feasible(self):
        grid = LensGrid(sfa_alphas=(4,), sfa_word_lengths=(5, 6, 8, 200))
        assert grid.sfa_pairs(16) == [(4, 6), (4, 8)]

    def test_sax_words_filtered_to_feasible(self):
        grid = LensGrid(sax_alphas=(3,), sax_word_lengths=(4, 99))
        assert grid.sax_pairs(8) == [(3, 4)]

    def test_repeated_entries_give_each_pair_once(self):
        grid = LensGrid(sax_alphas=(4, 3, 4), sax_word_lengths=(8, 4, 8), sfa_alphas=(3, 3), sfa_word_lengths=(6, 6))
        assert grid.sax_pairs(8) == [(3, 4), (3, 8), (4, 4), (4, 8)]
        assert grid.sfa_pairs(8) == [(3, 6)]

    def test_sfa_alphabets_past_the_first_at_or_above_the_row_count_dropped(self):
        grid = LensGrid(sfa_alphas=(26, 3, 21, 20), sfa_word_lengths=(10,))
        for rows, kept in [(2, (3,)), (4, (3, 20)), (20, (3, 20)), (21, (3, 20, 21)), (22, (3, 20, 21, 26)),
                           (30, (3, 20, 21, 26))]:
            assert grid.pairs(SFA, 24, rows) == [(alpha, 10) for alpha in kept]
        assert grid.sfa_pairs(24) == [(alpha, 10) for alpha in (3, 20, 21, 26)]
        # SAX cuts split the value range into equal widths, not the rows into equal counts: none is dropped
        assert LensGrid(sax_alphas=(3, 26)).pairs(SAX, 24, 2) == [(3, 24), (26, 24)]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_alphabets_at_or_above_the_row_count_give_one_partition(self, data):
        # rows drawn from a few series on a coarse value grid, so columns hold ties
        rows, n = data.draw(st.integers(2, 12)), data.draw(st.integers(2, 24))
        series = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, rows)), n),
                                      elements=st.integers(-3, 3).map(float)))
        X = series[data.draw(st.lists(st.integers(0, len(series) - 1), min_size=rows, max_size=rows))]
        lenses = [Lens(SFA, alpha, n - n % 2) for alpha in range(rows, 27)]
        (words,) = lens_words(X, lenses[:1])
        for col in words.T:
            # distinct values a few ulps apart can split differently: the caveat of LensGrid.pairs
            values = np.unique(col)
            assume(np.all(np.diff(values) > 64 * np.spacing(np.abs(values[1:]) + np.abs(values[:-1]))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EqualDepthDegenerate)
            fitted = fit_lenses(X, lenses)
        # every distinct value of a column gets its own symbol, whatever the alphabet
        assert {rank_pattern(symbols) for _, symbols in fitted} == {rank_pattern(words)}

    @pytest.mark.parametrize("name", ["BeetleFly", "Chinatown"])
    def test_the_bundled_sets_default_grid_keeps_one_point_per_view(self, name):
        train_set = load_ucr(UCR_DIR / f"{name}_TRAIN.tsv")
        grid = LensGrid()
        everything = [Lens(SFA, alpha, w) for alpha, w in grid.sfa_pairs(train_set.n)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EqualDepthDegenerate)
            fitted = fit_lenses(train_set.X, everything)
        views = {}
        for lens, (_, symbols) in zip(everything, fitted):
            views.setdefault((lens.w, rank_pattern(symbols)), []).append(lens.alpha)
        words = sorted({lens.w for lens in everything})
        # 20 rows: alphabets 20 to 26 are one view at every word, and every other view stands alone
        assert sorted(alphas for alphas in views.values() if len(alphas) > 1) == [list(range(20, 27))] * len(words)
        kept = grid.pairs(SFA, train_set.n, len(train_set))
        assert sorted((min(alphas), w) for (w, _), alphas in views.items()) == kept

    def test_a_grid_with_repeats_trains_the_eyes_of_the_grid_without(self):
        # the repeats trained each of their eyes twice, so the vote counted those lenses twice
        chinatown = load_ucr(Path(__file__).parent / "data" / "ucr" / "Chinatown_TRAIN.tsv")
        eyes = [
            [json.dumps(file_fields(eye), default=np.ndarray.tolist) for eye in train(chinatown, CoEyeConfig(
                seed=1, trees=10, threads=1, sax_alphas=alphas, sfa_word_lengths=words, sfa_alphas=(4,))).eyes]
            for alphas, words in [((3, 3), (10, 10)), ((3,), (10,))]
        ]
        assert len(eyes[0]) == 2 and eyes[0] == eyes[1]

    def test_defaults_are_the_config_defaults(self):
        assert LensGrid() == LensGrid.from_config(CoEyeConfig())

    def test_alpha_bounds_validated(self):
        with pytest.raises(ValueError):
            LensGrid(sax_alphas=(27,))
        with pytest.raises(ValueError):
            LensGrid(sfa_alphas=(1,))

    @pytest.mark.parametrize("record", [CoEyeConfig, LensGrid], ids=lambda r: r.__name__)
    @pytest.mark.parametrize("name", ["sax_alphas", "sfa_alphas", "sax_word_lengths", "sfa_word_lengths"])
    def test_an_empty_grid_list_is_refused_by_name(self, record, name):
        # it used to pass, and the search raised NoFeasibleLens after SMOTE had run
        with pytest.raises(ValueError, match=f"^{name} must not be empty"):
            record(**{name: ()})
        if name.endswith("word_lengths"):
            assert getattr(record(**{name: None}), name) is None  # the default word lengths

    def test_lens_validation(self):
        with pytest.raises(ValueError):
            Lens(2, 4, 8)
        with pytest.raises(ValueError):
            Lens(SAX, 30, 8)
        with pytest.raises(ValueError):
            Lens(SAX, 4, 8, drop_dc=True)

    def test_lens_takes_bools_and_real_scores(self):
        assert Lens(SFA, 4, 8, drop_dc=True, cv_accuracy=np.float64(0.5)).cv_accuracy == 0.5
        assert Lens(SAX, 4, 8, cv_accuracy=1).cv_accuracy == 1

    @pytest.mark.parametrize("record, fields, error", [
        # one fold grew no forest and scored every grid point 0.0
        (LensGrid, dict(sax_alphas=(4,), folds=1), ValueError),
        (LensGrid, dict(folds=0), ValueError),
        (LensGrid, dict(folds=-3), ValueError),
        (LensGrid, dict(folds=2**63), ValueError),
        (LensGrid, dict(folds=2.5), TypeError),
        (LensGrid, dict(folds=True), TypeError),
        # a search ran until the fold assignment divided by it
        (LensGrid, dict(folds=None), TypeError),
        # these failed mid-search with numpy's own TypeErrors
        (LensGrid, dict(sax_alphas=(3.0,)), TypeError),
        (LensGrid, dict(sfa_alphas=(True, 4)), TypeError),
        (LensGrid, dict(sfa_word_lengths=(10.0,)), TypeError),
        (LensGrid, dict(sax_word_lengths=(8.0,)), TypeError),
        # load_model refuses these lenses, so the record does too
        (Lens, dict(s=0, alpha=4.0, w=8), TypeError),
        (Lens, dict(s=1, alpha=4, w=8.0), TypeError),
        (Lens, dict(s=True, alpha=4, w=8), TypeError),
        # these were accepted, so save_model wrote a file that load_model refused
        (Lens, dict(s=1, alpha=4, w=8, drop_dc=1), TypeError),
        (Lens, dict(s=1, alpha=4, w=8, drop_dc="yes"), TypeError),
        (Lens, dict(s=1, alpha=4, w=8, drop_dc=None), TypeError),
        (Lens, dict(s=1, alpha=4, w=8, drop_dc=1.0), TypeError),
        (Lens, dict(s=1, alpha=4, w=8, cv_accuracy=True), TypeError),
        (Lens, dict(s=1, alpha=4, w=8, cv_accuracy="0.5"), TypeError),
        (Lens, dict(s=1, alpha=4, w=8, cv_accuracy=None), TypeError),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(f"{k}={x}" for k, x in v.items()))
    def test_grid_and_lens_refuse_what_the_config_refuses(self, record, fields, error):
        with pytest.raises(error, match=r"folds must be|must be integers|drop_dc must be a bool"
                                        r"|Lens(Grid)?\.\w+ must be"):
            record(**fields)


def held_per_fold(plan, y, label, folds):
    """Rows of class ``label`` that each of the ``folds`` folds holds out; a fold absent from ``plan`` holds 0."""
    per_fold = np.zeros(folds, dtype=np.int64)
    for f, _, held in plan:
        per_fold[f] = np.count_nonzero(y[held] == label)
    return per_fold


class TestFolds:
    @given(
        labels=st.lists(st.integers(0, 4), min_size=10, max_size=80),
        folds=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_stratified_deviation_at_most_one(self, labels, folds, seed):
        y = np.asarray(labels)
        plan = fold_plan(y, folds, seed)
        for label in np.unique(y):
            per_fold = held_per_fold(plan, y, label, folds)
            assert per_fold.max() - per_fold.min() <= 1

    def test_deterministic(self):
        y = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, 2])
        a, b = fold_plan(y, 3, 5), fold_plan(y, 3, 5)
        assert [f for f, _, _ in a] == [f for f, _, _ in b]
        assert all(np.array_equal(x, z) for (_, *xs), (_, *zs) in zip(a, b) for x, z in zip(xs, zs))

    def test_every_fold_used(self):
        y = np.array([0] * 10 + [1] * 10)
        plan = fold_plan(y, 5, 1)
        assert [f for f, _, _ in plan] == [0, 1, 2, 3, 4]
        assert all(held_per_fold(plan, y, label, 5).tolist() == [2] * 5 for label in (0, 1))

    @given(
        labels=st.lists(st.integers(0, 4), min_size=1, max_size=40),
        folds=st.integers(2, 7),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_plan_holds_each_scored_row_out_once(self, labels, folds, seed):
        y = np.asarray(labels)
        values, counts = np.unique(y, return_counts=True)
        single = np.isin(y, values[counts == 1])
        plan = fold_plan(y, folds, seed)
        ids = [f for f, _, _ in plan]
        assert ids == sorted(set(ids)) and all(0 <= f < folds for f in ids)
        held_by = np.full(y.shape[0], -1)
        for f, train_rows, held in plan:
            assert held.shape[0] > 0 and np.all(held_by[held] == -1)
            held_by[held] = f
            # every other row trains, a single-row class's row among them
            assert np.array_equal(train_rows, np.setdiff1d(np.arange(y.shape[0]), held))
            assert set(np.flatnonzero(single)) <= set(train_rows.tolist())
        assert np.all(held_by[~single] >= 0)
        assert np.all(held_by[single] == -1)

    @given(
        labels=st.lists(st.integers(0, 4), min_size=2, max_size=60),
        folds=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_stratified_plan_trains_every_class_in_every_fold(self, labels, folds, seed):
        y = np.asarray(labels)
        for _, train_rows, _ in fold_plan(y, folds, seed):
            assert set(y[train_rows].tolist()) == set(labels)


class TestCrossValidation:
    @pytest.mark.parametrize("y, folds, forests", [
        ([0, 0, 1, 1, 2], 2, 2),  # the single row of class 2 is never held out
        ([0, 0, 1, 2], 5, 2),  # folds 0 and 1; fold 2 gets only class 2's single row and grows nothing
        ([0, 1, 2, 3], 2, 0),  # every class has one row: nothing is held out
    ])
    def test_folds_with_nothing_to_hold_out_grow_nothing(self, monkeypatch, y, folds, forests):
        grown, fit_forests = [], lenses.fit_forests

        def recording(X_, y_, row_sets, *args, **kwargs):
            grown.extend(row_sets)
            return fit_forests(X_, y_, row_sets, *args, **kwargs)

        monkeypatch.setattr(lenses, "fit_forests", recording)
        y = np.array(y)
        symbols = np.arange(y.shape[0] * 3).reshape(-1, 3)
        accuracy = cross_val_accuracy(symbols, y, fold_plan(y, folds, 0), trees=5, seed=0)
        assert len(grown) == forests
        assert all(y.shape[0] - 1 in rows for rows in grown)  # the last row is its class's only row
        if not forests:
            assert accuracy == 0.0


class TestSearch:
    def small_config(self, **run):
        return CoEyeConfig(sax_alphas=(3, 4), sfa_alphas=(3, 4), folds=3, **run)

    def test_selected_within_margin_of_alpha_best(self, waves):
        config = CoEyeConfig(sfa_alphas=(3, 4), sfa_word_lengths=(10, 12, 14, 16), folds=3, seed=1, trees=15)
        lenses = chosen_lenses(waves, SFA, config)
        assert {l.alpha for l in lenses} == {3, 4}  # every alphabet contributes
        for alpha in (3, 4):
            row = [l.cv_accuracy for l in lenses if l.alpha == alpha]
            assert max(row) - min(row) <= 0.01 + 1e-12

    def test_sax_lens_count_tracks_alphabet_count(self, waves):
        lenses = chosen_lenses(waves, SAX, self.small_config(seed=1, trees=15))
        # a single uniform word per alphabet: each alphabet keeps its only pair
        assert [l.alpha for l in lenses] == [3, 4]
        assert all(l.s == SAX and not l.drop_dc for l in lenses)

    def test_order_ascending_alpha_then_w(self, waves):
        config = CoEyeConfig(sfa_alphas=(4, 3), sfa_word_lengths=(12, 10), folds=3, seed=0, trees=10)
        lenses = chosen_lenses(waves, SFA, config)
        keys = [(l.alpha, l.w) for l in lenses]
        assert keys == sorted(keys)

    def test_deterministic_and_worker_independent(self, waves):
        a = chosen_lenses(waves, SFA, self.small_config(seed=3, trees=10))
        b = chosen_lenses(waves, SFA, self.small_config(seed=3, trees=10))
        with ProcessPoolExecutor(max_workers=2) as pool:
            c = chosen_lenses(waves, SFA, self.small_config(seed=3, trees=10), pool)
        assert a == b == c

    def test_separable_data_gets_high_accuracy(self, waves):
        lenses = chosen_lenses(waves, SFA, self.small_config(seed=0, trees=25))
        assert max(l.cv_accuracy for l in lenses) >= 0.9

    def test_one_fold_plan_per_search(self, waves, monkeypatch):
        planned, received = [], []
        make_plan, score = lenses.fold_plan, lenses.cross_val_accuracy

        def counted_plan(*args):
            planned.append(make_plan(*args))
            return planned[-1]

        def counted_score(symbols, y, plan, *args):
            received.append(plan)
            return score(symbols, y, plan, *args)

        monkeypatch.setattr(lenses, "fold_plan", counted_plan)
        monkeypatch.setattr(lenses, "cross_val_accuracy", counted_score)
        config = CoEyeConfig(seed=3, trees=5, sax_alphas=(3, 4), sfa_alphas=(3,), sfa_word_lengths=(8, 10), threads=1)
        train(waves, config)
        grid = LensGrid.from_config(config)
        sax, sfa = len(grid.sax_pairs(waves.n)), len(grid.sfa_pairs(waves.n))
        assert len(planned) == 2 and len(received) == sax + sfa
        assert all(p is planned[0] for p in received[:sax]) and all(p is planned[1] for p in received[sax:])

    def test_no_feasible_lens(self):
        tiny = Dataset(np.random.default_rng(0).normal(size=(6, 8)), np.array([0, 0, 0, 1, 1, 1]))
        with pytest.raises(NoFeasibleLens):
            chosen_lenses(tiny, SFA, CoEyeConfig(seed=0, trees=5))

    def test_singleton_class_never_held_out(self, waves, monkeypatch):
        # one row of class 9 beside 20 rows of two classes: 5 folds, not one per row
        X = np.vstack([waves.X, waves.X[:1] * -1.0])
        y = np.append(waves.y, 9)
        single, trees = len(y) - 1, 10
        calls, fit_forests = [], lenses.fit_forests

        def recording(X_, y_, row_sets, seeds, n_trees=100, threads=None):
            calls.append((X_, row_sets, seeds))
            return fit_forests(X_, y_, row_sets, seeds, n_trees, threads)

        monkeypatch.setattr(lenses, "fit_forests", recording)
        found = chosen_lenses(Dataset(X, y), SAX, CoEyeConfig(sax_alphas=(3, 4), folds=5, seed=0, trees=trees))
        assert [l.alpha for l in found] == [3, 4] and len(calls) == 2
        for lens, (symbols, row_sets, seeds) in zip(found, calls):
            assert len(row_sets) == 5
            held_out = [np.setdiff1d(np.arange(len(y)), rows) for rows in row_sets]
            assert all(single in rows for rows in row_sets)
            assert not any(single in held for held in held_out)
            assert sorted(np.concatenate(held_out)) == list(range(single))
            correct = 0
            for rows, held, forest_seed in zip(row_sets, held_out, seeds):
                model = reference_fit_forest(symbols[rows], y[rows], trees, forest_seed)
                labels = model.class_labels[np.argmax(reference_predict_proba(model, symbols[held]), axis=1)]
                correct += int(np.sum(labels == y[held]))
            assert lens.cv_accuracy == correct / single


class TestRandomSearch:
    def test_half_grid_rounded_up(self, waves):
        for alphas in [(3,), (3, 4), (3, 4, 5), tuple(range(3, 11))]:
            config = CoEyeConfig(sax_alphas=alphas, sfa_alphas=alphas, seed=0)
            for rep in (SAX, SFA):
                pairs = config.pairs(rep, waves.n, len(waves))
                assert len(chosen_lenses(waves, rep, config, strategy="random")) == (len(pairs) + 1) // 2

    def test_distinct_grid_pairs(self, waves):
        config = CoEyeConfig(sfa_alphas=tuple(range(3, 11)), seed=0)
        drawn = chosen_lenses(waves, SFA, config, strategy="random")
        chosen = [(l.alpha, l.w) for l in drawn]
        assert len(set(chosen)) == len(chosen)
        assert set(chosen) <= set(config.pairs(SFA, waves.n, len(waves)))
        assert all(l.s == SFA and l.cv_accuracy == 0 for l in drawn)

    def test_deterministic(self, waves):
        config = CoEyeConfig(sfa_alphas=tuple(range(3, 11)), seed=6)
        a = chosen_lenses(waves, SFA, config, strategy="random")
        b = chosen_lenses(waves, SFA, config, strategy="random")
        assert a == b

    def test_train_draws_from_the_balanced_grid(self):
        # 8 + 4 rows, which SMOTE balances to 16: a draw from the 12 raw rows' grid stopped at alphabet 12
        waves = synth_dataset("waves", seed=5, n=40, per_class=8)
        data = Dataset(waves.X[:12], waves.y[:12])
        config = CoEyeConfig(seed=0, threads=1, trees=10)
        model = train(data, config, lens_strategy="random")
        report = model.smote_report
        assert sum(report.original_counts.values()) + sum(report.added_counts.values()) == 16
        sfa = [eye.lens for eye in model.eyes if eye.lens.s == SFA]
        assert len(sfa) == (len(config.pairs(SFA, data.n, 16)) + 1) // 2
        assert any(13 <= lens.alpha <= 16 for lens in sfa)
