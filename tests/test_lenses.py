import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeye import CoEyeConfig, Dataset, search_lenses, search_lenses_random
from coeye.errors import NoFeasibleLens
from coeye.lenses import (
    SAX,
    SFA,
    Lens,
    LensGrid,
    cross_val_accuracy,
    select_per_alpha,
    select_within_margin,
    stratified_fold_assignment,
)


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

    def test_sfa_words_filtered_to_even_and_feasible(self):
        grid = LensGrid(sfa_alphas=(4,), sfa_word_lengths=(5, 6, 8, 200))
        assert grid.sfa_pairs(16) == [(4, 6), (4, 8)]

    def test_sax_words_filtered_to_feasible(self):
        grid = LensGrid(sax_alphas=(3,), sax_word_lengths=(4, 99))
        assert grid.sax_pairs(8) == [(3, 4)]

    def test_defaults_are_the_config_defaults(self):
        assert LensGrid() == LensGrid.from_config(CoEyeConfig())

    def test_alpha_bounds_validated(self):
        with pytest.raises(ValueError):
            LensGrid(sax_alphas=(27,))
        with pytest.raises(ValueError):
            LensGrid(sfa_alphas=(1,))

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
        with pytest.raises(error, match="folds must be|must be integers|drop_dc must be a bool"):
            record(**fields)


class TestFolds:
    @given(
        labels=st.lists(st.integers(0, 4), min_size=10, max_size=80),
        folds=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_stratified_deviation_at_most_one(self, labels, folds, seed):
        y = np.asarray(labels)
        fold = stratified_fold_assignment(y, folds, seed)
        for label in np.unique(y):
            per_fold = np.bincount(fold[y == label], minlength=folds)
            assert per_fold.max() - per_fold.min() <= 1

    def test_deterministic(self):
        y = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, 2])
        a = stratified_fold_assignment(y, 3, 5)
        b = stratified_fold_assignment(y, 3, 5)
        assert np.array_equal(a, b)

    def test_every_fold_used(self):
        y = np.array([0] * 10 + [1] * 10)
        fold = stratified_fold_assignment(y, 5, 1)
        assert set(fold.tolist()) == {0, 1, 2, 3, 4}


class TestCrossValidation:
    @pytest.mark.parametrize("fold_ids", [np.zeros(10, dtype=np.int64), np.full(10, 3), np.array([], dtype=np.int64)])
    def test_fewer_than_two_folds_refused(self, fold_ids):
        # a single fold held no row out, and the score read 0.0
        rows = fold_ids.shape[0]
        symbols, y = np.zeros((rows, 4), dtype=np.int64), np.arange(rows) % 2
        with pytest.raises(ValueError, match="two distinct fold ids"):
            cross_val_accuracy(symbols, y, fold_ids, trees=5, seed=0)


class TestSearch:
    def small_grid(self):
        return LensGrid(sax_alphas=(3, 4), sfa_alphas=(3, 4), folds=3)

    def test_selected_within_margin_of_alpha_best(self, waves):
        grid = LensGrid(sfa_alphas=(3, 4), sfa_word_lengths=(10, 12, 14, 16), folds=3)
        lenses = search_lenses(waves, "sfa", grid, seed=1, trees=15)
        assert {l.alpha for l in lenses} == {3, 4}  # every alphabet contributes
        for alpha in (3, 4):
            row = [l.cv_accuracy for l in lenses if l.alpha == alpha]
            assert max(row) - min(row) <= 0.01 + 1e-12

    def test_sax_lens_count_tracks_alphabet_count(self, waves):
        lenses = search_lenses(waves, "sax", self.small_grid(), seed=1, trees=15)
        # a single uniform word per alphabet: each alphabet keeps its only pair
        assert [l.alpha for l in lenses] == [3, 4]
        assert all(l.s == SAX and not l.drop_dc for l in lenses)

    def test_order_ascending_alpha_then_w(self, waves):
        grid = LensGrid(sfa_alphas=(4, 3), sfa_word_lengths=(12, 10), folds=3)
        lenses = search_lenses(waves, "sfa", grid, seed=0, trees=10)
        keys = [(l.alpha, l.w) for l in lenses]
        assert keys == sorted(keys)

    def test_deterministic_and_worker_independent(self, waves):
        grid = self.small_grid()
        a = search_lenses(waves, "sfa", grid, seed=3, trees=10)
        b = search_lenses(waves, "sfa", grid, seed=3, trees=10)
        c = search_lenses(waves, "sfa", grid, seed=3, trees=10, workers=2)
        assert a == b == c

    def test_separable_data_gets_high_accuracy(self, waves):
        lenses = search_lenses(waves, "sfa", self.small_grid(), seed=0, trees=25)
        assert max(l.cv_accuracy for l in lenses) >= 0.9

    def test_no_feasible_lens(self):
        tiny = Dataset(np.random.default_rng(0).normal(size=(6, 8)), np.array([0, 0, 0, 1, 1, 1]))
        with pytest.raises(NoFeasibleLens):
            search_lenses(tiny, "sfa", LensGrid(), seed=0, trees=5)

    def test_loo_used_for_singleton_class(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(0, 1, (5, 16)), rng.normal(8, 1, (1, 16))])
        y = np.array([0] * 5 + [1])
        ds = Dataset(X, y)
        lenses = search_lenses(ds, "sax", LensGrid(sax_alphas=(3,), folds=5), seed=0, trees=10)
        assert lenses  # LOO path executes without error and returns the single pair


class TestRandomSearch:
    def test_half_grid_rounded_up(self, waves):
        for alphas in [(3,), (3, 4), (3, 4, 5), tuple(range(3, 11))]:
            grid = LensGrid(sax_alphas=alphas, sfa_alphas=alphas)
            for rep in (SAX, SFA):
                pairs = grid.pairs(rep, waves.n)
                lenses = search_lenses_random(waves, rep, seed=0, grid=grid)
                assert len(lenses) == (len(pairs) + 1) // 2

    def test_distinct_grid_pairs(self, waves):
        grid = LensGrid(sfa_alphas=tuple(range(3, 11)))
        lenses = search_lenses_random(waves, "sfa", seed=0, grid=grid)
        chosen = [(l.alpha, l.w) for l in lenses]
        assert len(set(chosen)) == len(chosen)
        assert set(chosen) <= set(grid.sfa_pairs(waves.n))
        assert all(l.s == SFA and l.cv_accuracy == 0 for l in lenses)

    def test_deterministic(self, waves):
        grid = LensGrid(sfa_alphas=tuple(range(3, 11)))
        a = search_lenses_random(waves, "sfa", seed=6, grid=grid)
        b = search_lenses_random(waves, "sfa", seed=6, grid=grid)
        assert a == b
