import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import coeye
from coeye import Dataset, dft_lowpass, fit_mcb, fit_sax_binning, paa, sax, sfa
from coeye.errors import DegenerateBinning, EqualDepthDegenerate, InvalidWordSize, NonFiniteSeries
from coeye.symbolic import (
    SAX,
    SAX_MODES,
    SFA,
    Lens,
    McbTable,
    SymbolicWord,
    digitize,
    equal_depth_breakpoints,
    fit_lenses,
    gaussian_cuts,
    lens_words,
    sfa_coefficients,
    symbolize,
)


def digitize_columns_reference(values, table):
    """Per-column oracle: column j searched in breakpoint row j, ties going low."""
    out = np.empty(values.shape, dtype=np.int64)
    for j in range(table.shape[0]):
        out[:, j] = np.searchsorted(table[j], values[:, j], side="left")
    return out


def dft_direct(x, w, drop_dc):
    """O(n^2) direct-summation oracle for the low-pass DFT."""
    n = len(x)
    start = 1 if drop_dc else 0
    out = []
    for k in range(start, start + w // 2):
        re = sum(x[t] * math.cos(-2 * math.pi * k * t / n) for t in range(n))
        im = sum(x[t] * math.sin(-2 * math.pi * k * t / n) for t in range(n))
        out.extend([re, im])
    return np.asarray(out)


def normal_quantile_bisect(p, lo=-10.0, hi=10.0):
    """Inverse standard-normal CDF via bisection on erf."""
    for _ in range(200):
        mid = (lo + hi) / 2
        if (1 + math.erf(mid / math.sqrt(2))) / 2 < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


series_strategy = hnp.arrays(
    np.float64,
    st.integers(4, 64),
    elements=st.floats(-100, 100, allow_nan=False, width=64),
)


class TestPaa:
    def test_segment_means(self):
        assert np.array_equal(paa([1, 2, 3, 4, 5, 6], 3), [1.5, 3.5, 5.5])

    def test_identity_when_w_equals_n(self):
        x = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(paa(x, 3), x)

    def test_floor_boundaries(self):
        # n=5, w=2: segments [0,2) and [2,5)
        assert np.array_equal(paa([1, 2, 3, 4, 5], 2), [1.5, 4.0])

    def test_invalid_word_sizes(self):
        with pytest.raises(InvalidWordSize):
            paa([1, 2, 3], 0)
        with pytest.raises(InvalidWordSize):
            paa([1, 2, 3], 4)

    @given(series_strategy, st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_mean_preserved_when_w_divides_n(self, x, w):
        if len(x) % w != 0:
            x = x[: len(x) - (len(x) % w)]
        if len(x) < w:
            return
        assert abs(paa(x, w).mean() - x.mean()) <= 1e-12 * max(1.0, abs(x.mean()))

    @given(series_strategy, st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_values_within_series_range(self, x, w):
        w = min(w, len(x))
        out = paa(x, w)
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12

    def test_matrix_rows_match_single(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 12))
        out = paa(X, 5)
        for i in range(4):
            assert np.array_equal(out[i], paa(X[i], 5))


class TestSaxBinning:
    def test_gaussian_alpha4_against_bisection(self):
        cuts = gaussian_cuts(4)
        expected = [normal_quantile_bisect(k / 4) for k in (1, 2, 3)]
        assert np.allclose(cuts, expected, atol=1e-9)
        assert np.allclose(cuts, [-0.6744897501960817, 0.0, 0.6744897501960817])

    @pytest.mark.parametrize("alpha", range(2, 27))
    def test_gaussian_every_alphabet_against_bisection(self, alpha):
        cuts = gaussian_cuts(alpha)
        assert cuts.shape == (alpha - 1,)
        assert np.all(np.diff(cuts) > 0)
        expected = [normal_quantile_bisect(k / alpha) for k in range(1, alpha)]
        assert np.allclose(cuts, expected, rtol=0, atol=2e-15)

    def test_gaussian_alpha2_is_median(self):
        assert np.allclose(gaussian_cuts(2), [0.0])

    def test_gaussian_mode_ignores_data(self):
        b = fit_sax_binning(np.array([100.0, 200.0]), 4, "gaussian")
        assert np.allclose(b.cuts, gaussian_cuts(4))

    def test_minmax_midpoint(self):
        b = fit_sax_binning(np.array([0.0, 0.25, 1.0]), 2, "minmax")
        assert np.allclose(b.cuts, [0.5])
        assert not b.degenerate

    def test_minmax_equal_width(self):
        b = fit_sax_binning(np.array([0.0, 4.0]), 4, "minmax")
        assert np.allclose(b.cuts, [1.0, 2.0, 3.0])

    def test_minmax_degenerate_falls_back(self):
        with pytest.warns(DegenerateBinning):
            b = fit_sax_binning(np.array([2.0, 2.0]), 3, "minmax")
        assert b.degenerate
        assert np.allclose(b.cuts, gaussian_cuts(3))

    def test_cuts_strictly_increasing(self):
        for alpha in (2, 5, 12, 26):
            cuts = fit_sax_binning(np.array([-1.0, 1.0]), alpha, "minmax").cuts
            assert np.all(np.diff(cuts) > 0)


class TestSax:
    def test_digitize_example(self):
        # PAA values digitized against gaussian alpha=4 cuts
        assert np.array_equal(digitize([-1.5, 0.1, 1.5], gaussian_cuts(4)), [0, 2, 3])

    def test_tie_goes_to_lower_bin(self):
        cuts = np.array([-0.5, 0.5])
        assert digitize([-0.5], cuts)[0] == 0
        assert digitize([0.5], cuts)[0] == 1
        table = np.array([[-1.0, 0.0, 1.0], [2.0, 2.0, 3.0]])
        assert np.array_equal(digitize([[0.0, 2.0], [1.0, 3.0], [1.5, 2.5]], table), [[1, 0], [2, 2], [3, 2]])

    def test_constant_series_single_letter(self):
        b = fit_sax_binning(np.zeros(1), 5, "gaussian")
        word = sax(np.full(16, 7.3), 8, b)
        assert len(set(word.symbols.tolist())) == 1
        assert word.to_text() == word.to_text()[0] * 8

    def test_word_length_matches_w(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        for alpha in (3, 9, 26):
            for w in (1, 7, 40):
                b = fit_sax_binning(np.array([-2.0, 2.0]), alpha, "minmax")
                word = sax(x, w, b)
                assert word.symbols.shape == (w,)
                assert word.symbols.max() < alpha

    @given(
        st.floats(-3, 3, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
        st.integers(2, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_digitization_monotone(self, v1, v2, alpha):
        lo, hi = min(v1, v2), max(v1, v2)
        cuts = gaussian_cuts(alpha)
        assert digitize([lo], cuts)[0] <= digitize([hi], cuts)[0]

    def test_batch_matches_single(self, waves):
        b = fit_sax_binning(np.array([-2.0, 2.0]), 4, "minmax")
        batch = symbolize(waves.X, [Lens(SAX, 4, 8)], [b])
        for i in range(len(waves)):
            assert np.array_equal(batch[i], sax(waves.X[i], 8, b).symbols)


class TestTableDigitize:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_column_searchsorted(self, data):
        # a (w, alpha - 1) table, or one row of cuts shared by every column as a SAX binning's
        w = data.draw(st.integers(1, 6))
        alpha = data.draw(st.integers(2, 8))
        rows = data.draw(st.integers(1, 6))
        shared = data.draw(st.booleans())
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        # signed zeros and subnormals, which a compare and a binary search must order alike
        tiny = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1040, -(2.0**-1040)])
        n_rows = 1 if shared else w
        flat = data.draw(st.lists(st.one_of(finite, tiny), min_size=n_rows * (alpha - 1),
                                  max_size=n_rows * (alpha - 1)))
        table = np.sort(np.asarray(flat, dtype=np.float64).reshape(n_rows, alpha - 1), axis=1)
        # repeated and nextafter-spaced cuts: a cut may copy the one before it, or sit one step above it
        for r in range(n_rows):
            for j in range(1, alpha - 1):
                step = data.draw(st.sampled_from(["keep", "repeat", "next"]))
                if step != "keep":
                    table[r, j] = table[r, j - 1] if step == "repeat" else np.nextafter(table[r, j - 1], np.inf)
        table = np.sort(table, axis=1)

        def near(row):
            return [v for c in row.tolist() for v in (c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf))]

        # most cells sit on a cut of their column or one step beside it
        cells = [
            data.draw(st.one_of(finite, tiny, st.sampled_from(near(table[0 if shared else c % w]))))
            for c in range(rows * w)
        ]
        values = np.asarray(cells, dtype=np.float64).reshape(rows, w)
        full = np.broadcast_to(table, (w, alpha - 1))
        got = digitize(values, table[0] if shared else table)
        assert np.array_equal(got, digitize_columns_reference(values, full))
        # the count of cuts strictly below each value
        assert np.array_equal(got, (full < values[..., None]).sum(axis=-1))


class TestDftLowpass:
    def test_constant_series_keep_dc(self):
        assert np.allclose(dft_lowpass([5.0, 5, 5, 5], 2, False), [20.0, 0.0])

    def test_constant_series_drop_dc(self):
        assert np.allclose(dft_lowpass([5.0, 5, 5, 5], 2, True), [0.0, 0.0])

    def test_odd_w_rejected(self):
        with pytest.raises(InvalidWordSize):
            dft_lowpass(np.ones(8), 3)

    def test_w_bounds(self):
        with pytest.raises(InvalidWordSize):
            dft_lowpass(np.ones(4), 6)
        with pytest.raises(InvalidWordSize):
            dft_lowpass(np.ones(4), 0)

    @given(series_strategy, st.integers(1, 16), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_direct_summation(self, x, half_w, drop_dc):
        w = 2 * min(half_w, (len(x) - (1 if drop_dc else 0)) // 2)
        if w < 2:
            return
        got = dft_lowpass(x, w, drop_dc)
        expected = dft_direct(x, w, drop_dc)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(x).max()))

    @given(series_strategy, st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_energy_bounded_by_total(self, x, half_w):
        w = 2 * min(half_w, len(x) // 2)
        if w < 2:
            return
        kept = dft_lowpass(x, w, False)
        total = np.sum(np.abs(np.fft.fft(x)) ** 2)
        assert np.sum(kept**2) <= total * (1 + 1e-9) + 1e-9


class TestEqualDepth:
    def test_thirds_with_midpoints(self):
        assert np.array_equal(equal_depth_breakpoints([1, 2, 3, 4, 5, 6], 3), [2.5, 4.5])

    def test_two_values_midpoint(self):
        assert np.array_equal(equal_depth_breakpoints([10.0, 20.0], 2), [15.0])

    @pytest.mark.parametrize("values", [[], np.empty((0, 3))], ids=["column", "table"])
    def test_empty_column_refused(self, values):
        with pytest.raises(ValueError, match="empty column"):
            equal_depth_breakpoints(values, 3)

    def test_identical_column_repaired(self):
        bps = equal_depth_breakpoints([4.0, 4.0, 4.0, 4.0], 3)
        assert np.all(np.diff(bps) > 0)

    def test_occupancy_within_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = int(rng.integers(6, 40))
            alpha = int(rng.integers(2, 9))
            col = rng.normal(size=s)
            bps = equal_depth_breakpoints(col, alpha)
            bins = np.searchsorted(bps, col, side="left")
            occupancy = np.bincount(bins, minlength=alpha)
            assert occupancy.max() - occupancy.min() <= 1

    def test_table_rows_match_single_columns(self):
        rng = np.random.default_rng(8)
        # rounded values repeat, so the upward repair of duplicate breakpoints runs too
        values = np.round(rng.normal(size=(9, 6)), 1)
        values[:, 0] = 0.0
        for alpha in (2, 3, 7, 12):
            table = equal_depth_breakpoints(values, alpha)
            assert table.shape == (6, alpha - 1)
            for j in range(6):
                assert np.array_equal(table[j], equal_depth_breakpoints(values[:, j], alpha))


class TestMcbAndSfa:
    def make_train(self, seed=0, s=8, n=16):
        rng = np.random.default_rng(seed)
        return Dataset(rng.normal(size=(s, n)), np.arange(s) % 2)

    def test_table_shape(self):
        table = fit_mcb(self.make_train(), alpha=4, w=6)
        assert table.breakpoints.shape == (6, 3)
        assert np.all(np.diff(table.breakpoints, axis=1) > 0)

    def test_degenerate_warns_but_fits(self):
        with pytest.warns(EqualDepthDegenerate):
            table = fit_mcb(self.make_train(s=3), alpha=5, w=4)
        assert table.breakpoints.shape == (4, 4)

    def test_training_series_fall_in_their_bins(self):
        train = self.make_train(seed=2)
        table = fit_mcb(train, alpha=3, w=6)
        coeffs = sfa_coefficients(train.X, 6, False)
        for i in range(len(train)):
            word = sfa(train.X[i], table)
            for j, sym in enumerate(word.symbols):
                bps = table.breakpoints[j]
                if sym > 0:
                    assert coeffs[i, j] > bps[sym - 1]
                if sym < table.alpha - 1:
                    assert coeffs[i, j] <= bps[sym]

    def test_two_series_get_distinct_symbols(self):
        train = Dataset(
            np.vstack([np.sin(np.linspace(0, 2 * np.pi, 16)), np.cos(np.linspace(0, 7 * np.pi, 16))]),
            np.array([0, 1]),
        )
        table = fit_mcb(train, alpha=2, w=6)
        coeffs = sfa_coefficients(train.X, 6, False)
        w0 = sfa(train.X[0], table).symbols
        w1 = sfa(train.X[1], table).symbols
        for j in range(6):
            if coeffs[0, j] != coeffs[1, j]:
                assert w0[j] != w1[j]

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(4, 32)),
            elements=st.floats(-1e4, 1e4, allow_nan=False, width=64),
        ),
        st.integers(2, 8),
        st.integers(1, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_kept_dc_pair_is_one_symbol(self, X, alpha, half_w):
        # a znormalized series has zero mean, so its DC pair carries nothing
        w = 2 * half_w
        assert np.array_equal(sfa_coefficients(X, w, False)[:, :2], np.zeros((X.shape[0], 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EqualDepthDegenerate)
            table = fit_mcb(X, alpha, w, drop_dc=False)
        symbols = symbolize(X, [Lens(SFA, alpha, w)], [table])
        assert np.all(symbols[:, :2] == symbols[0, :2])

    def test_word_shape_and_alphabet(self):
        train = self.make_train(seed=3)
        table = fit_mcb(train, alpha=4, w=8, drop_dc=True)
        word = sfa(train.X[0], table)
        assert word.symbols.shape == (8,)
        assert word.symbols.max() < 4


def fit_alone(X, lens, sax_mode):
    """One lens fitted on its own, step by step: its words, its binning, its symbols."""
    (words,) = lens_words(X, [lens])
    if lens.s == SAX:
        binning = fit_sax_binning(words, lens.alpha, sax_mode)
    else:
        binning = McbTable(lens.alpha, lens.w, lens.drop_dc, equal_depth_breakpoints(words, lens.alpha))
    return binning, digitize(words, binning.cuts)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFitLenses:
    """A lens set is fitted in one call, each SFA alphabet at its widest word, to the same bits as each lens alone."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_each_lens_as_fitted_alone(self, data):
        X = data.draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(2, 40)),
                                 elements=st.floats(-1e4, 1e4, allow_nan=False, width=64)))
        n = X.shape[1]
        # few alphabets, so SFA lenses share one; alphabets above the row count fit degenerate tables
        alphas = st.sampled_from((2, 3, 7, 13, 26))
        sax = st.builds(lambda a, w: Lens(SAX, a, w), alphas, st.integers(1, n))
        sfa = st.builds(lambda a, half, dc: Lens(SFA, a, 2 * half, dc), alphas, st.integers(1, n // 2), st.booleans())
        lenses = data.draw(st.lists(st.one_of(sax, sfa), min_size=1, max_size=10))
        sax_mode = data.draw(st.sampled_from(SAX_MODES))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            together = fit_lenses(X, lenses, sax_mode)
            alone = [fit_alone(X, lens, sax_mode) for lens in lenses]
        assert len(together) == len(lenses)
        for (binning, symbols), (binning_alone, symbols_alone) in zip(together, alone):
            assert type(binning) is type(binning_alone)
            for f in dataclasses.fields(binning):
                assert same_bits(getattr(binning, f.name), getattr(binning_alone, f.name)), f.name
            assert same_bits(symbols, symbols_alone)

    def test_one_table_per_sfa_alphabet_and_one_warning(self):
        X = np.random.default_rng(0).normal(size=(3, 16))
        lenses = [Lens(SFA, 5, 4), Lens(SFA, 5, 8), Lens(SFA, 5, 8, drop_dc=True), Lens(SAX, 5, 8)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fitted = fit_lenses(X, lenses)
        # 3 rows and 5 bins: the two SFA tables of alphabet 5, one per DC convention, warn once each
        assert [w.category for w in caught] == [EqualDepthDegenerate] * 2
        assert [b.breakpoints.shape for b, _ in fitted[:3]] == [(4, 4), (8, 4), (8, 4)]
        assert np.array_equal(fitted[0][0].breakpoints, fitted[1][0].breakpoints[:4])
        assert np.array_equal(fitted[0][1], fitted[1][1][:, :4])

    def test_symbolize_sets_lenses_side_by_side(self, waves):
        lenses = [Lens(SAX, 4, 8), Lens(SFA, 3, 6), Lens(SFA, 3, 4, drop_dc=True)]
        binnings = [binning for binning, _ in fit_lenses(waves.X, lenses)]
        side_by_side = symbolize(waves.X[:5], lenses, binnings)
        assert side_by_side.shape == (5, 8 + 6 + 4)
        one_by_one = [symbolize(waves.X[:5], [lens], [binning]) for lens, binning in zip(lenses, binnings)]
        assert np.array_equal(side_by_side, np.hstack(one_by_one))


class TestNonFiniteRefused:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.7e308])
    def test_word_builders_name_the_row(self, bad):
        # 1.7e308 is finite, but a row of it overflows its znormalization
        X = np.random.default_rng(0).normal(size=(6, 16))
        table, cuts = fit_mcb(X, 4, 8), fit_sax_binning(np.array([-2.0, 2.0]), 4)
        X[4, 3:] = bad
        calls = [
            (lambda: sax(X[4], 8, cuts), 0),
            (lambda: sfa(X[4], table), 0),
            (lambda: fit_mcb(X, 4, 8), 4),
            (lambda: fit_lenses(X, [Lens(SAX, 4, 8)], "minmax"), 4),
            (lambda: fit_lenses(X, [Lens(SAX, 4, 8)], "gaussian"), 4),
            (lambda: symbolize(X, [Lens(SAX, 4, 8), Lens(SFA, 4, 8)], [cuts, table]), 4),
        ]
        for call, row in calls:
            with pytest.raises(NonFiniteSeries, match=f"^series {row} "):
                call()


class TestSymbolicWord:
    def test_letters(self):
        word = SymbolicWord(np.array([0, 2, 3]), alpha=4, w=3)
        assert word.to_text() == "acd"

    def test_alpha_too_large_for_text(self):
        word = SymbolicWord(np.zeros(2, dtype=int), alpha=30, w=2)
        with pytest.raises(ValueError):
            word.to_text()


def test_import_leaves_scipy_unloaded():
    """No step of the package, gaussian cut points included, loads scipy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coeye.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, warnings, coeye, coeye.cli\n"
        "from coeye.symbolic import fit_sax_binning, gaussian_cuts\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded by import'\n"
        "gaussian_cuts(26)\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded by gaussian_cuts'\n"
        "fit_sax_binning([0.0, 1.0], 5, 'gaussian')\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded by gaussian binning'\n"
        "warnings.simplefilter('ignore')\n"
        "assert fit_sax_binning([2.0, 2.0], 5, 'minmax').degenerate\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded by the degenerate fallback'\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
