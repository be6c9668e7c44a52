"""``coeye.stream`` against the installed numpy's own ``Generator``, word for word."""

import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coeye
from coeye import stream
from coeye.stream import Streams

SEEDS = [0, 2**32 - 1, 2**40 + 5, 2**130 + 3]  # one, one, two and five entropy words
TREES = [0, 1, 2, 17, 999, 65_536, 10**6]


def generator(seed, tree):
    return np.random.default_rng(np.random.SeedSequence([seed, tree]))


def numpy_words(rng, count):
    # a full 32-bit range draws each value straight from next_uint32
    return rng.integers(0, 2**32, size=count, dtype=np.uint64)


class TestWords:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_words(self, seed):
        streams = Streams([(seed, TREES)])
        got = streams.words(np.arange(len(TREES)), 41)
        for row, tree in enumerate(TREES):
            assert np.array_equal(got[row], numpy_words(generator(seed, tree), 41)), tree
        assert not streams.pos.any()

    def test_words_from_either_half_of_an_output(self):
        streams = Streams([(7, range(4))])
        streams.pos[:] = [0, 1, 2, 9]
        for row, start in enumerate([0, 1, 2, 9]):
            expected = numpy_words(generator(7, row), start + 6)[start:]
            assert np.array_equal(streams.words([row], 6)[0], expected)

    def test_keys_of_mixed_seed_lengths_keep_their_order(self):
        keys = [(2**40 + 5, [3, 4]), (0, [0]), (2**130 + 3, [2]), (2**32 - 1, range(5, 8))]
        streams = Streams(keys)
        rows = [(seed, tree) for seed, trees in keys for tree in trees]
        got = streams.words(np.arange(len(rows)), 5)
        for row, (seed, tree) in enumerate(rows):
            assert np.array_equal(got[row], numpy_words(generator(seed, tree), 5))

    def test_no_rows(self):
        assert Streams([(0, [])]).words([], 3).shape == (0, 3)


class TestDraw:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_chained_draws_across_calls(self, seed):
        # 2**31 + 1 rejects about half its words; a bound of 1 consumes nothing
        calls = [[16] * 16, [2**31 + 1] * 7, [1], [1, 3, 1, 2**32, 2**31 + 1, 130], [5, 2**31 + 1, 1, 1, 2]]
        streams = Streams([(seed, TREES)])
        rngs = [generator(seed, tree) for tree in TREES]
        for bounds in calls:
            got = streams.draw(np.arange(len(TREES)), bounds)
            expected = [[rng.integers(0, bound) for bound in bounds] for rng in rngs]
            assert np.array_equal(got, expected), bounds
        # and the positions left behind are where numpy's streams stand
        assert np.array_equal(streams.words(np.arange(len(TREES)), 3),
                              [numpy_words(rng, 3) for rng in rngs])

    def test_draw_of_a_subset_of_rows_leaves_the_others(self):
        streams = Streams([(3, range(6))])
        streams.draw([1, 4], [9, 9, 9])
        got = streams.draw(np.arange(6), [9])
        expected = [generator(3, t).integers(0, 9, size=4 if t in (1, 4) else 1)[-1] for t in range(6)]
        assert np.array_equal(got[:, 0], expected)

    def test_bound_one_draws_nothing(self):
        streams = Streams([(5, range(3))])
        assert not streams.draw(np.arange(3), [1, 1, 1]).any()
        assert not streams.pos.any()

    def test_bootstrap_is_integers_of_its_size(self):
        streams = Streams([(11, range(20))])
        got = streams.draw(np.arange(20), np.full(37, 37))
        assert np.array_equal(got, [generator(11, t).integers(0, 37, size=37) for t in range(20)])

    @given(st.integers(0, 2**64), st.integers(0, 2**32 - 1),
           st.lists(st.lists(st.one_of(st.integers(1, 40), st.integers(2**31 - 3, 2**32)), max_size=12),
                    max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_any_bounds(self, seed, tree, calls):
        streams, rng = Streams([(seed, [tree])]), generator(seed, tree)
        for bounds in calls:
            assert streams.draw([0], bounds)[0].tolist() == [rng.integers(0, b) for b in bounds]

    @pytest.mark.parametrize("bounds", [[0], [2**32 + 1], [5, -1]])
    def test_bounds_outside_the_32_bit_path_are_refused(self, bounds):
        with pytest.raises(ValueError):
            Streams([(0, [0])]).draw([0], bounds)

    @pytest.mark.parametrize("seed, trees", [(-1, [0]), (0, [-1]), (0, [2**32])])
    def test_keys_outside_the_domain_are_refused(self, seed, trees):
        with pytest.raises(ValueError):
            Streams([(seed, trees)])


class TestSubsets:
    @pytest.mark.parametrize("d", [1, 2, 3, 16, 130, 512, 10001])
    def test_floyd_subsets_are_choice(self, d):
        m = math.ceil(math.sqrt(d))
        streams = Streams([(9, range(12))])
        rngs = [generator(9, t) for t in range(12)]
        # a bootstrap first, then one subset per call for changing row sets, as
        # the grower's rounds draw them
        streams.draw(np.arange(12), np.full(6, 6))
        for rng in rngs:
            rng.integers(0, 6, size=6)
        for rows in (np.arange(12), np.arange(0, 12, 5), np.arange(12), np.arange(11, 0, -3)):
            got = streams.subsets(rows, d, m)
            expected = [np.sort(rngs[r].choice(d, m, replace=False)) for r in rows]
            assert np.array_equal(got, np.reshape(expected, (len(rows), m))), d

    def test_partial_shuffle_sizes_are_refused(self):
        # numpy shuffles a full range instead of running Floyd's algorithm here
        with pytest.raises(ValueError):
            Streams([(0, [0])]).subsets([0], 10001, 201)


def test_import_builds_no_jump_table():
    src = os.path.dirname(os.path.dirname(os.path.abspath(coeye.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import coeye, coeye.cli, coeye.stream\nassert coeye.stream._jumps is None, 'jump table built on import'\n"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_threads_growing_the_jump_table_read_their_own(monkeypatch):
    # threads that need tables of different sizes build them at the same
    # time; each must read far enough into the table it uses
    def far_words(k):
        streams = Streams([(k, [k])])
        streams.pos[0] = 2000 * k
        return streams.words([0], 4)[0]

    # the largest first, so smaller tables finish while larger ones are built
    ks = range(15, -1, -1)
    expected = [numpy_words(generator(k, k), 2000 * k + 4)[-4:] for k in ks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(stream, "_jumps", None)
            with ThreadPoolExecutor(max_workers=16) as pool:
                got = list(pool.map(far_words, ks))
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))
    finally:
        sys.setswitchinterval(interval)
