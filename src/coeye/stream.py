"""Keyed, vectorised random streams: numpy's per-tree draws, many trees at once.

Tree ``t`` of a forest seeded ``s`` draws from
``default_rng(SeedSequence([s, t]))``, a PCG64 generator, where ``s`` and
``t`` are one 32-bit word each. ``Streams`` computes that generator's word
stream as a pure function of (seed, tree, word position), in NumPy, for
every tree of a growth batch together:

- SeedSequence's pool mixing of the two words and ``generate_state(4,
  uint64)``, in uint32 arithmetic;
- PCG64 seeding and its XSL-RR output (O'Neill, 2014), with the 128-bit
  state as (hi, lo) uint64 pairs. Word ``k`` is the low (even ``k``) or high
  half of output ``k // 2``, and output ``j`` is one jump of ``j + 1`` LCG
  steps from the seeded state, read from a table built on first use. So
  each word is computed on its own, as in a counter-based generator (Salmon
  et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11);
- Lemire's bounded draws as ``Generator.integers`` and ``Generator.choice``
  make them. A bound of 1 draws nothing, and a rejected word is replaced by
  the next one, so the rare rows with a rejection are walked one word at a
  time.

The words are bit-identical to the installed numpy's; ``tests/test_stream.py``
pins them against its own ``Generator``.
"""

from __future__ import annotations

import numpy as np

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# PCG64's LCG multiplier
_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# words per vectorised block of a draw: bounds its transient arrays, about
# forty uint64 arrays of half this length
_CELLS = 1 << 16

_LOW = np.uint64(_M32)
_32 = np.uint64(32)
_MULT_HI, _MULT_LO = np.uint64(_MULT >> 64), np.uint64(_MULT & _M64)

# (A_hi, A_lo, C_hi, C_lo): k LCG steps take a state S to A_k * S + C_k * inc
_jumps: tuple[np.ndarray, ...] | None = None


def _jump_table(size: int) -> tuple[np.ndarray, ...]:
    """The jump table, with at least ``size`` entries (k = 0, 1, ...)."""
    global _jumps
    table = _jumps
    if table is None or table[0].shape[0] < size:
        a, c, entries = 1, 0, []
        for _ in range(max(size, 1024, 2 * (0 if table is None else table[0].shape[0]))):
            entries.append((a >> 64, a & _M64, c >> 64, c & _M64))
            a, c = a * _MULT & _M128, (c * _MULT + 1) & _M128
        table = tuple(np.array(column, dtype=np.uint64) for column in zip(*entries))
        # a thread growing the table at the same time may keep its own, smaller
        # one here; each caller reads the table it checked
        _jumps = table
    return table


def _mul64(a, b):
    """Full 128-bit products of uint64 arrays, as (hi, lo)."""
    a1, a0, b1, b0 = a >> _32, a & _LOW, b >> _32, b & _LOW
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _32) + (p01 & _LOW) + (p10 & _LOW)
    return a1 * b1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32), (mid << _32) | (p00 & _LOW)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    hi, lo = _mul64(a_lo, b_lo)
    return hi + a_hi * b_lo + a_lo * b_hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _output(hi, lo):
    """PCG64's XSL-RR output of states (hi, lo): the folded halves rotated right by the top six bits."""
    x, rot = hi ^ lo, hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _seed_states(seeds: np.ndarray, trees: np.ndarray) -> list[np.ndarray]:
    """PCG64 [state_hi, state_lo, inc_hi, inc_lo] of ``default_rng(SeedSequence([seed, tree]))``
    for uint32 columns of seeds and trees."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _M32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> np.uint32(16))

    # two entropy words, the rest of the four-word pool zero
    zero = np.zeros_like(seeds)
    pool = [hashmix(word) for word in (seeds, trees, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    # generate_state(4, uint64): eight words from the cycled pool, paired low word first
    const, words = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _M32
        value = value * np.uint32(const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (words[2 * i] | (words[2 * i + 1] << _32) for i in range(4))
    # PCG64 seeding: inc = seq << 1 | 1; step; add the seed; step
    inc_hi, inc_lo = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63)), (seq_lo << np.uint64(1)) | np.uint64(1)
    hi, lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    hi, lo = _add128(*_mul128(hi, lo, _MULT_HI, _MULT_LO), inc_hi, inc_lo)
    return [hi, lo, inc_hi, inc_lo]


class Streams:
    """The word streams of ``default_rng(SeedSequence([seed, t]))``, one row per
    (seed, tree) key, each with its position: the words it has consumed. A
    seed, like a tree index, is one 32-bit word."""

    def __init__(self, keys):
        """``keys``: (seed, tree indices) pairs; rows follow them in order."""
        seeds, trees = [], []
        for seed, t in keys:
            t = np.asarray(t, dtype=np.int64)
            if not 0 <= seed <= _M32 or (t.size and not 0 <= t.min() <= t.max() <= _M32):
                raise ValueError("seeds and tree indices must lie in [0, 2**32)")
            seeds.append(np.full(t.shape[0], seed, dtype=np.uint32))
            trees.append(t.astype(np.uint32))
        self._state = _seed_states(np.concatenate(seeds), np.concatenate(trees))
        self.pos = np.zeros(self._state[0].shape[0], dtype=np.int64)

    def words(self, rows, count: int) -> np.ndarray:
        """The next ``count`` words of each of ``rows`` (uint64 holding uint32), not consumed."""
        return self._words(np.asarray(rows, dtype=np.intp), count).T

    def _words(self, rows, count: int) -> np.ndarray:
        """``words`` laid out (word, row), so every array op runs along the rows."""
        pos = self.pos[rows]
        table = _jump_table(int(pos.max(initial=0)) // 2 + count // 2 + 2)
        s_hi, s_lo, i_hi, i_lo = (column[rows] for column in self._state)
        # each row's state before the output that holds its next word, then
        # the outputs 1 .. count // 2 + 1 steps on from it
        at = pos // 2
        hi, lo = _add128(*_mul128(table[0][at], table[1][at], s_hi, s_lo),
                         *_mul128(table[2][at], table[3][at], i_hi, i_lo))
        a_hi, a_lo, c_hi, c_lo = (column[1:count // 2 + 2, None] for column in table)
        out = _output(*_add128(*_mul128(a_hi, a_lo, hi, lo), *_mul128(c_hi, c_lo, i_hi, i_lo)))
        words = np.stack([out & _LOW, out >> _32], axis=1).reshape(2 * out.shape[0], rows.shape[0])
        return np.where(pos % 2 == 1, words[1:count + 1], words[:count])

    def draw(self, rows, bounds) -> np.ndarray:
        """Draws in [0, bound), one per bound in order, from each of ``rows``: shape (rows, bounds).

        Each is ``integers(0, bound)`` as numpy draws it: ``word * bound >> 32``,
        a word whose low half ``word * bound & (2**32 - 1)`` falls below
        ``2**32 % bound`` is rejected for the next word, and a bound of 1 draws
        0 and consumes nothing.
        """
        rows = np.asarray(rows, dtype=np.intp)
        bounds = np.asarray(bounds, dtype=np.int64)
        if bounds.size and not 1 <= bounds.min() <= bounds.max() <= 1 << 32:
            raise ValueError("bounds must lie in [1, 2**32]")
        bounds = bounds.astype(np.uint64)
        used = np.flatnonzero(bounds > 1)
        out = np.zeros((rows.shape[0], bounds.shape[0]), dtype=np.int64)
        if used.shape[0] == 0:
            return out
        bound = bounds[used, None]
        threshold = np.uint64(1 << 32) % bound
        rejected = []
        step = max(1, _CELLS // used.shape[0])
        for lo in range(0, rows.shape[0], step):
            m = self._words(rows[lo:lo + step], used.shape[0]) * bound
            out[lo:lo + step, used] = (m >> _32).T
            rejected.extend((lo + np.flatnonzero(((m & _LOW) < threshold).any(axis=0))).tolist())
        self.pos[rows] += used.shape[0]
        for i in rejected:
            self.pos[rows[i]] -= used.shape[0]
            out[i] = self._walk(int(rows[i]), bounds.tolist())
        return out

    def _walk(self, row: int, bounds: list[int]) -> list[int]:
        """``draw`` for one row, one word at a time."""
        out, rows = [], np.array([row])
        for bound in bounds:
            value = 0
            while bound > 1:
                word = int(self._words(rows, 1)[0, 0])
                self.pos[row] += 1
                if word * bound & _M32 >= (1 << 32) % bound:
                    value = word * bound >> 32
                    break
            out.append(value)
        return out

    def subsets(self, rows, d: int, m: int) -> np.ndarray:
        """The next ``choice(d, m, replace=False)`` subset of each of ``rows``,
        sorted: shape (rows, m).

        ``choice`` runs Floyd's algorithm: column ``c`` draws from [0, d - m + c]
        and takes d - m + c instead if the value is already taken. It then
        shuffles with m - 1 draws of bounds m .. 2, which here only consume
        words, since the subsets are sorted.
        """
        if d > 10000 and m > d // 50:
            raise ValueError("choice draws such subsets by a partial shuffle, which is not reproduced")
        rows = np.asarray(rows, dtype=np.intp)
        pattern = np.concatenate([np.arange(d - m + 1, d + 1), np.arange(m, 1, -1)])
        picks = self.draw(rows, pattern)[:, :m]
        for c in range(1, m):
            taken = (picks[:, :c] == picks[:, c, None]).any(axis=1)
            picks[taken, c] = d - m + c
        return np.sort(picks, axis=1)
