"""Run configuration: a ``CoEyeConfig`` is the ``LensGrid`` its lens search
sweeps plus the run's settings, with defaults matching the reference protocol:
100-tree Gini forests, 5-fold seeded CV, SFA coefficient grid 10..130 step
10, min/max SAX binning, oversampling on."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import NoFeasibleLens, Record
from .symbolic import SAX, SAX_MODES, SFA, check_alphabets, word_fits


@dataclass(frozen=True)
class LensGrid(Record):
    """Candidate (alpha, w) pairs per representation, before feasibility filtering.

    ``None`` word lengths mean the defaults: a single uniform SAX word of
    min(n, 128), and even SFA words 10..min(130, n) step 10.
    """

    sax_alphas: tuple[int, ...] = tuple(range(3, 27))
    sax_word_lengths: tuple[int, ...] | None = None
    sfa_alphas: tuple[int, ...] = tuple(range(3, 27))
    sfa_word_lengths: tuple[int, ...] | None = None
    folds: int = 5

    def check(self):
        """Raise ValueError unless the grid has 2+ folds, no empty list and alphabets in range."""
        if not 2 <= self.folds < 2**63:
            raise ValueError("folds must be at least 2 and below 2**63: one fold holds no row out, ids are int64")
        for name in ("sax_alphas", "sfa_alphas", "sax_word_lengths", "sfa_word_lengths"):
            if getattr(self, name) == ():
                raise ValueError(f"{name} must not be empty: it leaves no (alpha, w) pair to search")
        check_alphabets(*self.sax_alphas, *self.sfa_alphas)

    @staticmethod
    def from_config(config: CoEyeConfig) -> LensGrid:
        """The grid fields of ``config`` alone."""
        return LensGrid(**{f.name: getattr(config, f.name) for f in fields(LensGrid)})

    def sax_pairs(self, n: int) -> list[tuple[int, int]]:
        words = [min(n, 128)] if self.sax_word_lengths is None else self.sax_word_lengths
        return _feasible_pairs(SAX, self.sax_alphas, words, n)

    def sfa_pairs(self, n: int) -> list[tuple[int, int]]:
        words = range(10, min(130, n) + 1, 10) if self.sfa_word_lengths is None else self.sfa_word_lengths
        return _feasible_pairs(SFA, self.sfa_alphas, words, n)

    def pairs(self, representation: int, n: int, rows: int) -> list[tuple[int, int]]:
        """Pairs for ``rows`` series of length ``n``. SFA keeps one alphabet at or above ``rows``:
        each cuts a column between every two distinct values, so all give one partition, unless values
        a few ulps apart meet the upward repair of duplicate cuts, which can split them otherwise."""
        if representation == SAX:
            pairs = self.sax_pairs(n)
        else:
            cap = min((a for a in self.sfa_alphas if a >= rows), default=rows)
            pairs = [(a, w) for a, w in self.sfa_pairs(n) if a <= cap]
        if not pairs:
            raise NoFeasibleLens(f"no feasible (alpha, w) pairs for series length {n}")
        return pairs


def _feasible_pairs(s: int, alphas, words, n: int) -> list[tuple[int, int]]:
    """Each (alpha, w) pair once, in sorted order, whose word fits series of length ``n``."""
    fitting = sorted({w for w in words if word_fits(s, w, n)})
    return [(a, w) for a in sorted(set(alphas)) for w in fitting]


@dataclass(frozen=True)
class CoEyeConfig(LensGrid):
    seed: int = 42
    trees: int = 100
    sax_mode: str = "minmax"
    smote: bool = True
    smote_k: int = 5
    threads: int | None = field(default=None, metadata={"saved": False})  # a run setting, not part of the model

    def check(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 1 <= self.trees <= 2**32:
            raise ValueError("trees must lie in [1, 2**32]: the forest stream keys a tree by one 32-bit word")
        if self.smote_k < 1:
            raise ValueError("smote_k must be at least 1")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.sax_mode not in SAX_MODES:
            raise ValueError(f"unknown sax_mode {self.sax_mode!r}")
        super().check()
