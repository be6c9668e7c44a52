"""Run configuration with defaults matching the reference protocol:
100-tree Gini forests, 5-fold seeded CV, SFA coefficient grid 10..130 step
10, min/max SAX binning, oversampling on."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from .symbolic import SAX_MODES, check_alphabets


@dataclass(frozen=True)
class CoEyeConfig:
    seed: int = 42
    trees: int = 100
    folds: int = 5
    sax_alphas: tuple[int, ...] = tuple(range(3, 27))
    sax_word_lengths: tuple[int, ...] | None = None
    sfa_alphas: tuple[int, ...] = tuple(range(3, 27))
    sfa_word_lengths: tuple[int, ...] | None = None
    sax_mode: str = "minmax"
    smote: bool = True
    smote_k: int = 5
    threads: int | None = None

    def __post_init__(self):
        ints = (self.seed, self.trees, self.folds, self.smote_k, *self.sax_alphas, *self.sfa_alphas,
                *(self.sax_word_lengths or ()), *(self.sfa_word_lengths or ()), self.threads or 1)
        if not isinstance(self.smote, bool) or any(isinstance(v, bool) or not isinstance(v, Integral) for v in ints):
            raise TypeError("seed, counts, alphabets and word lengths must be integers, not bools; smote a bool")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 1 <= self.trees <= 2**32:
            raise ValueError("trees must lie in [1, 2**32]: the forest stream keys a tree by one 32-bit word")
        if not 2 <= self.folds < 2**63:
            raise ValueError("folds must be at least 2 and below 2**63")
        if self.smote_k < 1:
            raise ValueError("smote_k must be at least 1")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.sax_mode not in SAX_MODES:
            raise ValueError(f"unknown sax_mode {self.sax_mode!r}")
        check_alphabets(*self.sax_alphas, *self.sfa_alphas)
