"""Run configuration with defaults matching the reference protocol:
100-tree Gini forests, 5-fold seeded CV, SFA coefficient grid 10..130 step
10, min/max SAX binning, oversampling on."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Record
from .symbolic import SAX_MODES, check_alphabets


def check_grid(grid) -> None:
    """Raise ValueError unless ``grid``, a config or a lens grid, has 2+ folds, no empty list and alphabets in range."""
    if not 2 <= grid.folds < 2**63:
        raise ValueError("folds must be at least 2 and below 2**63: one fold holds no row out, ids are int64")
    for name in ("sax_alphas", "sfa_alphas", "sax_word_lengths", "sfa_word_lengths"):
        if getattr(grid, name) == ():
            raise ValueError(f"{name} must not be empty: it leaves no (alpha, w) pair to search")
    check_alphabets(*grid.sax_alphas, *grid.sfa_alphas)


@dataclass(frozen=True)
class CoEyeConfig(Record):
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
        check_grid(self)
