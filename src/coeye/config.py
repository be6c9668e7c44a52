"""Run configuration with defaults matching the reference protocol:
100-tree Gini forests, 5-fold seeded CV, SFA coefficient grid 10..130 step
10, min/max SAX binning, oversampling on."""

from __future__ import annotations

from dataclasses import dataclass, field


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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.trees < 1:
            raise ValueError("need at least one tree")
        if self.folds < 2:
            raise ValueError("need at least two folds")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.sax_mode not in ("minmax", "gaussian"):
            raise ValueError(f"unknown sax_mode {self.sax_mode!r}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trees": self.trees,
            "folds": self.folds,
            "sax_alphas": list(self.sax_alphas),
            "sax_word_lengths": None if self.sax_word_lengths is None else list(self.sax_word_lengths),
            "sfa_alphas": list(self.sfa_alphas),
            "sfa_word_lengths": None if self.sfa_word_lengths is None else list(self.sfa_word_lengths),
            "sax_mode": self.sax_mode,
            "smote": self.smote,
            "smote_k": self.smote_k,
        }

    @staticmethod
    def from_dict(payload: dict) -> "CoEyeConfig":
        def tup(v):
            return None if v is None else tuple(v)

        return CoEyeConfig(
            seed=int(payload["seed"]),
            trees=int(payload["trees"]),
            folds=int(payload["folds"]),
            sax_alphas=tuple(payload["sax_alphas"]),
            sax_word_lengths=tup(payload["sax_word_lengths"]),
            sfa_alphas=tuple(payload["sfa_alphas"]),
            sfa_word_lengths=tup(payload["sfa_word_lengths"]),
            sax_mode=payload["sax_mode"],
            smote=bool(payload["smote"]),
            smote_k=int(payload["smote_k"]),
        )
