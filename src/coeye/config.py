"""Run configuration with defaults matching the reference protocol:
100-tree Gini forests, 5-fold seeded CV, SFA coefficient grid 10..130 step
10, min/max SAX binning, oversampling on."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import model_array, model_field


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
        if self.smote_k < 1:
            raise ValueError("smote_k must be at least 1")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be at least 1")
        if self.sax_mode not in ("minmax", "gaussian"):
            raise ValueError(f"unknown sax_mode {self.sax_mode!r}")

    @staticmethod
    def from_dict(payload: dict) -> "CoEyeConfig":
        """Read a model file's ``config``, each field by its JSON type; raises ModelParseError."""
        def ints(key):
            return tuple(model_array(payload[key], key, np.int64).tolist())

        def word_lengths(key):
            return None if payload[key] is None else ints(key)

        return CoEyeConfig(
            seed=model_field(payload, "seed"),
            trees=model_field(payload, "trees"),
            folds=model_field(payload, "folds"),
            sax_alphas=ints("sax_alphas"),
            sax_word_lengths=word_lengths("sax_word_lengths"),
            sfa_alphas=ints("sfa_alphas"),
            sfa_word_lengths=word_lengths("sfa_word_lengths"),
            sax_mode=payload["sax_mode"],
            smote=model_field(payload, "smote", bool),
            smote_k=model_field(payload, "smote_k"),
        )
