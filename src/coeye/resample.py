"""Minority-class oversampling by synthetic interpolation (SMOTE).

Applied to training splits only. Every eligible minority class is topped
up to the majority count; each synthetic series lies on the segment
between a random class member and one of its k nearest same-class
neighbours (Euclidean distance on the raw series). Classes with a single
instance are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NoMinorityClass, Record, _is_int

# float64 elements of the difference tensor held at once by the neighbour search
NEIGHBOR_BLOCK = 1 << 22


@dataclass(frozen=True)
class SmoteReport(Record):
    """Per-class original and synthetic counts plus the oversampling ratio."""

    original_counts: dict[int, int]
    added_counts: dict[int, int]
    smote_percentage: float

    def check(self):
        if self.original_counts.keys() != self.added_counts.keys():
            raise ValueError("original_counts and added_counts must name the same classes")
        if any(n < 0 for n in (*self.original_counts.values(), *self.added_counts.values())):
            raise ValueError("class counts must be non-negative")
        if not 0 <= self.smote_percentage < math.inf:
            raise ValueError(f"smote_percentage must be finite and non-negative, got {self.smote_percentage}")

    @staticmethod
    def empty(counts: dict[int, int]) -> "SmoteReport":
        return SmoteReport(counts, {c: 0 for c in counts}, 0.0)


def _nearest_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest rows of each row (self excluded).

    Distances are computed for a block of rows at a time, so memory stays
    near ``NEIGHBOR_BLOCK`` elements; each distance is the same sum over the
    same differences as in one (m, m, n) tensor, so the order does not
    depend on the block size.
    """
    m = points.shape[0]
    step = max(1, NEIGHBOR_BLOCK // max(1, points.size))
    order = np.empty((m, k), dtype=np.intp)
    for lo in range(0, m, step):
        d2 = ((points[lo:lo + step, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        d2[np.arange(d2.shape[0]), np.arange(lo, lo + d2.shape[0])] = np.inf
        order[lo:lo + step] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return order


def smote(train: Dataset, k: int = 5, seed: int = 0) -> tuple[Dataset, SmoteReport]:
    """Balance a training set by synthetic minority oversampling.

    Deterministic under ``seed``. Originals are kept verbatim, in order,
    ahead of the synthetics. Balanced inputs pass through untouched with a
    zero-percentage report. Raises NoMinorityClass on single-class input.
    """
    if not _is_int(k) or k < 1:
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")
    counts = train.class_counts()
    if len(counts) < 2:
        raise NoMinorityClass("oversampling needs at least two classes")

    majority = max(counts.values())
    deficits = {
        label: majority - count
        for label, count in counts.items()
        if count < majority and count >= 2
    }
    if not deficits:
        return train, SmoteReport.empty(counts)

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    synth_rows = []
    synth_labels = []
    added = {c: 0 for c in counts}
    for label in sorted(deficits):
        need = deficits[label]
        members = train.X[train.y == label]
        k_eff = min(k, members.shape[0] - 1)
        nn = _nearest_neighbors(members, k_eff)
        base = rng.integers(0, members.shape[0], size=need)
        pick = rng.integers(0, k_eff, size=need)
        u = rng.random(need)
        x = members[base]
        x_nn = members[nn[base, pick]]
        synth_rows.append(x + u[:, None] * (x_nn - x))
        synth_labels.extend([label] * need)
        added[label] = need

    X = np.vstack([train.X] + synth_rows)
    y = np.concatenate([train.y, np.asarray(synth_labels, dtype=np.int64)])
    total_added = sum(added.values())
    report = SmoteReport(counts, added, total_added / len(train))
    return Dataset(X, y, name=train.name), report
