"""Reference vote: the scalar one-row vote, kept as a test oracle.

This is the straightforward implementation that ``coeye.ensemble.vote``
must reproduce exactly, in every field of every Prediction, tie draws
included. It votes one (k, c) matrix at a time, with ``np.unique`` label
counts, and draws each tie from a fresh stream seeded by (seed,
``_NS_VOTE``) in a fixed order: SAX first and second label, SFA first and
second label, then the fallback's pick.
"""

from __future__ import annotations

import numpy as np

from coeye.ensemble import _NS_VOTE, ROUND_FALLBACK, ROUND_FIRST, ROUND_SECOND, Prediction
from coeye.errors import EmptyEnsemble


def block_best_reference(block: np.ndarray, rng):
    """(best label, best confidence, second label, second confidence) for one block."""
    row_max = block.max(axis=1)
    row_arg = block.argmax(axis=1)
    best = row_max.max()
    at_best = row_arg[row_max == best]
    labels, freqs = np.unique(at_best, return_counts=True)

    top = labels[freqs == freqs.max()]
    first = int(top[0]) if top.shape[0] == 1 else int(rng.choice(top))

    if labels.shape[0] > 1:
        rest = labels != first
        rest_labels, rest_freqs = labels[rest], freqs[rest]
        runners = rest_labels[rest_freqs == rest_freqs.max()]
        second = int(runners[0]) if runners.shape[0] == 1 else int(rng.choice(runners))
        return first, float(best), second, float(best)

    below = row_max < best
    if not below.any():
        return first, float(best), None, None
    next_best = row_max[below].max()
    at_next = row_arg[below & (row_max == next_best)]
    labels2, freqs2 = np.unique(at_next, return_counts=True)
    top2 = labels2[freqs2 == freqs2.max()]
    second = int(top2[0]) if top2.shape[0] == 1 else int(rng.choice(top2))
    return first, float(best), second, float(next_best)


def vote_reference(pred, sax_count: int, seed: int = 0, class_labels=None) -> Prediction:
    """Two-round most-confident-lens vote over one (k, c) probability matrix."""
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 2 or pred.shape[0] == 0:
        raise EmptyEnsemble("the probability matrix has no rows")
    if not 0 <= sax_count <= pred.shape[0]:
        raise ValueError("sax_count outside the matrix")

    rng = np.random.default_rng(np.random.SeedSequence([seed, _NS_VOTE]))
    blocks = [pred[:sax_count], pred[sax_count:]]
    results = [block_best_reference(b, rng) if b.shape[0] else None for b in blocks]

    def emit(label_idx, confidence, rnd):
        sax_label = results[0][0] if results[0] else None
        sfa_label = results[1][0] if results[1] else None
        if class_labels is not None:
            labels = np.asarray(class_labels)
            return Prediction(
                int(labels[label_idx]),
                confidence,
                rnd,
                sax_label=None if sax_label is None else int(labels[sax_label]),
                sfa_label=None if sfa_label is None else int(labels[sfa_label]),
            )
        return Prediction(int(label_idx), confidence, rnd, sax_label=sax_label, sfa_label=sfa_label)

    present = [r for r in results if r is not None]
    if len(present) == 1:
        first, conf, _, _ = present[0]
        return emit(first, conf, ROUND_FIRST)

    (sax_first, sax_conf, sax_second, sax_sconf) = results[0]
    (sfa_first, sfa_conf, sfa_second, sfa_sconf) = results[1]

    if sax_first == sfa_first:
        return emit(sax_first, max(sax_conf, sfa_conf), ROUND_FIRST)

    if sax_second is not None and sfa_second is not None and sax_second == sfa_second:
        return emit(sax_second, max(sax_sconf, sfa_sconf), ROUND_SECOND)

    if sax_conf > sfa_conf:
        return emit(sax_first, sax_conf, ROUND_FALLBACK)
    if sfa_conf > sax_conf:
        return emit(sfa_first, sfa_conf, ROUND_FALLBACK)
    pick = int(rng.integers(2))
    return emit((sax_first, sfa_first)[pick], sax_conf, ROUND_FALLBACK)
