"""The generated ``imbalanced`` dataset: three unequal classes of length 128.

Every series is a sine of random frequency and phase under Gaussian noise.
Class 2 also carries a Gaussian bump at a random position; class 3 carries
a linear drift. The classes overlap, so the forests grow deep trees, and
the class sizes are unequal, so SMOTE has work to do.
"""

from __future__ import annotations

import numpy as np

LENGTH = 128
TRAIN_COUNTS = {1: 30, 2: 12, 3: 6}
TEST_COUNTS = {1: 120, 2: 48, 3: 24}
# The training split is always drawn from seed 0, stream 0, so every run
# trains on the same work; the test split is drawn from the workload seed,
# stream 1.
TRAIN_SEED = 0
TEST_STREAM = 1


def make_split(seed: int, counts: dict[int, int], stream: int = 0):
    """(X, y) with ``counts[label]`` rows per label, shuffled; a pure function of its arguments."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    t = np.arange(LENGTH) / LENGTH
    rows, labels = [], []
    for label in sorted(counts):
        m = counts[label]
        freq = rng.uniform(2.0, 4.0, size=(m, 1))
        phase = rng.uniform(0.0, 2 * np.pi, size=(m, 1))
        x = np.sin(2 * np.pi * freq * t + phase) + rng.normal(0.0, 0.5, size=(m, LENGTH))
        if label == 2:
            centre = rng.uniform(0.2, 0.8, size=(m, 1))
            x += 1.5 * np.exp(-0.5 * ((t - centre) / 0.04) ** 2)
        elif label == 3:
            x += rng.uniform(1.0, 2.0, size=(m, 1)) * (t - 0.5)
        rows.append(x)
        labels.append(np.full(m, label, dtype=np.int64))
    X, y = np.vstack(rows), np.concatenate(labels)
    order = rng.permutation(y.shape[0])
    return X[order], y[order]
