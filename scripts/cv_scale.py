#!/usr/bin/env python3
"""Time one lens-search grid point on training sets with a single-row class.

One SAX point (40 features, 8 symbols) is scored with 100 trees and the
default 5 folds in this process, on 30, 100 and 300 rows of two noisy
classes plus one row of a third class. Prints, per size, the number of
fold forests the search grew and the seconds it took:

    PYTHONPATH=src python3 scripts/cv_scale.py
    PYTHONPATH=src python3 scripts/cv_scale.py --rows 30 100 --trees 50
"""

import argparse
import sys
import time

import numpy as np

from coeye import Dataset, lenses
from coeye.lenses import LensGrid, search_lenses

LENGTH = 40
ALPHABET = 8


def singleton_set(rows: int, seed: int) -> Dataset:
    """``rows - 1`` series of two classes (a sine and its negation, with noise), then one series of class 2."""
    rng = np.random.default_rng(seed)
    y = np.append(np.arange(rows - 1) % 2, 2)
    shape = np.sin(2 * np.pi * np.arange(LENGTH) / LENGTH)
    X = np.where(y[:, None] == 1, -shape, shape) + rng.normal(0, 1.0, (rows, LENGTH))
    return Dataset(X, y, name=f"singleton_{rows}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rows", type=int, nargs="*", default=[30, 100, 300])
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    grown = []
    fit_forests = lenses.fit_forests

    def counting(X, y, row_sets, *rest, **kwargs):
        grown.append(len(row_sets))
        return fit_forests(X, y, row_sets, *rest, **kwargs)

    lenses.fit_forests = counting
    grid = LensGrid(sax_alphas=(ALPHABET,), sax_word_lengths=(LENGTH,))
    print("| rows | fold forests | seconds |")
    print("|---|---|---|")
    for rows in args.rows:
        data = singleton_set(rows, args.seed)
        grown.clear()
        start = time.perf_counter()
        search_lenses(data, "sax", grid, seed=args.seed, trees=args.trees, workers=1)
        seconds = time.perf_counter() - start
        print(f"| {rows} | {sum(grown)} | {seconds:.2f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
