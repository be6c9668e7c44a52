#!/usr/bin/env python3
"""Print the sha256 and size of each bundled set's default-config model, and its serving pack's digest.

Trains BeetleFly and Chinatown from ``tests/data/ucr`` with the default
``CoEyeConfig`` under each lens strategy, at 1 and at 2 workers, saves
each model and prints one line per file. The pack digest is a sha256 over
the arrays of ``model.packed``, the one node layout that routing reads, so a
change of the file format that keeps every tree keeps that column while the
file hash moves. A change that must keep every model's bytes prints the
same lines before and after it. With ``--expect
FILE``, a table saved from an earlier run, it also prints the rows that
differ from that table and exits 1 on any difference:

    PYTHONPATH=src python3 scripts/model_hashes.py > before.md
    PYTHONPATH=src python3 scripts/model_hashes.py --expect before.md
"""

import argparse
import hashlib
import os
import sys
import tempfile
from dataclasses import fields
from itertools import zip_longest

import numpy as np

from coeye import CoEyeConfig, load_ucr, save_model, train

UCR_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "data", "ucr")
DATASETS = ("Chinatown", "BeetleFly")
STRATEGIES = ("search", "random")
WORKERS = (1, 2)


def pack_digest(model) -> str:
    """sha256 over the fields of the model's serving pack, in field order: each array's bytes, each count's digits."""
    digest = hashlib.sha256()
    for f in fields(model.packed):
        value = getattr(model.packed, f.name)
        digest.update(value.tobytes() if isinstance(value, np.ndarray) else str(value).encode())
    return digest.hexdigest()


def table():
    """Yield the table's lines, a model's line as soon as it is trained."""
    yield "| dataset | strategy | workers | sha256 | bytes | pack sha256 |"
    yield "|---|---|---|---|---|---|"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        for name in DATASETS:
            train_set = load_ucr(os.path.join(UCR_DIR, f"{name}_TRAIN.tsv"))
            for strategy in STRATEGIES:
                for workers in WORKERS:
                    model = train(train_set, CoEyeConfig(threads=workers), lens_strategy=strategy)
                    save_model(model, path)
                    with open(path, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    yield (f"| {name} | {strategy} | {workers} | {digest} | {os.path.getsize(path):,} "
                           f"| {pack_digest(model)} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print the sha256 and size of each bundled set's default-config "
                                                 "model, and its serving pack's digest.")
    parser.add_argument("--expect", metavar="FILE",
                        help="a table saved from an earlier run: print the rows that differ and exit 1 on any")
    args = parser.parse_args(argv)
    expected = None
    if args.expect:
        with open(args.expect, encoding="utf-8") as fh:
            expected = [line.strip() for line in fh if line.strip()]
    lines = []
    for line in table():
        print(line, flush=True)
        lines.append(line)
    if expected is None:
        return 0
    differ = [(want, got) for want, got in zip_longest(expected, lines, fillvalue="(no row)") if want != got]
    for want, got in differ:
        print(f"expected: {want}\ngot:      {got}")
    print(f"{len(differ)} row(s) differ from {args.expect}" if differ else f"every row equals {args.expect}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
