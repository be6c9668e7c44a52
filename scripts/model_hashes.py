#!/usr/bin/env python3
"""Print the sha256 and size of each bundled set's default-config model and of each
benchmark workload's model, its serving pack's digest and its vote's.

Trains BeetleFly and Chinatown from ``tests/data/ucr`` with the default
``CoEyeConfig`` under each lens strategy, then each workload of
``perfbench/workloads.py`` (rows ``perfbench:<name>``) with its grid at its
``MODEL_SEED``, as the benchmark trains the model whose size it reports, all
at 1 and at 2 workers; saves each model and prints one line per file. The
generated ``imbalanced`` workload's splits come from ``perfbench/gen.py``,
its TEST split from the stream of ``perfbench/run.py --seed 1``; the
``perfbench`` modules are imported, never changed. The pack digest is a
sha256 over the arrays of ``model.packed``, the one node layout that routing
reads, so a change of the file format that keeps every tree keeps that
column while the file hash moves. The vote digest is a sha256 over every
field of every Prediction the model gives on its set's TEST split; the
default-config models hold 30 to 130 eyes, so their votes reach ties that
small models never meet. A change that must keep every model's bytes and
votes prints the same lines before and after it. With ``--expect FILE``, a
table saved from an earlier run, it also prints the rows that differ from
that table and exits 1 on any difference:

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

from coeye import CoEyeConfig, Dataset, load_ucr, predict_dataset, save_model, train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UCR_DIR = os.path.join(ROOT, "tests", "data", "ucr")
PERFBENCH = os.path.join(ROOT, "perfbench")
DATASETS = ("Chinatown", "BeetleFly")
STRATEGIES = ("search", "random")
WORKERS = (1, 2)
BENCH_TEST_SEED = 1  # the generated workload's TEST split, as `perfbench/run.py --seed 1` draws it


def pack_digest(model) -> str:
    """sha256 over the fields of the model's serving pack, in field order: each array's bytes, each count's digits."""
    digest = hashlib.sha256()
    for f in fields(model.packed):
        value = getattr(model.packed, f.name)
        digest.update(value.tobytes() if isinstance(value, np.ndarray) else str(value).encode())
    return digest.hexdigest()


def vote_digest(model, test) -> str:
    """sha256 over the repr of each TEST row's (label, confidence, round, sax_label, sfa_label)."""
    votes = [(p.label, p.confidence, p.round, p.sax_label, p.sfa_label) for p in predict_dataset(model, test)]
    return hashlib.sha256(repr(votes).encode()).hexdigest()


def ucr_splits(name):
    """(TRAIN, TEST) Datasets of the bundled set ``name``."""
    return tuple(load_ucr(os.path.join(UCR_DIR, f"{name}_{part}.tsv")) for part in ("TRAIN", "TEST"))


def models():
    """Yield (row name, lens strategy, train split, test split, config fields but ``threads``) of each model."""
    for name in DATASETS:
        splits = ucr_splits(name)
        for strategy in STRATEGIES:
            yield (name, strategy, *splits, {})
    sys.path.insert(0, PERFBENCH)
    import gen
    import workloads

    for name, spec in workloads.WORKLOADS.items():
        if spec.generated:
            splits = (Dataset(*gen.make_split(gen.TRAIN_SEED, gen.TRAIN_COUNTS), name=spec.dataset),
                      Dataset(*gen.make_split(BENCH_TEST_SEED, gen.TEST_COUNTS, gen.TEST_STREAM), name=spec.dataset))
        else:
            splits = ucr_splits(spec.dataset)
        yield (f"perfbench:{name}", "search", *splits, dict(seed=workloads.MODEL_SEED, **spec.grid))


def table():
    """Yield the table's lines, a model's line as soon as it is trained."""
    yield "| dataset | strategy | workers | sha256 | bytes | pack sha256 | vote sha256 |"
    yield "|---|---|---|---|---|---|---|"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        for name, strategy, train_set, test_set, grid in models():
            for workers in WORKERS:
                model = train(train_set, CoEyeConfig(threads=workers, **grid), lens_strategy=strategy)
                save_model(model, path)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                yield (f"| {name} | {strategy} | {workers} | {digest} | {os.path.getsize(path):,} "
                       f"| {pack_digest(model)} | {vote_digest(model, test_set)} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print the sha256 and size of each bundled set's default-config "
                                                 "model and each benchmark workload's model, its serving pack's "
                                                 "digest and its vote's.")
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
