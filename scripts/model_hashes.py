#!/usr/bin/env python3
"""Print the sha256 and size of each bundled set's default-config model.

Trains BeetleFly and Chinatown from ``tests/data/ucr`` with the default
``CoEyeConfig`` under each lens strategy, at 1 and at 2 workers, saves
each model and prints one line per file. A change that must keep every
model's bytes prints the same lines before and after it:

    PYTHONPATH=src python3 scripts/model_hashes.py
"""

import hashlib
import os
import sys
import tempfile
import warnings

from coeye import CoEyeConfig, load_ucr, save_model, train
from coeye.errors import EqualDepthDegenerate

UCR_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "data", "ucr")
DATASETS = ("Chinatown", "BeetleFly")
STRATEGIES = ("search", "random")
WORKERS = (1, 2)


def main() -> int:
    warnings.simplefilter("ignore", EqualDepthDegenerate)
    print("| dataset | strategy | workers | sha256 | bytes |")
    print("|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        for name in DATASETS:
            train_set = load_ucr(os.path.join(UCR_DIR, f"{name}_TRAIN.tsv"))
            for strategy in STRATEGIES:
                for workers in WORKERS:
                    save_model(train(train_set, CoEyeConfig(threads=workers), lens_strategy=strategy), path)
                    with open(path, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    print(f"| {name} | {strategy} | {workers} | {digest} | {os.path.getsize(path):,} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
