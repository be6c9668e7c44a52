#!/usr/bin/env python3
"""Run one workload at several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload chinatown --seeds 1-10 --seconds 5

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. Each run's
result line is appended to ``perfbench/out/spread_<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a comma list")
    parser.add_argument("--seconds", default="5")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", f"spread_{args.workload}.jsonl")
    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, "exit": done.returncode, **result}) + "\n")
        if done.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {done.returncode}, correct {result['correct']}")
        failed_shares.add((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"(failed, attempted) seen: {sorted(failed_shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:28s} median {med:.6g}  spread {spread:.4f}  min {min(vals):.6g}  max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
