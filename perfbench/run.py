#!/usr/bin/env python3
"""Benchmark of the coeye classifier, run from the root of a source checkout.

    python3 perfbench/run.py --workload chinatown --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload beetlefly --seed 1 --seconds 5 --trace 1
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics with nothing traced; ``--trace
1`` makes one traced pass at one worker and reports the per-layer metrics.
Every output is checked. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The full record (host,
versions, operations, checks, baselines, raw samples) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def git_describe() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown: not a git checkout"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    done = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                          env=env, capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown: git describe failed"


def host() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), "git_describe": git_describe()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="beetlefly, chinatown or imbalanced")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="repeat whole rounds until this long has passed (default: 5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced pass reporting per-layer metrics (default: 0)")
    parser.add_argument("--selftest", action="store_true",
                        help="show that every correctness check rejects a wrong input, then exit")
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join("src", "coeye", "__init__.py"), os.path.join("tests", "data", "ucr"))
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: {ROOT} is not a coeye checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import checks
    import workloads

    if args.selftest:
        problems = checks.selftest(os.path.join(OUT, "selftest"))
        for line in problems:
            print(f"FAIL {line}")
        print("selftest: every check rejected its wrong input" if not problems
              else f"selftest: {len(problems)} problem(s)")
        return 1 if problems else 0

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    run = workloads.Run(spec, args.seed, ROOT, OUT)
    record = {"workload": spec.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "host": host()}
    status = 0
    metrics = {}
    try:
        metrics = run.run_traced() if args.trace else run.run_untraced(args.seconds)
    except Exception:
        record["error"] = traceback.format_exc()
        print(record["error"], file=sys.stderr)
        status = 1
    ops = run.ops
    record.update(
        rounds=run.rounds,
        operations=ops.table(),
        checks=run.log.results,
        baselines={"majority_rate": getattr(run, "majority", None),
                   "one_nn_accuracy": getattr(run, "one_nn", None)},
        samples=dict(run.samples),
        host_adjusted_samples=dict(run.adjusted),
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    result = {
        "correct": status == 0 and run.log.ok,
        "attempted": sum(ops.attempted.values()),
        "failed": sum(ops.failed.values()),
        "metrics": record["metrics"],
    }
    with open(os.path.join(OUT, f"result_{run.tag}_trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for name, outcome in run.log.results.items():
        if outcome != "ok":
            print(f"check failed: {name}: {outcome}")
    print(f"baselines: majority rate {record['baselines']['majority_rate']}, "
          f"1-NN Euclidean {record['baselines']['one_nn_accuracy']}")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps(result))
    return status or (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
