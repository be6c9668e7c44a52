"""The benchmark's workloads: train, serve and check the coeye classifier.

Each workload is a closed loop driven from this one process. A run repeats
whole rounds until ``seconds`` have passed. A round holds set-ups (a fresh
interpreter imports coeye and parses the splits, timed from outside),
trains at one worker and at every core, batch predictions, single-row
classifications, a save/reload round trip and ``coeye predict`` processes.
The program sees only the splits: the bundled UCR files, or the files this
module writes for the generated workload.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

import checks
import gen
import hostspeed
from tracing import LAYERS, Tracer, nested_in, span_cost, summarize

# program calls go through the module attributes, so the traced run sees them
from coeye import cli, data, ensemble, symbolic
from coeye.config import CoEyeConfig
from coeye.lenses import LensGrid

# The model seed is fixed, so every run trains on the same work; --seed
# draws the generated test split and the rows classified singly.
MODEL_SEED = 0
IMPORT_REPEATS = 3
SFA_SAMPLE_ROWS = 5
PROCESS_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    grid: dict = field(default_factory=dict)
    generated: bool = False
    predict_per_slice: int = 5
    classify_rows: int = 16


# Why each workload exists is written in BENCHMARK.json and README.md. The
# grids are smaller than the default where the default would not let every
# run fit the benchmark's time budget.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("beetlefly", "BeetleFly",
                 grid={"sax_alphas": (4, 13, 22), "sfa_alphas": (4, 13, 22),
                       "sfa_word_lengths": (10, 50, 90, 130)}),
        Workload("chinatown", "Chinatown", grid={"sax_alphas": tuple(range(3, 27, 3)),
                                                 "sfa_alphas": tuple(range(3, 27, 3))},
                 predict_per_slice=3, classify_rows=12),
        Workload("imbalanced", "Imbalanced",
                 grid={"sax_alphas": (4, 16), "sax_word_lengths": (16,),
                       "sfa_alphas": (4, 16), "sfa_word_lengths": (16,)},
                 generated=True),
    )
}
# Each round trains this many times at one worker and as many at every core;
# the host's drift only slows work, so the fastest repeat is reported.
TRAIN_PAIRS = 2


class OperationFailed(RuntimeError):
    pass


class Ops:
    """Counts every operation attempted and failed."""

    def __init__(self):
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def call(self, name, fn, *args, **kwargs):
        """(result, seconds) of one call; a raise counts as a failure and propagates."""
        self.attempted[name] += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed[name] += 1
            raise
        return out, time.perf_counter() - t0

    def process(self, name, argv, env) -> float:
        """Wall seconds of one child process, which must exit with code 0."""
        self.attempted[name] += 1
        t0 = time.perf_counter()
        done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=PROCESS_TIMEOUT_S, check=False)
        seconds = time.perf_counter() - t0
        if done.returncode != 0:
            self.failed[name] += 1
            tail = done.stderr.decode("utf-8", "replace")[-2000:]
            raise OperationFailed(f"{name} exited with {done.returncode}: {tail}")
        return seconds

    def table(self) -> dict:
        return {name: {"attempted": n, "failed": self.failed[name]} for name, n in sorted(self.attempted.items())}


class CheckLog:
    """The outcome of each named check; the first failure of a name sticks."""

    def __init__(self):
        self.results: dict[str, str] = {}

    def run(self, name, fn, *args) -> None:
        try:
            fn(*args)
            outcome = "ok"
        except checks.CheckFailed as exc:
            outcome = str(exc)
        if self.results.get(name, "ok") == "ok":
            self.results[name] = outcome

    @property
    def ok(self) -> bool:
        return all(v == "ok" for v in self.results.values())


def _write_split(path, X, y) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(y, X):
            fh.write("\t".join([str(int(label))] + [repr(float(v)) for v in row]) + "\n")


class Run:
    """One invocation of one workload at one seed."""

    def __init__(self, spec: Workload, seed: int, root: str, out_dir: str):
        self.spec, self.out = spec, out_dir
        self.ops, self.log = Ops(), CheckLog()
        self.samples: dict[str, list[float]] = defaultdict(list)
        # serving wall times in reference seconds (see hostspeed)
        self.adjusted: dict[str, list[float]] = defaultdict(list)
        self.probe = hostspeed.HostProbe()
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
        self.nproc = os.cpu_count() or 1
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.tag = f"{spec.name}_seed{seed}"
        os.makedirs(out_dir, exist_ok=True)
        if spec.generated:
            self.data_dir = os.path.join(out_dir, f"data_{self.tag}")
            os.makedirs(self.data_dir, exist_ok=True)
            self.generated = {
                "TRAIN": gen.make_split(gen.TRAIN_SEED, gen.TRAIN_COUNTS),
                "TEST": gen.make_split(seed, gen.TEST_COUNTS, gen.TEST_STREAM),
            }
            for split, (X, y) in self.generated.items():
                _write_split(self._split_path(split), X, y)
        else:
            self.data_dir = os.path.join(root, "tests", "data", "ucr")
        self.rounds = 0

    def _split_path(self, split: str) -> str:
        return os.path.join(self.data_dir, f"{self.spec.dataset}_{split}.tsv")

    def _out(self, suffix: str) -> str:
        return os.path.join(self.out, f"{self.tag}_{suffix}")

    def config(self, threads: int) -> CoEyeConfig:
        return CoEyeConfig(seed=MODEL_SEED, threads=threads, **self.spec.grid)

    def timed(self, key: str, name: str, fn, *args):
        """Call ``fn`` as operation ``name`` and keep its wall time under ``key``."""
        out, seconds = self.ops.call(name, fn, *args)
        self.samples[key].append(seconds)
        return out

    def timed_process(self, key: str, name: str, argv) -> None:
        self.samples[key].append(self.ops.process(name, argv, self.env))

    # -- set-up ---------------------------------------------------------------

    def measure_setup(self) -> None:
        """One fresh interpreter imports coeye and parses both splits, timed from outside."""
        code = ("import coeye; coeye.load_ucr({!r}); coeye.load_ucr({!r})"
                .format(self._split_path("TRAIN"), self._split_path("TEST")))
        self.timed_process("setup_s", "setup", [sys.executable, "-c", code])

    def load_and_check_data(self) -> None:
        self.train_set, _ = self.ops.call("load_ucr", data.load_ucr, self._split_path("TRAIN"))
        self.test_set, _ = self.ops.call("load_ucr", data.load_ucr, self._split_path("TEST"))
        for split, loaded in (("TRAIN", self.train_set), ("TEST", self.test_set)):
            self.log.run(f"parsed_file_{split.lower()}", checks.check_parsed_file,
                         self._split_path(split), loaded.X, loaded.y)
            if self.spec.generated:
                X, y = self.generated[split]
                self.log.run(f"parsed_file_{split.lower()}_generated", checks.check_parsed_file,
                             self._split_path(split), X, y)
        self.majority = checks.majority_rate(self.test_set.y)
        self.one_nn = checks.one_nn_accuracy(self.train_set.X, self.train_set.y,
                                             self.test_set.X, self.test_set.y)
        n_rows = min(self.spec.classify_rows, len(self.test_set))
        self.classify_rows = self.rng.choice(len(self.test_set), size=n_rows, replace=False)

    # -- one round ------------------------------------------------------------

    def round(self) -> None:
        """TRAIN_PAIRS times: a set-up, a train at one worker, serving, ``coeye predict``,
        a train at every core, serving. Then the model checks and a last set-up.

        The host's speed drifts, so set-ups, predictions, classifications and
        CLI runs are spread over the round rather than bunched; every serving
        slice classifies the same rows, so each row is timed at four moments.
        """
        path_1w, path = self._out("model_1w.json"), self._out("model.json")
        for pair in range(TRAIN_PAIRS):
            self.measure_setup()
            model_1w = self.timed("train_1w_s", "train_1w", ensemble.train, self.train_set, self.config(1))
            self.ops.call("save_model", ensemble.save_model, model_1w, path_1w)
            self.serve(model_1w, self.spec.predict_per_slice, self.classify_rows)
            self.cli_predict(path_1w)
            model = self.timed("train_s", "train", ensemble.train, self.train_set, self.config(self.nproc))
            self.ops.call("save_model", ensemble.save_model, model, path)
            self.log.run("one_worker_and_all_core_models_identical", checks.check_same_bytes,
                         _read(path_1w), _read(path), "model bytes, one worker vs all cores")
            preds = self.serve(model, self.spec.predict_per_slice, self.classify_rows)
        self.log.run("smote_counts", checks.check_smote_counts, model.smote_report, self.train_set.y)
        self.check_model(model, path, preds)
        self.measure_setup()

    def serve(self, model, predict_reps: int, classify_rows) -> list:
        """Timed batch predictions of the test split, then timed single-row classifications.

        Each call sits between two host-speed probes, which scale its wall
        time to reference seconds.
        """
        probe = self.probe.measure()

        def timed_serving(key, name, fn, *args):
            nonlocal probe
            out = self.timed(key, name, fn, *args)
            after = self.probe.measure()
            self.adjusted[key].append(hostspeed.adjust(self.samples[key][-1], probe, after))
            probe = after
            return out

        for _ in range(predict_reps):
            preds = timed_serving("predict_s", "predict_dataset", ensemble.predict_dataset, model, self.test_set)
        self.labels = np.array([p.label for p in preds])
        single = {}
        for row in classify_rows:
            single[int(row)] = timed_serving("classify_s", "classify", ensemble.classify, model,
                                             self.test_set.X[row]).label
        self.log.run("classify_matches_predict_dataset", checks.check_single_matches_batch, self.labels, single)
        return preds

    def check_model(self, model, path, preds) -> None:
        """Accuracy, per-eye probabilities, and the reload and re-save round trip."""
        test = self.test_set
        self.samples["accuracy"].append(float(np.mean(self.labels == test.y)))
        self.log.run("accuracy_beats_majority_rate", checks.check_beats_baseline,
                     self.samples["accuracy"][-1], self.majority)
        per_eye, _ = self.ops.call("eye_probabilities", ensemble.eye_probabilities, model, test.X)
        self.log.run("eye_probability_rows_sum_to_1", checks.check_probability_rows, per_eye)
        self.log.run("confidence_is_an_eye_probability", checks.check_confidence_is_an_eye_probability,
                     [p.confidence for p in preds], per_eye)

        reloaded, _ = self.ops.call("load_model", ensemble.load_model, path)
        again, _ = self.ops.call("predict_dataset_reloaded", ensemble.predict_dataset, reloaded, test)
        self.log.run("reloaded_model_same_labels", checks.check_same_labels,
                     self.labels, [p.label for p in again], "reloaded model")
        resaved = self._out("model_resaved.json")
        self.ops.call("save_model", ensemble.save_model, reloaded, resaved)
        self.log.run("reloaded_model_same_bytes", checks.check_same_bytes,
                     _read(path), _read(resaved), "re-saved model")
        self.samples["model_bytes"].append(float(os.path.getsize(path)))

    def cli_predict(self, path, in_process: bool = False) -> None:
        """``coeye predict`` on the saved model and the test split; its CSV must match."""
        csv_path = self._out("predict.csv")
        args = ["predict", "--model", path, "--data", self.data_dir, "--dataset", self.spec.dataset,
                "--out", csv_path]
        if in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                code, _ = self.ops.call("cli_predict", cli.main, args)
            if code != 0:
                self.ops.failed["cli_predict"] += 1
                raise OperationFailed(f"coeye predict returned {code}")
        else:
            self.timed_process("cli_predict_s", "cli_predict", [sys.executable, "-m", "coeye.cli"] + args)
        self.log.run("cli_predict_csv", checks.check_cli_csv, csv_path, self.labels)

    def check_sfa(self) -> None:
        """On sampled test rows, at the grid's shortest and longest SFA word."""
        rows = self.rng.choice(len(self.test_set), size=min(SFA_SAMPLE_ROWS, len(self.test_set)), replace=False)
        X = self.test_set.X[rows]
        words = [w for _, w in LensGrid.from_config(self.config(1)).sfa_pairs(self.train_set.n)]
        for w in sorted({min(words), max(words)}):
            for drop_dc in (False, True):
                self.log.run("sfa_coefficients_match_rfft", checks.check_sfa_coefficients,
                             symbolic.sfa_coefficients(X, w, drop_dc), X, w, drop_dc)

    # -- the two kinds of run -------------------------------------------------

    def run_untraced(self, seconds: float) -> dict:
        self.load_and_check_data()
        start = time.perf_counter()
        while True:
            self.round()
            self.rounds += 1
            if time.perf_counter() - start >= seconds:
                break
        self.check_sfa()
        med = {k: statistics.median(v) for k, v in self.samples.items()}
        # A shared host's speed drifts by tens of percent over seconds and
        # minutes, and drift only ever slows work down: the fastest repeat of
        # a train or a process is the steadier estimate of its cost. Set-up
        # reports the median of its repeats; predictions and classifications
        # the median of their host-adjusted times.
        best = {k: min(v) for k, v in self.samples.items()}
        adjusted = {k: statistics.median(v) for k, v in self.adjusted.items()}
        return {
            "setup_s": (med["setup_s"], "s"),
            "train_s": (best["train_s"], "s"),
            "train_1w_s": (best["train_1w_s"], "s"),
            "predict_rows_per_s": (len(self.test_set) / adjusted["predict_s"], "rows/s"),
            "classify_ms": (1000.0 * adjusted["classify_s"], "ms"),
            "cli_predict_s": (best["cli_predict_s"], "s"),
            "model_bytes": (med["model_bytes"], "bytes"),
            "accuracy": (med["accuracy"], "fraction"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def run_traced(self) -> dict:
        """An untraced one-worker train, then a traced train, its serving and checks.

        The traced train takes the all-core code path, but each process pool
        is replaced by an in-process executor, so it also runs at one worker,
        in this process, and the difference of the two trains is the tracing
        overhead.
        """
        imports = [self.ops.process("cli_import", [sys.executable, "-c", "import coeye.cli"], self.env)
                   for _ in range(IMPORT_REPEATS)]
        self.load_and_check_data()
        _, untraced_1w = self.ops.call("train_1w", ensemble.train, self.train_set, self.config(1))

        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench"):
                self.train_set, _ = self.ops.call("load_ucr", data.load_ucr, self._split_path("TRAIN"))
                self.test_set, _ = self.ops.call("load_ucr", data.load_ucr, self._split_path("TEST"))
                model, traced_train = self.ops.call("train", ensemble.train, self.train_set, self.config(self.nproc))
                path = self._out("model.json")
                self.ops.call("save_model", ensemble.save_model, model, path)
                preds = self.serve(model, self.spec.predict_per_slice, self.classify_rows)
                self.check_model(model, path, preds)
                self.cli_predict(path, in_process=True)
        finally:
            tracer.uninstall()
        self.check_sfa()
        tracer.write_jsonl(self._out("trace.jsonl"))
        return self.layer_metrics(tracer, model, statistics.median(imports), untraced_1w, traced_train)

    def layer_metrics(self, tracer, model, import_s, untraced_1w, traced_train) -> dict:
        s = summarize(tracer)
        inc, calls, counts = s["inclusive"], s["calls"], tracer.counts
        total = tracer.spans[0][3] - tracer.spans[0][2]
        self.log.run("layer_self_times_sum_to_traced_total", checks.check_trace_accounts,
                     total, dict(s["layer_self"]))
        fit_s = inc["forest.fit_forest"]
        scored = calls["lenses.cross_val_accuracy"]
        eyes = len(model.eyes)
        m = {
            "forest.fit_forest_s": (fit_s, "s"),
            "forest.trees_grown": (counts["forest.trees_grown"], "count"),
            "forest.nodes_grown": (counts["forest.nodes_grown"], "count"),
            "forest.trees_per_s": (counts["forest.trees_grown"] / fit_s, "1/s"),
            "forest.nodes_per_s": (counts["forest.nodes_grown"] / fit_s, "1/s"),
            "lenses.search_sax_s": (inc["lenses.search_lenses"]
                                    - nested_in(tracer, "lenses.search_lenses",
                                                "lenses.search_sfa_with_normalization"), "s"),
            "lenses.search_sfa_s": (inc["lenses.search_sfa_with_normalization"], "s"),
            "lenses.grid_points_scored": (scored, "count"),
            "lenses.lenses_kept": (eyes, "count"),
            "lenses.kept_per_scored": (eyes / scored, "ratio"),
            "symbolic.sfa_coefficients_s": (inc["symbolic.sfa_coefficients"], "s"),
            "symbolic.sfa_coefficients_calls": (calls["symbolic.sfa_coefficients"], "count"),
            "symbolic.sax_symbols_s": (inc["symbolic.sax_symbols"], "s"),
            "symbolic.mcb_from_coeffs_s": (inc["symbolic.mcb_from_coeffs"], "s"),
            "symbolic.digitize_columns_s": (inc["symbolic.digitize_columns"], "s"),
            "lenses.pools_started": (counts["lenses.pools_started"], "count"),
            "ensemble.pools_started": (counts["ensemble.pools_started"], "count"),
            "forest.predict_proba_s": (inc["forest.predict_proba"], "s"),
            "forest.predict_proba_calls": (calls["forest.predict_proba"], "count"),
            "ensemble.eye_probabilities_s": (inc["ensemble.eye_probabilities"], "s"),
            "ensemble.vote_s": (inc["ensemble.vote"], "s"),
            "ensemble.save_model_s": (inc["ensemble.save_model"], "s"),
            "ensemble.load_model_s": (inc["ensemble.load_model"], "s"),
            "ensemble.eyes": (eyes, "count"),
            "ensemble.model_nodes": (sum(t.n_nodes for e in model.eyes for t in e.forest.trees), "count"),
            "cli.import_s": (import_s, "s"),
            "data.load_ucr_s": (inc["data.load_ucr"], "s"),
            "data.znormalize_rows_s": (inc["data.znormalize_rows"], "s"),
            "resample.smote_s": (inc["resample.smote"], "s"),
            "resample.rows_added": (counts["resample.rows_added"], "count"),
        }
        for layer in ("bench",) + LAYERS:
            m[f"self.{layer}_s"] = (s["layer_self"][layer], "s")
        m["trace.total_s"] = (total, "s")
        m["trace.spans"] = (len(tracer.spans), "count")
        m["trace.untraced_train_1w_s"] = (untraced_1w, "s")
        m["trace.traced_train_s"] = (traced_train, "s")
        m["trace.overhead_s"] = (traced_train - untraced_1w, "s")
        m["trace.overhead_from_span_cost_s"] = (len(tracer.spans) * span_cost(), "s")
        return m


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()
