"""The benchmark's traced run still sees the program.

``perfbench/tracing.py`` wraps coeye's public functions, swaps each module's
``ProcessPoolExecutor`` for a counting in-process executor and counts trees
from ``fit_forest``'s result. A refactor that drops one of those bindings or
attributes breaks ``perfbench/run.py --trace 1``; this runs the same install
on a small train, and on each workload's own train, so the suite notices.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from coeye import Dataset, ensemble, lenses, load_ucr
from coeye.config import CoEyeConfig
from tests.conftest import SMALL_CONFIG, synth_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
# the workload names of perfbench/workloads.py; the test reads each one's grid from there
WORKLOADS = ("beetlefly", "chinatown", "imbalanced")


def test_traced_train_and_predict(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import Tracer, summarize

    data = synth_dataset("waves", seed=3)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench"):
            model = ensemble.train(data, CoEyeConfig(seed=1, threads=2, **SMALL_CONFIG))
            predictions = ensemble.predict_dataset(model, data)
    finally:
        tracer.uninstall()

    assert len(predictions) == len(data)
    assert tracer.counts["ensemble.pools_started"] == 1
    assert tracer.counts["forest.trees_grown"] > 0
    calls = summarize(tracer)["calls"]
    assert calls["lenses.cross_val_accuracy"] > 0 and calls["forest.fit_forest"] > 0
    assert ensemble.ProcessPoolExecutor is ProcessPoolExecutor
    assert lenses.ProcessPoolExecutor is ProcessPoolExecutor


@pytest.mark.filterwarnings("ignore::coeye.errors.EqualDepthDegenerate")
@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_workload_train_feeds_the_layer_ratios(monkeypatch, name):
    # the traced run divides by the scored grid points (kept_per_scored) and
    # by the growth time of fit_forest (trees_per_s): a train that scores no
    # point, or grows no eye, ends it with ZeroDivisionError
    monkeypatch.syspath_prepend(PERFBENCH)
    import gen
    import workloads
    from tracing import Tracer, summarize

    assert tuple(sorted(workloads.WORKLOADS)) == WORKLOADS
    spec = workloads.WORKLOADS[name]
    if spec.generated:
        train_set = Dataset(*gen.make_split(gen.TRAIN_SEED, gen.TRAIN_COUNTS), name=spec.dataset)
    else:
        train_set = load_ucr(os.path.join(ROOT, "tests", "data", "ucr", f"{spec.dataset}_TRAIN.tsv"))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench"):
            model = ensemble.train(train_set, CoEyeConfig(seed=workloads.MODEL_SEED, threads=2, **spec.grid))
    finally:
        tracer.uninstall()

    calls = summarize(tracer)["calls"]
    assert calls["lenses.cross_val_accuracy"] > 0 and calls["forest.fit_forest"] > 0
    assert tracer.counts["forest.trees_grown"] > 0 and tracer.counts["forest.nodes_grown"] > 0
    for eye in model.eyes:
        assert sum(tree.n_nodes for tree in eye.forest.trees) == eye.forest.feature.shape[0]
