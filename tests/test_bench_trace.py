"""The benchmark's traced run still sees the program.

``perfbench/tracing.py`` wraps coeye's public functions, swaps each module's
``ProcessPoolExecutor`` for a counting in-process executor and counts trees
from ``fit_forest``'s result. A refactor that drops one of those bindings or
attributes breaks ``perfbench/run.py --trace 1``; this runs the same install
on a small train so the suite notices.
"""

import os
from concurrent.futures import ProcessPoolExecutor

from coeye import ensemble, lenses
from coeye.config import CoEyeConfig
from tests.conftest import SMALL_CONFIG, synth_dataset

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


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
