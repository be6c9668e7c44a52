"""The benchmark's three models keep their bytes.

``perfbench/workloads.py`` trains each workload's grid at ``MODEL_SEED``,
and the benchmark reports each model file's size as ``model_bytes``. This
trains the same grids on the same data at one worker and pins every file's
sha256 and size, so a change that moves them is seen in the suite, and
checks that saving each file's loaded model writes the same bytes. When a
change to the tree draws or to the model file format moves them on purpose,
the pins move with it, with the reason recorded.
"""

import hashlib
import os

import pytest

from coeye import CoEyeConfig, Dataset, load_model, load_ucr, save_model, train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

pytestmark = pytest.mark.filterwarnings("ignore::coeye.errors.EqualDepthDegenerate")

# Re-based for model file format 3 (integer thresholds and counts, no right
# child array): each file equals its format 2 file after that conversion.
PINNED = {
    "beetlefly": ("201920187559ac900887e3aade19b79883522a8d36bd9d7de00c791b8c9db884", 104_619),
    "chinatown": ("fd8f3bd512a434c96aac023a82f45be54c2943664a66ed9a60a5173a1b9287b7", 175_736),
    "imbalanced": ("09ee3a32814d910cef695043b22c4d8c811eca61283c420636dc8e7e6ce1022e", 216_731),
}


@pytest.fixture(scope="module", params=sorted(PINNED))
def model_file(request, tmp_path_factory):
    """(workload name, path of its model file), trained once per module."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(PERFBENCH)
        import gen
        import workloads

    spec = workloads.WORKLOADS[request.param]
    if spec.generated:
        X, y = gen.make_split(gen.TRAIN_SEED, gen.TRAIN_COUNTS)
        train_set = Dataset(X, y, name=spec.dataset)
    else:
        train_set = load_ucr(os.path.join(ROOT, "tests", "data", "ucr", f"{spec.dataset}_TRAIN.tsv"))
    path = tmp_path_factory.mktemp(request.param) / "model.json"
    save_model(train(train_set, CoEyeConfig(seed=workloads.MODEL_SEED, threads=1, **spec.grid)), path)
    return request.param, path


def test_benchmark_model_bytes_pinned(model_file):
    name, path = model_file
    assert (hashlib.sha256(path.read_bytes()).hexdigest(), path.stat().st_size) == PINNED[name]


def test_reloaded_model_saves_the_same_bytes(model_file, tmp_path):
    # a loaded model holds the reader's types (int64 label arrays, tuples in
    # the config), not the trainer's, and must still write the same file
    _, path = model_file
    resaved = tmp_path / "resaved.json"
    save_model(load_model(path), resaved)
    assert resaved.read_bytes() == path.read_bytes()
