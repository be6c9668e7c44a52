"""The benchmark's three models keep their bytes.

``perfbench/workloads.py`` trains each workload's grid at ``MODEL_SEED``,
and the benchmark reports each model file's size as ``model_bytes``. This
trains the same grids on the same data at one worker and pins every file's
sha256 and size, so a change that moves them is seen in the suite, and
checks that saving each file's loaded model writes the same bytes. The
models of the random lens strategy are pinned beside them. When a
change to the tree draws, the split rule or the model file format moves them on purpose,
the pins move with it, with the reason recorded.

Serving is pinned the same way: each model's per-eye probabilities and its
(label, confidence, round) predictions on its workload's test split, hashed
bit for bit. A change to routing, digitizing or the vote that moves one bit
of either fails here.
"""

import hashlib
import os

import pytest

from coeye import CoEyeConfig, Dataset, load_model, load_ucr, predict_dataset, save_model, train
from coeye.ensemble import eye_probabilities

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

pytestmark = pytest.mark.filterwarnings("ignore::coeye.errors.EqualDepthDegenerate")

# Re-based for model file format 3 (integer thresholds and counts, no right
# child array): each file equals its format 2 file after that conversion.
# imbalanced re-based when every split became the first maximum of the exact
# Gini score: its float re-rank had broken exact ties against that order.
# chinatown re-based when the grid kept one SFA alphabet at or above the row
# count: of its alphabets 21 and 24 over 20 rows, 24 repeated 21's view.
# All three re-based for model file format 4 (thresholds and left children at
# split nodes only, class counts at leaves only): each file equals its format
# 3 file after that conversion, and the serving pins below did not move.
PINNED = {
    "beetlefly": ("da9926bf795dbd3ac7764364dd8e948db42c0a74992f6002291d68845f0b075a", 79_863),
    "chinatown": ("6794beb4f862ca4a627d24154dc1ec9f1693af5b3a2a5a48bf7a9cce82d88f05", 106_807),
    "imbalanced": ("a04fbae328fefd30005cc936dc4e6a13da4ceae43760b72246dfc74942006a83", 127_380),
}

# sha256 of each model's eye_probabilities bytes and of its predict_dataset
# (label, confidence, round) list, on the test split the benchmark draws at
# its default seed; imbalanced and chinatown re-based with their model pins
# above (chinatown's predictions kept their hash)
SERVING = {
    "beetlefly": ("5c328635cb9f9900901519689a8bf8ca52141abd25adc00df26c4c13f19393e3",
                  "f11dcc27c2f3eca8edd7751fbc553d2efd03e9fe7569d0be30528ffea14b6e81"),
    "chinatown": ("9399a1999d5e3cb91fd63111dd2b3d1e11a38301c9755aca63d435c1771be5c8",
                  "32ea5fa150766859fcb372dcb2c1a373d91595fbc6e9336c7150c3f2d0e706c3"),
    "imbalanced": ("6b0b9499ec9ca0d1c5d1548d6475dc366109b0db789222723b7d0a21f8f6eefe",
                   "0d21bd8abb940b286d0ce87ee65145d32516621846da18297ff111cbade55074"),
}
TEST_SEED = 0

# the same workloads trained with lens_strategy="random", at the same seed and
# one worker: each representation's lenses are drawn from the grid, not searched;
# beetlefly re-based with the imbalanced model pin above, for the same split rule,
# and chinatown with the chinatown pin above, for the same dropped alphabet;
# all three re-based for format 4 with the pins above, same trees
PINNED_RANDOM = {
    "beetlefly": ("0c477edbf76bce2e7f860ba141cb15e78579de360dac8712c40b43074fd69b74", 198_616),
    "chinatown": ("46bd62ba535814963558fca8cc08edb13e3b3047b4db0191c02b5f082d202c74", 80_677),
    "imbalanced": ("8f846e8af15c1d995f9a554c0e847677b937f4829a0c6d3b59774fe5bfc43c57", 57_163),
}


def perfbench():
    """The benchmark's ``gen`` and ``workloads`` modules."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.syspath_prepend(PERFBENCH)
        import gen
        import workloads
    return gen, workloads


def splits(name):
    """(train, test) Datasets of the benchmark workload ``name``."""
    gen, workloads = perfbench()
    spec = workloads.WORKLOADS[name]
    if spec.generated:
        return (Dataset(*gen.make_split(gen.TRAIN_SEED, gen.TRAIN_COUNTS), name=spec.dataset),
                Dataset(*gen.make_split(TEST_SEED, gen.TEST_COUNTS, gen.TEST_STREAM), name=spec.dataset))
    return tuple(load_ucr(os.path.join(ROOT, "tests", "data", "ucr", f"{spec.dataset}_{split}.tsv"))
                 for split in ("TRAIN", "TEST"))


@pytest.fixture(scope="module", params=sorted(PINNED))
def model_file(request, tmp_path_factory):
    """(workload name, path of its model file), trained once per module."""
    _, workloads = perfbench()
    spec = workloads.WORKLOADS[request.param]
    path = tmp_path_factory.mktemp(request.param) / "model.json"
    save_model(train(splits(request.param)[0], CoEyeConfig(seed=workloads.MODEL_SEED, threads=1, **spec.grid)), path)
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


def test_benchmark_serving_pinned(model_file):
    name, path = model_file
    model, test_set = load_model(path), splits(name)[1]
    proba = eye_probabilities(model, test_set.X)
    votes = [(p.label, p.confidence, p.round) for p in predict_dataset(model, test_set)]
    assert (hashlib.sha256(proba.tobytes()).hexdigest(),
            hashlib.sha256(repr(votes).encode()).hexdigest()) == SERVING[name]


@pytest.mark.parametrize("name", sorted(PINNED_RANDOM))
def test_random_strategy_model_bytes_pinned(name, tmp_path):
    _, workloads = perfbench()
    config = CoEyeConfig(seed=workloads.MODEL_SEED, threads=1, **workloads.WORKLOADS[name].grid)
    path = tmp_path / "model.json"
    save_model(train(splits(name)[0], config, lens_strategy="random"), path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest(), path.stat().st_size) == PINNED_RANDOM[name]
