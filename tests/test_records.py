"""Every record decides each field's type by its annotation, and each array
field's dtype by its declaration, and a model its rules across records,
alike when built in memory and when ``load_model`` reads them from a model
file. Every record is frozen, and so are its arrays and its dicts."""

import importlib
import json
import os
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import coeye
from coeye.config import CoEyeConfig
from coeye.data import Dataset, TimeSeries, load_ucr
from coeye.ensemble import Eye, load_model, save_model, train
from coeye.errors import ModelParseError, Record, file_fields, model_record
from coeye.forest import RandomForestModel, fit_forest
from coeye.lenses import LensGrid
from coeye.resample import SmoteReport
from coeye.symbolic import SFA, Lens, McbTable, SaxBinning, SymbolicWord
from tests.conftest import SMALL_CONFIG

CHINATOWN_TRAIN = Path(__file__).parent / "data" / "ucr" / "Chinatown_TRAIN.tsv"

# a value of every kind a field may be handed, arrays and nested lists included
VALUES = [True, 1, 1.0, 1.5, "1", None, 2**70, np.int64(1), np.float64(0.5), [1, 2], {1: 1},
          np.array([0.5, 1.5, 2.5]), np.array([False, True, True]), [0, 1, True], [1, 2**63], [[0, 1, 2], [3, 4, 5]]]

# one record of each type; the forest reads a single feature, so every width
# a record accepts fits its splits
BASES = [
    CoEyeConfig(),
    LensGrid(),
    Lens(SFA, 4, 8, cv_accuracy=0.5),
    SaxBinning("minmax", 4, [-1.0, 0.0, 1.0]),
    McbTable(4, 2, False, np.zeros((2, 3))),
    SmoteReport({1: 4, 2: 1}, {1: 0, 2: 3}, 0.6),
    fit_forest(np.array([[0], [1], [0], [1]]), np.array([1, 2, 1, 2]), n_trees=2, seed=0),
]

# every field the model file holds: not the config's threads, a run setting
FIELDS = [(base, f.name) for base in BASES for f in fields(base) if f.metadata.get("saved", True)]


def _as_json(value):
    """``value`` as ``save_model`` writes it and ``json`` parses it back: a record by ``file_fields``."""
    return json.loads(json.dumps(file_fields(value) if isinstance(value, Record) else value,
                                 default=lambda v: v.tolist()))


def _built(record, **changes):
    """``record`` with ``changes``, or None if the record refuses them."""
    try:
        return replace(record, **changes)
    except (TypeError, ValueError):
        return None


@pytest.mark.parametrize("base, field", FIELDS, ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_a_record_refuses_in_memory_what_the_file_refuses(base, field):
    # load_model's checks across records (a lens against its binning and its
    # forest, the config's trees against each forest) are no single record's
    # to make, so each record is written and read back on its own
    disagreements = []
    for value in VALUES:
        record = _built(base, **{field: value})
        if type(base) is LensGrid:
            # a grid is no part of the file: it decides as the config decides
            if (record is None) != (_built(CoEyeConfig(), **{field: value}) is None):
                disagreements.append((value, record))
            continue
        payload = _as_json(base)
        payload[field] = _as_json(value)
        try:
            loaded = model_record(type(base), payload)
        except (TypeError, ValueError, ModelParseError):
            loaded = None
        # read back equal: written again, it gives the same bytes
        agree = loaded is None if record is None else loaded is not None and json.dumps(
            _as_json(loaded)) == json.dumps(_as_json(record))
        if not agree:
            disagreements.append((value, record, loaded))
    assert disagreements == []


def _with_eye(model, i, **changes):
    """``model``'s eyes with eye ``i`` rebuilt with ``changes``."""
    return [replace(eye, **changes) if j == i else eye for j, eye in enumerate(model.eyes)]


# one edit of a model across its records, made to the model and to its file alike
MODEL_EDITS = [
    pytest.param(lambda m: replace(m, n=0), lambda m, p: p.update(n=0), id="n=0"),
    pytest.param(lambda m: replace(m, n=max(e.lens.w for e in m.eyes) - 1),
                 lambda m, p: p.update(n=max(e.lens.w for e in m.eyes) - 1), id="n below a lens width"),
    pytest.param(lambda m: replace(m, eyes=[]), lambda m, p: p.update(eyes=[]), id="no eyes"),
    pytest.param(lambda m: replace(m, eyes=m.eyes[::-1]), lambda m, p: p["eyes"].reverse(), id="SFA eye first"),
    pytest.param(lambda m: replace(m, class_labels=m.class_labels[::-1]), lambda m, p: p["class_labels"].reverse(),
                 id="decreasing labels"),
    pytest.param(lambda m: replace(m, config=replace(m.config, trees=m.config.trees + 1)),
                 lambda m, p: p["config"].update(trees=m.config.trees + 1), id="forests of another tree count"),
    pytest.param(lambda m: replace(m, eyes=_with_eye(m, 0, forest=replace(m.eyes[0].forest, n_features=0))),
                 lambda m, p: p["eyes"][0]["forest"].update(n_features=0), id="forest of no features"),
    pytest.param(lambda m: replace(m, eyes=_with_eye(m, 0, binning=m.eyes[1].binning)),
                 lambda m, p: p["eyes"][0].update(binning=p["eyes"][1]["binning"]), id="binning of another lens"),
]


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """A trained Chinatown model, with SAX eyes of several alphabets and SFA eyes, and its file."""
    model = train(load_ucr(CHINATOWN_TRAIN), CoEyeConfig(seed=1, **SMALL_CONFIG))
    assert model.sax_count > 1 and model.sfa_count > 0
    assert model.eyes[0].lens.alpha != model.eyes[1].lens.alpha
    # so a width of 0 is the only thing wrong with its first forest
    assert np.any(model.eyes[0].forest.feature == 0)
    path = tmp_path_factory.mktemp("parity") / "model.json"
    save_model(model, path)
    return model, path


@pytest.mark.parametrize("edit_model, edit_file", MODEL_EDITS)
def test_a_model_refuses_in_memory_what_its_file_refuses(small_model, tmp_path, edit_model, edit_file):
    model, path = small_model
    assert load_model(path).eyes
    with pytest.raises((TypeError, ValueError)):
        edit_model(model)
    payload = json.loads(path.read_text())
    edit_file(model, payload)
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ModelParseError):
        load_model(bad)


def _arrays(model):
    """Every array ``model`` holds: its labels, each binning's cuts, and every array of its pack and its forests."""
    records = [model.packed, *(eye.forest for eye in model.eyes)]
    return [model.class_labels, *(eye.binning.cuts for eye in model.eyes),
            *(getattr(record, f.name) for record in records for f in fields(record) if f.type == "np.ndarray")]


@pytest.fixture(scope="module", params=["1 worker", "2 workers", "loaded"])
def any_model(request, small_model):
    """The trained model at 1 worker, trained again on a real 2-worker pool, and read back from its file."""
    model, path = small_model
    if request.param == "2 workers":
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "cpu_count", lambda: 2)
            model = train(load_ucr(CHINATOWN_TRAIN), CoEyeConfig(seed=1, threads=2, **SMALL_CONFIG))
    elif request.param == "loaded":
        model = load_model(path)
    return model


def test_a_model_and_its_records_cannot_be_rebound(any_model):
    model = any_model
    for record in (model, *model.eyes, *(eye.forest for eye in model.eyes)):
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
    with pytest.raises(FrozenInstanceError):
        model.packed = model.packed
    with pytest.raises(AttributeError):
        model.eyes.reverse()


def test_no_array_of_a_model_can_be_written(any_model):
    model = any_model
    arrays = _arrays(model)
    # the labels, 5 pack arrays, and per eye its cuts and 6 forest arrays
    assert len(arrays) == 6 + 7 * len(model.eyes)
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = array[(0,) * array.ndim]
    # the write that, accepted, sends routing round a loop for ever
    left = model.eyes[0].forest.left
    i = int(np.flatnonzero(left >= 0)[0])
    with pytest.raises(ValueError, match="read-only"):
        left[i] = i - 1


def test_no_dict_of_a_model_can_be_written(any_model, tmp_path):
    # an edited count was saved into a file that load_model refused
    model = any_model
    with pytest.raises(TypeError):
        model.smote_report.original_counts[1] = -5
    with pytest.raises(AttributeError):
        model.smote_report.added_counts.clear()
    with pytest.raises(TypeError):
        model.timings["total"] = 0.0
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path).smote_report == model.smote_report


# a field that holds records given something else, in memory and in the model file
RECORD_FIELD_EDITS = [
    pytest.param(lambda m: Eye("x", m.eyes[0].binning, m.eyes[0].forest),
                 lambda p: p["eyes"][0].update(lens="x"), id="lens"),
    pytest.param(lambda m: replace(m.eyes[0], binning=m.eyes[0].lens),
                 lambda p: p["eyes"][0].update(binning=[1, 2]), id="binning"),
    pytest.param(lambda m: replace(m.eyes[0], forest=None),
                 lambda p: p["eyes"][0].update(forest=None), id="forest"),
    pytest.param(lambda m: replace(m, eyes=m.eyes[0]), lambda p: p.update(eyes=p["eyes"][0]), id="eyes, one eye"),
    pytest.param(lambda m: replace(m, eyes=[*m.eyes, m.eyes[0].lens]), lambda p: p["eyes"].append(5),
                 id="eyes, one no eye"),
    pytest.param(lambda m: replace(m, config=dict(m.config.__dict__)), lambda p: p.update(config=7), id="config"),
    pytest.param(lambda m: replace(m, smote_report={}), lambda p: p.update(smote_report=[]), id="smote_report"),
]


@pytest.mark.parametrize("edit_model, edit_file", RECORD_FIELD_EDITS)
def test_a_field_of_records_refuses_any_other_value(small_model, tmp_path, edit_model, edit_file):
    model, path = small_model
    with pytest.raises(TypeError, match="must be"):
        edit_model(model)
    payload = json.loads(path.read_text())
    edit_file(payload)
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ModelParseError):
        load_model(bad)


def test_a_list_for_a_tuple_field_is_held_as_a_tuple(small_model):
    model, _ = small_model
    assert replace(model, eyes=list(model.eyes)).eyes == model.eyes
    assert CoEyeConfig(sax_alphas=[3, 4]).sax_alphas == (3, 4)


@pytest.mark.parametrize("base", [*BASES, Dataset(np.zeros((2, 3)), [1, 2], "d"), TimeSeries([0.5, 1.0], 1),
                                  SymbolicWord([0, 2, 1], 3, 3)], ids=lambda base: type(base).__name__)
def test_an_unpickled_record_is_built_again(base):
    # pickle restores arrays writeable unless the record rebuilds through its constructor
    clone = pickle.loads(pickle.dumps(base))
    for f in fields(base):
        if f.type == "np.ndarray":
            assert not getattr(clone, f.name).flags.writeable
            assert np.array_equal(getattr(clone, f.name), getattr(base, f.name))
        else:
            assert getattr(clone, f.name) == getattr(base, f.name)
            assert type(getattr(clone, f.name)) is type(getattr(base, f.name))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Dataset(np.zeros((2, 3)), [0.5, 1.7]), id="fractional labels"),
    pytest.param(lambda: Dataset(np.zeros((2, 3)), [True, False]), id="bool labels"),
    pytest.param(lambda: Dataset(np.zeros((2, 3)), np.array([1.0, 2.0])), id="float label array"),
    pytest.param(lambda: Dataset(np.zeros((2, 3)), [2**63, 1]), id="label past int64"),
    pytest.param(lambda: Dataset(np.zeros((2, 3), dtype=bool), [1, 2]), id="bool series"),
    pytest.param(lambda: TimeSeries([0.5, 1.0], label=1.5), id="fractional series label"),
    pytest.param(lambda: TimeSeries([0.5, True]), id="bool in a series"),
    pytest.param(lambda: SymbolicWord([0, 1.7, 2], 3, 3), id="fractional symbol"),
    pytest.param(lambda: SymbolicWord(np.array([True, False, True]), 2, 3), id="bool symbols"),
    pytest.param(lambda: SaxBinning("minmax", 3, [True, True]), id="bool cuts"),
])
def test_a_record_refuses_what_it_would_truncate(build):
    with pytest.raises((TypeError, ValueError)):
        build()


def _records():
    """Every dataclass defined under ``coeye``."""
    for info in pkgutil.iter_modules(coeye.__path__):
        module = importlib.import_module(f"coeye.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and is_dataclass(value) and value.__module__ == module.__name__:
                yield value


def test_every_record_is_frozen_and_declares_its_array_dtypes():
    records = list(_records())
    assert {RandomForestModel, Dataset, TimeSeries, SymbolicWord} <= set(records)
    for cls in records:
        assert cls.__dataclass_params__.frozen and issubclass(cls, Record), cls.__name__
        # its own rules go in ``check``, which ``Record.__post_init__`` runs after the field rule
        assert "__post_init__" not in vars(cls), cls.__name__
        for f in fields(cls):
            assert ("np.ndarray" in f.type) == ("dtype" in f.metadata), f"{cls.__name__}.{f.name}"
