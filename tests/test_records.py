"""Every record decides each field's type by its annotation, alike when it is
built in memory and when ``load_model`` reads it from a model file."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from coeye.config import CoEyeConfig
from coeye.ensemble import _json_default, _read_binning
from coeye.errors import ModelParseError, model_record
from coeye.forest import RandomForestModel, fit_forest, forest_from_dict
from coeye.lenses import LensGrid
from coeye.resample import SmoteReport
from coeye.symbolic import SFA, Lens, McbTable, SaxBinning

# a value of every kind a field may be handed
VALUES = [True, 1, 1.0, 1.5, "1", None, 2**70, np.int64(1), np.float64(0.5), [1, 2], {1: 1}]

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

# how load_model reads each model-file record from its fields
READERS = {
    CoEyeConfig: lambda payload: model_record(CoEyeConfig, {**payload, "threads": None}),
    Lens: lambda payload: model_record(Lens, payload),
    SaxBinning: lambda payload: _read_binning({**payload, "kind": "sax"}),
    McbTable: lambda payload: _read_binning({**payload, "kind": "mcb"}),
    SmoteReport: lambda payload: model_record(SmoteReport, payload),
    RandomForestModel: forest_from_dict,
}

# every field but the arrays, which their records convert, and the config's
# threads, a run setting that save_model leaves out
FIELDS = [(base, f.name) for base in BASES for f in fields(base)
          if f.type != "np.ndarray" and f.name != "threads"]


def _as_json(value):
    """``value`` as ``save_model`` writes it and ``json`` parses it back."""
    return json.loads(json.dumps(value, default=_json_default))


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
    annotation = {f.name: f.type for f in fields(base)}[field]
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
            loaded = READERS[type(base)](payload)
        except (TypeError, ValueError, ModelParseError):
            loaded = None
        if record is None:
            # the file writes a tuple as a list, so there a list reads as a tuple
            agree = loaded is None or isinstance(value, list) and annotation.startswith("tuple")
        else:
            # read back equal: written again, it gives the same bytes
            agree = loaded is not None and json.dumps(loaded, default=_json_default) == json.dumps(
                record, default=_json_default)
        if not agree:
            disagreements.append((value, record, loaded))
    assert disagreements == []
