"""Exception and warning types shared across the library, and the model file's type rules."""

from dataclasses import fields
from itertools import chain

import numpy as np


class CoEyeError(Exception):
    """Base class for all library errors."""


class RaggedData(CoEyeError):
    """A data file row has the wrong number of fields."""

    def __init__(self, path, line_no, expected, got):
        self.path = path
        self.line_no = line_no
        self.expected = expected
        self.got = got
        super().__init__(
            f"{path}: line {line_no} has {got} values, expected {expected}"
        )


class ParseError(CoEyeError):
    """A cell in a data file does not parse as required."""

    def __init__(self, path, line_no, column, detail):
        self.path = path
        self.line_no = line_no
        self.column = column
        self.detail = detail
        super().__init__(f"{path}: line {line_no}, column {column}: {detail}")


class EmptyDataset(CoEyeError):
    """The data file contains no series."""


class NonFiniteSeries(CoEyeError):
    """A series given to training or prediction holds NaN or infinite values."""


class InvalidWordSize(CoEyeError):
    """Word size w is outside the valid range for the transform."""


class EmptyTrainingSet(CoEyeError):
    """A classifier was asked to fit on zero rows."""


class FeatureMismatch(CoEyeError):
    """Prediction input width differs from the fitted feature width."""


class NoMinorityClass(CoEyeError):
    """Oversampling or training requires at least two classes."""


class NoFeasibleLens(CoEyeError):
    """The parameter grid is empty after feasibility filtering."""


class SeriesLengthMismatch(CoEyeError):
    """An input series does not match the model's series length."""


class EmptyEnsemble(CoEyeError):
    """Voting was invoked on an empty probability matrix."""


class UnknownLabel(CoEyeError):
    """A label fell outside the declared class set."""


class UnsupportedModelVersion(CoEyeError):
    """The model file's format version is not supported."""


class ModelParseError(CoEyeError):
    """The model file is truncated, corrupt, or structurally invalid."""


class EqualDepthDegenerate(UserWarning):
    """Equal-depth binning had fewer training values than bins."""


class DegenerateBinning(UserWarning):
    """Min/max binning saw a zero-width value range and fell back."""


# the JSON types a model file field may hold, by the type it is read as
_JSON_TYPES = {int: ((int,), "an integer"), bool: ((bool,), "true or false"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


def model_field(payload: dict, key: str, kind: type = int):
    """``payload[key]`` of a parsed model file, read as ``kind`` (int, bool, float or str) by its JSON type.

    An int must be a JSON integer, a bool ``true`` or ``false``, a float
    any JSON number and a str a JSON string. Nothing else is cast: a
    string, a fraction or a bool where it does not belong is refused.
    """
    value = payload[key]
    types, name = _JSON_TYPES[kind]
    if type(value) not in types:
        raise ModelParseError(f"{key} must be {name}, got {value!r}")
    return kind(value)


def model_array(values, key: str, dtype) -> np.ndarray:
    """A parsed model file's list ``values``, named ``key``, as an array of
    ``dtype``: JSON integers for an integer dtype, JSON numbers for a float one.

    The kind is checked on the dtype numpy infers for the whole list, so a
    string, a null, a fraction among integers or a list of bools is refused
    without a check per element. numpy reads a bool among numbers as 0 or 1,
    so one scan over the elements, nested rows included, refuses those.
    """
    array = np.asarray(values)
    integer = np.dtype(dtype).kind == "i"
    elements = values
    for _ in range(array.ndim - 1):
        elements = chain.from_iterable(elements)
    if array.size and (array.dtype.kind not in ("i" if integer else "if") or bool in map(type, elements)):
        raise ModelParseError(f"{key} must hold only JSON {'integers' if integer else 'numbers'}")
    out = array.astype(dtype)
    if integer and not np.array_equal(out, array):
        raise ModelParseError(f"{key} holds an integer outside the range of {np.dtype(dtype)}")
    return out


# the record field annotations that ``model_record`` reads through ``model_field``
_SCALARS = {"int": int, "bool": bool, "float": float, "str": str}


def model_record(cls, payload: dict, **arrays):
    """A record from its model-file form, the mirror of ``ensemble._json_default``.

    Each field is read by its annotated type: a scalar through
    ``model_field``, a grid as a list of JSON integers (``null`` only where
    the annotation allows ``None``), a count table by the ``str(label)`` keys
    that ``save_model`` wrote, and a field named in ``arrays`` through
    ``model_array`` with the dtype given there. A missing field is refused,
    never filled from its default; a key that is no field is ignored. The
    record's own ``__post_init__`` checks the ranges.
    """
    values = {}
    for f in fields(cls):
        value, kind = payload[f.name], f.type.removesuffix(" | None")
        if f.name in arrays:
            values[f.name] = model_array(value, f.name, arrays[f.name])
        elif value is None and kind != f.type:
            values[f.name] = None
        elif kind == "tuple[int, ...]":
            # a nested list reads as a tuple of lists, which the record refuses
            values[f.name] = tuple(model_array(value, f.name, np.int64).tolist())
        elif kind == "dict[int, int]":
            if any(str(int(label)) != label for label in value):
                raise ModelParseError(f"{f.name} class labels must be written as integers, got {list(value)}")
            values[f.name] = {int(label): model_field(value, label) for label in value}
        else:
            values[f.name] = model_field(payload, f.name, _SCALARS[kind])
    return cls(**values)
