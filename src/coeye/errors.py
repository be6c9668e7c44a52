"""Exception and warning types shared across the library, the records' field type rule, and the model file's reader."""

from dataclasses import fields
from itertools import chain
from numbers import Integral, Real

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


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


# what a record field of each annotation holds, beside the ``None`` that
# ``| None`` allows: a bool counts as no number; an array field is left to its record
_FIELD_RULES = {
    "int": _is_int,
    "bool": lambda v: isinstance(v, bool),
    "float": lambda v: isinstance(v, Real) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "tuple[int, ...]": lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
    "dict[int, int]": lambda v: isinstance(v, dict) and all(map(_is_int, (*v, *v.values()))),
    "np.ndarray": lambda v: True,
}


def check_field(name: str, value, annotation: str):
    """``value``, if it holds what ``_FIELD_RULES`` allows for ``annotation``; raise TypeError if not."""
    kind = annotation.removesuffix(" | None")
    if not (value is None and kind != annotation or _FIELD_RULES[kind](value)):
        raise TypeError(f"{name} must be {annotation}, got {value!r}")
    return value


def check_record(record) -> None:
    """Check each field of ``record`` against its annotation by ``check_field``'s
    rule. Every record calls this first, whether it is built in memory or read
    from a model file, so both refuse the same values."""
    for f in fields(record):
        check_field(f"{type(record).__name__}.{f.name}", getattr(record, f.name), f.type)


def model_array(values, key: str, dtype) -> np.ndarray:
    """A parsed model file's list ``values``, named ``key``, as an array of
    ``dtype``: JSON integers for an integer dtype, JSON numbers for a float one.

    One scan over the elements, nested rows included, takes their types:
    numpy reads a bool among numbers as 0 or 1, and infers a float, an
    unsigned or an object dtype for integers beyond int64, so only the types
    tell a JSON integer from the rest.
    """
    array = np.asarray(values)
    integer = np.dtype(dtype).kind == "i"
    elements = values
    for _ in range(array.ndim - 1):
        elements = chain.from_iterable(elements)
    if not set(map(type, elements)) <= ({int} if integer else {int, float}):
        raise ModelParseError(f"{key} must hold only JSON {'integers' if integer else 'numbers'}")
    # a list of JSON integers that does not fit int64 is inferred as float64, uint64 or object
    if integer and array.size and (array.dtype.kind != "i" or not np.array_equal(array.astype(dtype), array)):
        raise ModelParseError(f"{key} holds an integer outside the range of {np.dtype(dtype)}")
    return array.astype(dtype)


def model_record(cls, payload: dict, **arrays):
    """A record from its model-file form, the mirror of ``ensemble._json_default``.

    Each field gets the Python value of its JSON: a field named in
    ``arrays`` is read through ``model_array`` with the dtype given there,
    any other list becomes a tuple, and a count table's ``str(label)`` keys,
    as ``save_model`` wrote them, become ints. The record itself then checks
    every type and range, as it does when built in memory. A missing field
    is refused, never filled from its default; a key that is no field is
    ignored.
    """
    values = {}
    for f in fields(cls):
        value = payload[f.name]
        if f.name in arrays:
            value = model_array(value, f.name, arrays[f.name])
        elif isinstance(value, list):
            value = tuple(value)
        elif isinstance(value, dict):
            if any(str(int(label)) != label for label in value):
                raise ModelParseError(f"{f.name} class labels must be written as integers, got {list(value)}")
            value = {int(label): n for label, n in value.items()}
        values[f.name] = value
    return cls(**values)
