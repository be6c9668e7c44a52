"""Exception and warning types, the records' base and field rule, and the model file's reader."""

from dataclasses import fields
from functools import cache
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
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


# what a record field of each annotation holds, beside the ``None`` that
# ``| None`` allows: a bool counts as no number; a plain int or float skips the slow ABC isinstance
_FIELD_RULES = {
    "int": _is_int,
    "bool": lambda v: isinstance(v, bool),
    "float": lambda v: type(v) is float or isinstance(v, Real) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "tuple[int, ...]": lambda v: isinstance(v, tuple) and all(map(_is_int, v)),
    "dict[int, int]": lambda v: isinstance(v, dict) and all(map(_is_int, (*v, *v.values()))),
    "dict": lambda v: isinstance(v, dict),
    "range": lambda v: isinstance(v, range),
    # an ndarray, list or tuple, which ``model_array`` makes an array of the dtype the field declares
    "np.ndarray": lambda v: isinstance(v, (np.ndarray, list, tuple)),
}


def check_field(name: str, value, annotation: str):
    """``value``, if it holds what ``_FIELD_RULES`` allows for ``annotation``; raise TypeError if not."""
    kind = annotation.removesuffix(" | None")
    if not (value is None and kind != annotation or _FIELD_RULES[kind](value)):
        raise TypeError(f"{name} must be {annotation}, got {value!r}")
    return value


@cache
def _fields(cls, names: tuple) -> list:
    """The fields of record class ``cls``, or those ``names``, with qualified names, worked out once per class."""
    return [(f, f"{cls.__name__}.{f.name}") for f in fields(cls) if not names or f.name in names]


def check_record(record, *names: str) -> None:
    """Check each field of ``record``, or each one named, against its annotation
    by ``check_field``'s rule, and make each array field ``model_array``'s new
    read-only array of the dtype in the field's ``metadata``. Every record calls
    this first, whether it is built in memory or read from a model file, so both
    refuse the same values."""
    for f, name in _fields(type(record), names):
        value = getattr(record, f.name)
        check_field(name, value, f.type)
        if value is not None and "dtype" in f.metadata:
            object.__setattr__(record, f.name, model_array(value, name, f.metadata["dtype"]))


class Record:
    """Base of every record: a frozen dataclass, checked by ``check_record`` when
    built unless its ``__post_init__`` says otherwise, and built again when copied
    or unpickled, as pickle would restore its arrays writeable and unchecked."""

    def __post_init__(self):
        check_record(self)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def model_array(values, key: str, dtype: type) -> np.ndarray:
    """``values``, named ``key``, as a new read-only array of ``dtype``, a numpy
    scalar type: integers for an integer dtype, integers and floats for a float
    one, never a bool; raise TypeError for values of another type, ValueError
    for an integer out of range. An ndarray is judged by its dtype, any other
    value, such as a parsed model file's list, by its elements' types: numpy
    reads a bool among numbers as 0 or 1, and integers beyond int64 as floats
    or objects.
    """
    integer = issubclass(dtype, np.integer)
    allowed = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    array = np.asarray(values)
    # ``asarray`` returns an ndarray itself, whose values are of its dtype's type; a list is judged by its elements
    rows = values if array.ndim > 1 else [values]
    types = {array.dtype.type} if array is values else set(map(type, chain.from_iterable(rows)))
    if not all(issubclass(t, allowed) and t is not bool for t in types):
        raise TypeError(f"{key} must hold only {'integers' if integer else 'numbers'}")
    converted = array.astype(dtype) if issubclass(array.dtype.type, allowed) or not array.size else None
    if converted is None or integer and array.dtype.type is not dtype and not np.array_equal(converted, array):
        raise ValueError(f"{key} holds an integer outside the range of {np.dtype(dtype) if integer else '64 bits'}")
    converted.flags.writeable = False
    return converted


def model_record(cls, payload: dict):
    """A record from its model-file form, the mirror of ``ensemble._json_default``.

    Each field gets the Python value of its JSON: a list becomes a tuple,
    and a count table's ``str(label)`` keys, as ``save_model`` wrote them,
    become ints. The record itself then checks every type and range, and
    makes each array field an array of the dtype it declares, as it does
    when built in memory. A missing field is refused, never filled from its
    default; a key that is no field is ignored.
    """
    values = {}
    for f in fields(cls):
        value = payload[f.name]
        if isinstance(value, list):
            value = tuple(value)
        elif isinstance(value, dict):
            if any(str(int(label)) != label for label in value):
                raise ModelParseError(f"{f.name} class labels must be written as integers, got {list(value)}")
            value = {int(label): n for label, n in value.items()}
        values[f.name] = value
    return cls(**values)
