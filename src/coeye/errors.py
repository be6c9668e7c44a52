"""Exception and warning types, the records' base and field rule, and the mapping between records and the model file."""

from dataclasses import fields
from functools import cache
from itertools import chain
from numbers import Integral, Real
from types import MappingProxyType, NoneType, UnionType
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

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


# the classes whose values ``isinstance`` alone misjudges: a bool counts as no number,
# and a plain int or float skips the slow ABC isinstance
_TYPE_RULES = {
    int: _is_int,
    float: lambda v: type(v) is float or isinstance(v, Real) and not isinstance(v, bool),
}


def _accepts(*types):
    """Whether a value, not None, is of one of ``types``: by ``_TYPE_RULES``, or else by ``isinstance``."""
    rules = [_TYPE_RULES.get(t) or (lambda v, t=t: isinstance(v, t)) for t in types]
    return rules[0] if len(rules) == 1 else lambda v: any(rule(v) for rule in rules)


class _Field(NamedTuple):
    """How records check one field, and how the model file holds it."""

    name: str
    label: str  # ``Class.field``
    annotation: str
    optional: bool  # None is allowed
    accepts: Callable  # whether a value other than None is of the field's type
    convert: Callable | None  # what the record holds for an accepted value, if not the value itself
    records: tuple  # the record classes the field holds, alone or in a tuple
    saved: bool  # whether the model file holds the field; if not, it reads as its default


def _field(cls, f, hint) -> _Field:
    label, convert = f"{cls.__name__}.{f.name}", None
    types = tuple(t for t in (get_args(hint) if isinstance(hint, UnionType) else (hint,)) if t is not NoneType)
    origin, args = get_origin(types[0]), get_args(types[0])
    if "dtype" in f.metadata:  # an ndarray, list or tuple, held as an array of the declared dtype
        accepts = lambda v: isinstance(v, (np.ndarray, list, tuple))
        convert = lambda v: model_array(v, label, f.metadata["dtype"])
    elif origin is tuple:  # tuple[int, ...] or tuple[Eye, ...]: a list is held as a tuple
        types, convert, item = args[:1], tuple, _accepts(args[0])
        accepts = lambda v: isinstance(v, (tuple, list)) and all(map(item, v))
    elif dict in (origin, types[0]):  # dict or dict[int, int], held as a read-only copy
        key, value = map(_accepts, args or (object, object))
        accepts = lambda v: isinstance(v, (dict, MappingProxyType)) and all(map(key, v)) and all(map(value, v.values()))
        convert = lambda v: MappingProxyType(dict(v))
    else:
        accepts = _accepts(*types)
    records = tuple(t for t in types if isinstance(t, type) and issubclass(t, Record))
    return _Field(f.name, label, f.type, NoneType in get_args(hint), accepts, convert, records,
                  f.metadata.get("saved", True))


@cache
def _fields(cls) -> tuple[_Field, ...]:
    """Each field of record class ``cls``, worked out once from its resolved annotations."""
    hints = get_type_hints(cls)
    return tuple(_field(cls, f, hints[f.name]) for f in fields(cls))


def check_record(record) -> None:
    """Check each field of ``record`` against its annotation, and hold an array
    field as ``model_array``'s read-only array of its declared dtype, a tuple
    field as a tuple and a dict field as a read-only copy. Every record runs
    this when built, in memory or from a model file, so both refuse alike."""
    for f in _fields(type(record)):
        value = getattr(record, f.name)
        if value is None and f.optional:
            continue
        if not f.accepts(value):
            raise TypeError(f"{f.label} must be {f.annotation}, got {value!r}")
        if f.convert is not None:
            object.__setattr__(record, f.name, f.convert(value))


class Record:
    """Base of every record: a frozen dataclass, checked by ``check_record`` and
    then by its own ``check`` when built, and built again when copied or
    unpickled, as pickle would restore its arrays writeable and unchecked."""

    # the name the model file gives a record of a field that holds records of several classes
    kind = None

    def __post_init__(self):
        check_record(self)
        self.check()

    def check(self) -> None:
        """Raise ValueError unless the fields, each of its type, hold together."""

    def __reduce__(self):
        values = (getattr(self, f.name) for f in fields(self))
        return type(self), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values)


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


def file_fields(record) -> dict:
    """``record``'s saved fields in model-file form, the mirror of ``model_record``,
    and its ``kind`` if it has one: a record as its fields, a tuple as a list, a
    dict with text labels; arrays stay, for ``save_model``'s encoder to list one by one."""
    payload = {f.name: _written(getattr(record, f.name)) for f in _fields(type(record)) if f.saved}
    return payload if record.kind is None else {**payload, "kind": record.kind}


def _written(value):
    if isinstance(value, Record):
        return file_fields(value)
    if isinstance(value, tuple):
        return [_written(v) for v in value]
    if isinstance(value, MappingProxyType):
        return {str(label): _written(v) for label, v in value.items()}
    return value.tolist() if isinstance(value, np.generic) else value


def model_record(cls, payload: dict):
    """A record of class ``cls`` from its model-file form, the mirror of
    ``file_fields``: a field of records reads each object as its record class,
    by the object's ``kind`` where the field holds several, and a dict's text
    labels become ints; the record then checks itself as in memory. A missing
    field is refused, but one never saved takes its default."""
    return cls(**{f.name: _read(f, payload[f.name]) for f in _fields(cls) if f.saved})


def _read(f: _Field, value):
    if f.records and isinstance(value, list):
        return [_read(f, item) if isinstance(item, dict) else item for item in value]
    if f.records and isinstance(value, dict):
        kinds = {record.kind: record for record in f.records}
        kind = value.get("kind") if len(kinds) > 1 else f.records[0].kind
        if kind not in kinds:
            raise ModelParseError(f"{f.label}: unknown kind {kind!r}, expected one of {list(kinds)}")
        return model_record(kinds[kind], value)
    if isinstance(value, dict):
        if any(str(int(label)) != label for label in value):
            raise ModelParseError(f"{f.name} class labels must be written as integers, got {list(value)}")
        return {int(label): n for label, n in value.items()}
    return value
