"""Loading, validation, and normalization of flat-file time-series datasets.

The on-disk format is one series per line: an integer class label first,
then the series values, tab- or comma-separated. Files are conventionally
named ``<Name>_TRAIN.<ext>`` / ``<Name>_TEST.<ext>``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDataset, ParseError, RaggedData, Record

DATA_EXTENSIONS = (".tsv", ".txt", ".csv")
_SEPARATORS = {"tab": "\t", "comma": ","}


@dataclass(frozen=True, eq=False)
class TimeSeries(Record):
    """A fixed-length real-valued sequence with an optional class label."""

    values: np.ndarray = field(metadata={"dtype": np.float64})
    label: int | None = None

    def __len__(self):
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class Dataset(Record):
    """An immutable collection of equal-length labeled series: a (n_series, n)
    float matrix plus an integer label vector; safe to share across concurrent workers.
    """

    X: np.ndarray = field(metadata={"dtype": np.float64})
    y: np.ndarray = field(metadata={"dtype": np.int64})
    name: str = ""

    def check(self):
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-D (n_series, n) array")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y length must match the number of series")

    @property
    def n(self) -> int:
        """Series length."""
        return self.X.shape[1]

    @property
    def class_labels(self) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unique(self.y))

    def class_counts(self) -> dict[int, int]:
        labels, counts = np.unique(self.y, return_counts=True)
        return {int(l): int(c) for l, c in zip(labels, counts)}

    def __len__(self):
        return self.X.shape[0]

    def __getitem__(self, i: int) -> TimeSeries:
        return TimeSeries(self.X[i], int(self.y[i]))


def _separator(delimiter: str) -> str:
    """The character a ``tab`` or ``comma`` delimiter names; raise ValueError for any other name."""
    if delimiter not in _SEPARATORS:
        raise ValueError(f"unknown delimiter {delimiter!r}")
    return _SEPARATORS[delimiter]


def load_ucr(path, delimiter: str = "auto", labeled: bool = True) -> Dataset:
    """Parse a flat-file dataset.

    ``delimiter`` is ``auto`` (try tab, then comma), ``tab``, or ``comma``.
    With ``labeled=False`` every field is a series value, as in the
    label-free files ``coeye predict --input`` reads, and every row gets the
    placeholder label 0. A number is written in ASCII, without ``_``
    digit separators. Raises RaggedData / ParseError / EmptyDataset on
    malformed input; never silently drops rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    lines = [(no, line) for no, line in enumerate(raw_lines, start=1) if line.strip()]
    if not lines:
        raise EmptyDataset(f"{path}: no series found")

    sep = ("\t" if "\t" in lines[0][1] else ",") if delimiter == "auto" else _separator(delimiter)

    first = 1 if labeled else 0
    rows = []
    labels = []
    width = None
    for line_no, line in lines:
        line = line.strip()
        fields = line.split(sep)
        if width is None:
            width = len(fields)
            if width <= first:
                raise ParseError(path, line_no, 1, "row has no values after the label")
        elif len(fields) != width:
            raise RaggedData(path, line_no, width - first, len(fields) - first)

        # Python alone reads "1_0" as 10 and non-ASCII digits as numbers
        if "_" in line or not line.isascii():
            col = next(col for col, cell in enumerate(fields, start=1) if "_" in cell or not cell.isascii())
            raise ParseError(path, line_no, col, f"not a plain ASCII number: {fields[col - 1]!r}")
        label = _parse_label(path, line_no, fields[0]) if labeled else 0
        values = np.empty(width - first, dtype=np.float64)
        for col, cell in enumerate(fields[first:], start=first + 1):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(path, line_no, col, f"not a number: {cell!r}") from None
            if not math.isfinite(v):
                raise ParseError(path, line_no, col, f"non-finite value: {cell!r}")
            values[col - first - 1] = v
        labels.append(label)
        rows.append(values)

    name = os.path.basename(str(path))
    for suffix in ("_TRAIN", "_TEST"):
        stem = name.rsplit(".", 1)[0]
        if stem.endswith(suffix):
            name = stem[: -len(suffix)]
            break
    return Dataset(np.vstack(rows), np.asarray(labels), name=name)


def _parse_label(path, line_no, cell):
    """An integer literal parses exactly; a float literal must hold an integer below 2**53."""
    try:
        label = int(cell)
    except ValueError:
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(path, line_no, 1, f"label is not a number: {cell!r}") from None
        if not math.isfinite(v):
            raise ParseError(path, line_no, 1, f"label is not finite: {cell!r}")
        if v != int(v):
            raise ParseError(path, line_no, 1, f"label is not integer-coded: {cell!r}")
        if abs(v) >= 2.0**53:
            raise ParseError(path, line_no, 1, f"float label too large to be exact: {cell!r}")
        label = int(v)
    if not -(2**63) <= label < 2**63:
        raise ParseError(path, line_no, 1, f"label outside the int64 range: {cell!r}")
    return label


def write_ucr(dataset: Dataset, path, delimiter: str = "tab") -> None:
    """Write a dataset in the flat-file format (17 significant digits), ``delimiter`` ``tab`` or ``comma``."""
    sep = _separator(delimiter)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(len(dataset)):
            cells = [str(int(dataset.y[i]))]
            cells.extend(f"{v:.17g}" for v in dataset.X[i])
            fh.write(sep.join(cells) + "\n")


def znormalize(ts):
    """Scale to mean 0 and population standard deviation 1.

    Accepts a TimeSeries (returns a TimeSeries) or an array (returns an
    array). A constant input (zero peak-to-peak range) maps to all zeros.
    """
    if isinstance(ts, TimeSeries):
        return TimeSeries(znormalize(ts.values), ts.label)
    values = np.asarray(ts, dtype=np.float64)
    return znormalize_rows(values.reshape(1, -1)).reshape(values.shape)


def znormalize_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise znormalize for a (n_series, n) matrix.

    A row is constant when its peak-to-peak range is zero; such rows map to
    zeros. Other rows are centred, scaled by their largest absolute
    deviation so that squaring a tiny or huge spread in the variance
    neither under- nor overflows, centred again on that unit scale to
    remove the rounding left by the first pass, and only then divided by
    their standard deviation.
    """
    X = np.asarray(X, dtype=np.float64)
    constant = np.ptp(X, axis=1, keepdims=True) == 0.0
    out = np.where(constant, 0.0, X - X.mean(axis=1, keepdims=True))
    out /= np.where(constant, 1.0, np.abs(out).max(axis=1, keepdims=True))
    out -= out.mean(axis=1, keepdims=True)
    out /= np.where(constant, 1.0, out.std(axis=1, keepdims=True))
    return out
