"""Symbolic transforms: PAA, SAX, low-pass DFT, equal-depth binning, SFA.

Two families of views are produced from a series:

* time domain — znormalize, compress to ``w`` segment means (PAA), then
  digitize each mean against ``alpha - 1`` cuts (SAX);
* frequency domain — znormalize, keep the first ``w/2`` complex DFT
  coefficients as ``w`` interleaved real/imaginary values, then digitize
  each value column against its own equal-depth breakpoints fitted on the
  training set (SFA).

SFA's DC convention: with ``drop_dc`` the coefficient window starts at
index 1. Without it the window starts at the DC term, which for a
znormalized series is zero by construction; ``sfa_coefficients`` sets
that real/imaginary pair to exact zero, so the floating-point round-off
of the transform never reaches the binning as a column of noise.

Digitization always maps a value equal to a cut to the lower bin: the
symbol index is the number of cuts strictly below the value.
"""

from __future__ import annotations

import string
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, TimeSeries, znormalize_rows
from .errors import DegenerateBinning, EqualDepthDegenerate, InvalidWordSize

MAX_ALPHABET = 26


@dataclass(frozen=True, eq=False)
class SymbolicWord:
    """A length-w string of symbol indices over an alpha-letter alphabet."""

    symbols: np.ndarray
    alpha: int
    w: int

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.int64)
        symbols.flags.writeable = False
        object.__setattr__(self, "symbols", symbols)

    def to_text(self) -> str:
        if self.alpha > MAX_ALPHABET:
            raise ValueError("text rendering needs alpha <= 26")
        return "".join(string.ascii_lowercase[s] for s in self.symbols)

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True, eq=False)
class SaxBinning:
    """Fitted SAX cuts: ``alpha - 1`` strictly increasing breakpoints.

    ``mode`` is ``gaussian`` (standard-normal quantiles, data independent)
    or ``minmax`` (equal-width bins spanning the training PAA range).
    ``degenerate`` flags a minmax fit that saw a zero-width range and fell
    back to gaussian cuts.
    """

    mode: str
    alpha: int
    cuts: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        cuts = np.asarray(self.cuts, dtype=np.float64)
        cuts.flags.writeable = False
        object.__setattr__(self, "cuts", cuts)


@dataclass(frozen=True, eq=False)
class McbTable:
    """Per-column breakpoints for SFA quantisation.

    ``breakpoints`` has shape (w, alpha - 1); row j digitizes Fourier value
    column j. ``drop_dc`` records whether the DC coefficient was discarded
    when the table was fitted.
    """

    alpha: int
    w: int
    drop_dc: bool
    breakpoints: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        if bp.shape != (self.w, self.alpha - 1):
            raise ValueError("breakpoints must have shape (w, alpha - 1)")
        bp.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)


def paa(values, w: int) -> np.ndarray:
    """Compress a series to ``w`` segment means.

    Segment i covers indices [floor(i*n/w), floor((i+1)*n/w)); when w
    divides n the segments are equal-width and the overall mean is
    preserved.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    if not 1 <= w <= n:
        raise InvalidWordSize(f"PAA needs 1 <= w <= n, got w={w}, n={n}")
    bounds = (np.arange(w + 1) * n) // w
    sums = np.add.reduceat(values, bounds[:-1], axis=-1)
    return sums / np.diff(bounds)


def gaussian_cuts(alpha: int) -> np.ndarray:
    """Standard-normal quantiles at k/alpha for k = 1..alpha-1."""
    if alpha < 2:
        raise ValueError("alphabet size must be at least 2")
    # imported here: only gaussian SAX and the degenerate-minmax fallback
    # need it, and scipy.stats dominates the package's import time
    from scipy.stats import norm

    return norm.ppf(np.arange(1, alpha) / alpha)


def fit_sax_binning(paa_values, alpha: int, mode: str = "minmax") -> SaxBinning:
    """Fit SAX cuts from the PAA values of the (normalized) training set.

    ``paa_values`` is any array of training PAA values (typically the
    (n_series, w) matrix); it is ignored in gaussian mode. A zero-width
    minmax range falls back to gaussian cuts with ``degenerate=True``.
    """
    if alpha < 2:
        raise ValueError("alphabet size must be at least 2")
    if mode == "gaussian":
        return SaxBinning("gaussian", alpha, gaussian_cuts(alpha))
    if mode != "minmax":
        raise ValueError(f"unknown SAX binning mode {mode!r}")
    values = np.asarray(paa_values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if lo == hi:
        warnings.warn(
            "zero-width value range in minmax binning, using gaussian cuts",
            DegenerateBinning,
        )
        return SaxBinning("minmax", alpha, gaussian_cuts(alpha), degenerate=True)
    cuts = lo + (hi - lo) * np.arange(1, alpha) / alpha
    return SaxBinning("minmax", alpha, cuts)


def digitize(values, cuts) -> np.ndarray:
    """Symbol index = number of cuts strictly below the value (ties go low)."""
    return np.searchsorted(np.asarray(cuts), np.asarray(values), side="left")


def sax(ts, w: int, binning: SaxBinning) -> SymbolicWord:
    """Transform one series to its SAX word (znormalize -> PAA -> digitize)."""
    values = ts.values if isinstance(ts, TimeSeries) else np.asarray(ts)
    row = znormalize_rows(values.reshape(1, -1))
    symbols = digitize(paa(row, w), binning.cuts)[0]
    return SymbolicWord(symbols, binning.alpha, w)


def sax_symbols(X, w: int, binning: SaxBinning) -> np.ndarray:
    """SAX transform of each row of a raw (n_series, n) matrix."""
    return digitize(paa(znormalize_rows(X), w), binning.cuts)


def sax_training_paa(X, w: int) -> np.ndarray:
    """PAA matrix of the row-normalized training set, for binning fits."""
    return paa(znormalize_rows(X), w)


def dft_lowpass(values, w: int, drop_dc: bool = False) -> np.ndarray:
    """First w/2 complex DFT coefficients as w interleaved real/imag values.

    Unnormalized forward transform of the values as given. With ``drop_dc``
    the coefficient window starts at index 1, discarding the DC term (mean
    invariance); without it the first pair is the DC term, whose real part
    is the series sum. SFA goes through ``sfa_coefficients``, which also
    znormalizes and zeroes that pair.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    if w % 2 != 0 or not 2 <= w <= n:
        raise InvalidWordSize(f"DFT low-pass needs even w with 2 <= w <= n, got w={w}, n={n}")
    start = 1 if drop_dc else 0
    coeffs = np.fft.fft(values, axis=-1)[..., start : start + w // 2]
    out = np.empty(values.shape[:-1] + (w,), dtype=np.float64)
    out[..., 0::2] = coeffs.real
    out[..., 1::2] = coeffs.imag
    return out


def sfa_coefficients(X, w: int, drop_dc: bool = False) -> np.ndarray:
    """SFA Fourier values of each row of a raw (n_series, n) matrix.

    Znormalize, then keep the first w/2 DFT coefficients. When the DC term
    is kept, its pair is set to exact zero: the mean of a znormalized row is
    zero, and the transform would otherwise leave only round-off there.
    """
    coeffs = dft_lowpass(znormalize_rows(X), w, drop_dc)
    if not drop_dc:
        coeffs[..., :2] = 0.0
    return coeffs


def equal_depth_breakpoints(column, alpha: int) -> np.ndarray:
    """Place alpha-1 breakpoints so bin occupancies differ by at most one.

    Breakpoints sit at the midpoint of the two sorted values straddling
    each bin boundary. Duplicate breakpoints (too few distinct values) are
    perturbed upward by the smallest representable step so the result is
    strictly increasing.
    """
    if alpha < 2:
        raise ValueError("alphabet size must be at least 2")
    col = np.sort(np.asarray(column, dtype=np.float64))
    s = col.shape[0]
    if s == 0:
        raise ValueError("cannot fit breakpoints on an empty column")
    positions = (np.arange(1, alpha) * s) // alpha
    lo = col[np.clip(positions - 1, 0, s - 1)]
    hi = col[np.clip(positions, 0, s - 1)]
    bps = (lo + hi) / 2.0
    for j in range(1, bps.shape[0]):
        if bps[j] <= bps[j - 1]:
            bps[j] = np.nextafter(bps[j - 1], np.inf)
    return bps


def mcb_from_coeffs(coeffs: np.ndarray, alpha: int, w: int, drop_dc: bool) -> McbTable:
    """Equal-depth table from an already computed (n_series, w) coefficient matrix."""
    s = coeffs.shape[0]
    if s < alpha:
        warnings.warn(
            f"equal-depth binning with {s} series and {alpha} bins is degenerate",
            EqualDepthDegenerate,
        )
    bps = np.empty((w, alpha - 1), dtype=np.float64)
    for j in range(w):
        bps[j] = equal_depth_breakpoints(coeffs[:, j], alpha)
    return McbTable(alpha, w, drop_dc, bps)


def fit_mcb(train, alpha: int, w: int, drop_dc: bool = False) -> McbTable:
    """Fit per-column equal-depth breakpoints on training Fourier values.

    ``train`` is a Dataset or a raw (n_series, n) matrix; each series is
    znormalized before the DFT. Emits EqualDepthDegenerate when there are
    fewer training series than bins.
    """
    X = train.X if isinstance(train, Dataset) else np.asarray(train, dtype=np.float64)
    return mcb_from_coeffs(sfa_coefficients(X, w, drop_dc), alpha, w, drop_dc)


def sfa(ts, table: McbTable) -> SymbolicWord:
    """Transform one series to its SFA word using a fitted MCB table."""
    values = ts.values if isinstance(ts, TimeSeries) else np.asarray(ts)
    symbols = sfa_symbols(values.reshape(1, -1), table)[0]
    return SymbolicWord(symbols, table.alpha, table.w)


def digitize_columns(coeffs: np.ndarray, table: McbTable) -> np.ndarray:
    """Digitize column j of a coefficient matrix against breakpoint row j."""
    out = np.empty(coeffs.shape, dtype=np.int64)
    for j in range(table.w):
        out[:, j] = digitize(coeffs[:, j], table.breakpoints[j])
    return out


def sfa_symbols(X, table: McbTable) -> np.ndarray:
    """SFA transform of each row of a raw (n_series, n) matrix."""
    return digitize_columns(sfa_coefficients(X, table.w, table.drop_dc), table)
