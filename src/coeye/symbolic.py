"""Symbolic transforms and the lens pipeline.

A lens is one symbolic view of a series: a representation, an alphabet
size ``alpha`` and a word length ``w``. The lens search, the eye fits,
serving and ``coeye transform`` all build lens words by the same two
steps: ``fit_lens`` makes the real-valued word of each training series,
fits the binning on those words and digitizes them; ``symbolize``
digitizes the words of new series against a fitted binning. Both make
their words with ``lens_words``, which serving also calls once for all
eyes of a model, so each distinct word is built once per call. The words
are

* time domain (SAX) — znormalize, compress to ``w`` segment means (PAA);
  the binning is one row of ``alpha - 1`` cuts shared by every position;
* frequency domain (SFA) — znormalize, keep the first ``w/2`` complex DFT
  coefficients as ``w`` interleaved real/imaginary values; the binning is
  a (w, alpha - 1) table of equal-depth breakpoints, row j for value
  column j (multiple coefficient binning, MCB).

SFA's DC convention: with ``drop_dc`` the coefficient window starts at
index 1. Without it the window starts at the DC term, which for a
znormalized series is zero by construction; ``lens_words`` sets that
real/imaginary pair to exact zero, so the floating-point round-off
of the transform never reaches the binning as a column of noise.

Digitization always maps a value equal to a cut to the lower bin: the
symbol index is the number of cuts strictly below the value.
"""

from __future__ import annotations

import string
import warnings
from dataclasses import dataclass
from numbers import Integral, Real
from statistics import NormalDist

import numpy as np

from .data import Dataset, TimeSeries, znormalize_rows
from .errors import DegenerateBinning, EqualDepthDegenerate, InvalidWordSize

MAX_ALPHABET = 26
SAX_MODES = ("minmax", "gaussian")

SAX = 0
SFA = 1


@dataclass(frozen=True)
class Lens:
    """One parameterised symbolic view: representation, alphabet, word size.

    ``drop_dc`` is a bool, for SFA only: a SAX lens must record False.
    ``cv_accuracy`` is a real number in [0, 1], not a bool.
    """

    s: int
    alpha: int
    w: int
    drop_dc: bool = False
    cv_accuracy: float = 0.0

    def __post_init__(self):
        check_sizes(self.s, self.alpha, self.w)
        # the model file's reader refuses any other type, so the record does too
        if type(self.drop_dc) is not bool or type(self.cv_accuracy) is bool or not isinstance(self.cv_accuracy, Real):
            raise TypeError("drop_dc must be a bool, and cv_accuracy a real number that is not a bool")
        if self.s not in (SAX, SFA):
            raise ValueError("representation flag must be 0 (SAX) or 1 (SFA)")
        check_alphabets(self.alpha)
        if self.s == SAX and self.drop_dc:
            raise ValueError("a SAX lens keeps the DC coefficient: drop_dc must be false")
        if not 0.0 <= self.cv_accuracy <= 1.0:
            raise ValueError(f"cv_accuracy must lie in [0, 1], got {self.cv_accuracy}")

    @property
    def representation(self) -> str:
        return "sax" if self.s == SAX else "sfa"


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
        if self.mode not in SAX_MODES:
            raise ValueError(f"unknown SAX binning mode {self.mode!r}")
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

    @property
    def cuts(self) -> np.ndarray:
        """The breakpoint table, in the form ``digitize`` takes."""
        return self.breakpoints


def check_alphabets(*alphas: int) -> None:
    """Raise ValueError unless every alphabet size is in [2, MAX_ALPHABET]."""
    for alpha in alphas:
        if not 2 <= alpha <= MAX_ALPHABET:
            raise ValueError(f"alphabet size {alpha} outside [2, {MAX_ALPHABET}]")


def check_sizes(*sizes: int, folds: int | None = None) -> None:
    """Raise TypeError unless every size, seed or count, and ``folds`` when
    given, is an integer and not a bool; raise ValueError unless ``folds``
    lies in [2, 2**63): a single fold holds no row out, and fold ids are int64."""
    values = sizes if folds is None else (*sizes, folds)
    if any(isinstance(v, bool) or not isinstance(v, Integral) for v in values):
        raise TypeError("seeds, counts, representation flags, alphabets and word lengths must be integers, not bools")
    if folds is not None and not 2 <= folds < 2**63:
        raise ValueError("folds must be at least 2 and below 2**63")


def word_fits(s: int, w: int, n: int) -> bool:
    """Whether representation ``s`` builds words of width ``w`` from series of
    length ``n``: SAX needs 1 <= w <= n, SFA an even w with 2 <= w <= n."""
    return 1 <= w <= n if s == SAX else w % 2 == 0 and 2 <= w <= n


def check_binning(lens: Lens, binning) -> None:
    """Raise ValueError unless ``binning`` is a well-formed fit for ``lens``.

    The kind must match the representation and the alphabet must be equal.
    SAX needs ``alpha - 1`` cuts; an MCB table needs the lens's ``w`` and
    DC convention. Every cut must be finite and each row non-decreasing.
    """
    if lens.s == SAX:
        fits, shape = isinstance(binning, SaxBinning), (lens.alpha - 1,)
    else:
        fits = isinstance(binning, McbTable) and binning.drop_dc == lens.drop_dc
        shape = (lens.w, lens.alpha - 1)
    if not fits or binning.alpha != lens.alpha or binning.cuts.shape != shape:
        raise ValueError(f"binning does not fit its {lens.representation} lens (alpha={lens.alpha}, w={lens.w})")
    if not np.isfinite(binning.cuts).all() or (np.diff(binning.cuts, axis=-1) < 0).any():
        raise ValueError("binning cuts must be finite and non-decreasing")


def paa(values, w: int) -> np.ndarray:
    """Compress a series to ``w`` segment means.

    Segment i covers indices [floor(i*n/w), floor((i+1)*n/w)); when w
    divides n the segments are equal-width and the overall mean is
    preserved.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    if not word_fits(SAX, w, n):
        raise InvalidWordSize(f"PAA needs 1 <= w <= n, got w={w}, n={n}")
    bounds = (np.arange(w + 1) * n) // w
    sums = np.add.reduceat(values, bounds[:-1], axis=-1)
    return sums / np.diff(bounds)


def gaussian_cuts(alpha: int) -> np.ndarray:
    """Standard-normal quantiles at k/alpha for k = 1..alpha-1."""
    check_alphabets(alpha)
    return np.array([NormalDist().inv_cdf(k / alpha) for k in range(1, alpha)])


def fit_sax_binning(paa_values, alpha: int, mode: str = "minmax") -> SaxBinning:
    """Fit SAX cuts from the PAA values of the (normalized) training set.

    ``paa_values`` is any array of training PAA values (typically the
    (n_series, w) matrix); it is ignored in gaussian mode. A zero-width
    minmax range falls back to gaussian cuts with ``degenerate=True``.
    """
    check_alphabets(alpha)
    if mode == "gaussian":
        return SaxBinning("gaussian", alpha, gaussian_cuts(alpha))
    values = np.asarray(paa_values, dtype=np.float64)
    lo, hi = values.min(), values.max()
    if lo == hi:
        warnings.warn(
            "zero-width value range in minmax binning, using gaussian cuts",
            DegenerateBinning,
        )
        return SaxBinning(mode, alpha, gaussian_cuts(alpha), degenerate=True)
    cuts = lo + (hi - lo) * np.arange(1, alpha) / alpha
    return SaxBinning(mode, alpha, cuts)


def digitize(values, cuts) -> np.ndarray:
    """Symbol index = number of cuts strictly below the value (ties go low).

    ``cuts`` is one row shared by every value (SAX), or a (w, alpha - 1)
    table whose row j digitizes the values of the last axis's column j
    (SFA). Cuts must be non-decreasing along each row.
    """
    values = np.asarray(values, dtype=np.float64)
    return np.count_nonzero(np.asarray(cuts) < values[..., None], axis=-1)


def _lowpass(spectrum, w: int, drop_dc: bool) -> np.ndarray:
    """``dft_lowpass`` from the full DFT ``spectrum`` of the values."""
    n = spectrum.shape[-1]
    if not word_fits(SFA, w, n):
        raise InvalidWordSize(f"DFT low-pass needs even w with 2 <= w <= n, got w={w}, n={n}")
    start = 1 if drop_dc else 0
    coeffs = spectrum[..., start : start + w // 2]
    out = np.empty(spectrum.shape[:-1] + (w,), dtype=np.float64)
    out[..., 0::2] = coeffs.real
    out[..., 1::2] = coeffs.imag
    return out


def dft_lowpass(values, w: int, drop_dc: bool = False) -> np.ndarray:
    """First w/2 complex DFT coefficients as w interleaved real/imag values.

    Unnormalized forward transform of the values as given. With ``drop_dc``
    the coefficient window starts at index 1, discarding the DC term (mean
    invariance); without it the first pair is the DC term, whose real part
    is the series sum. SFA goes through ``sfa_coefficients``, which also
    znormalizes and zeroes that pair.
    """
    return _lowpass(np.fft.fft(np.asarray(values, dtype=np.float64), axis=-1), w, drop_dc)


def sfa_coefficients(X, w: int, drop_dc: bool = False) -> np.ndarray:
    """SFA Fourier values of each row of a raw (n_series, n) matrix.

    Znormalize, then keep the first w/2 DFT coefficients. When the DC term
    is kept, its pair is set to exact zero: the mean of a znormalized row is
    zero, and the transform would otherwise leave only round-off there.
    These are the words of an SFA lens of width ``w``, whatever its alphabet.
    """
    return lens_words(X, [Lens(SFA, 2, w, drop_dc)])[0]


def equal_depth_breakpoints(values, alpha: int) -> np.ndarray:
    """Place alpha-1 breakpoints so bin occupancies differ by at most one.

    ``values`` is one column, or an (n_series, w) matrix whose columns are
    fitted separately into a (w, alpha - 1) table. Breakpoints sit at the
    midpoint of the two sorted values straddling each bin boundary.
    Duplicate breakpoints (too few distinct values) are perturbed upward by
    the smallest representable step so each row is strictly increasing.
    """
    check_alphabets(alpha)
    col = np.sort(np.asarray(values, dtype=np.float64), axis=0)
    s = col.shape[0]
    if s == 0:
        raise ValueError("cannot fit breakpoints on an empty column")
    positions = (np.arange(1, alpha) * s) // alpha
    bps = (col[np.clip(positions - 1, 0, s - 1)] + col[np.clip(positions, 0, s - 1)]) / 2.0
    for j in range(1, alpha - 1):
        bps[j] = np.where(bps[j] <= bps[j - 1], np.nextafter(bps[j - 1], np.inf), bps[j])
    return np.ascontiguousarray(bps.T)


def lens_words(X, lenses) -> list[np.ndarray]:
    """Real-valued words of each row of a raw (n_series, n) matrix, one array per lens.

    The rows are znormalized once and each distinct (representation, w,
    drop_dc) word is built once: one PAA per SAX word length, and one DFT
    shared by every SFA word, sliced per (w, drop_dc). Lenses that differ
    only in their alphabet share one array.
    """
    Z = znormalize_rows(X)
    spectrum = None
    built = {}
    for lens in lenses:
        key = (lens.s, lens.w, lens.drop_dc)
        if key in built:
            continue
        if lens.s == SAX:
            built[key] = paa(Z, lens.w)
        else:
            if spectrum is None:
                spectrum = np.fft.fft(Z, axis=-1)
            built[key] = _lowpass(spectrum, lens.w, lens.drop_dc)
            if not lens.drop_dc:
                built[key][:, :2] = 0.0
    return [built[(lens.s, lens.w, lens.drop_dc)] for lens in lenses]


def fit_lens(X, lens: Lens, sax_mode: str = "minmax") -> tuple[SaxBinning | McbTable, np.ndarray]:
    """Fit a lens's binning on a raw (n_series, n) training matrix.

    Returns (binning, symbols of the training rows). SAX fits one row of
    cuts in ``sax_mode``; SFA fits an equal-depth table and warns
    EqualDepthDegenerate when there are fewer training series than bins.
    """
    (words,) = lens_words(X, [lens])
    if lens.s == SAX:
        binning = fit_sax_binning(words, lens.alpha, sax_mode)
    else:
        if words.shape[0] < lens.alpha:
            warnings.warn(
                f"equal-depth binning with {words.shape[0]} series and {lens.alpha} bins is degenerate",
                EqualDepthDegenerate,
            )
        binning = McbTable(lens.alpha, lens.w, lens.drop_dc, equal_depth_breakpoints(words, lens.alpha))
    return binning, digitize(words, binning.cuts)


def symbolize(X, lens: Lens, binning) -> np.ndarray:
    """Symbols of each row of a raw (n_series, n) matrix under a fitted lens."""
    (words,) = lens_words(X, [lens])
    return digitize(words, binning.cuts)


def _word(ts, lens: Lens, binning) -> SymbolicWord:
    values = ts.values if isinstance(ts, TimeSeries) else np.asarray(ts)
    return SymbolicWord(symbolize(values.reshape(1, -1), lens, binning)[0], lens.alpha, lens.w)


def sax(ts, w: int, binning: SaxBinning) -> SymbolicWord:
    """Transform one series to its SAX word (znormalize -> PAA -> digitize)."""
    return _word(ts, Lens(SAX, binning.alpha, w), binning)


def fit_mcb(train, alpha: int, w: int, drop_dc: bool = False) -> McbTable:
    """Fit per-column equal-depth breakpoints on training Fourier values.

    ``train`` is a Dataset or a raw (n_series, n) matrix; each series is
    znormalized before the DFT. Emits EqualDepthDegenerate when there are
    fewer training series than bins.
    """
    X = train.X if isinstance(train, Dataset) else train
    return fit_lens(X, Lens(SFA, alpha, w, drop_dc))[0]


def sfa(ts, table: McbTable) -> SymbolicWord:
    """Transform one series to its SFA word using a fitted MCB table."""
    return _word(ts, Lens(SFA, table.alpha, table.w, table.drop_dc), table)
