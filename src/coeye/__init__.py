"""Time-series classification through multi-resolution symbolic lenses.

A series is viewed through many (representation, alphabet, word size)
lenses in both the time domain (SAX) and the frequency domain (SFA); one
random forest is trained per lens and predictions are combined by a
two-round most-confident vote.

Each public name loads its home module on first use (PEP 562): ``load_ucr``
imports the file parser alone, and only the forest, lens and ensemble names
bring in the tree engine and the worker pool.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_PUBLIC = {
    "config": ("CoEyeConfig",),
    "data": ("Dataset", "TimeSeries", "load_ucr", "write_ucr", "znormalize"),
    "ensemble": ("CoEyeModel", "Eye", "Prediction", "classify", "load_model", "predict_dataset", "save_model",
                 "train", "vote"),
    "forest": ("RandomForestModel", "fit_forest", "predict", "predict_proba"),
    "lenses": ("LensGrid", "search_lenses", "search_lenses_random"),
    "resample": ("SmoteReport", "smote"),
    "symbolic": ("Lens", "McbTable", "SaxBinning", "SymbolicWord", "dft_lowpass", "fit_mcb", "fit_sax_binning",
                 "paa", "sax", "sfa"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
