"""Time-series classification through multi-resolution symbolic lenses.

A series is viewed through many (representation, alphabet, word size)
lenses in both the time domain (SAX) and the frequency domain (SFA); one
random forest is trained per lens and predictions are combined by a
two-round most-confident vote.
"""

__version__ = "0.1.0"

from .config import CoEyeConfig
from .data import Dataset, TimeSeries, load_ucr, write_ucr, znormalize
from .ensemble import (
    CoEyeModel,
    Eye,
    Prediction,
    classify,
    load_model,
    predict_dataset,
    save_model,
    train,
    vote,
)
from .forest import RandomForestModel, fit_forest, predict, predict_proba
from .lenses import (
    Lens,
    LensGrid,
    search_lenses,
    search_lenses_random,
)
from .resample import SmoteReport, smote
from .symbolic import (
    McbTable,
    SaxBinning,
    SymbolicWord,
    dft_lowpass,
    fit_mcb,
    fit_sax_binning,
    paa,
    sax,
    sfa,
)

__all__ = [
    "__version__",
    "CoEyeConfig",
    "CoEyeModel",
    "Dataset",
    "Eye",
    "Lens",
    "LensGrid",
    "McbTable",
    "Prediction",
    "RandomForestModel",
    "SaxBinning",
    "SmoteReport",
    "SymbolicWord",
    "TimeSeries",
    "classify",
    "dft_lowpass",
    "fit_forest",
    "fit_mcb",
    "fit_sax_binning",
    "load_model",
    "load_ucr",
    "paa",
    "predict",
    "predict_dataset",
    "predict_proba",
    "save_model",
    "sax",
    "search_lenses",
    "search_lenses_random",
    "sfa",
    "smote",
    "train",
    "vote",
    "write_ucr",
    "znormalize",
]
