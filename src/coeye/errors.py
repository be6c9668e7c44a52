"""Exception and warning types shared across the library, and the model file's integer rule."""


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


def model_int(payload: dict, key: str) -> int:
    """``payload[key]`` of a parsed model file; a float, string or bool is refused, not cast by ``int()``."""
    value = payload[key]
    if type(value) is not int:
        raise ModelParseError(f"{key} must be an integer, got {value!r}")
    return value
