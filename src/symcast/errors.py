"""Exception types raised across the package."""

__all__ = [
    "BadClassError", "BadClassLevelError", "BadConfigError", "BadEncodingError", "BadNumberError",
    "BadReferenceError", "EmptyCorpusError", "EmptyMemoryError", "EmptyRowError",
    "LengthMismatchError", "NoTestStepsError", "NonFiniteStateError", "NulCharacterError",
    "SymcastError", "TooShortError", "TraceFormatError",
]


class SymcastError(Exception):
    """Base class for every error this package raises on purpose."""


class EmptyCorpusError(SymcastError):
    """The corpus (or a source stream) contained no usable items."""


class EmptyRowError(SymcastError):
    """A corpus row was an empty string."""

    def __init__(self, row_index: int):
        super().__init__(f"corpus row {row_index} is empty")
        self.row_index = row_index


class NulCharacterError(SymcastError):
    """A corpus row contained NUL, whose code 0 is reserved for padding."""

    def __init__(self, row_index: int):
        super().__init__(f"corpus row {row_index} contains NUL, which collides with padding")
        self.row_index = row_index


class BadReferenceError(SymcastError):
    """The reference-row selector does not resolve to a corpus row."""


class LengthMismatchError(SymcastError):
    """Corpus and class sequence have different lengths."""


class EmptyMemoryError(SymcastError):
    """Decoding was attempted against a memory with no filled slots."""


class BadClassError(SymcastError):
    """A class value is outside [1, class_level]."""


class BadConfigError(SymcastError):
    """A configuration field failed validation."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class BadClassLevelError(BadConfigError):
    """class_level is outside the supported range [2, 10]."""

    def __init__(self, reason: str):
        super().__init__("class_level", reason)


class DegenerateDivisiveError(SymcastError):
    """The divisive/multiplicative rule hit a zero product and cannot proceed."""


class NonFiniteStateError(SymcastError):
    """A learner step drove the deviant mean to infinity or NaN."""

    def __init__(self, step: int, deviant_mean: float):
        super().__init__(f"learner step {step}: deviant mean became {deviant_mean}")
        self.step = step
        self.deviant_mean = deviant_mean


class TooShortError(SymcastError):
    """The sequence is too short to split into train and test parts."""


class NoTestStepsError(SymcastError):
    """Error accounting was requested on a trace with no test steps."""


class BadEncodingError(SymcastError):
    """Input bytes are not valid UTF-8; line_number is the 1-based line of the first bad byte."""

    def __init__(self, byte_offset: int, line_number: int):
        super().__init__(f"input is not valid UTF-8 (line {line_number}, byte offset {byte_offset})")
        self.byte_offset = byte_offset
        self.line_number = line_number


class BadNumberError(SymcastError):
    """A line of a numeric series did not parse as a finite decimal number."""

    def __init__(self, line_number: int, text: str):
        super().__init__(f"line {line_number}: not a decimal number: {text!r}")
        self.line_number = line_number


class TraceFormatError(SymcastError):
    """A trace file did not match the expected delimited format."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
