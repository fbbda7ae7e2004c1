"""symcast: continual one-step-ahead prediction over symbol streams.

Symbol groups are encoded into sparse integer classes by positional
match scoring against a reference row; a deviant-mean learner then
predicts each class from its predecessor and corrects itself from the
signed mismatch after every observation, through both the train and
test phases.
"""

__version__ = "0.1.0"

from .encoder import (
    ClassSequence,
    EncodedCorpus,
    MatchScore,
    SensorMemory,
    SymbolMatrix,
    build_sensor_memory,
    class_encode,
    decode_class,
    encode_corpus,
    resolve_reference,
    swap_match,
    symbol_integer_transform,
)
from .errors import (
    BadClassError,
    BadClassLevelError,
    BadConfigError,
    BadEncodingError,
    BadNumberError,
    BadReferenceError,
    EmptyCorpusError,
    EmptyMemoryError,
    EmptyRowError,
    LengthMismatchError,
    NoTestStepsError,
    NonFiniteStateError,
    NulCharacterError,
    SymcastError,
    TooShortError,
    TraceFormatError,
)
from .ingest import Corpus, read_numeric_series, read_text_corpus
from .learner import (
    ADDITIVE_SUBTRACTIVE,
    MULTIPLICATIVE_DIVISIVE,
    Learner,
    LearnerConfig,
    StepOutcome,
)
from .pipeline import (
    DecodedTrace,
    PredictionTrace,
    RunConfig,
    baseline_persistence,
    decode_trace,
    mape,
    read_trace,
    run_continual,
    split_index,
    write_trace,
)

__all__ = [
    "ADDITIVE_SUBTRACTIVE",
    "MULTIPLICATIVE_DIVISIVE",
    "BadClassError",
    "BadClassLevelError",
    "BadConfigError",
    "BadEncodingError",
    "BadNumberError",
    "BadReferenceError",
    "ClassSequence",
    "Corpus",
    "DecodedTrace",
    "EmptyCorpusError",
    "EmptyMemoryError",
    "EmptyRowError",
    "EncodedCorpus",
    "Learner",
    "LearnerConfig",
    "LengthMismatchError",
    "MatchScore",
    "NoTestStepsError",
    "NonFiniteStateError",
    "NulCharacterError",
    "PredictionTrace",
    "RunConfig",
    "SensorMemory",
    "StepOutcome",
    "SymbolMatrix",
    "SymcastError",
    "TooShortError",
    "TraceFormatError",
    "baseline_persistence",
    "build_sensor_memory",
    "class_encode",
    "decode_class",
    "decode_trace",
    "encode_corpus",
    "mape",
    "read_numeric_series",
    "read_text_corpus",
    "read_trace",
    "resolve_reference",
    "run_continual",
    "split_index",
    "swap_match",
    "symbol_integer_transform",
    "write_trace",
]
