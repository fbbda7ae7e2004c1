"""The package namespace and the contract every public record keeps."""

import copy
import dataclasses
import io
import pickle
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import symcast
from symcast import encoder, errors, ingest, learner, pipeline
from symcast.cli import Settings
from symcast.encoder import (
    EncodedCorpus,
    SensorMemory,
    SymbolMatrix,
    encode_corpus,
    symbol_integer_transform,
)
from symcast.ingest import Corpus, read_text_corpus
from symcast.learner import Learner, LearnerConfig
from symcast.pipeline import PredictionTrace, RunConfig, decode_trace, run_continual

from conftest import CARBUS


def test_all_names_every_public_binding():
    bound = {name for name, value in vars(symcast).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(symcast.__all__) == sorted(bound)


PUBLIC_NAMES = [
    "ADDITIVE_SUBTRACTIVE", "BadClassError", "BadClassLevelError", "BadConfigError",
    "BadEncodingError", "BadNumberError", "BadReferenceError", "ClassSequence", "Corpus",
    "DecodedTrace", "EmptyCorpusError", "EmptyMemoryError", "EmptyRowError", "EncodedCorpus",
    "Learner", "LearnerConfig", "LengthMismatchError", "MULTIPLICATIVE_DIVISIVE", "MatchScore",
    "NoTestStepsError", "NonFiniteStateError", "NulCharacterError", "PredictionTrace", "RunConfig",
    "SensorMemory", "StepOutcome", "SymbolMatrix", "SymcastError", "TooShortError",
    "TraceFormatError", "baseline_persistence", "build_sensor_memory", "class_encode",
    "decode_class", "decode_trace", "encode_corpus", "mape", "read_numeric_series",
    "read_text_corpus", "read_trace", "resolve_reference", "run_continual", "split_index",
    "swap_match", "symbol_integer_transform", "write_trace",
]


def test_the_namespace_is_each_modules_own_public_names():
    # the package republishes its modules' __all__ lists; none may lose or gain a name
    assert sorted(symcast.__all__) == PUBLIC_NAMES
    for module in (encoder, errors, ingest, learner, pipeline):
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(symcast, name) is value
            if callable(value):  # defined there, not imported from elsewhere
                assert value.__module__ == module.__name__, name


def public_records():
    """One instance of each public record type, built the way the package builds it."""
    corpus = read_text_corpus(io.BytesIO("\n".join(CARBUS).encode()), source="carbus")
    encoded = encode_corpus(corpus.items, class_level=5)
    trace = run_continual(encoded.classes, RunConfig())
    return [
        corpus,
        encoded,
        encoded.matrix,
        encoded.scores[0],
        encoded.classes,
        encoded.memory,
        LearnerConfig(),
        RunConfig(),
        Settings(),
        Learner(LearnerConfig()).learn_step(1, 3),
        trace,
        trace.steps[0],
        decode_trace(trace, encoded.memory),
    ]


def field_names(record):
    if isinstance(record, tuple):
        return record._fields
    return [field.name for field in dataclasses.fields(record)]


RECORDS = public_records()
RECORD_IDS = [type(record).__name__ for record in RECORDS]
HASHABLE = [record for record in RECORDS
            if isinstance(record, (Corpus, SensorMemory, LearnerConfig, RunConfig, Settings))]


class TestRecordContract:
    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_fields_cannot_be_assigned(self, record):
        for name in field_names(record):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_equals_a_fresh_copy_of_its_fields(self, record):
        fields = {name: copy.deepcopy(getattr(record, name)) for name in field_names(record)}
        assert record == type(record)(**fields)

    @pytest.mark.parametrize("record", HASHABLE, ids=lambda record: type(record).__name__)
    def test_configs_corpus_and_memory_hash_by_value(self, record):
        fields = {name: copy.deepcopy(getattr(record, name)) for name in field_names(record)}
        assert {record: 1}[type(record)(**fields)] == 1

    def test_run_config_defaults_to_the_default_learner(self):
        assert RunConfig().learner == LearnerConfig()


ARRAY_RECORDS = [record for record in RECORDS
                 if isinstance(record, (SymbolMatrix, EncodedCorpus, PredictionTrace))]


@pytest.mark.parametrize("record", ARRAY_RECORDS, ids=lambda record: type(record).__name__)
def test_array_fields_stay_read_only_however_the_record_is_made(record):
    names = [name for name in field_names(record) if isinstance(getattr(record, name), np.ndarray)]
    assert names
    writable = {name: np.array(getattr(record, name)) for name in names}  # fresh, writable copies
    made = {
        "constructor": type(record)(**{**vars(record), **writable}),
        "replace": dataclasses.replace(record, **writable),
        "copy": copy.copy(record),
        "deepcopy": copy.deepcopy(record),
        "pickle": pickle.loads(pickle.dumps(record)),
    }
    for how, other in made.items():
        assert other == record, how
        for name in names:
            assert not getattr(other, name).flags.writeable, (how, name)


class TestSymbolMatrixEquality:
    @given(st.lists(st.text("ab", min_size=1, max_size=4), min_size=1, max_size=4),
           st.lists(st.text("ab", min_size=1, max_size=4), min_size=1, max_size=4))
    def test_equal_exactly_when_the_codes_are(self, left, right):
        first, second = symbol_integer_transform(left), symbol_integer_transform(right)
        assert (first == second) == np.array_equal(first.codes, second.codes)

    @pytest.mark.parametrize("left, right, equal", [
        (["ab", "a"], ["ab", "a"], True),
        (["ab"], ["ab", "ab"], False),  # broadcasting would call these equal
        (["ab", "a"], ["ab", "b"], False),
        (["a"], ["a\ud800"], False),
    ])
    def test_shapes_and_codes_both_count(self, left, right, equal):
        assert (symbol_integer_transform(left) == symbol_integer_transform(right)) is equal

    def test_never_equals_another_type(self):
        matrix = symbol_integer_transform(["ab"])
        assert matrix != (matrix.rows, matrix.width, matrix.codes)


class TestEncodedCorpusEquality:
    """An encoding holds its row index as an array; equality compares it by value."""

    def test_equal_to_a_fresh_encoding_and_not_to_another_index(self):
        encoded = encode_corpus(CARBUS, class_level=5)
        assert encoded == encode_corpus(CARBUS, class_level=5)
        assert not encoded != encode_corpus(CARBUS, class_level=5)
        moved = dataclasses.replace(encoded, score_index=encoded.score_index[::-1])
        assert encoded != moved and not encoded == moved

    def test_never_equals_another_type(self):
        encoded = encode_corpus(CARBUS, class_level=5)
        assert encoded != dataclasses.astuple(encoded)


class TestPredictionTraceEquality:
    def test_columns_of_another_length_never_broadcast_equal(self):
        ones = PredictionTrace(*(np.ones(1, dtype=np.int64),) * 9)
        assert ones != PredictionTrace(*(np.ones(2, dtype=np.int64),) * 9)
        assert ones == PredictionTrace(*(np.ones(1, dtype=np.int8),) * 9)
