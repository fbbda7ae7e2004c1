"""The package namespace and the contract every public record keeps."""

import ast
import copy
import io
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import symcast
from symcast import config, encoder, errors, ingest, learner, pipeline, tracetext
from symcast.cli import Settings
from symcast.encoder import (
    ClassSequence,
    EncodedCorpus,
    Record,
    SensorMemory,
    SymbolMatrix,
    encode_corpus,
    symbol_integer_transform,
)
from symcast.ingest import Corpus, read_text_corpus
from symcast.learner import Learner, LearnerConfig
from symcast.pipeline import PredictionTrace, RunConfig, decode_trace, run_continual, write_trace

from conftest import CARBUS


def test_all_names_every_public_binding():
    names = symcast.__all__  # the namespace is lazy: this lookup binds every public name
    bound = {name for name, value in vars(symcast).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(names) == sorted(bound)


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
    for module in (config, encoder, errors, ingest, learner, pipeline, tracetext):
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(symcast, name) is value
            if callable(value):  # defined there, not imported from elsewhere
                assert value.__module__ == module.__name__, name


# The numpy reference code the tests compare against: the only places numpy is imported.
NUMPY_REFERENCE = [
    ("encoder", "swap_match"), ("encoder", "symbol_integer_transform"),
    ("learner", "adjust_candidates"), ("learner", "make_adjustment_grid"),
    ("learner", "select_winners"),
]


def numpy_imports(tree):
    """The function around each import of numpy in tree, or None for one at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            else:
                modules = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
            found.extend(function for module in modules if module.split(".")[0] == "numpy")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(tree, None)
    return found


def test_numpy_is_imported_only_inside_the_reference_functions():
    # a class body runs at import, so an import there counts as module level
    found = []
    for path in sorted(Path(symcast.__file__).parent.glob("*.py")):
        found += [(path.stem, function)
                  for function in numpy_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert sorted(found) == NUMPY_REFERENCE


class TestLazyNamespace:
    """The package binds its public names, and imports their modules, on a first lookup."""

    def fresh(self, code):
        """What code prints in a new interpreter, where no symcast module has been imported."""
        env = dict(os.environ, PYTHONPATH=str(Path(symcast.__file__).resolve().parent.parent))
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True).stdout

    def test_a_star_import_gives_exactly_the_public_names(self):
        namespace = {}
        exec("from symcast import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
        star = "from symcast import *\nprint(sorted(n for n in dir() if not n.startswith('__')))"
        assert self.fresh(star) == f"{PUBLIC_NAMES}\n"

    def test_dir_covers_the_public_names(self):
        assert set(PUBLIC_NAMES) <= set(dir(symcast))
        listed = self.fresh("import symcast\nprint(*dir(symcast))")
        assert set(PUBLIC_NAMES) <= set(listed.split())

    def test_importing_the_package_imports_none_of_its_modules(self):
        loaded = "import sys, symcast\nprint(*sorted(m for m in sys.modules if 'symcast' in m))"
        assert self.fresh(loaded) == "symcast\n"

    def test_an_unknown_name_raises_the_standard_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'symcast' has no attribute 'nonesuch'$"):
            symcast.nonesuch
        assert not hasattr(symcast, "nonesuch")
        with pytest.raises(ImportError, match="cannot import name 'nonesuch' from 'symcast'"):
            from symcast import nonesuch  # noqa: F401


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
    return record._fields


def fresh_copy(value):
    """A deep copy of a field; a column, a memoryview that copy cannot take, as a numpy array."""
    return np.array(value) if isinstance(value, memoryview) else copy.deepcopy(value)


RECORDS = public_records()
RECORD_IDS = [type(record).__name__ for record in RECORDS]
HASHABLE = [record for record in RECORDS
            if isinstance(record, (Corpus, ClassSequence, SensorMemory, LearnerConfig, RunConfig,
                                   Settings))]


class TestRecordContract:
    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_fields_cannot_be_assigned(self, record):
        for name in field_names(record):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_equals_a_fresh_copy_of_its_fields(self, record):
        fields = {name: fresh_copy(getattr(record, name)) for name in field_names(record)}
        assert record == type(record)(**fields)

    @pytest.mark.parametrize("record", HASHABLE, ids=lambda record: type(record).__name__)
    def test_configs_corpus_and_memory_hash_by_value(self, record):
        fields = {name: copy.deepcopy(getattr(record, name)) for name in field_names(record)}
        assert {record: 1}[type(record)(**fields)] == 1

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_copies_pickles_and_an_empty_replace_are_equal(self, record):
        made = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
                record._replace()]
        assert all(other == record for other in made)

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_repr_names_the_type_and_each_field(self, record):
        text = repr(record)
        assert text.startswith(f"{type(record).__name__}(")
        assert all(f"{name}=" in text for name in field_names(record))

    def test_run_config_defaults_to_the_default_learner(self):
        assert RunConfig().learner == LearnerConfig()


ARRAY_RECORDS = [record for record in RECORDS
                 if isinstance(record, (SymbolMatrix, EncodedCorpus, PredictionTrace))]


class TestFrozenBase:
    """The records on encoder.Record take their fields as a function takes its arguments."""

    @pytest.mark.parametrize("record", [record for record in RECORDS if isinstance(record, Record)],
                             ids=lambda record: type(record).__name__)
    def test_a_wrong_count_a_missing_field_or_an_unknown_one_is_a_type_error(self, record):
        kind, names = type(record), field_names(record)
        values = [getattr(record, name) for name in names]
        # counted as a call counts them, with self
        with pytest.raises(TypeError, match=f"takes {len(names) + 1} positional arguments "
                                            f"but {len(names) + 2} were given$"):
            kind(*values, values[0])
        missing = f"missing 1 required positional argument: '{names[-1]}'$"
        with pytest.raises(TypeError, match=missing):
            kind(*values[:-1])
        with pytest.raises(TypeError, match="got an unexpected keyword argument 'nonesuch'$"):
            kind(*values, nonesuch=1)
        with pytest.raises(TypeError, match="got an unexpected keyword argument 'nonesuch'$"):
            record._replace(nonesuch=1)
        with pytest.raises(TypeError, match=f"got multiple values for argument '{names[0]}'$"):
            kind(*values, **{names[0]: values[0]})

    @pytest.mark.parametrize("record", ARRAY_RECORDS, ids=lambda record: type(record).__name__)
    def test_an_array_record_is_unhashable(self, record):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)


@pytest.mark.parametrize("record", ARRAY_RECORDS, ids=lambda record: type(record).__name__)
def test_array_fields_stay_read_only_however_the_record_is_made(record):
    names = [name for name in field_names(record) if isinstance(getattr(record, name), memoryview)]
    assert names
    writable = {name: np.array(getattr(record, name)) for name in names}  # fresh, writable copies
    made = {
        "constructor": type(record)(**{**vars(record), **writable}),
        "replace": record._replace(**writable),
        "copy": copy.copy(record),
        "deepcopy": copy.deepcopy(record),
        "pickle": pickle.loads(pickle.dumps(record)),
    }
    for how, other in made.items():
        assert other == record, how
        for name in names:
            assert getattr(other, name).readonly, (how, name)


class TestColumns:
    """A column is a read-only view of an array or buffer of its kind, whatever it was built from."""

    def test_a_record_built_from_part_of_a_column_copies_and_pickles_as_built(self):
        encoded = encode_corpus(CARBUS, class_level=5)
        reversed_index = encoded._replace(score_index=encoded.score_index[::-1])
        for made in (copy.copy(reversed_index), pickle.loads(pickle.dumps(reversed_index))):
            assert made == reversed_index and made != encoded

    def test_reals_given_as_integers_are_held_as_float64(self):
        ones = PredictionTrace(*(np.ones(2, dtype=np.int64),) * 9)
        assert [getattr(ones, name).format for name in field_names(ones)] == [
            "l", "l", "l", "d", "l", "l", "l", "d", "d"]
        buffer = io.StringIO()
        write_trace(ones, buffer)
        assert buffer.getvalue().splitlines()[1] == "1,test,1,1.000000,1,1,1,1.000000,1.000000"

    def test_a_sequence_is_held_as_int64_or_float64(self):
        trace = PredictionTrace([1], [True], (2,), [0.5], range(1, 2), [3], [2], [1.5], [200.0])
        assert [getattr(trace, name).format for name in field_names(trace)] == [
            "q", "q", "q", "d", "q", "q", "q", "d", "d"]
        with pytest.raises(TypeError):
            PredictionTrace([1.5], [True], [2], [0.5], [1], [3], [2], [1.5], [200.0])


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
        moved = encoded._replace(score_index=encoded.score_index[::-1])
        assert encoded != moved and not encoded == moved

    def test_never_equals_another_type(self):
        encoded = encode_corpus(CARBUS, class_level=5)
        assert encoded != tuple(vars(encoded).values())


class TestPredictionTraceEquality:
    def test_columns_of_another_length_never_broadcast_equal(self):
        ones = PredictionTrace(*(np.ones(1, dtype=np.int64),) * 9)
        assert ones != PredictionTrace(*(np.ones(2, dtype=np.int64),) * 9)
        assert ones == PredictionTrace(*(np.ones(1, dtype=np.int8),) * 9)
