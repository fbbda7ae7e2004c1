"""Tests for the train/predict/evaluate pipeline."""

import io
import math
import os
import random
import re
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcast import tracetext
from symcast.cli import _write_decoded, main
from symcast.config import MAX_CLASS_LEVEL, MIN_CLASS_LEVEL
from symcast.encoder import ClassSequence, SensorMemory, decode_class
from symcast.errors import (
    BadClassError,
    BadClassLevelError,
    BadConfigError,
    SymcastError,
    EmptyMemoryError,
    LengthMismatchError,
    NoTestStepsError,
    TooShortError,
    TraceFormatError,
)
from symcast.learner import (
    ADDITIVE_SUBTRACTIVE,
    MULTIPLICATIVE_DIVISIVE,
    LearnerConfig,
)
from symcast.pipeline import (
    TEST,
    TRAIN,
    DecodedTrace,
    PredictionTrace,
    RunConfig,
    StepRecord,
    baseline_persistence,
    decode_trace,
    mape,
    read_trace,
    run_continual,
    split_index,
    write_trace,
)
from symcast.pipeline import round_half_away_from_zero as walk_rounding
from symcast.tracetext import BLOCK_ROWS, TRACE_HEADER, format_real, read_cumulative_mape

from oracle import (
    decode_reference,
    decoded_report_reference,
    read_trace_reference,
    read_trace_whole,
    round_half_away_from_zero,
    series_report_reference,
    walk_reference,
    write_trace_reference,
)


def sequence(values, level=5):
    return ClassSequence(classes=tuple(values), class_level=level)


def trace_of(steps, cumulative_mape):
    """A trace holding the given StepRecords, numbered from 1, their test steps last."""
    return PredictionTrace(*list(zip(*steps))[2:], cumulative_mape)


def steps_in(trace, phase):
    return [step for step in trace.steps if step.phase == phase]


def make_step(index, phase, predicted, expected):
    return StepRecord(
        index=index,
        phase=phase,
        previous_class=1,
        raw_prediction=float(predicted),
        predicted_class=predicted,
        expected_class=expected,
        abs_error=abs(predicted - expected),
        deviant_mean_after=0.0,
    )


class TestSplitIndex:
    @pytest.mark.parametrize(
        "length,fraction,expected",
        [
            (9, 0.35, 3),
            (2, 0.35, 1),
            (100, 0.5, 50),
            (5, 0.9, 4),
            (5, 0.4, 2),
        ],
    )
    def test_train_element_counts(self, length, fraction, expected):
        assert split_index(length, fraction) == expected

    def test_too_short_sequence(self):
        with pytest.raises(TooShortError):
            split_index(1, 0.35)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, fraction):
        # the split's fraction rule lives in RunConfig.validate
        with pytest.raises(BadConfigError) as info:
            RunConfig(train_fraction=fraction).validate()
        assert info.value.field == "train_fraction"
        with pytest.raises(BadConfigError):
            run_continual(sequence([1, 2, 3]), RunConfig(train_fraction=fraction))

    @given(
        length=st.integers(min_value=2, max_value=10_000),
        fraction=st.floats(min_value=0.001, max_value=0.999),
    )
    def test_split_leaves_at_least_one_test_step(self, length, fraction):
        split = split_index(length, fraction)
        assert 1 <= split <= length - 1


class TestRunContinual:
    def test_vehicle_corpus_full_trace(self, carbus_encoded):
        trace = run_continual(carbus_encoded.classes, RunConfig())
        assert len(trace.steps) == 8
        assert [s.phase for s in trace.steps] == [TRAIN] * 2 + [TEST] * 6
        assert [s.previous_class for s in trace.steps] == [1, 5, 5, 1, 1, 1, 1, 1]
        assert [s.raw_prediction for s in trace.steps] == [
            1.0, 7.0, 5.0, -1.0, 1.0, 1.0, 1.0, 1.0,
        ]
        assert [s.predicted_class for s in trace.steps] == [1, 5, 5, 1, 1, 1, 1, 1]
        assert [s.expected_class for s in trace.steps] == [5, 5, 1, 1, 1, 1, 1, 5]
        assert [s.abs_error for s in trace.steps] == [4, 0, 4, 0, 0, 0, 0, 4]
        assert [s.deviant_mean_after for s in trace.steps] == [
            2.0, 0.0, -2.0, 0.0, 0.0, 0.0, 0.0, 2.0,
        ]
        assert trace.cumulative_mape.tolist() == [400.0, 200.0, 400.0 / 3.0, 100.0, 80.0, 80.0]

    def test_vehicle_corpus_matches_the_published_pairs(self, carbus_encoded):
        """Test-phase predictions land on (1, 1) exactly four times."""
        trace = run_continual(carbus_encoded.classes, RunConfig())
        pairs = [(s.predicted_class, s.expected_class) for s in steps_in(trace, TEST)]
        assert pairs == [(5, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 5)]
        assert pairs.count((1, 1)) == 4

    def test_constant_sequence_is_error_free(self):
        trace = run_continual(sequence([2, 2, 2, 2, 2]), RunConfig())
        assert all(s.predicted_class == 2 for s in trace.steps)
        assert all(s.abs_error == 0 for s in trace.steps)
        assert set(trace.cumulative_mape.tolist()) == {0.0}

    def test_ramp_locks_on_after_one_step(self):
        trace = run_continual(sequence([1, 2, 3, 4, 5]), RunConfig(train_fraction=0.4))
        assert abs(trace.steps[0].deviant_mean_after - 1.0) <= 0.002
        for step in trace.steps[1:]:
            assert step.predicted_class == step.expected_class
        assert trace.cumulative_mape[-1] == 0.0

    def test_trace_length_law(self):
        for values in ([1, 2], [3, 1, 4, 1, 5], list(range(1, 6)) * 4):
            classes = sequence(values)
            trace = run_continual(classes, RunConfig())
            assert len(trace.steps) == len(classes) - 1
            split = split_index(len(classes), 0.35)
            assert len(steps_in(trace, TRAIN)) == split - 1
            assert len(steps_in(trace, TEST)) == len(classes) - split

    def test_step_indices_are_sequential(self, carbus_encoded):
        trace = run_continual(carbus_encoded.classes, RunConfig())
        assert [s.index for s in trace.steps] == list(range(1, 9))

    def test_replay_determinism(self, carbus_encoded):
        config = RunConfig()
        assert run_continual(carbus_encoded.classes, config) == run_continual(
            carbus_encoded.classes, config
        )

    def test_learner_config_is_pinned_to_the_sequence_level(self):
        # the learner knows no class level; the walk clamps to the sequence's,
        # so predictions on a level-9 sequence reach 9 and no further
        classes = sequence([1, 9, 9, 9, 9, 9], level=9)
        trace = run_continual(classes, RunConfig(learner=LearnerConfig(bias=2.0)))
        assert any(s.predicted_class == 9 for s in trace.steps)
        assert any(s.raw_prediction > 9.5 for s in trace.steps)
        assert max(s.predicted_class for s in trace.steps) == 9

    @pytest.mark.parametrize(
        "values,bad",
        [((0, 1, 0, 1), 0), ((200, 1, 1, 1), 200), ((7, 1, 9, 1), 7), ((1, 5, 5, 1), None)],
    )
    def test_classes_must_lie_in_the_level_range(self, values, bad):
        # a hand-built sequence at level 5; the first class outside [1, 5] is named
        for walk in (run_continual, baseline_persistence):
            if bad is None:
                trace = walk(sequence(values), RunConfig())
                assert trace.expected_class.tolist() == list(values[1:])
                continue
            with pytest.raises(BadClassError) as info:
                walk(sequence(values), RunConfig())
            assert str(info.value) == f"class {bad} out of range [1, 5]"

    @pytest.mark.parametrize("level", [0, 1, 11])
    def test_a_sequence_level_out_of_range_is_refused(self, level):
        with pytest.raises(BadClassLevelError):
            run_continual(sequence((1, 1, 1), level), RunConfig())

    def test_too_short_sequence_rejected(self):
        with pytest.raises(TooShortError):
            run_continual(sequence([3]), RunConfig())

    def test_freeze_after_train_stops_updates(self, carbus_encoded):
        frozen = run_continual(
            carbus_encoded.classes, RunConfig(freeze_after_train=True)
        )
        # training ends with the mean back at zero; it must stay there
        assert [s.deviant_mean_after for s in frozen.steps] == [2.0, 0.0] + [0.0] * 6
        continual = run_continual(carbus_encoded.classes, RunConfig())
        assert continual.steps[2].deviant_mean_after == -2.0

    @given(
        values=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=30),
        fraction=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_phases_are_a_train_prefix_then_a_test_suffix(self, values, fraction):
        trace = run_continual(sequence(values), RunConfig(train_fraction=fraction))
        phases = [s.phase for s in trace.steps]
        assert phases == sorted(phases, key=lambda p: 0 if p == TRAIN else 1)
        assert phases[-1] == TEST


class TestMape:
    def test_all_exact_trace_is_zero(self):
        trace = run_continual(sequence([4, 4, 4, 4]), RunConfig())
        final, series = mape(trace)
        assert final == 0.0
        assert set(series) == {0.0}

    def test_single_test_step(self):
        trace = trace_of((make_step(1, TEST, 1, 5),), cumulative_mape=(80.0,))
        final, series = mape(trace)
        assert final == 80.0
        assert series.tolist() == [80.0]

    def test_running_mean_over_two_steps(self):
        # both steps are test steps, with errors 0/1 and 4/5
        trace = baseline_persistence(sequence([1, 1, 5]), RunConfig())
        final, series = mape(trace)
        assert series.tolist() == [0.0, 40.0]
        assert final == 40.0

    def test_trace_without_test_steps(self):
        trace = trace_of((make_step(1, TRAIN, 1, 1),), cumulative_mape=())
        with pytest.raises(NoTestStepsError):
            mape(trace)

    @given(values=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=25))
    def test_mape_is_never_negative(self, values):
        trace = run_continual(sequence(values), RunConfig())
        final, series = mape(trace)
        assert final >= 0.0
        assert all(v >= 0.0 for v in series)
        exact = all(s.abs_error == 0 for s in steps_in(trace, TEST))
        assert (final == 0.0) == exact


class TestBaselinePersistence:
    def test_constant_sequence(self):
        trace = baseline_persistence(sequence([3, 3, 3, 3]), RunConfig())
        assert mape(trace)[0] == 0.0

    def test_ramp_lags_by_one(self):
        trace = baseline_persistence(sequence([1, 2, 3, 4, 5]), RunConfig())
        assert all(s.abs_error == 1 for s in trace.steps)

    def test_vehicle_corpus_predictions(self, carbus_encoded):
        trace = baseline_persistence(carbus_encoded.classes, RunConfig())
        assert [s.predicted_class for s in steps_in(trace, TEST)] == [5, 1, 1, 1, 1, 1]

    def test_same_split_as_the_learner_trace(self, carbus_encoded):
        config = RunConfig()
        learned = run_continual(carbus_encoded.classes, config)
        baseline = baseline_persistence(carbus_encoded.classes, config)
        assert [s.phase for s in learned.steps] == [s.phase for s in baseline.steps]


@st.composite
def runs(draw):
    level = draw(st.integers(min_value=2, max_value=10))
    values = draw(st.lists(st.integers(min_value=1, max_value=level), min_size=2, max_size=40))
    config = RunConfig(
        train_fraction=draw(st.floats(min_value=0.01, max_value=0.99)),
        freeze_after_train=draw(st.booleans()),
    )
    return sequence(values, level), config


class TestStepLoopOracle:
    """Both walks against a naive recomputation of what they store."""

    @given(run=runs())
    def test_stored_mape_is_the_naive_running_mean(self, run):
        classes, config = run
        for trace in (run_continual(classes, config), baseline_persistence(classes, config)):
            ratios = [s.abs_error / s.expected_class for s in steps_in(trace, TEST)]
            naive = tuple(
                100.0 * sum(ratios[:count]) / count for count in range(1, len(ratios) + 1)
            )
            assert tuple(trace.cumulative_mape.tolist()) == naive

    @given(run=runs())
    def test_baseline_rows_repeat_the_previous_class(self, run):
        classes, config = run
        for step in baseline_persistence(classes, config).steps:
            assert step.predicted_class == step.previous_class
            assert step.raw_prediction == float(step.previous_class)
            assert step.deviant_mean_after == 0.0


class TestDecodeTrace:
    def test_vehicle_test_steps_decode_to_words(self, carbus_encoded):
        trace = run_continual(carbus_encoded.classes, RunConfig())
        decoded = decode_trace(trace, carbus_encoded.memory)
        assert len(decoded.predicted_symbol) == len(decoded.expected_symbol) == len(trace.steps)
        assert len(decoded.exact) == len(trace.steps)
        test_decoded = list(zip(decoded.predicted_symbol, decoded.expected_symbol))[2:]
        assert test_decoded == [
            ("Bus", "Car"),
            ("Car", "Car"),
            ("Car", "Car"),
            ("Car", "Car"),
            ("Car", "Car"),
            ("Car", "Bus"),
        ]
        assert all(decoded.exact)

    def test_redundant_class_decodes_inexactly(self, carbus_encoded):
        trace = trace_of((make_step(1, TEST, 3, 5),), cumulative_mape=(40.0,))
        decoded = decode_trace(trace, carbus_encoded.memory)
        assert decoded.predicted_symbol[0] == "Car"
        assert decoded.expected_symbol[0] == "Bus"
        assert not decoded.exact[0]

    def test_empty_memory_propagates(self):
        trace = trace_of((make_step(1, TEST, 2, 2),), cumulative_mape=(0.0,))
        with pytest.raises(EmptyMemoryError):
            decode_trace(trace, SensorMemory(slots=(None,) * 5))

    @given(
        slots=st.lists(st.one_of(st.none(), st.sampled_from("abc")), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_equals_decode_class_step_by_step(self, slots, data):
        memory = SensorMemory(slots=tuple(slots))
        classes = st.integers(min_value=1, max_value=memory.class_level)
        pairs = data.draw(st.lists(st.tuples(classes, classes), min_size=1, max_size=12))
        trace = trace_of(
            tuple(make_step(i, TEST, p, e) for i, (p, e) in enumerate(pairs, start=1)),
            cumulative_mape=(0.0,) * len(pairs),
        )
        if all(slot is None for slot in slots):
            with pytest.raises(EmptyMemoryError):
                decode_trace(trace, memory)
            return
        expected = []
        for predicted, observed in pairs:
            predicted_symbol, predicted_exact = decode_class(predicted, memory)
            expected_symbol, expected_exact = decode_class(observed, memory)
            expected.append(
                (predicted_symbol, expected_symbol, predicted_exact and expected_exact)
            )
        assert list(zip(*decode_trace(trace, memory))) == expected


class TestTraceLengthRule:
    """A trace's columns hold one entry per step, and cumulative_mape one per test step, the last."""

    def test_a_column_of_another_length_is_refused_where_the_trace_is_built(self, carbus_encoded):
        trace = run_continual(carbus_encoded.classes, RunConfig())
        columns = {name: getattr(trace, name) for name in PredictionTrace._fields}
        assert PredictionTrace(**columns) == trace
        for name in list(columns)[1:-1]:
            for short in (columns[name][:-1], columns[name][1:2]):
                with pytest.raises(LengthMismatchError,
                                   match=f"^{name} has {len(short)} entries for 8 steps$"):
                    PredictionTrace(**{**columns, name: short})
        # the first column counts the steps
        with pytest.raises(LengthMismatchError, match="^raw_prediction has 8 entries for 9 steps$"):
            PredictionTrace(**{**columns, "previous_class": range(9)})
        with pytest.raises(LengthMismatchError,
                           match="^cumulative_mape has 9 entries for 8 steps$"):
            PredictionTrace(**{**columns, "cumulative_mape": range(9)})

    @pytest.mark.parametrize("tests", [0, 1, 5, 8])
    def test_the_last_len_cumulative_mape_steps_are_the_test_steps(self, carbus_encoded, tests):
        trace = run_continual(carbus_encoded.classes, RunConfig())
        trace = trace._replace(cumulative_mape=[1.0] * tests)
        assert [(s.index, s.phase) for s in trace.steps] == [
            (index, TRAIN if index <= 8 - tests else TEST) for index in range(1, 9)]

    def test_the_error_is_a_symcast_error(self):
        with pytest.raises(SymcastError):
            PredictionTrace(*([1],) * 6, [1.0, 2.0])


class TestTraceSerialization:
    def test_header_and_field_formats(self, carbus_encoded):
        trace = run_continual(carbus_encoded.classes, RunConfig())
        buffer = io.StringIO()
        write_trace(trace, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == TRACE_HEADER
        assert lines[1] == "1,train,1,1.000000,1,5,4,,2.000000"
        assert lines[3] == "3,test,5,5.000000,5,1,4,400.000000,-2.000000"
        assert lines[8] == "8,test,1,1.000000,1,5,4,80.000000,2.000000"

    def test_write_read_write_is_stable(self, carbus_encoded):
        trace = run_continual(carbus_encoded.classes, RunConfig())
        first = io.StringIO()
        write_trace(trace, first)
        parsed = read_trace(io.StringIO(first.getvalue()))
        second = io.StringIO()
        write_trace(parsed, second)
        assert first.getvalue() == second.getvalue()

    @pytest.mark.parametrize("column", ["raw_prediction", "deviant_mean_after"])
    def test_a_negative_zero_keeps_its_sign_beside_a_positive_one(self, column):
        # a dict of texts keyed by the reals themselves would give both zeros one text
        zeros = {"raw_prediction": [1.0, 1.0, 1.0], "deviant_mean_after": [2.0, 2.0, 2.0],
                 column: [0.0, -0.0, 0.0]}
        trace = PredictionTrace([1, 1, 1], zeros["raw_prediction"],
                                [1, 1, 1], [1, 1, 1], [0, 0, 0], zeros["deviant_mean_after"],
                                [0.0, 0.0])
        buffer = io.StringIO()
        write_trace(trace, buffer)
        fields = [line.split(",") for line in buffer.getvalue().splitlines()[1:]]
        position = {"raw_prediction": 3, "deviant_mean_after": 8}[column]
        assert [row[position] for row in fields] == ["0.000000", "-0.000000", "0.000000"]

    @pytest.mark.parametrize(
        "means",
        [
            ("1.000000e+15", "2.000000"),  # a column reaching 1e15 prints in exponent form
            ("-0.000000", "0.000000"),  # each zero keeps its sign
            ("0.000000", "-0.000000"),
        ],
    )
    def test_edge_reals_survive_read_then_write(self, means):
        rows = [f"{step},train,1,1.000000,1,1,0,,{mean}\n" for step, mean in enumerate(means, 1)]
        text = TRACE_HEADER + "\n" + "".join(rows)
        buffer = io.StringIO()
        write_trace(read_trace(io.StringIO(text)), buffer)
        assert buffer.getvalue() == text

    def test_read_preserves_step_fields(self, carbus_encoded):
        trace = run_continual(carbus_encoded.classes, RunConfig())
        buffer = io.StringIO()
        write_trace(trace, buffer)
        parsed = read_trace(io.StringIO(buffer.getvalue()))
        assert parsed.steps == trace.steps

    @pytest.mark.parametrize(
        "value,text",
        [
            (2.0, "2.000000"),
            (-0.5, "-0.500000"),
            (999999999999999.0, "999999999999999.000000"),
            (1e15, "1.000000e+15"),
            (-1e15, "-1.000000e+15"),
            (1.7976931348623157e308, "1.797693e+308"),
        ],
    )
    def test_format_real(self, value, text):
        assert format_real(value) == text

    def test_huge_means_round_trip(self, carbus_encoded):
        config = RunConfig(learner=LearnerConfig(bias=1e308))
        trace = run_continual(carbus_encoded.classes, config)
        buffer = io.StringIO()
        write_trace(trace, buffer)
        assert buffer.getvalue().splitlines()[-1] == "8,test,1,1.000000e+308,5,5,0,200.000000,1.000000e+308"
        parsed = read_trace(io.StringIO(buffer.getvalue()))
        assert parsed.steps[-1].deviant_mean_after == 1e308

    def test_read_stops_at_a_blank_line(self, carbus_encoded):
        trace = run_continual(carbus_encoded.classes, RunConfig())
        buffer = io.StringIO()
        write_trace(trace, buffer)
        buffer.write("\n")
        write_trace(trace, buffer)
        parsed = read_trace(io.StringIO(buffer.getvalue()))
        assert len(parsed.steps) == 8

    def test_wrong_header_is_reported_on_line_one(self):
        with pytest.raises(TraceFormatError) as info:
            read_trace(io.StringIO("step,phase\n1,train\n"))
        assert info.value.line_number == 1

    def test_short_row_is_reported_with_its_line(self):
        text = TRACE_HEADER + "\n1,train,1,1.000000\n"
        with pytest.raises(TraceFormatError) as info:
            read_trace(io.StringIO(text))
        assert info.value.line_number == 2

    def test_bad_phase_rejected(self):
        text = TRACE_HEADER + "\n1,validate,1,1.000000,1,5,4,,2.000000\n"
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(text))

    def test_test_row_requires_a_mape_value(self):
        text = TRACE_HEADER + "\n1,test,1,1.000000,1,5,4,,2.000000\n"
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(text))

    def test_train_row_must_not_carry_mape(self):
        text = TRACE_HEADER + "\n1,train,1,1.000000,1,5,4,80.000000,2.000000\n"
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(text))

    def test_empty_file_rejected(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO(""))


def assert_walks_match_the_oracle(classes, config):
    """Both walks give the oracle's trace, or raise its error with its message."""
    for walk, learning in ((run_continual, True), (baseline_persistence, False)):
        try:
            rows, series = walk_reference(classes.classes, classes.class_level, config.learner,
                                          config.train_fraction, config.freeze_after_train, learning)
        except SymcastError as exc:
            with pytest.raises(type(exc)) as info:
                walk(classes, config)
            assert str(info.value) == str(exc)
            continue
        trace = walk(classes, config)
        buffer = io.StringIO()
        write_trace(trace, buffer)
        assert buffer.getvalue() == write_trace_reference(rows, series)
        assert [value.hex() for value in trace.cumulative_mape.tolist()] == [
            value.hex() for value in series
        ]
        assert trace.steps == tuple(rows)


@st.composite
def oracle_runs(draw):
    level = draw(st.integers(min_value=2, max_value=10))
    values = draw(st.lists(st.integers(min_value=1, max_value=level), min_size=2, max_size=50))
    population = draw(st.integers(min_value=1, max_value=300))
    learner = LearnerConfig(
        population_size=population,
        max_deviant_adjust=draw(st.floats(min_value=0.01, max_value=4.0)),
        rule_mode=draw(st.sampled_from([ADDITIVE_SUBTRACTIVE, MULTIPLICATIVE_DIVISIVE])),
        bias=draw(st.sampled_from([0.0, -0.0, 0.25, -0.5, 1e300])),
        k_winners=draw(st.integers(min_value=1, max_value=min(64, population))),
    )
    config = RunConfig(
        train_fraction=draw(st.floats(min_value=0.01, max_value=0.99)),
        learner=learner,
        freeze_after_train=draw(st.booleans()),
    )
    return sequence(values, level), config


class TestColumnarWalkOracle:
    """Both walks, written out, against the per-step loop in tests/oracle.py."""

    @settings(max_examples=200)
    @given(run=oracle_runs())
    # a mean of -0.0 learned in the train phase and held through the frozen test phase
    @example(run=(sequence([2, 1, 2, 1], 3), RunConfig(
        train_fraction=0.8, freeze_after_train=True,
        learner=LearnerConfig(population_size=2, max_deviant_adjust=3e-308, bias=-0.0, k_winners=2),
    )))
    # the third step's two finite winners sum past the largest float
    @example(run=(sequence([3, 3, 3, 1, 5]), RunConfig(
        learner=LearnerConfig(population_size=2, max_deviant_adjust=1.7e308, k_winners=2),
    )))
    def test_trace_bytes_and_series_equal_the_oracle(self, run):
        assert_walks_match_the_oracle(*run)

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_sticky_streams(self, seed):
        rng = random.Random(seed)
        level = 2 + seed % 9
        values = [rng.randint(1, level)]
        while len(values) < 300:
            values.append(values[-1] if rng.random() < 0.3 else rng.randint(1, level))
        learner = LearnerConfig(
            population_size=1000,
            rule_mode=(ADDITIVE_SUBTRACTIVE, MULTIPLICATIVE_DIVISIVE)[seed % 2],
            k_winners=(1, 2, 3, 8, 64)[seed % 5],
            bias=(0.0, 0.1)[seed % 3 == 0],
        )
        config = RunConfig(
            train_fraction=(0.35, 0.9, 0.05)[seed % 3],
            learner=learner,
            freeze_after_train=seed % 4 == 1,
        )
        assert_walks_match_the_oracle(sequence(values, level), config)

    def test_huge_means_print_in_exponent_form(self, carbus_encoded):
        assert_walks_match_the_oracle(
            carbus_encoded.classes, RunConfig(learner=LearnerConfig(bias=1e308))
        )

    @pytest.mark.parametrize(
        "value",
        [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994, -0.49999999999999994,
         2.0**52, -(2.0**52), 2.0**52 - 0.5, -(2.0**52 - 0.5), 2.0**53, -(2.0**53),
         1e308, -1e308, 0.0, -0.0],
    )
    def test_vectorised_rounding_equals_the_scalar(self, value):
        rounded = [walk_rounding(value), walk_rounding(-value)]
        assert rounded == [
            round_half_away_from_zero(value), round_half_away_from_zero(-value)
        ]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    def test_vectorised_rounding_equals_the_scalar_anywhere(self, values):
        assert list(map(walk_rounding, values)) == list(map(round_half_away_from_zero, values))

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=200))
    def test_cumsum_adds_in_order(self, values):
        # the walk's running MAPE relies on this to equal a running sum bit for bit
        running, total = [], 0.0
        for value in values:
            total += value
            running.append(total)
        assert np.cumsum(np.array(values, dtype=np.float64)).tolist() == running

    def test_a_long_trace_holds_at_most_40_bytes_per_step(self):
        # a sticky stream: the columns' size does not depend on the values,
        # and long runs of repeats keep the traced walk fast
        rng = random.Random(11)
        values = [3]
        while len(values) < 100_001:
            values.append(values[-1] if rng.random() < 0.99 else rng.randint(1, 5))
        classes = sequence(values)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run_continual(classes, RunConfig(train_fraction=0.01))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == 100_000
        assert held <= 40 * 100_000


def every_pair(level):
    """Classes whose steps take every (previous, expected) pair in [1, level], twice over."""
    pairs = [(previous, expected) for previous in range(1, level + 1)
             for expected in range(1, level + 1)]
    return [cls for pair in pairs * 2 for cls in pair]


def hexes(values):
    return [float(value).hex() for value in values]


class TestWalkColumnsBitForBit:
    """Each column of both walks, as the walk builds it, against the oracle's per-step loop."""

    # the walk packs 16 * predicted + expected into a byte: at 10 it reaches 0xAA, at 16 it overflows
    @pytest.mark.parametrize("level", [MIN_CLASS_LEVEL, MAX_CLASS_LEVEL])
    @pytest.mark.parametrize("rule", [ADDITIVE_SUBTRACTIVE, MULTIPLICATIVE_DIVISIVE])
    @pytest.mark.parametrize("fraction", [0.05, 0.5])
    def test_every_column_equals_the_oracle(self, level, rule, fraction):
        values = every_pair(level)
        config = RunConfig(train_fraction=fraction,
                           learner=LearnerConfig(rule_mode=rule, bias=0.25, k_winners=3))
        for walk, learning in ((run_continual, True), (baseline_persistence, False)):
            rows, series = walk_reference(values, level, config.learner, config.train_fraction,
                                          config.freeze_after_train, learning)
            trace = walk(sequence(values, level), config)
            columns = list(zip(*rows))
            assert [(step.index, step.phase) for step in trace.steps] == list(zip(*columns[:2]))
            for name, column in zip(("previous_class", "predicted_class", "expected_class",
                                     "abs_error"), (columns[2], *columns[4:7])):
                assert getattr(trace, name).tolist() == list(column), name
            assert hexes(trace.raw_prediction) == hexes(columns[3])
            assert hexes(trace.deviant_mean_after) == hexes(columns[7])
            assert hexes(trace.cumulative_mape) == hexes(series)
        # the baseline predicts the previous class, so its test steps take every pair
        tests = len(trace) - len(trace.cumulative_mape)
        assert {16 * predicted + expected for predicted, expected in zip(
            trace.predicted_class[tests:], trace.expected_class[tests:])} == {
            16 * predicted + expected for predicted in range(1, level + 1)
            for expected in range(1, level + 1)}


def valid_trace_text(draw):
    level = draw(st.integers(min_value=2, max_value=10))
    values = draw(st.lists(st.integers(min_value=1, max_value=level), min_size=3, max_size=12))
    config = RunConfig(train_fraction=draw(st.floats(min_value=0.1, max_value=0.9)))
    buffer = io.StringIO()
    write_trace(run_continual(sequence(values, level), config), buffer)
    return buffer.getvalue()


BAD_INTS = st.sampled_from(
    ["", "x", "1.5", " 3", "+2", "-0", "1_0", "\u0663", "99999999999999999999999", "0x10", "1e3"]
)
BAD_REALS = st.sampled_from(
    ["", "x", "nan", "inf", "-inf", "NaN", "1e400", "-1e999", "1_0.5", "0x1p3", " 1.5",
     "1.5.2", "infinity", "1e5", "-0.0"]
) | st.floats().map(repr)
ODD_TEXT = st.text(alphabet=st.characters(blacklist_characters="\n"), max_size=5)


@st.composite
def mutated_traces(draw):
    """A valid trace with one change; returns (text, changed line number or None)."""
    lines = valid_trace_text(draw).split("\n")  # header, rows, then ""
    line_number = draw(st.integers(min_value=2, max_value=len(lines) - 1))
    return mutate_line(draw, lines, line_number)


def mutate_line(draw, lines, line_number):
    """The trace lines joined, with one change at line_number (a row); returns as mutated_traces."""
    lines = list(lines)
    fields = lines[line_number - 1].split(",")
    test_row = fields[1] == TEST
    kind = draw(st.sampled_from(
        ["int", "real", "count", "phase", "mape", "step", "order", "blank", "crlf", "text"]
    ))
    if kind == "int":
        fields[draw(st.sampled_from([0, 2, 4, 5, 6]))] = draw(BAD_INTS | ODD_TEXT)
    elif kind == "real":
        fields[draw(st.sampled_from([3, 8, 7] if test_row else [3, 8]))] = draw(BAD_REALS)
    elif kind == "count":
        if draw(st.booleans()):
            fields.pop(draw(st.integers(min_value=0, max_value=8)))
        else:
            fields.insert(draw(st.integers(min_value=0, max_value=9)), draw(ODD_TEXT))
    elif kind == "phase":
        fields[1] = draw(st.sampled_from(["", "Test", "TRAIN", "validate", "train ", TEST, TRAIN]))
    elif kind == "mape":
        fields[7] = "" if test_row else draw(st.sampled_from(["1.000000", "0", "x"]))
    elif kind == "step":  # another number, or the row's own in another form
        step = line_number - 1 + draw(st.integers(min_value=-2, max_value=2))
        fields[0] = draw(st.sampled_from([str(step), f"+{step}", f"0{step}"]))
    elif kind == "order":  # a test row turned train, or a train row turned test, among the others
        fields[1], fields[7] = (TRAIN, "") if test_row else (TEST, "1.000000")
    elif kind == "text":
        fields[draw(st.integers(min_value=0, max_value=8))] = draw(ODD_TEXT)
    lines[line_number - 1] = ",".join(fields)
    if kind == "blank":
        lines.insert(line_number - 1, "")
        return "\n".join(lines), None
    if kind == "crlf":
        return "\r\n".join(lines), None
    return "\n".join(lines), line_number


def newly_rejected(text, line_number):
    """Whether the changed row has a '_', a non-finite real or a negative cumulative_mape.

    read_trace refuses each of them; the per-line reader does not.
    """
    if line_number is None:
        return False
    fields = text.split("\n")[line_number - 1].split(",")
    if len(fields) != 9:
        return "_" in "".join(fields)
    for position in (3, 8, 7) if fields[1] == TEST else (3, 8):
        try:
            value = float(fields[position])
        except ValueError:
            continue
        if not math.isfinite(value) or (position == 7 and value < 0):
            return True
    return "_" in "".join(fields)


def bad_field(convert, text):
    """Whether text is one field (it holds no comma) that convert, int or float, refuses."""
    if "," in text:
        return False
    try:
        convert(text)
    except ValueError:
        return True
    return False


def lines_of_test_steps(lines):
    """The line numbers of the test rows among a trace's lines."""
    return [number for number, line in enumerate(lines, start=1) if line.split(",")[1:2] == [TEST]]


@st.composite
def two_fault_traces(draw):
    """A valid trace whose one test row has a bad cumulative_mape and a second bad field.

    Both fields hold text their converter refuses; returns (text, the row's line number).
    """
    lines = valid_trace_text(draw).split("\n")  # header, rows, then ""
    line_number = draw(st.sampled_from(lines_of_test_steps(lines)))
    fields = lines[line_number - 1].split(",")
    fields[7] = draw((BAD_REALS | ODD_TEXT).filter(lambda text: text and bad_field(float, text)))
    position = draw(st.sampled_from([0, 2, 3, 8]))  # step, prev_class, raw_prediction, deviant_mean
    convert = float if position in (3, 8) else int
    fields[position] = draw(
        (BAD_INTS | BAD_REALS | ODD_TEXT).filter(lambda text: bad_field(convert, text))
    )
    lines[line_number - 1] = ",".join(fields)
    return "\n".join(lines), line_number


class TestReaderOracle:
    """read_trace against the per-line reader in tests/oracle.py."""

    @settings(max_examples=400)
    @given(case=mutated_traces())
    def test_same_error_or_same_columns(self, case):
        text, line_number = case
        try:
            rows, series = read_trace_reference(io.StringIO(text))
            reference_error = None
        except ValueError as exc:
            reference_error = exc.args[0]
        try:
            trace = read_trace(io.StringIO(text))
        except TraceFormatError as exc:
            if reference_error is not None:
                assert (exc.line_number, str(exc)) == (
                    reference_error[0], f"line {reference_error[0]}: {reference_error[1]}"
                )
            else:
                assert newly_rejected(text, line_number)
                assert exc.line_number == line_number
            return
        assert reference_error is None
        assert not newly_rejected(text, line_number)
        assert trace.steps == tuple(rows)
        assert trace.cumulative_mape.tolist() == series

    @settings(max_examples=200)
    @given(case=two_fault_traces())
    @example(case=(TRACE_HEADER + "\nx,test,1,1.000000,1,1,0,y,0.000000\n", 2))
    @example(case=(TRACE_HEADER + "\n1,train,1,1.000000,1,1,0,,0.000000\n"  # two bad rows
                   "x,test,1,1.000000,1,1,0,y,0.000000\nz,test,1,1.000000,1,1,0,w,0.000000\n", 3))
    def test_a_row_with_two_bad_fields_is_named_by_its_first(self, case):
        # each row converted its cumulative_mape before its other fields
        text, line_number = case
        with pytest.raises(ValueError) as reference:
            read_trace_reference(io.StringIO(text))
        line, message = reference.value.args[0]
        assert line == line_number
        for reader in (read_trace, read_trace_whole):
            with pytest.raises(TraceFormatError) as info:
                reader(io.StringIO(text))
            assert (info.value.line_number, str(info.value)) == (line, f"line {line}: {message}")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "NaN", "-Infinity"])
    @pytest.mark.parametrize("position", [3, 7, 8])
    def test_non_finite_reals_are_refused_with_their_line(self, carbus_encoded, value, position):
        buffer = io.StringIO()
        write_trace(run_continual(carbus_encoded.classes, RunConfig()), buffer)
        lines = buffer.getvalue().splitlines()
        fields = lines[5].split(",")
        fields[position] = value
        lines[5] = ",".join(fields)
        with pytest.raises(TraceFormatError) as info:
            read_trace(io.StringIO("\n".join(lines) + "\n"))
        assert info.value.line_number == 6
        assert "non-finite real" in str(info.value)

    # int() reads "0_4" as 4, the row's own step, which is checked as soon as it converts
    @pytest.mark.parametrize("position,value", [(0, "0_4"), (3, "1_0.5"), (4, "1_1"), (7, "4_0.0")])
    def test_digit_separators_are_refused_with_their_line(self, carbus_encoded, position, value):
        buffer = io.StringIO()
        write_trace(run_continual(carbus_encoded.classes, RunConfig()), buffer)
        lines = buffer.getvalue().splitlines()
        fields = lines[4].split(",")
        fields[position] = value
        lines[4] = ",".join(fields)
        with pytest.raises(TraceFormatError) as info:
            read_trace(io.StringIO("\n".join(lines) + "\n"))
        assert info.value.line_number == 5
        assert "'_'" in str(info.value)

    def test_a_non_ascii_digit_is_refused_with_its_line(self, carbus_encoded):
        buffer = io.StringIO()
        write_trace(run_continual(carbus_encoded.classes, RunConfig()), buffer)
        lines = buffer.getvalue().splitlines()
        lines[4] = "\u0664" + lines[4][1:]  # step 4, as int() would read it
        with pytest.raises(TraceFormatError) as info:
            read_trace(io.StringIO("\n".join(lines) + "\n"))
        assert str(info.value) == "line 5: non-ASCII character '\u0664'"

    @pytest.mark.parametrize("position,value", [(0, 2**70 + 1), (5, 2**63), (2, -2**63 - 1)])
    def test_integers_past_64_bits_are_refused_with_their_line(self, position, value):
        fields = "2,test,1,1.000000,1,1,0,0.000000,0.000000".split(",")
        fields[position] = str(value)
        text = f"{TRACE_HEADER}\n1,test,1,1.000000,1,1,0,0.000000,0.000000\n{','.join(fields)}\n"
        with pytest.raises(TraceFormatError) as info:
            read_trace(io.StringIO(text))
        assert str(info.value) == f"line 3: integer '{value}' outside the 64-bit range"

    def test_integers_at_the_64_bit_bounds_are_read(self):
        text = TRACE_HEADER + "\n" + f"1,test,{2**63 - 1},1.000000,1,{-2**63},4,80.000000,2.000000\n"
        trace = read_trace(io.StringIO(text))
        assert trace.previous_class.tolist() == [2**63 - 1]
        assert trace.expected_class.tolist() == [-2**63]


def refusals(text):
    """What read_trace, read_trace_whole, the per-line reader and report each say of a bad trace."""
    said = [f"error: {outcome[1]}\n" for outcome in read_both(text) if isinstance(outcome, tuple)]
    with pytest.raises(ValueError) as reference:
        read_trace_reference(io.StringIO(text))
    said.append("error: line {}: {}\n".format(*reference.value.args[0]))
    code, errors, _, _ = report_and_read_trace(text)
    return said + [errors] if code == 1 else said


def vehicle_lines(carbus_encoded):
    """The vehicle trace's lines: the header, 2 train rows, 6 test rows, then ""."""
    buffer = io.StringIO()
    write_trace(run_continual(carbus_encoded.classes, RunConfig()), buffer)
    return buffer.getvalue().split("\n")


def changed(lines, line_number, position, value):
    """lines joined, with the field at position of the given line set to value."""
    lines = list(lines)
    fields = lines[line_number - 1].split(",")
    fields[position] = value
    lines[line_number - 1] = ",".join(fields)
    return "\n".join(lines)


def as_train(lines, line_number):
    """lines joined, the given test row made a train row."""
    return changed(changed(lines, line_number, 1, TRAIN).split("\n"), line_number, 7, "")


class TestStepsAndPhases:
    """A row's step is its 1-based row number and no train row follows a test row; each reader
    and report name the first row that breaks either, also past a block's end."""

    @pytest.mark.parametrize("line_number,step,expected", [
        (2, "0", 1), (2, "2", 1), (4, "4", 3), (4, "2", 3), (9, "-8", 8), (9, "9223372036854775807", 8),
    ])
    def test_a_step_that_is_not_its_row_number_is_refused(self, carbus_encoded, line_number, step,
                                                          expected):
        text = changed(vehicle_lines(carbus_encoded), line_number, 0, step)
        message = f"line {line_number}: step {step!r} out of sequence: expected {expected}"
        assert refusals(text) == [f"error: {message}\n"] * 4

    def test_a_repeated_row_is_refused_on_its_second_line(self, carbus_encoded):
        lines = vehicle_lines(carbus_encoded)
        text = "\n".join(lines[:5] + lines[4:])
        assert refusals(text) == ["error: line 6: step '4' out of sequence: expected 5\n"] * 4

    @pytest.mark.parametrize("line_number", [5, 9])
    def test_a_train_row_after_a_test_row_is_refused(self, carbus_encoded, line_number):
        text = as_train(vehicle_lines(carbus_encoded), line_number)
        assert refusals(text) == [f"error: line {line_number}: train step after a test step\n"] * 4

    def test_a_test_row_before_a_train_row_is_refused_on_the_train_row(self, carbus_encoded):
        text = changed(changed(vehicle_lines(carbus_encoded), 2, 1, TEST).split("\n"), 2, 7, "1.0")
        assert refusals(text) == ["error: line 3: train step after a test step\n"] * 4

    def test_the_first_test_row_made_a_train_row_reads_as_one(self, carbus_encoded):
        trace = read_trace(io.StringIO(as_train(vehicle_lines(carbus_encoded), 4)))
        assert [step.phase for step in trace.steps] == [TRAIN] * 3 + [TEST] * 5

    def test_a_block_that_ends_on_a_test_row_is_followed_by_test_rows_only(self):
        # the next block's first row is its own block's first, and the only one in it
        lines = block_trace_lines(BLOCK_ROWS + 1)
        assert lines[BLOCK_ROWS].split(",")[1] == TEST
        line = BLOCK_ROWS + 2
        assert refusals(as_train(lines, line)) == [
            f"error: line {line}: train step after a test step\n"] * 4

    def test_a_later_block_starts_at_the_step_after_the_last(self):
        lines = block_trace_lines(BLOCK_ROWS + 1)
        line = BLOCK_ROWS + 2
        assert refusals(changed(lines, line, 0, str(BLOCK_ROWS))) == [
            f"error: line {line}: step '{BLOCK_ROWS}' out of sequence: expected {BLOCK_ROWS + 1}\n"] * 4


# texts int() or float() reads that the writer would not write; each column mixes several
INT_TEXTS = (" 3", "+3", "03", "3", "-0", "0")
REAL_TEXTS = (" 3", "+3", "03", "3.0e0", "3.000000", "-0.000000", "0.000000", "-0")
# the columns converted once per distinct text, by field position, and the texts each takes
DISTINCT_FIELDS = {2: INT_TEXTS, 3: REAL_TEXTS, 4: INT_TEXTS, 5: INT_TEXTS, 6: INT_TEXTS,
                   8: REAL_TEXTS}


@st.composite
def non_canonical_traces(draw):
    """A trace whose six distinct-parsed columns hold valid texts in forms the writer never uses."""
    lines = [TRACE_HEADER]
    steps = draw(st.integers(min_value=1, max_value=30))
    train = draw(st.integers(min_value=0, max_value=steps))  # the train rows come first
    for step in range(1, steps + 1):
        fields = [str(step), TRAIN, *[""] * 7]
        if step > train:
            fields[1], fields[7] = TEST, "12.500000"
        for position, texts in DISTINCT_FIELDS.items():
            fields[position] = draw(st.sampled_from(texts))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


class TestDistinctTexts:
    """The columns converted once per distinct text read as if each field were converted alone."""

    @given(text=non_canonical_traces())
    def test_non_canonical_texts_read_as_the_per_line_reader_reads_them(self, text):
        rows, series = read_trace_reference(io.StringIO(text))
        trace = read_trace(io.StringIO(text))
        assert trace.steps == tuple(rows)
        assert trace.cumulative_mape.tolist() == series
        for name, position in (("raw_prediction", 3), ("deviant_mean_after", 7)):
            # == would let -0.0 pass for 0.0
            assert [value.hex() for value in getattr(trace, name).tolist()] == [
                row[position].hex() for row in rows
            ]

    @pytest.mark.parametrize("position,bad,message", [
        (2, "x", "invalid literal for int() with base 10: 'x'"),
        (6, str(2**63), f"integer '{2**63}' outside the 64-bit range"),
        (3, "nan", "non-finite real 'nan'"),
        (8, "y", "could not convert string to float: 'y'"),
    ])
    def test_a_repeated_bad_text_is_named_by_its_first_line(self, position, bad, message):
        lines = list(block_trace_lines(BLOCK_ROWS + 40))
        for line_number in (BLOCK_ROWS + 30, 9, 20, BLOCK_ROWS + 5):
            fields = lines[line_number - 1].split(",")
            fields[position] = bad
            lines[line_number - 1] = ",".join(fields)
        assert read_both("\n".join(lines)) == [(9, f"line 9: {message}")] * 2

    def test_index_and_cumulative_mape_convert_field_by_field(self):
        # their texts are all distinct, and a map of distinct texts costs 2.4 times more there
        rows = block_trace_lines(100)[1:-1]
        with mock.patch.object(tracetext, "_distinct", wraps=tracetext._distinct) as distinct:
            read_trace(io.StringIO(TRACE_HEADER + "\n" + "\n".join(rows)))
        fields = [row.split(",") for row in rows]
        assert [call.args[1] for call in distinct.call_args_list] == [
            [row[position] for row in fields] for position in DISTINCT_FIELDS
        ]


BLOCK_LENGTHS = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)


@lru_cache(maxsize=None)
def block_trace(length):
    """A continual run of length steps over a seeded sticky stream, half train, half test."""
    rng = random.Random(length)
    values = [3]
    while len(values) < length + 1:
        values.append(values[-1] if rng.random() < 0.3 else rng.randint(1, 7))
    return run_continual(sequence(values, 7), RunConfig(train_fraction=0.5))


@lru_cache(maxsize=None)
def block_trace_lines(length):
    """block_trace(length) as written: the header, one line per step, then ""."""
    buffer = io.StringIO()
    write_trace(block_trace(length), buffer)
    return tuple(buffer.getvalue().split("\n"))


def random_trace(length, tests=None):
    """A hand-built trace of random columns whose last tests steps (by default, a random number)
    are its test steps."""
    rng = np.random.default_rng(length)
    tests = rng.integers(0, length + 1) if tests is None else tests
    classes = rng.integers(1, 8, size=(3, length))
    reals = rng.normal(scale=4.0, size=(2, length)) * rng.choice([1.0, 1e-7, 1e16], size=(2, length))
    return PredictionTrace(classes[0], reals[0], classes[1], classes[2],
                           np.abs(classes[1] - classes[2]), reals[1], rng.random(tests) * 300.0)


def edge_lines(length):
    """The line numbers of the first and last row and of the rows either side of a block edge."""
    rows = {0, length - 1} | {edge + side for edge in range(BLOCK_ROWS, length, BLOCK_ROWS)
                              for side in (-1, 0)}
    return sorted(row + 2 for row in rows)


def read_both(text):
    """read_trace's and read_trace_whole's result: a trace, or (line number, message)."""
    outcomes = []
    for reader in (read_trace, read_trace_whole):
        try:
            outcomes.append(reader(io.StringIO(text)))
        except TraceFormatError as exc:
            outcomes.append((exc.line_number, str(exc)))
    return outcomes


def formats(trace):
    return [getattr(trace, name).format for name in PredictionTrace._fields]


class TestBlockwiseTraceIO:
    """Trace rows are written and read BLOCK_ROWS at a time, as if the whole trace were one block."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_error_or_same_trace_as_the_whole_block_reader(self, data):
        length = data.draw(st.sampled_from(BLOCK_LENGTHS), label="length")
        line_number = data.draw(
            st.sampled_from(edge_lines(length)) | st.integers(min_value=2, max_value=length + 1),
            label="line",
        )
        blockwise, whole = read_both(mutate_line(data.draw, block_trace_lines(length), line_number)[0])
        assert blockwise == whole
        if isinstance(whole, PredictionTrace):
            assert formats(blockwise) == formats(whole)

    @pytest.mark.parametrize("length", BLOCK_LENGTHS)
    def test_a_bad_row_at_a_block_edge_is_named_with_its_line(self, length):
        for line_number in edge_lines(length):
            lines = list(block_trace_lines(length))
            lines[line_number - 1] = "x" + lines[line_number - 1]
            if (line_number - 1) % BLOCK_ROWS and line_number <= length:
                lines[line_number] += ","  # the next row, in the same block, fails a check run first
            text = "\n".join(lines)
            problem = f"invalid literal for int() with base 10: 'x{line_number - 1}'"
            with pytest.raises(ValueError) as reference:
                read_trace_reference(io.StringIO(text))
            assert reference.value.args[0] == (line_number, problem)
            assert read_both(text) == [(line_number, f"line {line_number}: {problem}")] * 2

    @pytest.mark.parametrize("length", BLOCK_LENGTHS)
    def test_a_whole_trace_reads_back_as_one_block_does(self, length):
        text = "\n".join(block_trace_lines(length))
        blockwise, whole = read_both(text)
        assert blockwise == whole
        assert formats(blockwise) == ["q", "d", "q", "q", "q", "d", "d"]
        assert all(getattr(blockwise, name).readonly for name in PredictionTrace._fields)
        written = block_trace(length)
        for name in ("previous_class", "predicted_class", "expected_class", "abs_error"):
            assert np.array_equal(getattr(blockwise, name), getattr(written, name))
        for name in ("raw_prediction", "deviant_mean_after", "cumulative_mape"):
            assert np.abs(np.subtract(getattr(blockwise, name), getattr(written, name))).max() <= 5e-7

    @pytest.mark.parametrize("length", BLOCK_LENGTHS)
    @pytest.mark.parametrize("make", [block_trace, random_trace])
    def test_write_equals_the_per_line_writer(self, length, make):
        trace = make(length)
        buffer = io.StringIO()
        write_trace(trace, buffer)
        assert buffer.getvalue() == write_trace_reference(trace.steps, trace.cumulative_mape.tolist())

    # the first test step: none; the third block's last or first row; inside the second block,
    # or at its first row; the first block's last row, or inside it; the first step
    @pytest.mark.parametrize("train", [2 * BLOCK_ROWS + 9, 2 * BLOCK_ROWS + 8, 2 * BLOCK_ROWS,
                                       BLOCK_ROWS + 7, BLOCK_ROWS, BLOCK_ROWS - 1, 5, 0])
    def test_each_block_writes_its_train_rows_then_its_test_rows(self, train):
        trace = random_trace(2 * BLOCK_ROWS + 9, tests=2 * BLOCK_ROWS + 9 - train)
        buffer = io.StringIO()
        write_trace(trace, buffer)
        assert buffer.getvalue() == write_trace_reference(trace.steps, trace.cumulative_mape.tolist())

    def test_an_integer_past_64_bits_in_a_later_block_is_named_by_its_line(self):
        lines = list(block_trace_lines(BLOCK_ROWS + 1))
        fields = lines[-2].split(",")  # the one row of the second block
        fields[0] = str(2**70)
        lines[-2] = ",".join(fields)
        line = BLOCK_ROWS + 2
        message = f"line {line}: integer '{2**70}' outside the 64-bit range"
        assert read_both("\n".join(lines)) == [(line, message)] * 2

    def test_memory_is_bounded_by_the_block_not_the_trace(self):
        # on 5 blocks of rows, whole-trace I/O peaked at 3.4 MiB writing and 12.9 MiB reading
        trace = block_trace(5 * BLOCK_ROWS)
        text = io.StringIO("\n".join(block_trace_lines(5 * BLOCK_ROWS)))
        peaks = []
        with open(os.devnull, "w", encoding="utf-8") as sink:
            tracemalloc.start()
            try:
                write_trace(trace, sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                read_trace(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.5 * 2**20
        assert peaks[1] <= 5 * 2**20

    def bad_bytes(self, bad_row_line, bad_byte_line):
        """The written 8193-step trace as UTF-8, with a bad row and an invalid byte on the given lines."""
        lines = [line.encode("utf-8") for line in block_trace_lines(2 * BLOCK_ROWS + 1)]
        lines[bad_row_line - 1] = b"x" + lines[bad_row_line - 1]
        lines[bad_byte_line - 1] = lines[bad_byte_line - 1].replace(b",", b",\xff", 1)
        return b"\n".join(lines)

    def test_an_invalid_byte_later_in_the_block_wins_over_a_bad_row(self):
        # the whole block is read, and so decoded, before any of it is parsed
        data = self.bad_bytes(10, BLOCK_ROWS)
        for reader in (read_trace, read_trace_whole):
            with pytest.raises(UnicodeDecodeError):
                reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))

    def test_a_bad_row_wins_over_an_invalid_byte_in_a_later_block(self):
        # a block with a bad row stops the read: the lines after it are never decoded,
        # where the whole-block reader decoded every line first
        data = self.bad_bytes(10, BLOCK_ROWS + 3000)
        with pytest.raises(TraceFormatError, match="^line 10: "):
            read_trace(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        with pytest.raises(UnicodeDecodeError):
            read_trace_whole(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def all_test_trace(length):
    """random_trace(length) with every step a test step, so report's series has length values."""
    return random_trace(length, tests=length)


def written(write, *args):
    stream = io.StringIO()
    write(*args, stream)
    return stream.getvalue()


class TestBlockwiseReportWriters:
    """The decoded block and report's series file, one write a block, equal the per-row writers."""

    @pytest.mark.parametrize("length", BLOCK_LENGTHS[1:])
    def test_the_decoded_block(self, length):
        rng = random.Random(length)
        symbols = ["a", "b,c", 'd"e', "f\rg", "h"]
        decoded = DecodedTrace(rng.choices(symbols, k=length), rng.choices(symbols, k=length),
                               [rng.random() < 0.5 for _ in range(length)])
        assert written(_write_decoded, decoded) == written(decoded_report_reference, decoded)

    @pytest.mark.parametrize("length", BLOCK_LENGTHS[1:])
    def test_the_series_file(self, length, tmp_path):
        trace_path, series_path = tmp_path / "trace.csv", tmp_path / "series.csv"
        with open(trace_path, "w", encoding="utf-8", newline="") as stream:
            write_trace(all_test_trace(length), stream)
        assert main(["report", "--input", str(trace_path), "--out", str(series_path)]) == 0
        with open(trace_path, encoding="utf-8") as stream:
            _, series = read_trace_reference(stream)
        assert len(series) == length
        assert series_path.read_bytes().decode("utf-8") == written(series_report_reference, series)


def report_and_read_trace(text):
    """report's exit code, standard error and series file on a trace file holding text, and
    mape(read_trace(...)) of that file opened as report opens it, or the error it raises."""
    with tempfile.TemporaryDirectory() as work:
        trace, series = os.path.join(work, "trace.csv"), os.path.join(work, "series.csv")
        with open(trace, "w", encoding="utf-8", errors="surrogatepass", newline="") as stream:
            stream.write(text)
        with redirect_stderr(io.StringIO()) as errors:
            code = main(["report", "--input", trace, "--out", series])
        written_series = None
        if os.path.exists(series):
            with open(series, encoding="utf-8", newline="") as stream:
                written_series = stream.read()
        # universal newlines, as report reads: a lone CR ends a line there too
        with open(trace, encoding="utf-8", errors="surrogateescape") as stream:
            try:
                read = mape(read_trace(stream))[1].tolist()
            except (TraceFormatError, NoTestStepsError) as exc:
                read = exc
    return code, errors.getvalue(), written_series, read


class TestReportReader:
    """report reads only cumulative_mape, but checks every row as read_trace does."""

    @settings(max_examples=300, deadline=None)
    @given(case=mutated_traces())
    @example(case=(TRACE_HEADER + "\n1,test,1,1_0.5,1,1,0,0.000000,0.000000\n", 2))
    @example(case=(TRACE_HEADER + "\n\r,test,1,1.000000,1,1,0,0.000000,0.000000\n", 2))
    def test_report_refuses_what_read_trace_refuses(self, case):
        code, errors, series, read = report_and_read_trace(case[0])
        if isinstance(read, SymcastError):
            assert (code, errors, series) == (1, f"error: {read}\n", None)
        else:
            assert (code, errors) == (0, "")
            assert series == written(series_report_reference, read)

    def test_the_peak_grows_by_under_16_bytes_a_row(self, tmp_path):
        # keeping every column, it grew by 114 bytes a row here, and 146 from 50k to 100k rows
        rng = random.Random(5)
        values = [3]
        while len(values) < 50_001:
            values.append(values[-1] if rng.random() < 0.3 else rng.randint(1, 7))
        peaks = []
        for length in (25_000, 50_000):
            path = tmp_path / f"{length}.csv"
            trace = baseline_persistence(sequence(values[:length + 1], 7),
                                         RunConfig(train_fraction=0.01))
            with open(path, "w", encoding="utf-8", newline="") as stream:
                write_trace(trace, stream)
            with open(path, encoding="utf-8") as stream:
                tracemalloc.start()
                try:
                    assert len(read_cumulative_mape(stream)) == len(trace.cumulative_mape)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 25_000 < 16


@st.composite
def traces_with_any_mape(draw):
    """A valid trace whose one test row has any finite float as its cumulative_mape."""
    lines = valid_trace_text(draw).split("\n")  # header, rows, then ""
    line_number = draw(st.sampled_from(lines_of_test_steps(lines)))
    fields = lines[line_number - 1].split(",")
    fields[7] = repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    lines[line_number - 1] = ",".join(fields)
    return "\n".join(lines)


class TestReportChart:
    """report either refuses a trace or charts it inside the plot box, without a warning."""

    @settings(max_examples=200, deadline=None)
    @given(text=traces_with_any_mape() | mutated_traces().map(lambda case: case[0]))
    @example(text=TRACE_HEADER + "\n1,test,1,1.000000,1,2,1,-1.0,0.000000\n")
    @example(text=TRACE_HEADER + "\n1,test,1,1.000000,1,2,1,-1e308,0.000000\n"
                                 "2,test,2,2.000000,2,2,0,5.0,0.000000\n")
    def test_every_point_lies_in_the_plot_box(self, text):
        with tempfile.TemporaryDirectory() as work:
            trace, chart = os.path.join(work, "trace.csv"), os.path.join(work, "chart.svg")
            with open(trace, "w", encoding="utf-8", errors="surrogatepass", newline="") as stream:
                stream.write(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["report", "--input", trace, "--out", os.devnull, "--svg", chart])
            assert code in (0, 1)
            if code == 0:
                with open(chart, encoding="utf-8") as stream:
                    points = re.search(r'<polyline points="([^"]*)"', stream.read())[1]
                for point in points.split():
                    x, y = map(float, point.split(","))
                    assert 48 <= x <= 592 and 48 <= y <= 312, point


class TestDecoderOracle:
    """decode_trace against decode_class one step at a time."""

    @settings(max_examples=300)
    @given(
        slots=st.lists(st.one_of(st.none(), st.sampled_from(["a", "b,c", 'd"e'])),
                       min_size=1, max_size=10),
        data=st.data(),
    )
    def test_same_error_or_same_columns(self, slots, data):
        memory = SensorMemory(slots=tuple(slots))
        classes = st.integers(min_value=-1, max_value=memory.class_level + 2)
        pairs = data.draw(st.lists(st.tuples(classes, classes), max_size=12))
        steps = tuple(make_step(i, TEST, p, e) for i, (p, e) in enumerate(pairs, start=1))
        trace = trace_of(steps, (0.0,) * len(pairs)) if steps else PredictionTrace(
            *(np.zeros(0, dtype=np.int64),) * 7
        )
        try:
            expected = decode_reference(pairs, memory)
        except SymcastError as exc:
            with pytest.raises(type(exc)) as info:
                decode_trace(trace, memory)
            assert str(info.value) == str(exc)
            return
        assert list(zip(*decode_trace(trace, memory))) == expected
