"""Tests for the train/predict/evaluate pipeline."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symcast.encoder import ClassSequence, SensorMemory, decode_class
from symcast.errors import (
    BadConfigError,
    EmptyMemoryError,
    NoTestStepsError,
    TooShortError,
    TraceFormatError,
)
from symcast.learner import LearnerConfig
from symcast.pipeline import (
    TEST,
    TRACE_HEADER,
    TRAIN,
    DecodedStep,
    PredictionTrace,
    RunConfig,
    StepRecord,
    baseline_persistence,
    decode_trace,
    format_real,
    mape,
    read_trace,
    run_continual,
    split_index,
    write_trace,
)


def sequence(values, level=5):
    return ClassSequence(classes=tuple(values), class_level=level)


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
        assert trace.cumulative_mape == (400.0, 200.0, 400.0 / 3.0, 100.0, 80.0, 80.0)

    def test_vehicle_corpus_matches_the_published_pairs(self, carbus_encoded):
        """Test-phase predictions land on (1, 1) exactly four times."""
        trace = run_continual(carbus_encoded.classes, RunConfig())
        pairs = [(s.predicted_class, s.expected_class) for s in trace.test_steps()]
        assert pairs == [(5, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 5)]
        assert pairs.count((1, 1)) == 4

    def test_constant_sequence_is_error_free(self):
        trace = run_continual(sequence([2, 2, 2, 2, 2]), RunConfig())
        assert all(s.predicted_class == 2 for s in trace.steps)
        assert all(s.abs_error == 0 for s in trace.steps)
        assert set(trace.cumulative_mape) == {0.0}

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
            assert len(trace.train_steps()) == split - 1
            assert len(trace.test_steps()) == len(classes) - split

    def test_step_indices_are_sequential(self, carbus_encoded):
        trace = run_continual(carbus_encoded.classes, RunConfig())
        assert [s.index for s in trace.steps] == list(range(1, 9))

    def test_replay_determinism(self, carbus_encoded):
        config = RunConfig()
        assert run_continual(carbus_encoded.classes, config) == run_continual(
            carbus_encoded.classes, config
        )

    def test_learner_config_is_pinned_to_the_sequence_level(self):
        # class_level 9 sequence with a learner configured for level 5:
        # predictions must still be allowed to reach 9
        classes = sequence([1, 9, 9, 9, 9, 9], level=9)
        trace = run_continual(classes, RunConfig(learner=LearnerConfig(class_level=5)))
        assert any(s.predicted_class == 9 for s in trace.steps)

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
        trace = PredictionTrace(
            steps=(make_step(1, TEST, 1, 5),), cumulative_mape=(80.0,)
        )
        final, series = mape(trace)
        assert final == 80.0
        assert series == (80.0,)

    def test_running_mean_over_two_steps(self):
        # both steps are test steps, with errors 0/1 and 4/5
        trace = baseline_persistence(sequence([1, 1, 5]), RunConfig())
        final, series = mape(trace)
        assert series == (0.0, 40.0)
        assert final == 40.0

    def test_trace_without_test_steps(self):
        trace = PredictionTrace(steps=(make_step(1, TRAIN, 1, 1),), cumulative_mape=())
        with pytest.raises(NoTestStepsError):
            mape(trace)

    @given(values=st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=25))
    def test_mape_is_never_negative(self, values):
        trace = run_continual(sequence(values), RunConfig())
        final, series = mape(trace)
        assert final >= 0.0
        assert all(v >= 0.0 for v in series)
        exact = all(s.abs_error == 0 for s in trace.test_steps())
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
        assert [s.predicted_class for s in trace.test_steps()] == [5, 1, 1, 1, 1, 1]

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
            ratios = [s.abs_error / s.expected_class for s in trace.test_steps()]
            naive = tuple(
                100.0 * sum(ratios[:count]) / count for count in range(1, len(ratios) + 1)
            )
            assert trace.cumulative_mape == naive

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
        assert len(decoded) == len(trace.steps)
        test_decoded = decoded[2:]
        assert [(d.predicted_symbol, d.expected_symbol) for d in test_decoded] == [
            ("Bus", "Car"),
            ("Car", "Car"),
            ("Car", "Car"),
            ("Car", "Car"),
            ("Car", "Car"),
            ("Car", "Bus"),
        ]
        assert all(d.exact for d in decoded)

    def test_redundant_class_decodes_inexactly(self, carbus_encoded):
        trace = PredictionTrace(
            steps=(make_step(1, TEST, 3, 5),), cumulative_mape=(40.0,)
        )
        decoded = decode_trace(trace, carbus_encoded.memory)
        assert decoded[0].predicted_symbol == "Car"
        assert decoded[0].expected_symbol == "Bus"
        assert not decoded[0].exact

    def test_empty_memory_propagates(self):
        trace = PredictionTrace(steps=(make_step(1, TEST, 2, 2),), cumulative_mape=(0.0,))
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
        trace = PredictionTrace(
            steps=tuple(make_step(i, TEST, p, e) for i, (p, e) in enumerate(pairs, start=1)),
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
                DecodedStep(predicted_symbol, expected_symbol, predicted_exact and expected_exact)
            )
        assert decode_trace(trace, memory) == expected


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
