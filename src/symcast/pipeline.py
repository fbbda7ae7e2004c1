"""Encode -> continually train -> continually test orchestration.

A class sequence is walked one step at a time: each element is predicted
from its predecessor, then observed, and (unless frozen) the learner
updates immediately. Learning never stops at the train/test split; the
split only marks where test-error accounting begins. Errors are tracked
as a running mean absolute percentage error over the test steps, computed
on the integer classes by the same loop that walks the steps and stored
in the trace. The persistence baseline walks the same loop with a learner
that never learns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Iterable, NamedTuple, TextIO

from .encoder import ClassSequence, SensorMemory, decode_class
from .errors import BadConfigError, NoTestStepsError, TooShortError, TraceFormatError
from .learner import Learner, LearnerConfig, with_class_level

TRAIN = "train"
TEST = "test"

TRACE_HEADER = (
    "step,phase,prev_class,raw_prediction,predicted_class,expected_class,"
    "abs_error,cumulative_mape,deviant_mean"
)


@dataclass(frozen=True)
class RunConfig:
    train_fraction: float = 0.35
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    freeze_after_train: bool = False

    def validate(self) -> None:
        if not (0.0 < self.train_fraction < 1.0):
            raise BadConfigError("train_fraction", f"must be in (0, 1), got {self.train_fraction}")
        self.learner.validate()


class StepRecord(NamedTuple):
    """One prediction step; index is the predicted element's position."""

    index: int
    phase: str
    previous_class: int
    raw_prediction: float
    predicted_class: int
    expected_class: int
    abs_error: int
    deviant_mean_after: float


@dataclass(frozen=True)
class PredictionTrace:
    """All steps of one run plus the running test MAPE series (percent)."""

    steps: tuple[StepRecord, ...]
    cumulative_mape: tuple[float, ...]

    def test_steps(self) -> list[StepRecord]:
        return [step for step in self.steps if step.phase == TEST]

    def train_steps(self) -> list[StepRecord]:
        return [step for step in self.steps if step.phase == TRAIN]


@dataclass(frozen=True)
class DecodedStep:
    predicted_symbol: str
    expected_symbol: str
    exact: bool


def split_index(sequence_length: int, train_fraction: float) -> int:
    """Number of leading elements that belong to the train phase.

    train_fraction is one that RunConfig.validate accepts.
    """
    if sequence_length < 2:
        raise TooShortError(f"need at least 2 elements, got {sequence_length}")
    return max(1, math.floor(train_fraction * sequence_length))


def _walk(classes: ClassSequence, config: RunConfig, learning: bool) -> PredictionTrace:
    """Predict each element from its predecessor; update the learner while learning.

    The running test MAPE is accumulated here, step by step, and stored
    in the trace. Expected classes are always >= 1, so each ratio is
    defined.
    """
    config = replace(config, learner=with_class_level(config.learner, classes.class_level))
    config.validate()
    length = len(classes)
    split = split_index(length, config.train_fraction)
    learner = Learner(config.learner)

    steps = []
    series = []
    ratio_sum = 0.0
    for index in range(1, length):
        previous = classes.classes[index - 1]
        expected = classes.classes[index]
        phase = TRAIN if index < split else TEST

        if learning and not (config.freeze_after_train and phase == TEST):
            outcome = learner.learn_step(previous, expected)
            raw, predicted = outcome.raw_prediction, outcome.predicted_class
        else:
            raw, predicted = learner.predict_next(previous)

        abs_error = abs(predicted - expected)
        steps.append(
            StepRecord(
                index=index,
                phase=phase,
                previous_class=previous,
                raw_prediction=raw,
                predicted_class=predicted,
                expected_class=expected,
                abs_error=abs_error,
                deviant_mean_after=learner.deviant_mean,
            )
        )
        if phase == TEST:
            ratio_sum += abs_error / expected
            series.append(100.0 * ratio_sum / (len(series) + 1))

    return PredictionTrace(steps=tuple(steps), cumulative_mape=tuple(series))


def run_continual(classes: ClassSequence, config: RunConfig) -> PredictionTrace:
    """Walk the sequence, predicting each element from its predecessor.

    The learner's clamping range is pinned to the sequence's class level.
    With freeze_after_train=True the learner stops updating once the test
    phase begins (ablation mode); by default learning is continual.
    """
    return _walk(classes, config, learning=True)


def baseline_persistence(classes: ClassSequence, config: RunConfig) -> PredictionTrace:
    """Naive baseline: predict each element as its predecessor.

    It is the same walk with a learner that never learns: at deviant mean
    0.0 the raw prediction is the previous class and the mean stays 0.0.
    """
    return _walk(classes, config, learning=False)


def mape(trace: PredictionTrace) -> tuple[float, tuple[float, ...]]:
    """Final and per-step running test MAPE, in percent, as stored in the trace."""
    if not trace.cumulative_mape:
        raise NoTestStepsError("trace has no test steps")
    return trace.cumulative_mape[-1], trace.cumulative_mape


def decode_trace(trace: PredictionTrace, memory: SensorMemory) -> list[DecodedStep]:
    """Map every step's predicted and expected class back to symbols.

    A step is exact only when both classes decode from their own slots.
    Each class is decoded once.
    """
    decode = cache(partial(decode_class, memory=memory))
    decoded = []
    for step in trace.steps:
        predicted_symbol, predicted_exact = decode(step.predicted_class)
        expected_symbol, expected_exact = decode(step.expected_class)
        decoded.append(
            DecodedStep(
                predicted_symbol=predicted_symbol,
                expected_symbol=expected_symbol,
                exact=predicted_exact and expected_exact,
            )
        )
    return decoded


def format_real(value: float) -> str:
    """Six decimal places, or six significant decimals in exponent form from 1e15 up.

    Fixed point would spell out every integer digit of a huge value.
    """
    return f"{value:.6f}" if abs(value) < 1e15 else f"{value:.6e}"


def write_trace(trace: PredictionTrace, stream: TextIO) -> None:
    """Emit the delimited trace; reals carry 6 decimal places (see format_real).

    The cumulative_mape column is empty on train steps.
    """
    stream.write(TRACE_HEADER + "\n")
    mape_values = iter(trace.cumulative_mape)
    for step in trace.steps:
        mape_field = f"{next(mape_values):.6f}" if step.phase == TEST else ""
        stream.write(
            f"{step.index},{step.phase},{step.previous_class},"
            f"{format_real(step.raw_prediction)},{step.predicted_class},"
            f"{step.expected_class},{step.abs_error},{mape_field},"
            f"{format_real(step.deviant_mean_after)}\n"
        )


def read_trace(lines: Iterable[str]) -> PredictionTrace:
    """Parse the first trace block from an iterable of lines.

    Stops at the first blank line. Reals come back at the precision
    they were written with. Raises TraceFormatError with the
    1-based line number on any malformed content.
    """
    steps = []
    series = []
    header_seen = False
    for line_number, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not header_seen:
            if line != TRACE_HEADER:
                raise TraceFormatError(line_number, "missing or wrong trace header")
            header_seen = True
            continue
        if line == "":
            break
        fields = line.split(",")
        if len(fields) != 9:
            raise TraceFormatError(line_number, f"expected 9 fields, got {len(fields)}")
        try:
            phase = fields[1]
            if phase not in (TRAIN, TEST):
                raise ValueError(f"bad phase {phase!r}")
            if phase == TEST:
                if fields[7] == "":
                    raise ValueError("test step missing cumulative_mape")
                series.append(float(fields[7]))
            elif fields[7] != "":
                raise ValueError("train step carries cumulative_mape")
            steps.append(
                StepRecord(
                    index=int(fields[0]),
                    phase=phase,
                    previous_class=int(fields[2]),
                    raw_prediction=float(fields[3]),
                    predicted_class=int(fields[4]),
                    expected_class=int(fields[5]),
                    abs_error=int(fields[6]),
                    deviant_mean_after=float(fields[8]),
                )
            )
        except ValueError as exc:
            raise TraceFormatError(line_number, str(exc)) from exc
    if not header_seen:
        raise TraceFormatError(1, "empty trace file")
    if not steps:
        raise TraceFormatError(2, "trace has no step rows")
    return PredictionTrace(steps=tuple(steps), cumulative_mape=tuple(series))
