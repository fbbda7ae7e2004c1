"""Encode -> continually train -> continually test orchestration.

A class sequence is walked one step at a time: each element is predicted
from its predecessor, then observed, and (unless frozen) the learner
updates immediately. Learning never stops at the train/test split; the
split only marks where test-error accounting begins. A run is kept as
typed columns, one entry per step. Steps that hold the deviant mean fixed
(the persistence baseline, whose mean stays 0.0, and the test phase of a
frozen run) are one array operation on the class array. Errors are
tracked as a running mean absolute percentage error over the test steps,
computed on the integer classes once the walk is done and stored in the
trace.
"""

from __future__ import annotations

__all__ = [
    "DecodedTrace", "PredictionTrace", "baseline_persistence", "decode_trace", "mape", "read_trace",
    "run_continual", "split_index", "write_trace",
]

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Iterable, NamedTuple, TextIO

import numpy as np

from .config import RunConfig
from .encoder import ArrayRecord, ClassSequence, SensorMemory, decode_class
from .errors import TooShortError
from .learner import Learner
from .tracetext import (
    MAPE_FORMAT, TEST, TRACE_HEADER, TRAIN, _test_mapes, _write_blocks, read_columns,
)


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


@dataclass(frozen=True, eq=False)
class PredictionTrace(ArrayRecord):
    """All steps of one run as read-only columns, plus the running test MAPE (percent).

    Every column but cumulative_mape holds one entry per step, in step
    order, as the StepRecord field of the same name does; is_test marks
    the test steps. Classes and errors are integers, raw predictions and
    means float64. cumulative_mape holds one float64 per test step.
    """

    index: np.ndarray
    is_test: np.ndarray
    previous_class: np.ndarray
    raw_prediction: np.ndarray
    predicted_class: np.ndarray
    expected_class: np.ndarray
    abs_error: np.ndarray
    deviant_mean_after: np.ndarray
    cumulative_mape: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    @property
    def steps(self) -> tuple[StepRecord, ...]:
        """The steps as records, built anew on each access."""
        phases = map((TRAIN, TEST).__getitem__, self.is_test.tolist())
        # previous_class through deviant_mean_after, in StepRecord's order
        columns = [getattr(self, column.name).tolist() for column in fields(self)[2:-1]]
        return tuple(map(StepRecord, self.index.tolist(), phases, *columns))


class DecodedTrace(NamedTuple):
    """Each step's symbols, in step order; exact when both classes decode from their own slots."""

    predicted_symbol: list[str]
    expected_symbol: list[str]
    exact: list[bool]


def split_index(sequence_length: int, train_fraction: float) -> int:
    """Number of leading elements that belong to the train phase.

    train_fraction is one that RunConfig.validate accepts.
    """
    if sequence_length < 2:
        raise TooShortError(f"need at least 2 elements, got {sequence_length}")
    return max(1, math.floor(train_fraction * sequence_length))


def round_half_away_from_zero_array(values: np.ndarray) -> np.ndarray:
    """Each element rounded to the nearest whole number, halves away from zero, as float64."""
    whole = np.trunc(values)
    fraction = values - whole
    return whole + (fraction >= 0.5) - (fraction <= -0.5)


def _walk(classes: ClassSequence, config: RunConfig, learning: bool) -> PredictionTrace:
    """Predict each element from its predecessor; update the learner while learning.

    Only the steps that learn run in a loop, Learner.learn_steps, whose
    means fill a preallocated column; the rest keep the mean the learner
    then holds. Each raw prediction is the previous class plus the mean held
    before its step, in one array expression, and one array pass rounds
    it half away from zero and clamps it to [1, class_level]. The running
    test MAPE is computed from the columns: np.cumsum adds 1-D float64 in
    order, as a running sum would.
    """
    config.validate()
    level = classes.class_level
    length = len(classes)
    split = split_index(length, config.train_fraction)
    learner = Learner(config.learner)

    values = np.array(classes.classes, dtype=np.int8)  # in [1, level]: ClassSequence holds no other
    previous, expected = values[:-1], values[1:]
    means = np.full(length, learner.deviant_mean)  # means[s] before step s, means[s + 1] after
    # the leading steps the learner updates on; the rest keep the mean it then holds
    learned = (split - 1 if config.freeze_after_train else length - 1) if learning else 0
    means[1:learned + 1] = learner.learn_steps(classes.classes, classes.classes[1:learned + 1])
    means[learned + 1:] = learner.deviant_mean
    raw = previous + means[:-1]
    predicted = np.clip(round_half_away_from_zero_array(raw), 1, level).astype(np.int8)

    abs_error = np.abs(predicted - expected)
    series = np.divide(abs_error[split - 1:], expected[split - 1:])
    np.cumsum(series, out=series)
    series *= 100.0
    series /= np.arange(1, len(series) + 1)
    index = np.arange(1, length, dtype=np.int32)
    return PredictionTrace(
        index, index >= split, previous, raw, predicted, expected, abs_error, means[1:], series
    )


def run_continual(classes: ClassSequence, config: RunConfig) -> PredictionTrace:
    """Walk the sequence, predicting each element from its predecessor.

    Predicted classes are clamped to the sequence's class level. With
    freeze_after_train=True the learner stops updating once the test
    phase begins (ablation mode); by default learning is continual.
    """
    return _walk(classes, config, learning=True)


def baseline_persistence(classes: ClassSequence, config: RunConfig) -> PredictionTrace:
    """Naive baseline: predict each element as its predecessor.

    It is the same walk with a learner that never learns: at deviant mean
    0.0 the raw prediction is the previous class and the mean stays 0.0.
    """
    return _walk(classes, config, learning=False)


def mape(trace: PredictionTrace) -> tuple[float, np.ndarray]:
    """Final and per-step running test MAPE, in percent, as stored in the trace."""
    series = _test_mapes(trace.cumulative_mape)
    return float(series[-1]), series


def decode_trace(trace: PredictionTrace, memory: SensorMemory) -> DecodedTrace:
    """Map every step's predicted and expected class back to symbols.

    A step is exact only when both classes decode from their own slots.
    Each class is decoded once, in step order of first occurrence, the
    predicted before the expected, so a class out of range or an empty
    memory raises what decode_class raises for the first such class.
    """
    level = memory.class_level
    classes = np.column_stack((trace.predicted_class, trace.expected_class)).ravel()
    symbols = np.empty(level + 1, dtype=object)
    own_slot = np.zeros(level + 1, dtype=bool)
    for cls in classes[np.sort(np.unique(classes, return_index=True)[1])].tolist():
        symbols[cls], own_slot[cls] = decode_class(cls, memory)
    predicted, expected = trace.predicted_class, trace.expected_class
    return DecodedTrace(symbols[predicted].tolist(), symbols[expected].tolist(),
                        (own_slot[predicted] & own_slot[expected]).tolist())


def format_real(value: float) -> str:
    """Six decimal places, or six significant decimals in exponent form from 1e15 up.

    Fixed point would spell out every integer digit of a huge value.
    """
    return f"{value:.6f}" if abs(value) < 1e15 else f"{value:.6e}"


def _texts(column: np.ndarray, end: str = "") -> list[str]:
    """Each value of column as a trace field followed by end, formed once per distinct value.

    Integers print as they are and reals as format_real prints them.
    """
    form, keys = str, column
    if column.dtype == np.float64:  # keyed by bit pattern, so that -0.0 keeps its sign
        form, keys = format_real, column.view(np.int64)
    _, first, positions = np.unique(keys, return_index=True, return_inverse=True)
    texts = [form(value) + end for value in column[first].tolist()]
    return np.array(texts, dtype=object)[positions].tolist()


def write_trace(trace: PredictionTrace, stream: TextIO) -> None:
    """Emit the delimited trace; reals carry 6 decimal places (see format_real).

    cumulative_mape is empty on train steps. Each block's columns are formatted on their own.
    """
    def block_rows(start: int, stop: int) -> Iterable[str]:
        block = slice(start, stop)
        is_test = trace.is_test[block]
        first_test = np.count_nonzero(trace.is_test[:start])
        mape = trace.cumulative_mape[first_test:first_test + np.count_nonzero(is_test)]
        mape_texts = np.full(len(is_test), "", dtype=object)
        mape_texts[is_test] = list(map(float.__format__, mape.tolist(), repeat(MAPE_FORMAT)))
        return map(",".join, zip(
            map(str, trace.index[block].tolist()),
            map((TRAIN, TEST).__getitem__, is_test.tolist()),
            _texts(trace.previous_class[block]),
            _texts(trace.raw_prediction[block]),
            _texts(trace.predicted_class[block]),
            _texts(trace.expected_class[block]),
            _texts(trace.abs_error[block]),
            mape_texts.tolist(),
            _texts(trace.deviant_mean_after[block], end="\n"),
        ))

    _write_blocks(stream, TRACE_HEADER, len(trace), block_rows)


def read_trace(lines: Iterable[str]) -> PredictionTrace:
    """The first trace block of an iterable of lines, as tracetext.read_columns reads it."""
    return PredictionTrace(*read_columns(lines))
