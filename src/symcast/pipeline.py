"""Encode -> continually train -> continually test orchestration.

A class sequence is walked one step at a time: each element is predicted
from its predecessor, then observed, and (unless frozen) the learner
updates immediately. Learning never stops at the train/test split; the
split only marks where test-error accounting begins. A run is kept as
typed stdlib columns, one entry per step. Errors are tracked as a running
mean absolute percentage error over the test steps, computed on the
integer classes once the walk is done and stored in the trace. The walk
forms each value once per distinct key, not once per step: a stream of a
few classes and means repeats them. tracetext writes and reads the trace.
"""

from __future__ import annotations

__all__ = [
    "DecodedTrace", "PredictionTrace", "baseline_persistence", "decode_trace", "mape", "read_trace",
    "run_continual", "split_index",
]

import math
from array import array
from itertools import accumulate, chain, repeat
from operator import add, and_, mul, truediv
from typing import Iterable, NamedTuple, Sequence

from .config import RunConfig
from .encoder import ClassSequence, Ints, Reals, Record, SensorMemory, decode_class
from .errors import LengthMismatchError, TooShortError
from .learner import Learner
from .tracetext import TEST, TRAIN, _test_mapes, read_columns, write_trace

# a step's |predicted - expected| and its ratio to expected, by its byte 16 * predicted + expected
_ABS_ERRORS = bytes(abs((pair >> 4) - (pair & 15)) for pair in range(256))
_RATIOS = [error / (pair & 15 or 1) for pair, error in enumerate(_ABS_ERRORS)]


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


class PredictionTrace(Record):
    """All steps of one run as read-only columns, plus the running test MAPE (percent).

    Every column but cumulative_mape holds one entry per step, in step
    order, as the StepRecord field of the same name does; is_test is
    nonzero on the test steps. Classes and errors are integers, raw
    predictions and means float64. cumulative_mape holds one float64 per
    test step. A trace whose columns break that rule is refused when built.
    """

    index: Ints
    is_test: Ints
    previous_class: Ints
    raw_prediction: Reals
    predicted_class: Ints
    expected_class: Ints
    abs_error: Ints
    deviant_mean_after: Reals
    cumulative_mape: Reals

    def __post_init__(self) -> None:
        steps, tests = len(self.index), len(self.is_test) - self.is_test.tolist().count(0)
        for name, column in vars(self).items():
            count, what = (tests, "test steps") if name == "cumulative_mape" else (steps, "steps")
            if len(column) != count:
                raise LengthMismatchError(f"{name} has {len(column)} entries for {count} {what}")

    def __len__(self) -> int:
        return len(self.index)

    @property
    def steps(self) -> tuple[StepRecord, ...]:
        """The steps as records, built anew on each access."""
        phases = [(TRAIN, TEST)[bool(test)] for test in self.is_test]
        # previous_class through deviant_mean_after, in StepRecord's order
        columns = [getattr(self, name).tolist() for name in self._fields[2:-1]]
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


def round_half_away_from_zero(value: float) -> int:
    """value rounded to the nearest whole number, halves away from zero."""
    whole = math.trunc(value)
    fraction = value - whole
    return whole + (fraction >= 0.5) - (fraction <= -0.5)


def _walk(classes: ClassSequence, config: RunConfig, learning: bool) -> PredictionTrace:
    """Predict each element from its predecessor; update the learner while learning.

    Each raw prediction is the previous class plus the mean held before its
    step; each distinct one is rounded half away from zero and clamped to
    [1, class_level] once. The running test MAPE adds the steps' ratios in
    order, as numpy's cumsum of a 1-D float64 array does, and divides by the count.
    """
    config.validate()
    level, values, length = classes.class_level, classes.classes, len(classes)
    split = split_index(length, config.train_fraction)
    learner = Learner(config.learner)

    learned = (split - 1 if config.freeze_after_train else length - 1) if learning else 0
    # means[s] is the mean before step s; the steps past `learned` keep the one it then holds
    means = array("d", [learner.deviant_mean, *learner.learn_steps(values, values[1:learned + 1])])
    means += array("d", [learner.deviant_mean]) * (length - 1 - learned)
    previous, expected = array("b", bytes(values[:-1])), array("b", bytes(values[1:]))  # a class fits a byte
    raw = array("d", map(add, previous, means))
    predicted_of = {real: min(max(round_half_away_from_zero(real), 1), level) for real in set(raw)}
    predicted = array("b", map(predicted_of.__getitem__, raw))
    # one byte a step, 16 * predicted + expected: each class below 16 shifts within its byte
    pairs = (int.from_bytes(predicted, "big") << 4 | int.from_bytes(expected, "big")).to_bytes(
        length - 1, "big")

    ratios = accumulate(map(_RATIOS.__getitem__, pairs[split - 1:]))
    series = array("d", map(truediv, map(mul, repeat(100.0), ratios), range(1, length - split + 1)))
    is_test = array("b", [0]) * (split - 1) + array("b", [1]) * (length - split)
    return PredictionTrace(array("q", range(1, length)), is_test, previous, raw, predicted, expected,
                           array("b", pairs.translate(_ABS_ERRORS)), means[1:], series)


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


def mape(trace: PredictionTrace) -> tuple[float, Sequence[float]]:
    """Final and per-step running test MAPE, in percent, as stored in the trace."""
    series = _test_mapes(trace.cumulative_mape)
    return series[-1], series


def decode_trace(trace: PredictionTrace, memory: SensorMemory) -> DecodedTrace:
    """Map every step's predicted and expected class back to symbols.

    A step is exact only when both classes decode from their own slots.
    Each class is decoded once, in step order of first occurrence, the
    predicted before the expected, so a class out of range or an empty
    memory raises what decode_class raises for the first such class.
    """
    predicted, expected = trace.predicted_class, trace.expected_class
    decoded = {cls: decode_class(cls, memory)
               for cls in dict.fromkeys(chain.from_iterable(zip(predicted, expected)))}
    symbols, own_slot = ({cls: pair[part] for cls, pair in decoded.items()} for part in (0, 1))
    return DecodedTrace(list(map(symbols.__getitem__, predicted)),
                        list(map(symbols.__getitem__, expected)),
                        list(map(and_, map(own_slot.__getitem__, predicted),
                                 map(own_slot.__getitem__, expected))))


def read_trace(lines: Iterable[str]) -> PredictionTrace:
    """The first trace block of an iterable of lines, as tracetext.read_columns reads it."""
    return PredictionTrace(*read_columns(lines))
