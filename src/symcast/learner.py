"""Deviant-mean learner with mismatch-driven candidate updates.

The learner keeps one scalar offset (the deviant mean) that is added to
the previous observation to form the next raw prediction; it knows no
class range (the walk in pipeline rounds and clamps). After each
observation the signed mismatch between the raw prediction and the
observed value picks an update direction: a positive mismatch weakens the
mean, a negative one reinforces it. A fixed grid of adjustment magnitudes
generates one candidate mean per grid point, and a k-winner-take-all scan
keeps the candidates whose predictions would have been closest to the
observation. A zero mismatch applies only the configured bias.

Two rule modes exist: additive-subtractive (mean +/- grid point) and
multiplicative-divisive (mean * grid point, or its reciprocal when
weakening). The divisive form is undefined at a zero mean; that step
falls back to the additive-subtractive rule and is flagged.

Learner.learn_step finds the winners without building the population;
adjust_candidates and select_winners build and sort all of it with numpy,
imported where they run, and are the reference its tests compare against.
Each Learner keeps the outcomes of the steps it computed and returns one
again when its inputs repeat, as they do on most steps of a real stream.
"""

from __future__ import annotations

__all__ = ["Learner", "StepOutcome"]

import bisect
import math
from operator import add
from typing import Callable, Iterable, NamedTuple

from .config import ADDITIVE_SUBTRACTIVE, MULTIPLICATIVE_DIVISIVE, RULE_MODES, LearnerConfig
from .errors import BadConfigError, DegenerateDivisiveError, NonFiniteStateError

MEMO_ENTRIES = 4_096  # step outcomes one Learner keeps, about 1.4 MiB


class StepOutcome(NamedTuple):
    """Everything one learning step produced."""

    raw_prediction: float
    signed_diff: float
    winner_candidates: tuple[float, ...]
    new_deviant_mean: float
    used_fallback: bool = False


def make_adjustment_grid(population_size: int, max_deviant_adjust: float) -> np.ndarray:
    """Uniform grid of adjustment magnitudes, open at 0, closed at the maximum.

    The last entry is exactly max_deviant_adjust (k/n is 1.0 at the endpoint).
    """
    import numpy as np
    steps = np.arange(1, population_size + 1, dtype=np.float64) / population_size
    grid = max_deviant_adjust * steps
    grid.setflags(write=False)
    return grid


def adjust_candidates(
    deviant_mean: float,
    grid: np.ndarray,
    signed_diff: float,
    rule_mode: str = ADDITIVE_SUBTRACTIVE,
) -> np.ndarray:
    """Generate one candidate mean per grid point for a nonzero mismatch.

    Positive mismatch weakens (subtract / take reciprocal of product),
    negative reinforces (add / multiply). Raises DegenerateDivisiveError in
    multiplicative-divisive mode when any product with the grid is zero,
    since the mean could then never move again.
    """
    import numpy as np
    if signed_diff == 0:
        raise ValueError("signed_diff must be nonzero; a zero mismatch only applies the bias")
    if rule_mode == ADDITIVE_SUBTRACTIVE:
        if signed_diff > 0:
            return deviant_mean - grid
        return deviant_mean + grid
    if rule_mode == MULTIPLICATIVE_DIVISIVE:
        products = deviant_mean * grid
        if np.any(products == 0.0):
            raise DegenerateDivisiveError(
                f"deviant mean {deviant_mean} makes a zero product with the grid"
            )
        if signed_diff > 0:
            return 1.0 / products
        return products
    raise BadConfigError("rule_mode", f"must be one of {RULE_MODES}, got {rule_mode!r}")


def select_winners(
    candidates: np.ndarray,
    previous_value: int,
    expected: int,
    k_winners: int = 1,
) -> np.ndarray:
    """Pick the k candidates whose predictions land closest to the expected value.

    Ranked ascending by residual |previous + candidate - expected|; ties go
    to the smaller absolute candidate, then to grid order.
    """
    import numpy as np
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.size == 0:
        raise ValueError("candidates is empty")
    if not (1 <= k_winners <= candidates.size):
        raise ValueError(f"k_winners {k_winners} out of range for {candidates.size} candidates")
    residuals = np.abs((previous_value + candidates) - expected)
    order = np.lexsort((np.arange(candidates.size), np.abs(candidates), residuals))
    return candidates[order[:k_winners]]


class Learner:
    """Holds the deviant mean and steps it against an observation stream.

    A single learner's steps are strictly sequential; independent learners
    can run in parallel. config is fixed at construction.
    """

    def __init__(self, config: LearnerConfig):
        config.validate()
        self.config = config
        self.deviant_mean = 0.0
        self.steps_seen = 0
        self._outcomes: dict[tuple, StepOutcome] = {}
        self._first_point = config.max_deviant_adjust * (1 / config.population_size)  # grid[0]

    def learn_step(self, previous_value: int, expected: int) -> StepOutcome:
        """Predict from previous_value, observe expected, update the mean.

        The mismatch is the raw (real-valued) prediction minus the observed
        value; rounding it first would hide most mismatches and stall
        learning. Raises NonFiniteStateError when the update leaves the
        mean infinite or NaN.

        Under the fixed config a step is a pure function of (deviant_mean,
        previous_value, expected), so a repeat returns the outcome kept from
        the first. The key tells -0.0 from 0.0, which step apart under a bias
        of -0.0; a step that raises keeps nothing. Only the first MEMO_ENTRIES
        are kept: emptying when full costs unrepeated inputs 20% a step, not 8%.
        """
        mean = self.deviant_mean
        key = (mean if mean else mean.hex(), previous_value, expected)
        outcome = self._outcomes.get(key)
        if outcome is not None:
            self.deviant_mean = outcome.new_deviant_mean
            self.steps_seen += 1
            return outcome
        config = self.config
        raw = previous_value + mean
        signed_diff = raw - expected
        fallback = False

        if signed_diff == 0:
            self.deviant_mean += config.bias
            winners: tuple[float, ...] = ()
        else:
            rule_mode = config.rule_mode
            # |grid[i]| >= grid[0], so a product is zero only if the first one is
            if rule_mode == MULTIPLICATIVE_DIVISIVE and mean * self._first_point == 0.0:
                rule_mode = ADDITIVE_SUBTRACTIVE
                fallback = True
            winners = self._nearest_candidates(previous_value, expected, signed_diff, rule_mode)
            self.deviant_mean = winners[0] if len(winners) == 1 else _mean(winners)

        self.steps_seen += 1
        if not math.isfinite(self.deviant_mean):
            raise NonFiniteStateError(self.steps_seen, self.deviant_mean)
        # tuple.__new__ skips the NamedTuple's Python-level __new__ and its argument binding
        outcome = tuple.__new__(StepOutcome, (raw, signed_diff, winners, self.deviant_mean, fallback))
        if len(self._outcomes) < MEMO_ENTRIES:
            self._outcomes[key] = outcome
        return outcome

    def learn_steps(self, previous: Iterable[int], expected: Iterable[int]) -> list[float]:
        """learn_step on each (previous, expected) pair in turn; the mean after each step.

        A repeat is found in the kept outcomes by learn_step's key, with no call;
        the learner is left as the learn_step calls leave it, also when one raises.
        """
        outcomes, seen, mean, means = self._outcomes, self.steps_seen, self.deviant_mean, []
        for previous_value, value in zip(previous, expected):
            outcome = outcomes.get((mean if mean else mean.hex(), previous_value, value))
            if outcome is None:
                self.deviant_mean, self.steps_seen = mean, seen + len(means)
                outcome = self.learn_step(previous_value, value)
            means.append(mean := outcome.new_deviant_mean)
        self.deviant_mean, self.steps_seen = mean, seen + len(means)
        return means

    def _nearest_candidates(
        self, previous_value: int, expected: int, signed_diff: float, rule_mode: str
    ) -> tuple[float, ...]:
        """select_winners(adjust_candidates(...)) without building either array.

        Needs a finite mean and, under MULTIPLICATIVE_DIVISIVE, no zero
        product. Candidate i moves one way along the grid, so the signed
        residual (previous + candidate - expected) and the candidate itself
        are monotone in i. |residual| thus falls and then rises along the
        grid (a weak "V"): a strict local minimum, strictly below both
        neighbours, is the unique global one, and from it |residual| never
        falls going outwards.

        One ``_window`` pass evaluates the k indices each side of the one
        ``_crossing_index`` computes (for k = 1, 3 candidates). While its
        middle is no strict minimum but a smaller |residual| lies in it,
        the window moves, at most three times, to centre the smallest. From a
        strict minimum, the first winner, ``_merged`` takes the rest in the
        same window. ``_ranked``, the one place that orders tied runs, takes
        the step, at O(log P + k) to O(k log P) evaluations, when the walk
        ends on no strict minimum or ``_merged`` meets a plateau (its
        ranges need P <= sys.maxsize).
        """
        config = self.config
        population_size = config.population_size
        reach = config.k_winners  # indices each side of the window's middle
        weakening = signed_diff > 0
        step = (self.deviant_mean, weakening, rule_mode == MULTIPLICATIVE_DIVISIVE,
                population_size, config.max_deviant_adjust, previous_value, expected)
        start = self._crossing_index(expected - previous_value, weakening, rule_mode,
                                     population_size, config.max_deviant_adjust)
        bottom = start if 0 <= start < population_size else 0 if start < 0 else population_size - 1
        candidates, sizes = _window(bottom - reach, bottom + reach + 1, step)
        moves = 0
        while not sizes[reach - 1] > sizes[reach] < sizes[reach + 1]:  # no strict minimum yet
            lowest = min(sizes)
            if lowest == sizes[reach] or moves == 3:
                return _ranked_winners(step, reach)
            bottom += sizes.index(lowest) - reach
            candidates, sizes = _window(bottom - reach, bottom + reach + 1, step)
            moves += 1
        winners = (candidates[reach],) if reach == 1 else _merged(candidates, sizes, reach)
        return winners or _ranked_winners(step, reach)

    def _crossing_index(self, target: float, weakening: bool, rule_mode: str,
                        population_size: int, max_deviant_adjust: float) -> int:
        """About the first grid index past the zero of the signed residual.

        Candidate i would equal target (expected - previous) at the real
        i + 1 = x solved from the grid formula below, so that index is
        ceil(x) - 1 up to the candidates' rounding. A weakening
        MULTIPLICATIVE_DIVISIVE candidate, 1 / (mean * grid point), never
        reaches a target of the other sign or zero, and the bottom of its
        V is the far end (x = inf, index P). The result only tells the search
        where to start and may lie outside [0, P]. Needs what
        ``_nearest_candidates`` needs; then no division is by zero and no
        infinity or NaN reaches ceil.
        """
        mean = self.deviant_mean
        if rule_mode == ADDITIVE_SUBTRACTIVE:
            offset = mean - target if weakening else target - mean
            x = offset * population_size / max_deviant_adjust
        elif not weakening:
            x = target / mean * population_size / max_deviant_adjust
        elif target * mean > 0:
            x = population_size / (target * mean) / max_deviant_adjust
        else:
            return population_size  # the far end
        if -population_size <= x <= population_size:
            return math.ceil(x) - 1
        return population_size if x > 0 else 0


def _window(first: int, stop: int, step: tuple) -> tuple[list[float], list[float]]:
    """adjust_candidates's candidates and their |residual|s over [first, stop), inf off the grid."""
    mean, weakening, divisive, population_size, max_deviant_adjust, previous_value, expected = step
    candidates, sizes = [], []
    for index in range(first, stop):
        if 0 <= index < population_size:
            point = max_deviant_adjust * ((index + 1) / population_size)
            if divisive:
                candidate = 1.0 / (mean * point) if weakening else mean * point
            else:
                candidate = mean - point if weakening else mean + point
            candidates.append(candidate)
            sizes.append(abs((previous_value + candidate) - expected))
        else:
            candidates.append(math.inf)
            sizes.append(math.inf)
    return candidates, sizes


def _merged(candidates: list[float], sizes: list[float], count: int) -> tuple[float, ...] | None:
    """The count winners around a window's strict middle, or None where a plateau needs _ranked."""
    # the two fronts, the next position each side, merge outwards by (|residual|, |candidate|, i)
    order, left, right = [count], count - 1, count + 1
    below, above = sizes[left], sizes[right]
    for _ in range(count - 1):
        if below == above:
            if sizes[left - 1] == below or sizes[right + 1] == above:
                return None  # the fronts tie with a plateau behind one, or at inf
            from_left = abs(candidates[left]) <= abs(candidates[right])
        else:
            from_left = below < above
        if from_left:
            order.append(left)
            left, taken, below = left - 1, below, sizes[left - 1]
        else:
            order.append(right)
            right, taken, above = right + 1, above, sizes[right + 1]
        if taken == (below if from_left else above):
            return None  # the taken front's next index ties it
    return tuple(map(candidates.__getitem__, order))


def _ranked_winners(step: tuple, count: int) -> tuple[float, ...]:
    """The first count candidates of the whole grid by ``_ranked``; step as ``_window`` takes it."""
    mean, weakening, divisive, population_size, _, previous_value, expected = step

    def candidate(index: int) -> float:
        return _window(index, index + 1, step)[0][0]

    def residual(index: int) -> float:
        return (previous_value + candidate(index)) - expected

    rising = weakening == (mean < 0) if divisive else not weakening  # candidates grow with i
    return tuple(map(candidate, _ranked(0, population_size, count, (residual, candidate), rising)))


def _mean(winners: tuple[float, ...]) -> float:
    """np.mean of one or more winners, bit for bit; an overflow gives inf."""
    # numpy's add.reduce starts from its identity, 0.0, so -0.0 winners average to 0.0
    return (0.0 + _pairwise_sum(winners)) / len(winners)


def _pairwise_sum(values: tuple[float, ...]) -> float:
    """The sum of values as numpy's pairwise float64 sum adds it."""
    count = len(values)
    if count > 128:  # two halves, split at a multiple of 8
        half = count // 2 - count // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    total, rest = -0.0, values  # -0.0: the identity of float addition
    if count >= 8:  # eight running sums, combined as a tree; then the rest in order
        sums, whole = values[:8], count - count % 8
        for block in range(8, whole, 8):
            sums = tuple(map(add, sums, values[block:block + 8]))
        total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + ((sums[4] + sums[5]) + (sums[6] + sums[7]))
        rest = values[whole:]
    for value in rest:  # not sum(), which compensates from Python 3.12
        total += value
    return total


def _ranked(
    start: int,
    stop: int,
    count: int,
    signed_parts: tuple[Callable[[int], float], ...],
    rising: bool,
) -> list[int]:
    """The first count indices of [start, stop) by (|f(i)| for each f of signed_parts, then i).

    signed_parts are the signed functions still to rank by: the indices
    in [start, stop) tie on every part ranked before them, and each of
    them rises with the index if rising and falls otherwise. One
    bisection over the whole range finds the bottom of the first part's
    V; a run that ties on it is ranked by the parts after it.
    """

    def key(index: int) -> tuple:  # no index: sorted is stable, and ties come in index order
        return tuple(abs(part(index)) for part in signed_parts)

    if stop - start <= count:
        return sorted(range(start, stop), key=key)
    if not signed_parts:
        return list(range(start, start + count))
    signed, later_parts = signed_parts[0], signed_parts[1:]

    def size(index: int) -> float:
        return abs(signed(index))

    def far_side(index: int) -> bool:
        return (signed(index) >= 0) == rising

    # the bottom is the first far-side index, or stop
    bottom = start + bisect.bisect_left(range(start, stop), True, key=far_side)

    left, right = bottom - 1, bottom  # the next index on each side of the V
    left_size = size(left) if left >= start else math.inf
    right_size = size(right) if right < stop else math.inf
    order: list[int] = []
    while len(order) < count and (left >= start or right < stop):
        lowest = min(left_size, right_size)
        needed = count - len(order)
        tied: list[int] = []
        if left >= start and left_size == lowest:
            edge = left
            left_size = size(left - 1) if left > start else math.inf
            if left_size == lowest:  # a longer run of ties
                edge = start + bisect.bisect_left(
                    range(start, left), True, key=lambda index: size(index) == lowest
                )
                left_size = size(edge - 1) if edge > start else math.inf
            tied = [left] if edge == left else _ranked(edge, left + 1, needed, later_parts, rising)
            left = edge - 1
        if right < stop and right_size == lowest:
            edge = right
            right_size = size(right + 1) if right + 1 < stop else math.inf
            if right_size == lowest:
                edge = right + bisect.bisect_left(
                    range(right + 1, stop), True, key=lambda index: size(index) != lowest
                )
                right_size = size(edge + 1) if edge + 1 < stop else math.inf
            run = [right] if edge == right else _ranked(right, edge + 1, needed, later_parts, rising)
            tied = sorted(tied + run, key=key) if tied else run
            right = edge + 1
        order += tied[:needed]
    return order

