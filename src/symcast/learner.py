"""Deviant-mean learner with mismatch-driven candidate updates.

The learner keeps one scalar offset (the deviant mean) that is added to
the previous observation to form the next prediction. After each
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .encoder import check_class_level
from .errors import BadConfigError, DegenerateDivisiveError

ADDITIVE_SUBTRACTIVE = "addsub"
MULTIPLICATIVE_DIVISIVE = "muldiv"
RULE_MODES = (ADDITIVE_SUBTRACTIVE, MULTIPLICATIVE_DIVISIVE)


@dataclass(frozen=True)
class LearnerConfig:
    population_size: int = 1000
    max_deviant_adjust: float = 2.0
    rule_mode: str = ADDITIVE_SUBTRACTIVE
    bias: float = 0.0
    k_winners: int = 1
    class_level: int = 5

    def validate(self) -> None:
        if self.population_size < 1:
            raise BadConfigError("population_size", f"must be >= 1, got {self.population_size}")
        if not (0 < self.max_deviant_adjust < math.inf):
            raise BadConfigError(
                "max_deviant_adjust", f"must be finite and > 0, got {self.max_deviant_adjust}"
            )
        if self.rule_mode not in RULE_MODES:
            raise BadConfigError("rule_mode", f"must be one of {RULE_MODES}, got {self.rule_mode!r}")
        if not math.isfinite(self.bias):
            raise BadConfigError("bias", f"must be finite, got {self.bias}")
        if self.k_winners < 1:
            raise BadConfigError("k_winners", f"must be >= 1, got {self.k_winners}")
        if self.k_winners > self.population_size:
            raise BadConfigError(
                "k_winners",
                f"must be <= population_size ({self.population_size}), got {self.k_winners}",
            )
        check_class_level(self.class_level)


@dataclass(frozen=True)
class StepOutcome:
    """Everything one learning step produced."""

    raw_prediction: float
    predicted_class: int
    expected: int
    signed_diff: float
    winner_candidates: tuple[float, ...]
    new_deviant_mean: float
    used_fallback: bool = False


def make_adjustment_grid(population_size: int, max_deviant_adjust: float) -> np.ndarray:
    """Uniform grid of adjustment magnitudes, open at 0, closed at the maximum.

    The last entry is exactly max_deviant_adjust (k/n is 1.0 at the endpoint).
    """
    steps = np.arange(1, population_size + 1, dtype=np.float64) / population_size
    grid = max_deviant_adjust * steps
    grid.setflags(write=False)
    return grid


def round_half_away_from_zero(value: float) -> int:
    whole = math.trunc(value)
    fraction = value - whole
    if fraction >= 0.5:
        return whole + 1
    if fraction <= -0.5:
        return whole - 1
    return whole


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
    if signed_diff == 0:
        raise ValueError("signed_diff must be nonzero; the zero branch is apply_bias")
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
    can run in parallel.
    """

    def __init__(self, config: LearnerConfig):
        config.validate()
        self.config = config
        self.deviant_mean = 0.0
        self.adjustment_grid = make_adjustment_grid(
            config.population_size, config.max_deviant_adjust
        )
        self.steps_seen = 0

    def predict_next(self, current_value: int) -> tuple[float, int]:
        """Raw prediction (current + deviant mean) and its clamped class."""
        raw = current_value + self.deviant_mean
        rounded = round_half_away_from_zero(raw)
        predicted_class = min(max(rounded, 1), self.config.class_level)
        return raw, predicted_class

    def apply_bias(self) -> None:
        """Zero-mismatch branch: shift the mean by the configured bias."""
        self.deviant_mean += self.config.bias

    def learn_step(self, previous_value: int, expected: int) -> StepOutcome:
        """Predict from previous_value, observe expected, update the mean.

        The mismatch is the raw (real-valued) prediction minus the observed
        value; rounding it first would hide most mismatches and stall
        learning.
        """
        raw, predicted_class = self.predict_next(previous_value)
        signed_diff = raw - expected
        used_fallback = False

        if signed_diff == 0:
            self.apply_bias()
            winners: tuple[float, ...] = ()
        else:
            try:
                candidates = adjust_candidates(
                    self.deviant_mean, self.adjustment_grid, signed_diff,
                    self.config.rule_mode,
                )
            except DegenerateDivisiveError:
                candidates = adjust_candidates(
                    self.deviant_mean, self.adjustment_grid, signed_diff,
                    ADDITIVE_SUBTRACTIVE,
                )
                used_fallback = True
            selected = select_winners(
                candidates, previous_value, expected, self.config.k_winners
            )
            winners = tuple(float(value) for value in selected)
            if self.config.k_winners == 1:
                self.deviant_mean = winners[0]
            else:
                self.deviant_mean = float(selected.mean())

        self.steps_seen += 1
        return StepOutcome(
            raw_prediction=raw,
            predicted_class=predicted_class,
            expected=expected,
            signed_diff=signed_diff,
            winner_candidates=winners,
            new_deviant_mean=self.deviant_mean,
            used_fallback=used_fallback,
        )


def with_class_level(config: LearnerConfig, class_level: int) -> LearnerConfig:
    """Copy of config with its clamping range pinned to a class sequence."""
    return replace(config, class_level=class_level)
