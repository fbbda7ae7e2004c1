"""The settings records and range rules, without numpy: each command and --version compile this."""

from __future__ import annotations

__all__ = ["ADDITIVE_SUBTRACTIVE", "MULTIPLICATIVE_DIVISIVE", "LearnerConfig", "RunConfig"]

import math
import sys
from typing import NamedTuple, Union

from .errors import BadClassLevelError, BadConfigError

# Reference-row selector: "last", "first", or a 0-based row index.
Reference = Union[str, int]

MIN_CLASS_LEVEL = 2
MAX_CLASS_LEVEL = 10

ADDITIVE_SUBTRACTIVE = "addsub"
MULTIPLICATIVE_DIVISIVE = "muldiv"
RULE_MODES = (ADDITIVE_SUBTRACTIVE, MULTIPLICATIVE_DIVISIVE)


def check_class_level(class_level: int) -> None:
    """The one range rule for class_level; raises BadClassLevelError."""
    if not (MIN_CLASS_LEVEL <= class_level <= MAX_CLASS_LEVEL):
        raise BadClassLevelError(
            f"class level must be in [{MIN_CLASS_LEVEL}, {MAX_CLASS_LEVEL}], got {class_level}"
        )


class LearnerConfig(NamedTuple):
    population_size: int = 1000
    max_deviant_adjust: float = 2.0
    rule_mode: str = ADDITIVE_SUBTRACTIVE
    bias: float = 0.0
    k_winners: int = 1

    def validate(self) -> None:
        if not (isinstance(self.population_size, int) and 1 <= self.population_size <= sys.maxsize):
            raise BadConfigError(
                "population_size", f"must be in [1, {sys.maxsize}], got {self.population_size!r}"
            )
        if not (0 < self.max_deviant_adjust < math.inf):
            raise BadConfigError(
                "max_deviant_adjust", f"must be finite and > 0, got {self.max_deviant_adjust}"
            )
        if self.rule_mode not in RULE_MODES:
            raise BadConfigError("rule_mode", f"must be one of {RULE_MODES}, got {self.rule_mode!r}")
        if not math.isfinite(self.bias):
            raise BadConfigError("bias", f"must be finite, got {self.bias}")
        if not isinstance(self.k_winners, int) or self.k_winners < 1:
            raise BadConfigError("k_winners", f"must be >= 1, got {self.k_winners!r}")
        if self.k_winners > self.population_size:
            raise BadConfigError(
                "k_winners",
                f"must be <= population_size ({self.population_size}), got {self.k_winners}",
            )


class RunConfig(NamedTuple):
    train_fraction: float = 0.35
    learner: LearnerConfig = LearnerConfig()
    freeze_after_train: bool = False

    def validate(self) -> None:
        if not (0.0 < self.train_fraction < 1.0):
            raise BadConfigError("train_fraction", f"must be in (0, 1), got {self.train_fraction}")
        self.learner.validate()
