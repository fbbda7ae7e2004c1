"""Tests for the deviant-mean learner and its update rules."""

import copy
import io
import math
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracle import round_half_away_from_zero
from test_benchmark_contract import workloads  # perfbench/workloads.py, loaded read-only

from symcast import learner as learner_module
from symcast.encoder import ClassSequence, encode_corpus
from symcast.errors import BadConfigError, DegenerateDivisiveError, NonFiniteStateError
from symcast.ingest import read_numeric_series, read_text_corpus
from symcast.learner import (
    ADDITIVE_SUBTRACTIVE,
    MEMO_ENTRIES,
    MULTIPLICATIVE_DIVISIVE,
    RULE_MODES,
    Learner,
    LearnerConfig,
    adjust_candidates,
    make_adjustment_grid,
    select_winners,
)
from symcast.pipeline import RunConfig, run_continual
from symcast.pipeline import round_half_away_from_zero as walk_rounding

nonzero_diffs = st.floats(min_value=-10, max_value=10, allow_nan=False).filter(
    lambda d: d != 0
)


class TestAdjustmentGrid:
    def test_default_grid_shape_and_endpoints(self):
        grid = make_adjustment_grid(1000, 2.0)
        assert grid.shape == (1000,)
        assert grid[0] == 0.002
        assert grid[1] == 0.004
        assert grid[-1] == 2.0
        assert np.all(np.diff(grid) > 0)
        assert np.all(grid > 0)

    def test_four_point_grid(self):
        assert np.array_equal(make_adjustment_grid(4, 2.0), [0.5, 1.0, 1.5, 2.0])

    def test_singleton_grid(self):
        assert np.array_equal(make_adjustment_grid(1, 0.01), [0.01])

    def test_grid_is_read_only(self):
        grid = make_adjustment_grid(10, 1.0)
        with pytest.raises(ValueError):
            grid[0] = 99.0

    @pytest.mark.parametrize(
        "population,maximum", [(3, 2.0), (7, 0.1), (7, 1e300), (1000, 3.3), (100_000, 2.0)]
    )
    def test_learner_computes_the_same_points(self, population, maximum):
        # At mean 0.0 an additive step's candidates are the grid points
        # themselves, and k = P keeps every one of them.
        learner = Learner(
            LearnerConfig(population_size=population, max_deviant_adjust=maximum,
                          k_winners=population)
        )
        outcome = learner.learn_step(1, 5)
        points = sorted(outcome.winner_candidates)
        assert [p.hex() for p in points] == [
            g.hex() for g in make_adjustment_grid(population, maximum).tolist()
        ]


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.4, 0),
        (0.5, 1),
        (1.5, 2),
        (2.5, 3),
        (-0.4, 0),
        (-0.5, -1),
        (-1.5, -2),
        (2.0, 2),
        (-3.0, -3),
    ],
)
def test_round_half_away_from_zero(value, expected):
    # the scalar reference and the walk's own
    assert round_half_away_from_zero(value) == expected
    assert walk_rounding(value) == expected


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(population_size=0), "population_size"),
            (dict(max_deviant_adjust=0.0), "max_deviant_adjust"),
            (dict(max_deviant_adjust=-1.0), "max_deviant_adjust"),
            (dict(rule_mode="banana"), "rule_mode"),
            (dict(k_winners=0), "k_winners"),
            (dict(population_size=10, k_winners=11), "k_winners"),
            (dict(max_deviant_adjust=-math.inf), "max_deviant_adjust"),
            (dict(max_deviant_adjust=math.inf), "max_deviant_adjust"),
            (dict(max_deviant_adjust=math.nan), "max_deviant_adjust"),
            (dict(bias=math.inf), "bias"),
            (dict(bias=-math.inf), "bias"),
            (dict(bias=math.nan), "bias"),
            # grid indices past sys.maxsize overflow range() and bisect
            (dict(population_size=sys.maxsize + 1), "population_size"),
        ],
    )
    def test_bad_field_is_named(self, kwargs, field):
        with pytest.raises(BadConfigError) as info:
            LearnerConfig(**kwargs).validate()
        assert info.value.field == field

    def test_defaults_are_valid(self):
        LearnerConfig().validate()


class TestIntegerCounts:
    """A population size or winner count that is not an int is refused by name, never used."""

    @pytest.mark.parametrize("kwargs,field", [
        (dict(population_size=1000.5), "population_size"),
        (dict(population_size=1000.0), "population_size"),
        (dict(k_winners=2.0), "k_winners"),
    ])
    def test_a_learner_step_refuses_it(self, kwargs, field):
        with pytest.raises(BadConfigError) as info:
            Learner(LearnerConfig(**kwargs)).learn_step(1, 3)
        assert info.value.field == field

    def test_a_walk_refuses_it(self):
        classes = ClassSequence((1, 2, 3, 1, 2), 5)
        with pytest.raises(BadConfigError) as info:
            run_continual(classes, RunConfig(learner=LearnerConfig(population_size=10.0)))
        assert info.value.field == "population_size"


def predicted_after_a_bias_step(bias, current, level=5):
    """The walk's raw prediction and class for current, once an exact step has set the mean to bias.

    The learner knows no class range: the walk rounds and clamps its raw prediction.
    """
    classes = ClassSequence(classes=(current, current, current), class_level=level)
    step = run_continual(classes, RunConfig(learner=LearnerConfig(bias=bias))).steps[1]
    return step.raw_prediction, step.predicted_class


class TestPredictNext:
    def test_zero_mean_identity(self):
        learner = Learner(LearnerConfig())
        assert learner.learn_step(1, 1).raw_prediction == 1.0
        assert predicted_after_a_bias_step(0.0, 1) == (1.0, 1)

    def test_negative_raw_clamps_to_one(self):
        assert predicted_after_a_bias_step(-2.0, 1) == (-1.0, 1)

    def test_high_raw_clamps_to_the_class_level(self):
        assert predicted_after_a_bias_step(2.0, 5) == (7.0, 5)

    @given(
        mean=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        current=st.integers(min_value=1, max_value=5),
    )
    def test_predicted_class_always_in_range(self, mean, current):
        raw, cls = predicted_after_a_bias_step(mean, current)
        assert raw == current + mean
        assert 1 <= cls <= 5


class TestAdjustCandidates:
    def test_positive_diff_subtracts(self):
        grid = np.array([0.5])
        assert adjust_candidates(1.0, grid, +1.0).tolist() == [0.5]

    def test_negative_diff_adds(self):
        grid = np.array([0.5])
        assert adjust_candidates(1.0, grid, -1.0).tolist() == [1.5]

    def test_divisive_weakening(self):
        grid = make_adjustment_grid(2, 1.0)
        out = adjust_candidates(2.0, grid, +1.0, MULTIPLICATIVE_DIVISIVE)
        assert out.tolist() == [1.0, 0.5]

    def test_multiplicative_reinforcement(self):
        grid = make_adjustment_grid(2, 1.0)
        out = adjust_candidates(2.0, grid, -1.0, MULTIPLICATIVE_DIVISIVE)
        assert out.tolist() == [1.0, 2.0]

    def test_zero_diff_is_not_this_branch(self):
        with pytest.raises(ValueError):
            adjust_candidates(1.0, make_adjustment_grid(4, 2.0), 0.0)

    def test_zero_mean_degenerates_in_divisive_mode(self):
        with pytest.raises(DegenerateDivisiveError):
            adjust_candidates(0.0, make_adjustment_grid(4, 2.0), +1.0, MULTIPLICATIVE_DIVISIVE)

    def test_unknown_mode_rejected(self):
        with pytest.raises(BadConfigError):
            adjust_candidates(1.0, make_adjustment_grid(4, 2.0), 1.0, "midmode")

    @given(
        mean=st.floats(min_value=-100, max_value=100, allow_nan=False),
        diff=nonzero_diffs,
        population=st.integers(min_value=1, max_value=64),
    )
    def test_candidate_count_is_conserved(self, mean, diff, population):
        grid = make_adjustment_grid(population, 2.0)
        assert adjust_candidates(mean, grid, diff).shape == (population,)

    @given(mean=st.floats(min_value=-100, max_value=100, allow_nan=False), diff=nonzero_diffs)
    def test_directionality(self, mean, diff):
        grid = make_adjustment_grid(32, 2.0)
        candidates = adjust_candidates(mean, grid, diff)
        if diff > 0:
            assert np.all(candidates < mean)
        else:
            assert np.all(candidates > mean)


class TestSelectWinners:
    def test_closest_candidate_wins(self):
        winners = select_winners(np.array([0.5, 1.9, 2.2]), previous_value=1, expected=3)
        assert winners.tolist() == [1.9]

    def test_singleton(self):
        assert select_winners(np.array([7.25]), 1, 4).tolist() == [7.25]

    def test_full_tie_falls_back_to_grid_order(self):
        # residuals tie at 1.0 and |candidate| ties at 1.0; first entry wins
        winners = select_winners(np.array([-1.0, 1.0]), previous_value=2, expected=2)
        assert winners.tolist() == [-1.0]

    def test_residual_tie_prefers_smaller_magnitude(self):
        winners = select_winners(np.array([3.0, -1.0]), previous_value=2, expected=3)
        assert winners.tolist() == [-1.0]

    def test_top_k_are_ranked_by_residual(self):
        winners = select_winners(np.array([0.5, 1.9, 2.2]), 1, 3, k_winners=2)
        assert winners.tolist() == [1.9, 2.2]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            select_winners(np.array([1.0]), 1, 2, k_winners=2)

    def test_no_candidates_is_refused_before_k_is_checked(self):
        with pytest.raises(ValueError, match="^candidates is empty$"):
            select_winners(np.array([]), 1, 2)

    @given(
        candidates=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=40
        ),
        previous=st.integers(min_value=1, max_value=9),
        expected=st.integers(min_value=1, max_value=9),
    )
    def test_winner_residual_is_minimal(self, candidates, previous, expected):
        array = np.array(candidates)
        winner = select_winners(array, previous, expected)[0]
        best = min(abs(previous + c - expected) for c in candidates)
        assert abs(previous + winner - expected) == best


class TestApplyBias:
    """A zero mismatch only shifts the mean by the bias."""

    def test_positive_bias(self):
        learner = Learner(LearnerConfig(bias=0.01))
        learner.deviant_mean = 1.0
        outcome = learner.learn_step(2, 3)
        assert outcome.signed_diff == 0.0
        assert learner.deviant_mean == pytest.approx(1.01)

    def test_zero_bias_is_identity(self):
        learner = Learner(LearnerConfig())
        learner.deviant_mean = 1.0
        learner.learn_step(2, 3)
        assert learner.deviant_mean == 1.0

    def test_bias_on_a_negative_mean(self):
        learner = Learner(LearnerConfig(bias=0.5))
        learner.deviant_mean = -2.0
        outcome = learner.learn_step(5, 3)
        assert outcome.winner_candidates == ()
        assert learner.deviant_mean == -1.5


class TestLearnStep:
    def test_underprediction_reinforces_the_mean(self):
        learner = Learner(LearnerConfig())
        outcome = learner.learn_step(1, 5)
        assert outcome.raw_prediction == 1.0
        assert outcome.signed_diff == -4.0
        assert outcome.winner_candidates == (2.0,)
        assert outcome.new_deviant_mean == 2.0
        assert not outcome.used_fallback
        assert learner.steps_seen == 1

    def test_overprediction_weakens_the_mean(self):
        learner = Learner(LearnerConfig())
        learner.deviant_mean = 2.0
        outcome = learner.learn_step(5, 5)
        assert outcome.raw_prediction == 7.0
        assert outcome.signed_diff == 2.0
        assert outcome.new_deviant_mean == 0.0

    def test_exact_prediction_takes_the_bias_branch(self):
        learner = Learner(LearnerConfig())
        outcome = learner.learn_step(3, 3)
        assert outcome.signed_diff == 0.0
        assert outcome.winner_candidates == ()
        assert outcome.new_deviant_mean == 0.0
        assert learner.deviant_mean == 0.0

    def test_divisive_from_zero_falls_back_and_is_flagged(self):
        learner = Learner(LearnerConfig(rule_mode=MULTIPLICATIVE_DIVISIVE))
        outcome = learner.learn_step(1, 5)
        assert outcome.used_fallback
        assert outcome.new_deviant_mean == 2.0

    def test_divisive_with_a_nonzero_mean_does_not_fall_back(self):
        learner = Learner(LearnerConfig(rule_mode=MULTIPLICATIVE_DIVISIVE))
        learner.deviant_mean = 1.0
        outcome = learner.learn_step(1, 5)
        assert not outcome.used_fallback
        assert outcome.new_deviant_mean == 2.0

    def test_multiple_winners_average(self):
        learner = Learner(LearnerConfig(population_size=4, k_winners=2))
        # candidates 0.5, 1.0, 1.5, 2.0 against a gap of 3: winners 2.0 and 1.5
        outcome = learner.learn_step(1, 4)
        assert outcome.winner_candidates == (2.0, 1.5)
        assert outcome.new_deviant_mean == 1.75

    @pytest.mark.parametrize("value", [1, 3, 5])
    def test_zero_diff_with_zero_bias_is_a_fixed_point(self, value):
        learner = Learner(LearnerConfig())
        before = learner.deviant_mean
        learner.learn_step(value, value)
        assert learner.deviant_mean == before

    def test_ramp_converges_after_one_step(self):
        learner = Learner(LearnerConfig())
        learner.learn_step(1, 2)
        assert abs(learner.deviant_mean - 1.0) <= 0.002
        for previous, expected in [(2, 3), (3, 4), (4, 5)]:
            outcome = learner.learn_step(previous, expected)
            assert round_half_away_from_zero(outcome.raw_prediction) == expected

    def test_replays_are_bit_identical(self):
        pairs = [(1, 5), (5, 5), (5, 1), (1, 1), (1, 3), (3, 2)]
        runs = []
        for _ in range(2):
            learner = Learner(LearnerConfig())
            runs.append([learner.learn_step(p, e) for p, e in pairs])
        assert runs[0] == runs[1]


def oracle_step(config, mean, previous, expected):
    """The naive step: every candidate built and the whole population sorted."""
    signed_diff = (previous + mean) - expected
    if signed_diff == 0:
        return (), mean + config.bias, False
    grid = make_adjustment_grid(config.population_size, config.max_deviant_adjust)
    with np.errstate(all="ignore"):
        try:
            candidates = adjust_candidates(mean, grid, signed_diff, config.rule_mode)
            fallback = False
        except DegenerateDivisiveError:
            candidates = adjust_candidates(mean, grid, signed_diff, ADDITIVE_SUBTRACTIVE)
            fallback = True
        selected = select_winners(candidates, previous, expected, config.k_winners)
        new_mean = float(selected[0]) if config.k_winners == 1 else float(selected.mean())
    return tuple(float(value) for value in selected), new_mean, fallback


def assert_step_matches_oracle(config, mean, previous, expected):
    winners, new_mean, fallback = oracle_step(config, mean, previous, expected)
    learner = Learner(config)
    learner.deviant_mean = mean
    if not math.isfinite(new_mean):
        with pytest.raises(NonFiniteStateError):
            learner.learn_step(previous, expected)
        return
    outcome = learner.learn_step(previous, expected)
    case = (config, mean.hex(), previous, expected)
    assert [w.hex() for w in outcome.winner_candidates] == [w.hex() for w in winners], case
    assert outcome.new_deviant_mean.hex() == new_mean.hex(), case
    assert outcome.used_fallback == fallback, case


ORACLE_POPULATIONS = (1, 2, 7, 1000, 100_000)
# 1e17 and 1e-20 make plateaus: many grid points give the same candidate or residual
PLATEAU_MEANS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-20, -1e-20, 1e17, -1e17, 1e308, -1e308)


@st.composite
def step_cases(draw):
    population = draw(st.sampled_from(ORACLE_POPULATIONS))
    config = LearnerConfig(
        population_size=population,
        max_deviant_adjust=draw(
            st.one_of(
                st.sampled_from([2.0, 0.001, 50.0]),
                st.floats(min_value=5e-324, max_value=1e308),
            )
        ),
        rule_mode=draw(st.sampled_from(RULE_MODES)),
        k_winners=draw(st.integers(min_value=1, max_value=min(5, population))),
    )
    mean = draw(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=-20, max_value=20),
            st.sampled_from(PLATEAU_MEANS),
        )
    )
    previous = draw(st.integers(min_value=1, max_value=10))
    expected = draw(st.integers(min_value=1, max_value=10))
    return config, mean, previous, expected


def seeded_step_cases():
    """20,000 seeded (config, mean, previous, expected) cases, k up to 64."""
    rng = random.Random(2024)
    for trial in range(20_000):
        # one case in a hundred at P = 100,000 keeps the oracle's cost down
        population = 100_000 if trial % 100 == 0 else rng.choice(ORACLE_POPULATIONS[:-1])
        config = LearnerConfig(
            population_size=population,
            max_deviant_adjust=rng.choice(
                [2.0, 0.001, 50.0, 1e300, 1e-300, 5e-324, rng.uniform(0.01, 100.0)]
            ),
            rule_mode=rng.choice(RULE_MODES),
            # 8 and more winners reach the unrolled blocks of numpy's summation
            k_winners=rng.randint(1, min(64, population)),
        )
        draw = rng.random()
        if draw < 0.2:
            mean = rng.choice(PLATEAU_MEANS)
        elif draw < 0.3:
            mean = rng.choice([-1, 1]) * 5e-324 * rng.randint(1, 1000)  # subnormal
        elif draw < 0.5:
            mean = rng.choice([-1, 1]) * 10 ** rng.uniform(-300, 308)
        elif draw < 0.6:
            mean = rng.choice([-1, 1]) * 1e17 * rng.random()
        elif draw < 0.7:
            mean = rng.randint(-40, 40) / 8
        else:
            mean = rng.uniform(-20.0, 20.0)
        yield config, mean, rng.randint(1, 10), rng.randint(1, 10)


class TestLearnStepAgainstTheOracle:
    """learn_step walks outwards from the best grid point; the oracle sorts the whole grid."""

    @given(case=step_cases())
    def test_hypothesis_cases(self, case):
        assert_step_matches_oracle(*case)

    def test_twenty_thousand_seeded_cases(self):
        for case in seeded_step_cases():
            assert_step_matches_oracle(*case)


# (rule, max_deviant_adjust, mean, previous, expected, where the bottom lies) for any P:
# each moves the candidates one way along the grid, so |residual| is lowest at one end
GRID_EDGE_STEPS = [
    # weakening muldiv, a target of the other sign: the far end, as on most computed steps
    (MULTIPLICATIVE_DIVISIVE, 2.0, 0.37, 4, 2, "last"),
    (MULTIPLICATIVE_DIVISIVE, 2.0, -0.5, 10, 5, "first"),  # weakening, -P / (i + 1)
    (MULTIPLICATIVE_DIVISIVE, 50.0, 0.5, 1, 2, "first"),  # reinforcing, 25 (i + 1) / P
    (MULTIPLICATIVE_DIVISIVE, 2.0, 0.5, 1, 9, "last"),  # reinforcing, (i + 1) / P
    (ADDITIVE_SUBTRACTIVE, 50.0, 0.0, 1, 2, "first"),
    (ADDITIVE_SUBTRACTIVE, 2.0, 0.0, 1, 9, "last"),
    (ADDITIVE_SUBTRACTIVE, 50.0, 0.0, 5, 4, "first"),
    (ADDITIVE_SUBTRACTIVE, 2.0, 0.0, 5, 1, "last"),
]


def oracle_bottom(config, mean, previous, expected):
    """The grid index of the oracle's first winner."""
    grid = make_adjustment_grid(config.population_size, config.max_deviant_adjust)
    candidates = adjust_candidates(mean, grid, (previous + mean) - expected, config.rule_mode)
    residuals = np.abs((previous + candidates) - expected)
    return int(np.lexsort((np.arange(grid.size), np.abs(candidates), residuals))[0])


class TestGridEdgeWindows:
    """The window around a bottom at either end of the grid, clipped to it, on small grids."""

    @pytest.mark.parametrize("rule, maximum, mean, previous, expected, end", GRID_EDGE_STEPS)
    @pytest.mark.parametrize("population", [1, 2, 3])
    @pytest.mark.parametrize("winners", ["one", "two", "all"])
    def test_a_bottom_at_either_end_matches_the_oracle(
        self, rule, maximum, mean, previous, expected, end, population, winners
    ):
        k_winners = {"one": 1, "two": min(2, population), "all": population}[winners]
        config = LearnerConfig(population_size=population, max_deviant_adjust=maximum,
                               rule_mode=rule, k_winners=k_winners)
        bottom = oracle_bottom(config, mean, previous, expected)
        assert bottom == (0 if end == "first" else population - 1)
        assert_step_matches_oracle(config, mean, previous, expected)

    @pytest.mark.parametrize("k_winners", [1, 2, 64])
    def test_the_far_end_of_the_benchmark_grid_matches_the_oracle(self, k_winners):
        config = LearnerConfig(population_size=100_000, rule_mode=MULTIPLICATIVE_DIVISIVE,
                               k_winners=k_winners)
        assert oracle_bottom(config, 0.37, 4, 2) == 99_999
        assert_step_matches_oracle(config, 0.37, 4, 2)


def step_result(config, mean, previous, expected):
    """learn_step's winners and new mean, or the error it raised."""
    learner = Learner(config)
    learner.deviant_mean = mean
    try:
        outcome = learner.learn_step(previous, expected)
    except NonFiniteStateError as error:
        return str(error)
    return [w.hex() for w in outcome.winner_candidates], outcome.new_deviant_mean.hex()


class TestSearchStart:
    """The winner search starts where the grid formula puts the residual's zero crossing."""

    @given(case=step_cases(), data=st.data())
    def test_any_start_gives_the_same_winners(self, case, data):
        config = case[0]
        start = data.draw(
            st.integers(min_value=-3, max_value=config.population_size + 3), label="start"
        )
        computed = step_result(*case)
        with mock.patch.object(Learner, "_crossing_index", lambda self, *args: start):
            assert step_result(*case) == computed

    def test_the_start_is_within_one_of_the_bottom(self):
        # The bottom is where the residual first reaches or passes zero,
        # or, if it keeps its sign, the end nearer zero.
        checked = 0
        for config, mean, previous, expected in seeded_step_cases():
            signed_diff = (previous + mean) - expected
            if signed_diff == 0:
                continue
            grid = make_adjustment_grid(config.population_size, config.max_deviant_adjust)
            rule_mode = config.rule_mode
            with np.errstate(all="ignore"):
                try:
                    candidates = adjust_candidates(mean, grid, signed_diff, rule_mode)
                except DegenerateDivisiveError:
                    rule_mode = ADDITIVE_SUBTRACTIVE
                    candidates = adjust_candidates(mean, grid, signed_diff, rule_mode)
                residuals = (previous + candidates) - expected
            if residuals.min() < 0 < residuals.max():
                side = residuals >= 0 if residuals[0] < 0 else residuals <= 0
                bottom = int(np.argmax(side))
            elif abs(residuals[0]) != abs(residuals[-1]):
                bottom = 0 if abs(residuals[0]) < abs(residuals[-1]) else grid.size
            else:
                continue
            learner = Learner(config)
            learner.deviant_mean = mean
            start = learner._crossing_index(expected - previous, signed_diff > 0, rule_mode,
                                            config.population_size, config.max_deviant_adjust)
            clamped = min(max(start, 0), config.population_size)
            assert abs(clamped - bottom) <= 1, (config, mean.hex(), previous, expected, start)
            checked += 1
        assert checked > 5_000

    @pytest.mark.parametrize("offset", [-2, 2])
    def test_a_start_two_from_the_computed_one_is_walked_without_ranking(self, offset):
        # the computed start is within one of the bottom, so the walk moves at most three times
        classes = stream_classes("learn-pop100k", 200)
        computed = [step_outcomes(NUMERIC, classes)]
        crossing = Learner._crossing_index
        with (
            mock.patch.object(Learner, "_crossing_index",
                              lambda self, *args: crossing(self, *args) + offset),
            mock.patch.object(learner_module, "_ranked", wraps=learner_module._ranked) as ranked,
        ):
            computed.append(step_outcomes(NUMERIC, classes))
        assert computed[0] == computed[1]
        assert ranked.call_count == 0


def step_outcomes(config, classes):
    """A fresh learner's outcome at each step of classes, with every real as its bit pattern."""
    learner = Learner(config)
    return [kept_fields(learner.learn_step(previous, expected))
            for previous, expected in zip(classes, classes[1:])]


def stream_classes(name, steps):
    """The first steps + 1 classes of a perfbench workload's seed-0 input, encoded by default."""
    workload = workloads.WORKLOADS[name]
    rows = workload.make_rows(random.Random(0), workload.rows)
    read = read_numeric_series if workload.numeric else read_text_corpus
    corpus = read(io.BytesIO(("\n".join(rows) + "\n").encode()), source=name)
    return encode_corpus(corpus.items, class_level=5, reference="last").classes.classes[: steps + 1]


MARKOV_STEPS = 5_000  # a prefix of predict-full's stream, with the default config
NUMERIC = LearnerConfig(population_size=100_000, rule_mode=MULTIPLICATIVE_DIVISIVE)


def kept_fields(outcome):
    """What a kept outcome must repeat, with every real as its bit pattern."""
    return (
        [winner.hex() for winner in outcome.winner_candidates],
        outcome.new_deviant_mean.hex(),
        outcome.raw_prediction.hex(),
        outcome.signed_diff.hex(),
        outcome.used_fallback,
    )


def assert_step_matches_a_fresh_learner(learner, previous, expected):
    """One step of learner against a fresh learner from the same mean, which keeps nothing yet."""
    reference = Learner(learner.config)
    reference.deviant_mean = learner.deviant_mean
    steps = learner.steps_seen + 1
    case = (learner.config, learner.deviant_mean.hex(), previous, expected)
    try:
        want = reference.learn_step(previous, expected)
    except NonFiniteStateError:
        with pytest.raises(NonFiniteStateError):
            learner.learn_step(previous, expected)
        return
    outcome = learner.learn_step(previous, expected)
    assert kept_fields(outcome) == kept_fields(want), case
    assert learner.deviant_mean.hex() == want.new_deviant_mean.hex(), case
    assert learner.steps_seen == steps, case


def assert_stream_matches_fresh_learners(config, classes):
    learner = Learner(config)
    for previous, expected in zip(classes, classes[1:]):
        assert_step_matches_a_fresh_learner(learner, previous, expected)
    return learner


@st.composite
def kept_outcome_configs(draw):
    return LearnerConfig(
        population_size=draw(st.sampled_from([8, 1000])),
        max_deviant_adjust=draw(st.sampled_from([2.0, 0.25])),
        rule_mode=draw(st.sampled_from(RULE_MODES)),
        bias=draw(st.sampled_from([0.0, -0.0, 0.37])),
        k_winners=draw(st.sampled_from([1, 3, 8])),
    )


class TestKeptOutcomes:
    """A learner returns the outcome it kept when a step's inputs repeat."""

    @given(
        config=kept_outcome_configs(),
        classes=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=80),
    )
    def test_drawn_streams_match_fresh_learners(self, config, classes):
        assert_stream_matches_fresh_learners(config, classes)

    def test_a_zero_mean_keeps_its_sign(self):
        # -0.0 == 0.0, but with a bias of -0.0 each steps to itself
        learner = Learner(LearnerConfig(bias=-0.0))
        for mean in (-0.0, 0.0, -0.0, 0.0):
            learner.deviant_mean = mean
            assert_step_matches_a_fresh_learner(learner, 3, 3)
            assert learner.deviant_mean.hex() == mean.hex()

    def test_a_repeat_returns_the_kept_outcome_and_counts_the_step(self):
        learner = Learner(LearnerConfig())
        first = learner.learn_step(1, 5)
        learner.deviant_mean = 0.0
        assert learner.learn_step(1, 5) is first
        assert learner.deviant_mean == first.new_deviant_mean == 2.0
        assert learner.steps_seen == 2

    def test_the_store_holds_at_most_memo_entries(self):
        learner = Learner(LearnerConfig())
        for step in range(MEMO_ENTRIES + 500):
            learner.deviant_mean = step / 7  # every step's inputs are new
            learner.learn_step(1, 5)
        assert len(learner._outcomes) == MEMO_ENTRIES
        assert learner.steps_seen == MEMO_ENTRIES + 500


def learner_state(learner):
    """The mean and step count a learner holds and the outcomes it keeps, reals as bit patterns."""
    kept = [(key, kept_fields(outcome)) for key, outcome in learner._outcomes.items()]
    return learner.deviant_mean.hex(), learner.steps_seen, kept


def means_or_error(run):
    """run()'s means as bit patterns, or the type, message and step of the error it raised."""
    try:
        return [mean.hex() for mean in run()]
    except NonFiniteStateError as error:
        return type(error), str(error), error.step


def assert_batch_matches_the_step_loop(learner, previous, expected):
    """learn_steps on a copy of learner against learn_step on each pair in turn, from one state."""
    batch = copy.deepcopy(learner)
    looped = means_or_error(
        lambda: [learner.learn_step(p, e).new_deviant_mean for p, e in zip(previous, expected)]
    )
    assert means_or_error(lambda: batch.learn_steps(previous, expected)) == looped
    assert learner_state(batch) == learner_state(learner)


# every mismatch overflows: two finite winners whose sum is not
OVERFLOWING = LearnerConfig(population_size=2, max_deviant_adjust=1.7e308, k_winners=2)


class TestLearnSteps:
    """Learner.learn_steps against a learn_step loop: the same means, step count and store."""

    @given(
        config=kept_outcome_configs() | st.just(OVERFLOWING),
        mean=st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.37]),
        warmup=st.lists(st.integers(min_value=1, max_value=4), max_size=20),
        classes=st.lists(st.integers(min_value=1, max_value=4), max_size=80),
    )
    # a zero mean keeps its sign under a bias of -0.0, in the store and the loop
    @example(config=LearnerConfig(bias=-0.0), mean=-0.0, warmup=[3, 3], classes=[3, 3, 3, 1, 3])
    # repeats answered from the store, then a step that raises
    @example(config=OVERFLOWING, mean=0.0, warmup=[3, 3], classes=[3, 3, 3, 3, 1, 5])
    def test_drawn_streams(self, config, mean, warmup, classes):
        learner = Learner(config)
        learner.deviant_mean = mean
        try:
            learner.learn_steps(warmup, warmup[1:])
        except NonFiniteStateError:
            return
        assert_batch_matches_the_step_loop(learner, classes, classes[1:])

    def test_a_full_store(self):
        learner = Learner(LearnerConfig())
        for step in range(MEMO_ENTRIES + 50):
            learner.deviant_mean = step / 7  # every step's inputs are new
            learner.learn_step(1, 5)
        learner.deviant_mean = 0.0
        classes = stream_classes("predict-full", 2_000)
        assert_batch_matches_the_step_loop(learner, classes, classes[1:])

    def test_a_store_that_fills_during_the_batch(self):
        # k = 4 on predict-full: 12,114 distinct step inputs, so the store fills partway
        learner = Learner(LearnerConfig(k_winners=4))
        classes = stream_classes("predict-full", workloads.WORKLOADS["predict-full"].rows)
        assert_batch_matches_the_step_loop(learner, classes, classes[1:])

    @pytest.mark.parametrize("bias,mean", [(0.0, 0.0), (-0.0, -0.0)])
    def test_only_a_new_step_calls_learn_step(self, bias, mean):
        learner = Learner(LearnerConfig(bias=bias))
        learner.deviant_mean = mean
        classes = stream_classes("predict-full", MARKOV_STEPS)
        with mock.patch.object(learner, "learn_step", wraps=learner.learn_step) as step:
            learner.learn_steps(classes, classes[1:])
        assert step.call_count == len(learner._outcomes) < MEMO_ENTRIES
        assert learner.steps_seen == MARKOV_STEPS


# Reals whose sums round, cancel, underflow and overflow.
EDGE_REALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
              1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def winner_tuples(draw):
    """1-10,000 reals of mixed signs: a drawn head, then a seeded tail at one drawn scale."""
    head = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                         | st.sampled_from(EDGE_REALS), max_size=20))
    count = draw(st.integers(min_value=max(1, len(head)), max_value=10_000))
    rng = draw(st.randoms(use_true_random=False))
    scale = draw(st.sampled_from([1.0, 1e-310, 1e16, 1e307]))
    return tuple(head + [rng.uniform(-1.0, 1.0) * scale for _ in range(count - len(head))])


class TestWinnersMean:
    """_mean is numpy's pairwise float64 sum written out; numpy's mean is the reference."""

    @given(winner_tuples())
    @example((-0.0,) * 14)
    @example((1.0,) + (1e-16,) * 7)  # eight: a tree of sums, where adding in order gives 1.0
    @example((1e308,) * 9)
    @example((-1e308,) * 129 + (1e308,))
    @example(tuple(range(1, 1_000)))
    # 130 winners, which numpy splits 64 + 66
    @example(tuple(random.Random(1).uniform(-1.0, 1.0) for _ in range(130)))
    # a split at 65 would add the 1e16 to the first 1.0, not to the second, and give 0.0
    @example((1.0,) + (0.0,) * 63 + (1e16,) + (0.0,) * 63 + (1.0, -1e16))
    def test_one_to_ten_thousand_winners_match_numpy_bit_for_bit(self, winners):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(np.mean(np.array(winners)))
        assert learner_module._mean(winners).hex() == expected.hex()

    def test_an_overflowing_sum_is_inf(self):
        assert learner_module._mean((1e308,) * 9) == math.inf
        assert learner_module._mean((-1.7e308,) * 200) == -math.inf

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(EDGE_REALS),
            ),
            min_size=2,
            max_size=7,
        )
    )
    @example([-0.0, -0.0])
    @example([1.7e308, 1.7e308])
    @example([-1.7e308, -1.7e308, 1.0])
    def test_two_to_seven_winners_match_numpy(self, winners):
        with np.errstate(over="ignore"):
            expected = float(np.mean(np.array(winners)))
        assert learner_module._mean(tuple(winners)).hex() == expected.hex()

    @pytest.mark.parametrize("k_winners", range(3, 9))
    def test_an_overflowing_sum_of_winners_is_a_named_error(self, k_winners):
        # every winner is finite, their sum is not; TestNonFiniteState has k = 2
        learner = Learner(
            LearnerConfig(population_size=k_winners, max_deviant_adjust=1.7e308,
                          k_winners=k_winners)
        )
        with pytest.raises(NonFiniteStateError):
            learner.learn_step(1, 5)


def stepped_part(offset, slope, grid, rising):
    """i -> (offset + slope * i) // grid, negated unless rising: monotone, in runs of ties."""
    sign = 1 if rising else -1
    return lambda index: float(sign * ((offset + slope * index) // grid))


# (offset, slope, grid) of a stepped part
STEPPED = st.tuples(st.integers(min_value=-90, max_value=30), st.integers(min_value=0, max_value=6),
                    st.integers(min_value=1, max_value=6))


class TestRanked:
    """_ranked against a full sort of its range by (|first part|, |second part|, index)."""

    @given(
        start=st.integers(min_value=0, max_value=30),
        length=st.integers(min_value=1, max_value=60),
        rising=st.booleans(),
        first=STEPPED,
        second=STEPPED,
        count=st.integers(min_value=1, max_value=64),  # past length too: the whole range
    )
    # |first part| ties across the bottom, where |second part| ranks the right run first
    @example(start=3, length=20, rising=True, first=(-30, 2, 6), second=(-40, 1, 3), count=7)
    @example(start=3, length=20, rising=False, first=(-30, 2, 6), second=(-40, 1, 3), count=7)
    @example(start=3, length=20, rising=True, first=(-30, 2, 6), second=(-10, 1, 3), count=20)
    def test_the_first_k_of_a_full_sort(self, start, length, rising, first, second, count):
        first, second = stepped_part(*first, rising), stepped_part(*second, rising)
        stop = start + length
        expected = sorted(range(start, stop),
                          key=lambda index: (abs(first(index)), abs(second(index)), index))
        ranked = learner_module._ranked(start, stop, count, (first, second), rising)
        assert ranked == expected[:count]


class TestBenchmarkStreams:
    """learn_step against the oracle on the class streams the benchmark runs."""

    @pytest.mark.parametrize(
        "name,steps,config",
        [("predict-full", MARKOV_STEPS, LearnerConfig()), ("learn-pop100k", 200, NUMERIC)],
    )
    def test_every_step_matches_the_oracle(self, name, steps, config):
        classes = stream_classes(name, steps)
        learner = Learner(config)
        for previous, expected in zip(classes, classes[1:]):
            winners, new_mean, _ = oracle_step(config, learner.deviant_mean, previous, expected)
            outcome = learner.learn_step(previous, expected)
            assert [w.hex() for w in outcome.winner_candidates] == [w.hex() for w in winners]
            assert outcome.new_deviant_mean.hex() == new_mean.hex()

    @pytest.mark.parametrize(
        "name,config",
        [
            ("predict-full", LearnerConfig()),
            ("learn-pop100k", NUMERIC),
            # 12,114 distinct step inputs: the store fills, later steps are computed
            ("predict-full", LearnerConfig(k_winners=4)),
        ],
    )
    def test_kept_outcomes_match_fresh_learners(self, name, config):
        classes = stream_classes(name, workloads.WORKLOADS[name].rows)
        learner = assert_stream_matches_fresh_learners(config, classes)
        assert learner.steps_seen == len(classes) - 1
        if config.k_winners == 4:
            assert len(learner._outcomes) == MEMO_ENTRIES

    def test_the_walk_alone_serves_the_markov_stream(self):
        classes = stream_classes("predict-full", MARKOV_STEPS)
        learner = Learner(LearnerConfig())
        with mock.patch.object(learner_module, "_ranked", wraps=learner_module._ranked) as ranked:
            for previous, expected in zip(classes, classes[1:]):
                learner.learn_step(previous, expected)
        assert ranked.call_count == 0

    def test_plateaus_go_to_ranked(self):
        with mock.patch.object(learner_module, "_ranked", wraps=learner_module._ranked) as ranked:
            for case in seeded_step_cases():
                if case[1] in PLATEAU_MEANS:
                    step_result(*case)
        assert ranked.call_count >= 1


class TestStepCost:
    def test_one_step_allocates_nothing_population_sized(self):
        learner = Learner(
            LearnerConfig(population_size=1_000_000, rule_mode=MULTIPLICATIVE_DIVISIVE)
        )
        learner.deviant_mean = 0.37
        learner.learn_step(1, 4)
        tracemalloc.start()
        try:
            learner.learn_step(4, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_a_run_of_kept_steps_allocates_nothing_that_grows(self):
        learner = Learner(LearnerConfig())
        pairs = [(1, 5), (5, 1)] * 5_000  # the mean cycles 0.0 -> 2.0 -> 0.0
        for previous, expected in pairs[:4]:
            learner.learn_step(previous, expected)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for previous, expected in pairs:
                learner.learn_step(previous, expected)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(learner._outcomes) == 2
        assert held - before < 1024
        assert peak - before < 4096


class TestLargestPopulation:
    @pytest.mark.parametrize("k_winners", [1, 3])
    def test_a_plateau_at_sys_maxsize_still_steps(self, k_winners):
        # every candidate rounds to the mean, so the whole grid is one tied run
        learner = Learner(LearnerConfig(population_size=sys.maxsize, k_winners=k_winners))
        learner.deviant_mean = 1e17
        outcome = learner.learn_step(1, 5)
        assert outcome.winner_candidates == (1e17,) * k_winners
        assert outcome.new_deviant_mean == 1e17


class TestNonFiniteState:
    def test_an_overflowing_mean_is_a_named_error(self):
        # both winners are finite, their sum is not
        learner = Learner(
            LearnerConfig(population_size=2, max_deviant_adjust=1.7e308, k_winners=2)
        )
        with pytest.raises(NonFiniteStateError) as info:
            learner.learn_step(1, 5)
        assert info.value.step == 1
        assert "learner step 1" in str(info.value)
