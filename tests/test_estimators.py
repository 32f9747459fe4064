import math

import numpy as np
import pytest

from shapley_forge.estimators import (
    EstimateConfig,
    correlation_sample_count,
    estimate_correlations,
    estimate_shapley,
    estimate_shapley_fixed,
    shapley_sample_count,
)
from shapley_forge import games
from shapley_forge.games import VotingGame, ltf_fn, ltf_values
from shapley_forge.indices import shapley_exact_truthtable
from shapley_forge.mu import exact_correlations


def test_sample_counts_frozen():
    # ceil(2(n+1) ln(2(n+1)/delta) / gamma^2) and ceil(8n ln(2n/delta) / gamma^2)
    assert correlation_sample_count(3, 0.1, 0.01) == 5348
    assert shapley_sample_count(3, 0.1, 0.01) == 15353
    assert correlation_sample_count(5, 0.1, 0.01) == 8509
    assert shapley_sample_count(5, 0.1, 0.01) == 27632


def test_sample_counts_formulae():
    n, gamma, delta = 7, 0.05, 0.02
    want_c = math.ceil(2 * (n + 1) * math.log(2 * (n + 1) / delta) / gamma**2)
    want_s = math.ceil(8 * n * math.log(2 * n / delta) / gamma**2)
    assert correlation_sample_count(n, gamma, delta) == want_c
    assert shapley_sample_count(n, gamma, delta) == want_s


def test_config_validation():
    with pytest.raises(ValueError):
        EstimateConfig(gamma=0.0, delta=0.1)
    with pytest.raises(ValueError):
        EstimateConfig(gamma=0.1, delta=0.0)
    with pytest.raises(ValueError):
        EstimateConfig(gamma=0.1, delta=1.5)


@pytest.mark.parametrize(
    "kwargs", [{"gamma": math.inf}, {"gamma": math.nan}, {"seed": -1}], ids=["inf", "nan", "seed"]
)
def test_config_rejects_non_finite_gamma_and_negative_seed(kwargs):
    with pytest.raises(ValueError):
        EstimateConfig(**kwargs)


def test_correlation_estimates_hit_tolerance():
    g = VotingGame(np.ones(5), 0.0)
    exact = exact_correlations(ltf_fn(g), 5)
    misses = 0
    for seed in range(10):
        cfg = EstimateConfig(gamma=0.1, delta=0.01, seed=seed)
        est, m = estimate_correlations(ltf_fn(g), 5, cfg)
        assert m == correlation_sample_count(5, 0.1, 0.01)
        if np.abs(est - exact).max() > 0.1:
            misses += 1
    assert misses == 0


def test_shapley_estimates_hit_tolerance():
    g = VotingGame(np.array([3.0, 2.0, 1.0, 1.0]), 0.5)
    exact = shapley_exact_truthtable(ltf_fn(g), 4).shapley
    misses = 0
    for seed in range(10):
        cfg = EstimateConfig(gamma=0.1, delta=0.01, seed=seed)
        est, m = estimate_shapley(ltf_fn(g), 4, cfg)
        assert m == shapley_sample_count(4, 0.1, 0.01)
        if np.abs(est - exact).max() > 0.1:
            misses += 1
    assert misses == 0


def test_shapley_estimator_is_unbiased_telescoper():
    # each sampled order contributes jumps that telescope to f_top - f_bottom,
    # so the estimate sums to exactly 2 for any +-1 game with f(1)=1, f(-1)=-1
    g = VotingGame(np.array([2.0, 1.0, 1.0]), 0.0)
    est = estimate_shapley_fixed(ltf_fn(g), 3, 500, seed=3)
    assert est.sum() == pytest.approx(2.0, abs=1e-12)


def test_fixed_estimator_is_deterministic():
    g = VotingGame(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 1.5)
    a = estimate_shapley_fixed(ltf_fn(g), 5, 4000, seed=11)
    b = estimate_shapley_fixed(ltf_fn(g), 5, 4000, seed=11)
    c = estimate_shapley_fixed(ltf_fn(g), 5, 4000, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_estimators_work_on_bounded_functions():
    # the correlation estimator must accept non-sign functions too
    w = np.array([0.3, -0.2, 0.1, 0.4, 0.05, -0.15])

    def fn(X):
        return np.clip(X @ w, -1.0, 1.0)

    exact = exact_correlations(fn, 6)
    cfg = EstimateConfig(gamma=0.08, delta=0.01, seed=0)
    est, _ = estimate_correlations(fn, 6, cfg)
    assert np.abs(est - exact).max() <= 0.08


def _counting(monkeypatch, name):
    """Count the rows that games.<name> scores from here on."""
    rows = []
    inner = getattr(games, name)
    monkeypatch.setattr(games, name, lambda g, X: rows.append(len(X)) or inner(g, X))
    return rows


@pytest.mark.parametrize(
    "weights, threshold",
    [
        ([3, -2, 0, 5, -1, 4, 0, 2], 1.5),
        ([1, -1, 2, 0, -2], 0.0),  # the empty and the full prefix score exactly 0
        ([2, 2, -1, 1, 0, 0], 2.0),  # prefixes that score 2 tie at sign(0) = +1
        ([-4, -1, -3, -2], -7.0),  # all negative
        ([0, 0, 0], 0.0),  # every prefix scores 0
        ([7, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], 3.0),
    ],
)
def test_prefix_sums_match_the_generic_sweep_bit_for_bit(monkeypatch, weights, threshold):
    game = VotingGame(np.array(weights, dtype=np.float64), threshold)
    n = game.n
    generic = estimate_shapley_fixed(lambda X: ltf_values(game, X), n, 3000, seed=9)
    cfg = EstimateConfig(gamma=0.5, delta=0.1, seed=9)
    generic_cfg = estimate_shapley(lambda X: ltf_values(game, X), n, cfg)
    rows = _counting(monkeypatch, "ltf_values")
    assert np.array_equal(estimate_shapley_fixed(ltf_fn(game), n, 3000, seed=9), generic)
    est, m = estimate_shapley(ltf_fn(game), n, cfg)
    assert m == generic_cfg[1] and np.array_equal(est, generic_cfg[0])
    assert rows == []  # the game's weights were read, its evaluator never called


@pytest.mark.parametrize(
    "weights",
    [[0.5, 1.0, 2.0, 1.0], [1.0, 2.0**51, 2.0**51, 3.0]],  # a fraction; sum |w| = 2^52 + 4
    ids=["fractional", "past-2^52"],
)
def test_other_sign_games_go_through_their_evaluator(monkeypatch, weights):
    rows = _counting(monkeypatch, "ltf_values")
    estimate_shapley_fixed(ltf_fn(VotingGame(np.array(weights), 0.25)), 4, 10, seed=1)
    assert sum(rows) == 10 * 5


def test_bounded_functions_go_through_their_evaluator():
    rows = []

    def clipped(X):
        rows.append(len(X))
        return np.clip(X @ np.array([1.0, 2.0, 3.0]), -1.0, 1.0)

    estimate_shapley_fixed(clipped, 3, 10, seed=1)
    assert sum(rows) == 10 * 4
