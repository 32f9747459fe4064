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
from shapley_forge.games import VotingGame, ltf_fn
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
