import math

import numpy as np
import pytest

import reference as ref
from shapley_forge.diagnostics import (
    BiasedDist,
    anticonc_biased,
    anticonc_mu,
    balanced_fraction,
    balanced_prefix_bound,
    distance_report,
    littlewood_offord_bound,
    ltf_distance_report,
)
from shapley_forge.games import VotingGame, ltf_fn


def test_anticonc_mu_exact_small_cases():
    maj = VotingGame(np.ones(3), 0.0)
    # support scores are +-1 only, so nothing falls strictly inside r=0.5
    rep = anticonc_mu(maj, 0.5)
    assert rep.method == "exact"
    assert rep.estimate == 0.0
    rep = anticonc_mu(maj, 1.5)
    assert rep.estimate == pytest.approx(1.0, abs=1e-12)


def test_anticonc_mu_matches_reference(rng):
    for _ in range(5):
        n = int(rng.integers(3, 7))
        w = rng.integers(-4, 5, size=n).astype(float)
        theta = float(rng.integers(-3, 4))
        r = float(rng.uniform(0.25, 2.5))
        rep = anticonc_mu(VotingGame(w, theta), r)
        want = ref.anticonc_mass(w, theta, r)
        assert rep.estimate == pytest.approx(want, abs=1e-12)


def test_anticonc_mu_sampled_path_tracks_exact():
    w = np.ones(16)
    g = VotingGame(w, 0.0)
    rep = anticonc_mu(g, 1.0, samples=150_000, seed=0)
    assert rep.method == "sampled"
    # scores are even integers; |s| < 1 means s = 0, weight-8 slice only
    from shapley_forge.mu import mu_pmf

    exact = math.comb(16, 8) * mu_pmf(16, 8)
    assert abs(rep.estimate - exact) <= 5 * rep.stderr + 1e-9


def test_sample_budget_applies_only_to_sampled_paths():
    huge = 10**12  # would allocate terabytes if drawn
    small, large = VotingGame(np.ones(5), 0.0), VotingGame(np.ones(25), 0.0)
    assert anticonc_mu(small, 1.0, samples=huge).method == "exact"
    assert balanced_fraction(0.0, np.ones(5), 2, 1.0, samples=huge).method == "exact"
    assert anticonc_biased(small, 1.0, BiasedDist(5, 0.3), samples=huge)[0].method == "exact"
    with pytest.raises(ValueError, match="budget"):
        anticonc_mu(large, 1.0, samples=huge)
    with pytest.raises(ValueError, match="budget"):
        balanced_fraction(0.0, np.ones(25), 2, 1.0, samples=huge)
    with pytest.raises(ValueError, match="budget"):
        anticonc_biased(large, 1.0, BiasedDist(25, 0.3), samples=huge)
    with pytest.raises(ValueError, match="at least 1"):
        anticonc_mu(small, 1.0, samples=0)


def test_balanced_fraction_matches_reference(rng):
    for _ in range(5):
        n = int(rng.integers(3, 8))
        i = int(rng.integers(1, n))
        w = rng.integers(0, 5, size=n).astype(float)
        w0 = float(rng.integers(-3, 4))
        r = float(rng.uniform(0.0, 3.0))
        rep = balanced_fraction(w0, w, i, r)
        assert rep.method == "exact"
        want = ref.balanced_split_fraction(w0, w, i, r)
        assert rep.estimate == pytest.approx(want, abs=1e-12)


def test_balanced_fraction_frozen_case():
    # weights (2,1,1), singleton prefixes, offset 0, r=0: only the voter with
    # weight 2 balances 2 vs 1+1
    rep = balanced_fraction(0.0, [2.0, 1.0, 1.0], 1, 0.0)
    assert rep.estimate == pytest.approx(1.0 / 3.0, abs=1e-13)


@pytest.mark.parametrize(
    "w0, weights",
    [
        (math.nan, [2.0, 1.0, 1.0]),
        (-math.inf, [2.0, 1.0, 1.0]),
        (0.0, [2.0, math.inf, 1.0]),
        (0.0, [2.0, 1.0, math.nan]),
        (math.inf, np.ones(20)),  # past BALANCED_EXACT_CAP: the sampled path
    ],
    ids=["nan-w0", "-inf-w0", "inf-weight", "nan-weight", "sampled"],
)
def test_balanced_fraction_refuses_non_finite_inputs(w0, weights):
    with pytest.raises(ValueError, match="finite"):
        balanced_fraction(w0, weights, 1, 1.0, samples=100)


def test_balanced_prefix_bound_values():
    assert balanced_prefix_bound(10, 3, 0.1) == pytest.approx(12.0)
    assert balanced_prefix_bound(10, 9, 0.5) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        balanced_prefix_bound(10, 3, 0.0)


def test_balanced_bound_holds_on_reasonable_games(rng):
    # premise: monotone, eta-reasonable, total weight at least (2/eta) * r
    eta = 0.25
    for _ in range(10):
        n = int(rng.integers(4, 9))
        w = rng.uniform(0.5, 2.0, size=n)
        r = eta * w.sum() / 2.0 * rng.uniform(0.0, 1.0)
        i = int(rng.integers(1, n))
        rep = balanced_fraction(0.0, w, i, r)
        assert rep.estimate <= balanced_prefix_bound(n, i, eta) + 1e-12


def test_littlewood_offord_bound_shapes():
    assert littlewood_offord_bound([0.1, 0.1], 1.0, 0.4) == math.inf
    got = littlewood_offord_bound([3.0, 3.0, 3.0, 3.0], 1.0, 0.375)
    assert got == pytest.approx(1.0 / math.sqrt(4 * 0.375 * 0.625), abs=1e-13)


def test_anticonc_biased_exact_and_bound(rng):
    for _ in range(6):
        n = int(rng.integers(4, 10))
        w = rng.uniform(0.5, 3.0, size=n)
        g = VotingGame(w, float(rng.uniform(-1, 1)))
        dist = BiasedDist(n, float(rng.uniform(0.2, 0.8)))
        r = float(rng.uniform(0.1, 0.6))
        rep, bound, violated = anticonc_biased(g, r, dist)
        assert rep.method == "exact"
        assert 0.0 <= rep.estimate <= 1.0
        assert not violated


def test_anticonc_biased_sampled_path():
    n = 16
    g = VotingGame(np.ones(n), 0.0)
    dist = BiasedDist(n, 0.375)
    rep, bound, violated = anticonc_biased(g, 1.0, dist, samples=120_000, seed=1)
    assert rep.method == "sampled"
    # score 2k-16 vanishes at k=8 heads; binomial point mass with p=0.375
    exact = math.comb(16, 8) * 0.375**8 * 0.625**8
    assert abs(rep.estimate - exact) <= 5 * rep.stderr + 1e-9
    assert not violated


def test_biased_dist_validation():
    with pytest.raises(ValueError):
        BiasedDist(4, 0.0)
    with pytest.raises(ValueError):
        BiasedDist(4, 1.0)


def test_distance_report_frozen_pair():
    maj = VotingGame(np.ones(3), 0.0)
    dic = VotingGame(np.array([1.0, 0.0, 0.0]), 0.5)
    rep = ltf_distance_report(maj, dic)
    assert rep.d_shapley == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)
    assert rep.shapley_slack >= 0.0
    assert rep.fourier_slack >= 0.0


def test_distance_report_identical_games():
    g = VotingGame(np.array([2.0, 1.0, 1.0, 1.0]), 0.5)
    rep = ltf_distance_report(g, g)
    assert rep.d_shapley == 0.0
    assert rep.d_fourier == 0.0
    assert rep.corr_gap == 0.0


def test_transfer_bounds_hold_on_fuzzed_pairs(rng):
    for _ in range(15):
        n = int(rng.integers(3, 9))
        f = VotingGame(rng.uniform(-1, 1, n), float(rng.uniform(-0.5, 0.5)))
        g = VotingGame(rng.uniform(-1, 1, n), float(rng.uniform(-0.5, 0.5)))
        rep = distance_report(ltf_fn(f), ltf_fn(g), n)
        assert rep.shapley_slack >= -1e-12
        assert rep.fourier_slack >= -1e-12
        assert rep.shapley_bound == pytest.approx(rep.d_shapley + rep.shapley_slack, abs=1e-12)
        assert rep.fourier_bound == pytest.approx(rep.d_fourier + rep.fourier_slack, abs=1e-12)


def test_distance_report_dimension_guards():
    f = VotingGame(np.ones(3), 0.0)
    g = VotingGame(np.ones(4), 0.0)
    with pytest.raises(ValueError):
        ltf_distance_report(f, g)
