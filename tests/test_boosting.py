import math

import numpy as np
import pytest

from shapley_forge import boosting
from shapley_forge.boosting import (
    BoostState,
    BoostTargets,
    boost,
    exact_dp_oracle,
    exact_enum_oracle,
    game_from_net,
    sampled_oracle,
)
from shapley_forge.games import VotingGame, ltf_fn
from shapley_forge.mu import degree1_moment_matrix, enumerate_support, exact_correlations


def _realizable_targets(rng, n: int, xi: float) -> BoostTargets:
    g = VotingGame(rng.uniform(-1, 1, n), float(rng.uniform(-0.3, 0.3)))
    return BoostTargets(a=exact_correlations(ltf_fn(g), n), xi=xi)


def _append(state: BoostState, j: int, sign: int) -> None:
    state.net[j] += sign
    state.t += 1


def _clipped(state: BoostState):
    """The state's clipped form x -> clip(gamma * (net_0 + net . x), -1, 1)."""
    net, gamma = state.net.copy(), state.gamma
    return lambda X: np.clip(gamma * (X @ net[1:] + net[0]), -1.0, 1.0)


def test_gamma_is_half_xi():
    t = BoostTargets(a=np.zeros(4), xi=0.1)
    assert t.gamma == pytest.approx(0.05)
    assert t.n == 3


def test_zero_iterations_when_targets_already_met():
    n = 4
    a = np.zeros(n + 1)
    res = boost(BoostTargets(a=a, xi=0.1), exact_enum_oracle(n))
    assert res.converged
    assert res.iterations == 0
    assert np.array_equal(res.state.net, np.zeros(n + 1, dtype=np.int64))


def test_state_translation_frozen_case():
    # two appends of -x0 and one of +x2 at gamma 0.1
    state = BoostState(n=3, gamma=0.1)
    _append(state, 0, -1)
    _append(state, 0, -1)
    _append(state, 2, +1)
    g = game_from_net(state.net)
    assert g.weights.tolist() == [0.0, 1.0, 0.0]
    assert g.threshold == 2.0


def test_boost_converges_on_realizable_targets(rng):
    for n in (4, 6):
        for _ in range(3):
            targets = _realizable_targets(rng, n, xi=0.1)
            res = boost(targets, exact_enum_oracle(n))
            assert res.converged
            final = np.abs(targets.a - res.correlations).max()
            assert final <= targets.gamma + 1e-12
            assert res.iterations <= math.ceil(64.0 / targets.xi**2)


def test_every_appended_literal_was_a_real_violation(rng):
    # watch the loop through its oracle: each round appends one literal, on
    # the worst slot, with the sign of a violation larger than gamma
    targets = _realizable_targets(rng, 5, xi=0.08)
    oracle, seen = exact_enum_oracle(5), []

    def watching(state):
        seen.append((state.net.copy(), oracle(state)))
        return seen[-1][1]

    res = boost(targets, watching)
    assert res.converged
    assert len(seen) == res.iterations + 1
    for (before, corr), (after, _) in zip(seen, seen[1:]):
        viol = targets.a - corr
        j = int(np.argmax(np.abs(viol)))
        assert abs(viol[j]) > targets.gamma
        step = np.zeros_like(before)
        step[j] = 1 if viol[j] > 0 else -1
        assert np.array_equal(after - before, step)


def test_no_cancellation_of_appends(rng):
    # net literal counts account for every iteration: the left-out direction
    # of each slot is never touched
    for seed in range(4):
        local = np.random.default_rng(seed)
        targets = _realizable_targets(local, 5, xi=0.06)
        res = boost(targets, exact_enum_oracle(5))
        assert res.converged
        assert int(np.abs(res.state.net).sum()) == res.iterations


def test_iteration_cap_returns_unconverged():
    n = 4
    a = np.full(n + 1, 1.0)  # jointly unreachable correlations
    res = boost(BoostTargets(a=a, xi=0.1), exact_enum_oracle(n), cap=25)
    assert not res.converged
    assert res.iterations == res.state.t == 25


def test_stall_window_stops_gracefully():
    n = 4
    a = np.full(n + 1, 1.0)
    res = boost(BoostTargets(a=a, xi=0.1), exact_enum_oracle(n), stall_window=20)
    assert not res.converged
    assert res.iterations <= 2000


def test_oracles_agree(rng):
    n = 6
    state = BoostState(n=n, gamma=0.05)
    for _ in range(40):
        _append(state, int(rng.integers(0, n + 1)), 1 if rng.random() < 0.5 else -1)
    enum = exact_enum_oracle(n)(state)
    dp = exact_dp_oracle(n)(state)
    assert np.allclose(enum, dp, atol=1e-12)
    truth = exact_correlations(_clipped(state), n)
    assert np.allclose(enum, truth, atol=1e-12)


def test_dp_oracle_matches_enumeration_on_sign_games(rng):
    # at gamma = 1 an odd integer score never clips inside (-1, 1), so the
    # oracle's clipped form is the sign game sign(w.x - theta) itself
    for n in (4, 7, 10):
        for _ in range(3):
            w = rng.integers(-6, 7, size=n)
            theta = float(rng.integers(-4, 5)) - 0.5
            g = VotingGame(w.astype(float), theta)
            net = np.concatenate([[-2 * theta], 2 * w]).astype(np.int64)
            state = BoostState(n=n, gamma=1.0, net=net)
            got = exact_dp_oracle(n)(state)
            assert np.allclose(got, exact_correlations(ltf_fn(g), n), atol=1e-12)


def test_sampled_oracle_is_within_contract():
    n = 5
    xi = 0.4
    state = BoostState(n=n, gamma=xi / 2.0)
    _append(state, 1, 1)
    _append(state, 2, 1)
    exact = exact_enum_oracle(n)(state)
    est = sampled_oracle(n, xi, 1e-3, seed=0)(state)
    assert np.abs(est - exact).max() <= xi / 16.0


@pytest.mark.parametrize("n, gamma", [(3, 0.3), (5, 0.05), (8, 0.1), (10, 0.013)])
def test_sampled_oracle_samples_the_exact_clipped_form(monkeypatch, n, gamma):
    # the callable the sampled oracle hands its estimator is clip(gamma * S)
    # of the integer score S the exact oracle reads, bit for bit
    seen = []
    inner = boosting.estimate_correlations
    monkeypatch.setattr(boosting, "estimate_correlations", lambda fn, *args: seen.append(fn) or inner(fn, *args))
    rng = np.random.default_rng(n)
    Xext = np.ones((2**n - 2, n + 1), dtype=np.int64)
    Xext[:, 1:] = enumerate_support(n)
    for _ in range(6):
        net = rng.integers(-40, 41, size=n + 1)
        sampled_oracle(n, 0.5, 0.1, seed=0)(BoostState(n=n, gamma=gamma, net=net))
        want = np.clip(gamma * (Xext @ net), -1.0, 1.0)
        assert np.array_equal(seen[-1](enumerate_support(n)), want)
    assert len(seen) == 6


def test_boost_with_sampled_oracle_still_converges(rng):
    targets = _realizable_targets(rng, 4, xi=0.2)
    res = boost(targets, sampled_oracle(4, 0.2, 1e-4, seed=1))
    assert res.converged
    exact = exact_correlations(_clipped(res.state), 4)
    # stop rule sees estimates, so allow the oracle slack on top of gamma
    assert np.abs(targets.a - exact).max() <= targets.gamma + 0.2 / 16.0


def test_targets_validation():
    with pytest.raises(ValueError):
        BoostTargets(a=np.zeros(3), xi=0.0)
    with pytest.raises(ValueError):
        BoostTargets(a=np.zeros((2, 2)), xi=0.1)


@pytest.mark.parametrize("xi", [1e-160, 1e-200])
def test_targets_refuse_a_round_cap_that_is_not_finite(xi):
    # 64/xi^2 overflows at 1e-160, and xi^2 underflows to 0 at 1e-200
    with pytest.raises(ValueError, match="round cap"):
        BoostTargets(a=np.zeros(4), xi=xi)


@pytest.mark.parametrize("n", [20, 70])
def test_dp_oracle_is_exact_on_unclipped_nets(rng, n):
    # when gamma * |w.x + c0| <= 1 everywhere nothing clips, and the
    # correlations are gamma times the second moments times the net;
    # at n = 70 weights in {-1, 0, 1} put counts past int64 in one cell
    net = rng.integers(-1, 2, size=n + 1)
    state = BoostState(n=n, gamma=1.0 / int(np.abs(net).sum()), net=net)
    want = state.gamma * (degree1_moment_matrix(n) @ net)
    assert np.allclose(exact_dp_oracle(n)(state), want, rtol=0, atol=1e-12)
