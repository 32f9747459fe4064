"""The packed grid engine against the plain masked lockstep reference.

Both engines run the same grid with the same refresh; after every step the
finished rows and every per-row array must be bit-identical.
"""

import numpy as np
import pytest

from reference import LockstepEngine, RoundCapError
from shapley_forge import solver
from shapley_forge.boosting import IterationCapError
from shapley_forge.games import QuotaGame
from shapley_forge.indices import shapley_exact_dp
from shapley_forge.mu import degree1_moment_matrix
from shapley_forge.solver import _GridEngine, _support_refresh

STATE = ("net", "corr", "t", "converged", "alive", "dense")


def _random_grid(seed: int, n: int, grid_step: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    weights = tuple(int(w) for w in rng.integers(0, 10, n))
    target = shapley_exact_dp(QuotaGame(weights, sum(weights) // 2 + 1)).shapley
    A, _, _ = solver._target_rows(target, 2.0 / n, solver._grid_axis(grid_step))
    return A


def _pair(n, A, gamma, *, lin_cap=None, **kwargs):
    refresh = _support_refresh(n, gamma)
    eng = _GridEngine(n, A, gamma, refresh, **kwargs)
    ref = LockstepEngine(n, A, gamma, degree1_moment_matrix(n), refresh, **kwargs)
    if lin_cap is not None:
        eng.lin_cap = ref.lin_cap = lin_cap
    return eng, ref


def _assert_same_state(eng, ref):
    eng.copy_back()
    for name in STATE:
        assert np.array_equal(getattr(eng, name), getattr(ref, name)), name


def _step_both(eng, ref, max_steps=5000) -> int:
    for k in range(max_steps):
        if not ref.alive.any():
            return k
        assert eng.step() == ref.step()
        _assert_same_state(eng, ref)
    raise AssertionError("the reference did not finish")


@pytest.mark.parametrize(
    "seed, n, xi, kwargs",
    [
        (1, 8, 0.02, {"lin_cap": 10**9}),  # linear only
        (2, 9, 0.01, {"lin_cap": 10**9}),
        (3, 8, 0.02, {"lin_cap": 3}),  # dense after a few appends
        (4, 7, 0.05, {"lin_cap": 3}),
        (5, 8, 0.02, {"stall_window": 8}),  # many rows stall
        (6, 10, 0.05, {}),  # default cap: some rows go dense on their own
    ],
)
def test_packed_engine_is_bit_identical_per_step(seed, n, xi, kwargs):
    A = _random_grid(seed, n, 0.25)
    eng, ref = _pair(n, A, xi / 2.0, **kwargs)
    steps = _step_both(eng, ref)
    assert steps > 0 and not eng.alive.any()
    if kwargs.get("lin_cap") == 3:
        assert ref.dense.any()
    if kwargs.get("lin_cap") == 10**9:
        assert not ref.dense.any()
    if "stall_window" in kwargs:
        assert (~ref.converged).sum() > 0


def test_packed_engine_stalls_at_the_earliest_round():
    # equal leading violations in slots 0 and 1: an append on slot 0 leaves
    # slot 1 as it was, so those rows stall at round stall_window = 1
    n = 6
    A = _random_grid(9, n, 0.5)
    A[::3, :2] = 0.9
    eng, ref = _pair(n, A, 0.01, stall_window=1)
    assert ref.step() == eng.step() == []
    stalled = ref.step()
    assert stalled and not ref.converged[stalled].any()
    assert eng.step() == stalled
    _assert_same_state(eng, ref)
    _step_both(eng, ref)


def test_packed_engine_early_stop_matches_reference():
    n, xi = 8, 0.02
    A = _random_grid(7, n, 0.25)
    eng, ref = _pair(n, A, xi / 2.0, stall_window=64)

    seen = []

    def stop_at_second(rows):
        seen.append(list(rows))
        return len(seen) == 2

    eng.run(stop_at_second)
    got = list(seen)
    seen.clear()
    pending, k = [], 0
    while ref.alive.any():
        pending.extend(ref.step())
        k += 1
        if k % solver._CHECK_EVERY == 0 and pending:
            if stop_at_second(pending):
                break
            pending = []
    assert len(seen) == 2 and got == seen
    assert ref.alive.any()  # stopped with live rows left
    for name in STATE:
        assert np.array_equal(getattr(eng, name), getattr(ref, name)), name


def test_packed_engine_hits_the_round_cap_at_the_same_step():
    n, xi = 8, 0.02
    A = _random_grid(8, n, 0.5)
    eng, ref = _pair(n, A, xi / 2.0, cap=40)
    steps = 0
    with pytest.raises(RoundCapError):
        while True:
            ref.step()
            steps += 1
    for _ in range(steps):
        eng.step()
    with pytest.raises(IterationCapError):
        eng.step()
    _assert_same_state(eng, ref)
