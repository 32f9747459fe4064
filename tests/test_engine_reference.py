"""The packed grid engine against the plain masked lockstep reference.

Both engines run the same grid with the same refresh; after every step the
finished rows and every per-row array must be bit-identical.
"""

import numpy as np
import pytest

from reference import LockstepEngine, RoundCapError
from shapley_forge import solver
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
    eng.copy_back()  # run() leaves the live rows to copy_back()
    for name in STATE:
        assert np.array_equal(getattr(eng, name), getattr(ref, name)), name


def _assert_capped(eng, ref):
    """State after the step at the round cap, where the reference raised.

    The engine finished every row that was live before that step: the ones
    that converged or stalled there as the reference did, and the capped
    ones, which the reference left live, unconverged and unchanged.
    """
    capped = ref.alive.copy()
    assert capped.any() and not ref.converged[capped].any()
    eng.copy_back()
    for name in STATE:
        want = np.zeros_like(ref.alive) if name == "alive" else getattr(ref, name)
        assert np.array_equal(getattr(eng, name), want), name


def test_packed_engine_hits_the_round_cap_at_the_same_step():
    n, xi = 8, 0.02
    A = _random_grid(8, n, 0.5)
    eng, ref = _pair(n, A, xi / 2.0, cap=40)
    while True:
        live = np.flatnonzero(ref.alive).tolist()
        try:
            finished = ref.step()
        except RoundCapError:
            break
        assert eng.step() == finished
        _assert_same_state(eng, ref)
    assert eng.step() == live
    _assert_capped(eng, ref)


# ---------------------------------------------------------------------------
# The linear prefix: column walks merged with per-row slot-0 walks
# ---------------------------------------------------------------------------


def _prefix_rounds(eng) -> int:
    """R0, which the engine reads at its first step."""
    return eng._r0


@pytest.mark.parametrize(
    "seed, n, xi, kwargs, r0",
    [
        (11, 8, 0.02, {"lin_cap": 70, "stall_window": 100}, 70),  # R0 set by lin_cap
        (12, 9, 0.02, {"stall_window": 90}, 90),  # by stall_window < lin_cap = 99
        (13, 8, 0.02, {"cap": 80, "stall_window": None}, 80),  # by cap < lin_cap
        (14, 8, 0.02, {"lin_cap": 10**9, "stall_window": None}, None),  # never left
    ],
    ids=["lin_cap", "stall_window", "cap", "inside"],
)
def test_prefix_is_bit_identical_per_step(seed, n, xi, kwargs, r0):
    A = _random_grid(seed, n, 0.1)
    eng, ref = _pair(n, A, xi / 2.0, **kwargs)
    if "cap" in kwargs:
        for _ in range(r0):
            assert eng.step() == ref.step()
            _assert_same_state(eng, ref)
        assert _prefix_rounds(eng) == r0 and ref.converged.any()
        live = np.flatnonzero(ref.alive).tolist()
        with pytest.raises(RoundCapError):
            ref.step()
        assert eng.step() == live
        _assert_capped(eng, ref)
        return
    _step_both(eng, ref)
    R0 = _prefix_rounds(eng)
    if r0 is None:
        assert ref.t.max() < R0  # every row finished inside the prefix
    else:
        assert R0 == r0
        assert (ref.t < R0).any() and (ref.t > R0).any()  # rows on both sides


@pytest.mark.parametrize("replay_bytes", [None, 1])  # 1: one round per replay block
def test_prefix_early_stop_inside_the_prefix_matches_reference(monkeypatch, replay_bytes):
    if replay_bytes is not None:
        monkeypatch.setattr(solver, "_REPLAY_BYTES", replay_bytes)
    n, xi = 8, 0.02
    A = _random_grid(15, n, 0.25)
    eng, ref = _pair(n, A, xi / 2.0, lin_cap=10**9, stall_window=None)
    got = []
    eng.run(lambda rows: got.append(list(rows)) or True)
    for _ in range(solver._CHECK_EVERY):
        ref.step()
    assert eng._rounds < _prefix_rounds(eng)
    assert ref.alive.any() and np.array_equal(eng.alive, ref.alive)
    eng.copy_back()  # run() leaves the live rows to copy_back()
    for name in STATE:
        assert np.array_equal(getattr(eng, name), getattr(ref, name)), name


@pytest.mark.parametrize("grid", ["broken-columns", "distinct-rows"])
def test_prefix_groups_rows_by_their_voter_targets(grid):
    n, xi = 8, 0.02
    A = _random_grid(16, n, 0.2)
    columns = len({row.tobytes() for row in A[:, 1:]})
    if grid == "broken-columns":
        A[::3, 1] += 0.01
    else:
        A[:, 1:] += np.random.default_rng(16).normal(scale=1e-3, size=(A.shape[0], n))
    eng, ref = _pair(n, A, xi / 2.0)
    assert eng.step() == ref.step()
    if grid == "broken-columns":
        assert columns < eng._walk.C < A.shape[0]
    else:
        assert eng._walk.C == A.shape[0]
    _assert_same_state(eng, ref)
    _step_both(eng, ref)


def _slot0_rounds(a0: float, gamma: float) -> int:
    """a*: slot-0 appends until |A_0 - corr_0| <= gamma, by the step's float ops."""
    c0, a = 0.0, 0
    while abs(a0 - c0) > gamma:
        c0 = c0 + (gamma if a0 - c0 > 0 else -gamma)
        a += 1
    return a


def _voter_walk(av: np.ndarray, gamma: float, cross: np.ndarray):
    """b* and the voter net there: greedy voter appends until the max is <= gamma."""
    corr = np.zeros(av.size)
    net = np.zeros(av.size, dtype=np.int64)
    b = 0
    while True:
        viol = av - corr
        j = int(np.abs(viol).argmax())
        if abs(viol[j]) <= gamma:
            return b, net
        sg = 1 if viol[j] > 0 else -1
        corr = corr + gamma * sg * cross[1 + j, 1:]
        net[j] += sg
        b += 1


def test_prefix_rows_finish_at_slot0_plus_voter_rounds():
    # a row of the linear regime finishes at round a*(A_0) + b*(column), and
    # every finished row of a column has that column's voter net at b*
    n, xi = 10, 0.02
    gamma = xi / 2.0
    A = _random_grid(17, n, 0.1)
    eng, _ = _pair(n, A, gamma, lin_cap=10**9, stall_window=None)
    eng.run()
    assert eng.converged.all() and eng.t.max() < _prefix_rounds(eng)
    cross = degree1_moment_matrix(n)
    walks = {}
    for g in range(A.shape[0]):
        key = A[g, 1:].tobytes()
        if key not in walks:
            walks[key] = _voter_walk(A[g, 1:], gamma, cross)
        b_star, vnet = walks[key]
        assert eng.t[g] == _slot0_rounds(A[g, 0], gamma) + b_star
        assert np.array_equal(eng.net[g, 1:], vnet)
    assert len(walks) < A.shape[0]


def test_prefix_rows_with_a_zero_slot0_target():
    # |A_0| <= gamma gives a* = 0: the row never appends on slot 0 and
    # finishes at the round its column's walk stops
    n, xi = 8, 0.02
    gamma = xi / 2.0
    A = _random_grid(19, n, 0.25)
    A[::3, 0] = 0.0
    A[1::3, 0] = -gamma
    eng, ref = _pair(n, A, gamma)
    _step_both(eng, ref)
    zero = np.abs(A[:, 0]) <= gamma
    inside = zero & (ref.t < _prefix_rounds(eng))
    assert inside.any() and ref.converged[inside].all()
    assert (ref.net[zero, 0] == 0).all()


def _assert_same_stall_state(eng, ref):
    """best and last_improved of the engine's packed live rows, per grid row."""
    rows = eng._row[: eng._live]
    assert np.array_equal(eng._best[: eng._live], ref.best[rows])
    assert np.array_equal(eng._last_improved[: eng._live], ref.last_improved[rows])


def test_prefix_shorter_than_slot0_and_voter_walks():
    # R0 = 70: rows with A_0 = +-0.9 need a* = 89 slot-0 appends, and all
    # but one column's walk has not stopped at R0; those rows hand off
    # live.  Rows 0, 8, ... have b* = 0, so they finish at a* alone.
    n, xi = 8, 0.02
    gamma = xi / 2.0
    A = _random_grid(24, n, 0.25)
    A[::4, 0] = 0.9
    A[2::4, 0] = -0.9
    A[::8, 1:] = 0.0
    eng, ref = _pair(n, A, gamma, lin_cap=70)
    cross = degree1_moment_matrix(n)
    b_star = {a.tobytes(): _voter_walk(a, gamma, cross)[0] for a in A[:, 1:]}
    assert _slot0_rounds(0.9, gamma) >= 70 and _slot0_rounds(-0.9, gamma) >= 70
    assert min(b_star.values()) < 70 < max(b_star.values())
    for _ in range(70):
        assert eng.step() == ref.step()
        _assert_same_state(eng, ref)
    assert _prefix_rounds(eng) == 70 and eng._walk is not None
    assert (ref.t < 70).any() and ref.alive.any()
    assert eng.step() == ref.step()
    _assert_same_state(eng, ref)
    _assert_same_stall_state(eng, ref)
    _step_both(eng, ref)
    assert (ref.t[::8] == 89).all()


def test_prefix_row_finishing_at_the_last_prefix_round():
    n, xi = 8, 0.02
    gamma = xi / 2.0
    A = _random_grid(22, n, 0.25)
    free, _ = _pair(n, A, gamma, lin_cap=10**9, stall_window=None)
    free.run()
    last = int(np.sort(free.t)[A.shape[0] // 3])  # a finishing round inside lin_cap
    eng, ref = _pair(n, A, gamma, lin_cap=last + 1)
    _step_both(eng, ref)
    R0 = _prefix_rounds(eng)
    assert R0 == last + 1
    assert ((ref.t == R0 - 1) & ref.converged).any() and (ref.t >= R0).any()


def test_prefix_handoff_with_stall_window_equal_to_r0():
    # at n = 4 the voters are negatively correlated, so a voter append on
    # one of four tied voter targets gains nothing: such rows never improve
    # after round 0 and stall at round stall_window = R0, the first full
    # step, which reads best and last_improved as the handoff rebuilt them
    n, xi = 4, 0.02
    gamma = xi / 2.0
    A = _random_grid(21, n, 0.25)
    A[::5, 0] = 0.0
    A[::5, 1:] = 0.5
    A[1::5] = [1.5 * gamma] + [0.5 * gamma] * n  # finish at round 1
    eng, ref = _pair(n, A, gamma, stall_window=3)
    for _ in range(4):
        assert eng.step() == ref.step()
        _assert_same_state(eng, ref)
    _assert_same_stall_state(eng, ref)
    _step_both(eng, ref)
    assert _prefix_rounds(eng) == 3
    assert ((ref.t == 3) & ~ref.converged).any() and (ref.t < 3).any()


def _solve_with_both_engines(monkeypatch, n, seed):
    rng = np.random.default_rng(seed)
    weights = tuple(int(w) for w in rng.integers(0, 11, n))
    target = shapley_exact_dp(QuotaGame(weights, sum(weights) // 2 + 1)).shapley
    cfg = solver.SolveConfig(xi=0.005)
    fast = solver.solve_is(target, cfg)

    class ReferenceGridEngine(LockstepEngine):
        def __init__(self, n, targets, gamma, refresh, **kwargs):
            super().__init__(n, targets, gamma, degree1_moment_matrix(n), refresh, **kwargs)

        def run(self, checkpoint):
            pending, k = [], 0
            while self.alive.any():
                pending.extend(self.step())
                k += 1
                if k % solver._CHECK_EVERY == 0 and pending:
                    if checkpoint(pending):
                        return
                    pending = []
            if pending:
                checkpoint(pending)

    monkeypatch.setattr(solver, "_GridEngine", ReferenceGridEngine)
    slow = solver.solve_is(target, cfg)
    assert fast.status == "solved"
    assert np.array_equal(slow.game.weights, fast.game.weights)
    assert slow.game.threshold == fast.game.threshold
    for field in ("est_dshapley", "guess", "boost_iterations", "status", "nu_warning", "grid_evaluated"):
        assert getattr(slow, field) == getattr(fast, field), field


def test_solve_with_the_reference_engine_gives_the_same_result(monkeypatch):
    _solve_with_both_engines(monkeypatch, 16, 18)


def test_solve_with_the_reference_engine_gives_the_same_result_at_n20(monkeypatch):
    _solve_with_both_engines(monkeypatch, 20, 19)
