import math

import numpy as np
import pytest

from shapley_forge import solver
from shapley_forge.boosting import (
    BoostTargets,
    boost,
    exact_dp_oracle,
    exact_enum_oracle,
    game_from_net,
)
from shapley_forge.games import QuotaGame, VotingGame, ltf_fn, quota_to_ltf
from shapley_forge.indices import (
    d_shapley,
    shapley_exact_dp,
    shapley_exact_truthtable,
    shapley_int_ltf_dp,
)
from shapley_forge.mu import exact_correlations
from shapley_forge.solver import (
    SolveConfig,
    _exact_d_dp_batch,
    _GridEngine,
    _oracle_refresh,
    _support_refresh,
    exhaustive_baseline,
    solve_is,
    solve_isbw,
    validate_candidate,
)


def _realizable(rng, n: int) -> np.ndarray:
    g = VotingGame(rng.uniform(-1, 1, n), float(rng.uniform(-0.3, 0.3)))
    return exact_correlations(ltf_fn(g), n)


# ---------------------------------------------------------------------------
# Dual route: the vectorized grid engine must replay the scalar loop
# ---------------------------------------------------------------------------


def _dense_reference(n: int, A: np.ndarray, gamma: float, **kwargs) -> _GridEngine:
    """Every row dense from its first append, refreshed in float64 row by row."""
    eng = _GridEngine(n, A, gamma, _oracle_refresh(n, gamma, exact_enum_oracle(n)), **kwargs)
    eng.lin_cap = -1
    return eng


def test_engine_dense_reference_replays_scalar_boost(rng):
    n, xi = 5, 0.05
    a = _realizable(rng, n)
    gamma = xi / 2.0

    scalar = boost(BoostTargets(a=a, xi=xi), exact_enum_oracle(n), stall_window=4096)
    eng = _dense_reference(n, a[None, :], gamma, stall_window=4096)
    eng.run()
    assert bool(eng.converged[0]) == scalar.converged
    assert int(eng.t[0]) == scalar.iterations
    assert np.array_equal(eng.net[0], scalar.state.net)
    assert np.abs(eng.corr[0] - scalar.correlations).max() <= 1e-12


def test_engine_fast_path_matches_dense_reference(rng):
    n, xi = 6, 0.05
    gamma = xi / 2.0
    A = np.stack([_realizable(rng, n) for _ in range(5)])
    fast = _GridEngine(n, A, gamma, _support_refresh(n, gamma), stall_window=4096)
    fast.run()
    ref_eng = _dense_reference(n, A, gamma, stall_window=4096)
    ref_eng.run()
    assert np.array_equal(fast.net, ref_eng.net)
    assert np.array_equal(fast.t, ref_eng.t)
    # float32 dense recompute stays far inside the xi/16 oracle budget
    assert np.abs(fast.corr - ref_eng.corr).max() <= xi / 160.0


def _quota_grid(n: int, grid_step: float) -> np.ndarray:
    target = shapley_exact_dp(QuotaGame(tuple(range(1, n + 1)), n * (n + 1) // 4 + 1)).shapley
    A, _, _ = solver._target_rows(target, 2.0 / n, solver._grid_axis(grid_step))
    return A


def test_engine_support_refresh_keeps_only_per_row_state():
    n, gamma = 12, 0.01
    A = _quota_grid(n, 0.5)
    eng = _GridEngine(n, A, gamma, _support_refresh(n, gamma), stall_window=4096)
    eng.lin_cap = 3  # rows go dense after a few appends
    for _ in range(8):
        eng.step()
    assert eng.dense.any()
    G = A.shape[0]
    shapes = {v.shape for v in vars(eng).values() if isinstance(v, np.ndarray)}
    # the per-row state, plus the shared (n+1, n+1) second-moment matrix
    assert shapes <= {(G,), (G, n + 1), (n + 1, n + 1)}


def test_engine_support_refresh_is_chunk_size_invariant(monkeypatch):
    n, xi = 10, 0.05
    A = _quota_grid(n, 0.25)

    def run_engine() -> _GridEngine:
        eng = _GridEngine(n, A, xi / 2.0, _support_refresh(n, xi / 2.0))
        eng.run()
        return eng

    whole = run_engine()
    assert whole.dense.sum() >= 50
    monkeypatch.setattr(solver, "_REFRESH_BYTES", 4 * (2**n - 2) * 3)  # 3 rows a chunk
    chunked = run_engine()
    assert np.array_equal(chunked.net, whole.net)
    assert np.array_equal(chunked.t, whole.t)
    # only the float32 sum over the 2^n - 2 support points is ordered
    # differently; stalled rows with an L1 mass in the thousands move most
    assert np.abs(chunked.corr - whole.corr).max() <= 1e-5


def test_engine_dp_backend_replays_scalar_boost(rng):
    n, xi = 6, 0.05
    a = _realizable(rng, n)
    scalar = boost(BoostTargets(a=a, xi=xi), exact_dp_oracle(n), stall_window=4096)
    refresh = _oracle_refresh(n, xi / 2.0, exact_dp_oracle(n))
    eng = _GridEngine(n, a[None, :], xi / 2.0, refresh, stall_window=4096)
    eng.lin_cap = -1  # every row dense from its first append
    eng.run()
    assert bool(eng.converged[0]) == scalar.converged
    assert int(eng.t[0]) == scalar.iterations
    assert np.array_equal(eng.net[0], scalar.state.net)


def test_engine_dp_backend_builds_nothing_of_size_2_to_the_n():
    n = 16
    A = np.stack([np.concatenate([[f0], np.full(n, 0.1)]) for f0 in (-0.5, 0.0, 0.5)])
    eng = _GridEngine(n, A, 0.05, _oracle_refresh(n, 0.05, exact_dp_oracle(n)), stall_window=4096)
    eng.lin_cap = -1
    for _ in range(5):
        eng.step()
    assert eng.dense.all()
    arrays = [v for v in vars(eng).values() if isinstance(v, np.ndarray)]
    assert arrays and max(v.shape[0] for v in arrays) < 2**n


def test_engine_shape_validation():
    with pytest.raises(ValueError):
        _GridEngine(4, np.zeros((3, 4)), 0.05, _support_refresh(4, 0.05))


# ---------------------------------------------------------------------------
# Candidate validation
# ---------------------------------------------------------------------------


def test_validate_candidate_modes_agree():
    target = np.full(3, 2.0 / 3.0)
    g = quota_to_ltf(QuotaGame((1, 1, 1), 2))
    d_enum = validate_candidate(target, g, SolveConfig(oracle_mode="exact-enum"))
    d_dp = validate_candidate(target, g, SolveConfig(oracle_mode="exact-dp"))
    assert d_enum == pytest.approx(0.0, abs=1e-13)
    assert d_dp == pytest.approx(d_enum, abs=1e-13)


def test_integer_weight_check_is_absolute_1e9(monkeypatch):
    target = np.array([1.0, 0.5, 0.25, 0.25])
    exact = VotingGame(np.array([3.0, 2.0, 1.0, 1.0]), 3.5)
    near = VotingGame(np.array([3.0 + 5e-10, 2.0, 1.0, 1.0]), 3.5)
    off = VotingGame(np.array([3.0 + 2e-9, 2.0, 1.0, 1.0]), 3.5)
    assert np.array_equal(shapley_int_ltf_dp(near).shapley, shapley_int_ltf_dp(exact).shapley)
    with pytest.raises(ValueError, match="integer weights"):
        shapley_int_ltf_dp(off)

    dp_calls = []
    monkeypatch.setattr(solver, "shapley_int_ltf_dp", lambda g: dp_calls.append(g) or shapley_int_ltf_dp(g))
    cfg = SolveConfig(oracle_mode="exact-dp")
    assert validate_candidate(target, near, cfg) == d_shapley(shapley_int_ltf_dp(exact).shapley, target)
    assert dp_calls == [near]
    d_off = validate_candidate(target, off, cfg)
    assert dp_calls == [near]  # scored by the truth table instead
    assert d_off == d_shapley(shapley_exact_truthtable(ltf_fn(off), 4).shapley, target)


def _one_by_one(nets, target):
    cfg = SolveConfig(oracle_mode="exact-dp")
    return [validate_candidate(target, game_from_net(net), cfg) for net in nets]


@pytest.mark.parametrize("n", [3, 16, 20, 63, 70])
def test_grouped_dp_validation_equals_per_candidate(n, rng):
    # three weight vectors, one all zero, each under several thresholds,
    # some beyond +-total where the game is constant; n > 62 counts in
    # Python ints
    W = rng.integers(-6, 9, size=(3, n))
    W[1] = 0
    nets = []
    for w in W:
        total = int(np.abs(w).sum())
        for t0 in (-total - 3, -total, -total + 1, 0, 1, total - 1, total, total + 7):
            nets.append([t0, *w])
        nets += [[int(t0), *w] for t0 in rng.integers(-total, total + 1, size=4)]
    nets = np.array(nets, dtype=np.int64)[rng.permutation(len(nets))]
    target = rng.uniform(0.0, 4.0 / n, size=n)
    assert _exact_d_dp_batch(nets, target).tolist() == _one_by_one(nets, target)


@pytest.mark.parametrize("n", [16, 70])
def test_dp_validation_reuses_the_tables_of_one_solve(n, rng, monkeypatch):
    # a weight vector scored again at a later checkpoint reads the table
    # kept from the first time; only its new thresholds' windows are new
    W = rng.integers(-6, 9, size=(4, n))
    first = np.array([[int(t0), *w] for w in W[:3] for t0 in rng.integers(-40, 41, 3)], dtype=np.int64)
    later = np.array([[int(t0), *w] for w in W[1:] for t0 in rng.integers(-40, 41, 3)], dtype=np.int64)
    target = rng.uniform(0.0, 4.0 / n, size=n)
    built = []
    swing_table = solver._subsetdp._swing_table
    monkeypatch.setattr(solver._subsetdp, "_swing_table", lambda w: built.append(w.tobytes()) or swing_table(w))
    tables = solver._SwingTables()
    got = _exact_d_dp_batch(first, target, tables).tolist() + _exact_d_dp_batch(later, target, tables).tolist()
    assert sorted(built) == sorted(w.tobytes() for w in W)  # each vector tabled once
    assert got == _one_by_one(first, target) + _one_by_one(later, target)

    # past the byte budget the oldest tables go first
    monkeypatch.setattr(solver, "_TABLE_CACHE_BYTES", 1)
    small = solver._SwingTables()
    assert _exact_d_dp_batch(later, target, small).tolist() == got[len(first):]
    assert list(small) == [W[3].tobytes()]


def test_grouped_dp_validation_refuses_an_over_budget_table():
    target = np.full(3, 2.0 / 3.0)
    nets = np.array([[1, 1, 1, 1], [0, 10**12, 1, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match="budget") as one:
        _one_by_one(nets, target)
    with pytest.raises(ValueError, match="budget") as grouped:
        _exact_d_dp_batch(nets, target)
    assert str(grouped.value) == str(one.value)


@pytest.mark.parametrize("target", [
    shapley_exact_dp(QuotaGame((5, 3, 8, 2, 7, 1, 9, 4, 6, 2, 3, 8), 30)).shapley,
    np.array([1.5, -0.5, 1.0, 0.25, -0.25]),  # unreachable: every cell is swept
])
def test_exact_dp_solve_with_grouped_validation_matches_per_candidate(monkeypatch, target):
    cfg = SolveConfig(xi=0.02, grid_step=0.2, oracle_mode="exact-dp")
    got = solve_is(target, cfg)
    monkeypatch.setattr(solver, "_exact_d_dp_batch", lambda nets, t, *_: np.array(_one_by_one(nets, t)))
    want = solve_is(target, cfg)
    assert (got.status, got.est_dshapley, got.boost_iterations, got.grid_evaluated, got.guess) == (
        want.status, want.est_dshapley, want.boost_iterations, want.grid_evaluated, want.guess)
    assert np.array_equal(got.game.weights, want.game.weights)
    assert got.game.threshold == want.game.threshold


# ---------------------------------------------------------------------------
# Full solves
# ---------------------------------------------------------------------------


def test_solve_recovers_symmetric_target():
    target = np.full(3, 2.0 / 3.0)
    res = solve_is(target, SolveConfig(xi=0.05, oracle_mode="exact-dp"))
    assert res.status == "solved"
    assert res.est_dshapley <= 0.08
    got = shapley_exact_truthtable(ltf_fn(res.game), 3).shapley
    assert d_shapley(got, target) == pytest.approx(res.est_dshapley, abs=1e-9)
    assert not res.nu_warning


@pytest.mark.parametrize("mode", ["exact-enum", "exact-dp"])
def test_returned_game_is_the_validated_game(mode):
    # the gamma-scaled copy of this net breaks sign(0) ties the other way:
    # its true distance is 0.0777 against a reported 0.0563
    target = shapley_exact_dp(QuotaGame((7, 9, 4, 0, 5, 9, 2, 7), 15)).shapley
    res = solve_is(target, SolveConfig(xi=0.02, oracle_mode=mode))
    assert res.status == "solved"
    assert np.array_equal(res.game.weights, np.rint(res.game.weights))
    got = shapley_exact_truthtable(ltf_fn(res.game), 8).shapley
    assert d_shapley(got, target) == pytest.approx(res.est_dshapley, abs=1e-9)


def test_exact_dp_solve_above_enum_cap_scores_the_returned_game():
    n = 16
    target = shapley_exact_dp(QuotaGame((5, 3, 8, 2, 7, 1, 9, 4, 6, 2, 3, 8, 5, 1, 7, 4), 38)).shapley
    res = solve_is(target, SolveConfig(xi=0.005, oracle_mode="exact-dp"))
    assert res.status == "solved"
    got = shapley_exact_truthtable(ltf_fn(res.game), n).shapley
    assert d_shapley(got, target) <= 0.1
    assert d_shapley(got, target) == pytest.approx(res.est_dshapley, abs=1e-9)


def test_exact_enum_solve_above_enum_cap_matches_exact_dp(monkeypatch):
    # a few rows per truth-table batch, so validation runs through many chunks
    monkeypatch.setattr(solver, "_ENUM_BATCH_BYTES", 8 * 2**15 * 7)
    target = shapley_exact_dp(QuotaGame((5, 3, 8, 2, 7, 1, 9, 4, 6, 2, 3, 8, 5, 1, 7), 35)).shapley
    enum = solve_is(target, SolveConfig(xi=0.005, oracle_mode="exact-enum"))
    dp = solve_is(target, SolveConfig(xi=0.005, oracle_mode="exact-dp"))
    assert enum.status == dp.status
    assert enum.est_dshapley == pytest.approx(dp.est_dshapley, abs=1e-9)


def test_solve_recovers_dictator():
    target = np.array([2.0, 0.0, 0.0, 0.0])
    res = solve_is(target, SolveConfig(xi=0.05, oracle_mode="exact-enum"))
    assert res.status == "solved"
    got = shapley_exact_truthtable(ltf_fn(res.game), 4).shapley
    assert d_shapley(got, target) <= 0.08


def test_solve_reports_no_solution_for_unreachable_target():
    target = np.array([-1.0, -1.0, -1.0])
    with pytest.warns(UserWarning, match="sum to"):
        res = solve_is(target, SolveConfig(xi=0.05, oracle_mode="exact-dp"))
    assert res.status == "no-solution"
    assert res.nu_warning  # sum is -3, far from the canonical 2
    assert res.game is not None  # still returns the best candidate found
    assert res.est_dshapley == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)
    assert res.grid_evaluated == 41 * 41


def test_early_stop_skips_most_of_the_grid():
    target = np.full(3, 2.0 / 3.0)
    res = solve_is(target, SolveConfig(xi=0.05, oracle_mode="exact-dp"))
    assert res.status == "solved"
    assert res.grid_evaluated < 41 * 41


def test_solve_rejects_tiny_targets():
    with pytest.raises(ValueError):
        solve_is(np.array([1.0, 1.0]), SolveConfig())


def test_nu_warning_flag():
    with pytest.warns(UserWarning, match="sum to"):
        res = solve_is(np.array([0.1, 0.1, 0.1]), SolveConfig(xi=0.1, epsilon=2.0))
    assert res.nu_warning


def test_solve_isbw_requires_bound():
    with pytest.raises(ValueError):
        solve_isbw(np.full(3, 2.0 / 3.0), SolveConfig())


def test_solve_isbw_tightens_xi_and_solves():
    q = QuotaGame((3, 2, 1, 1), 4)
    target = shapley_exact_truthtable(ltf_fn(quota_to_ltf(q)), 4).shapley
    cfg = SolveConfig(xi=0.05, oracle_mode="exact-dp", weight_bound=2.0, epsilon=0.1)
    res = solve_isbw(target, cfg)
    assert res.status == "solved"
    # bound 2 with n=4 forces xi down to 1/80
    assert res.est_dshapley <= 0.1


def test_default_config_solves_above_the_enumeration_cap():
    # the default oracle mode is exact-dp, which has no n cap
    w = (5, 3, 8, 2, 7, 1, 9, 4, 6, 2, 3, 8, 5, 1, 7, 4, 6, 2, 9, 3, 5, 8, 1, 6)
    target = shapley_exact_dp(QuotaGame(w, sum(w) // 2 + 1)).shapley
    res = solve_is(target)
    assert res.status == "solved"
    assert d_shapley(shapley_int_ltf_dp(res.game).shapley, target) == res.est_dshapley
    assert res.est_dshapley <= 0.08


@pytest.mark.parametrize("mode", ["exact-enum", "exact-dp"])
def test_no_solution_solve_scores_every_row_exactly_once(monkeypatch, mode):
    # run() hands each row to the checkpoint where it finishes, so a solve
    # that accepts nothing has scored the whole grid with no extra sweep
    handed, scored = [], []
    run = _GridEngine.run

    def spy(batch):
        return lambda nets, *args: scored.append(len(nets)) or batch(nets, *args)

    monkeypatch.setattr(_GridEngine, "run", lambda eng, cp: run(eng, lambda rows: handed.extend(rows) or cp(rows)))
    monkeypatch.setattr(solver, "_exact_d_enum_batch", spy(solver._exact_d_enum_batch))
    monkeypatch.setattr(solver, "_exact_d_dp_batch", spy(solver._exact_d_dp_batch))
    target = np.array([1.5, -0.5, 1.0, 0.25, -0.25])
    res = solve_is(target, SolveConfig(xi=0.02, grid_step=0.2, oracle_mode=mode))
    assert res.status == "no-solution"
    assert sorted(handed) == list(range(11 * 11)) == list(range(res.grid_evaluated))
    assert sum(scored) == 11 * 11


def _refuse_to_allocate(monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    for name in ("_grid_axis", "_target_rows", "_GridEngine"):
        monkeypatch.setattr(solver, name, allocate)


def test_solve_refuses_an_over_budget_grid_before_allocating(monkeypatch):
    # grid_step 0.001: 2001^2 = 4,004,001 cells, 672 MB per (cells, 21) array
    _refuse_to_allocate(monkeypatch)
    with pytest.raises(ValueError, match="MiB budget"):
        solve_is(np.full(20, 0.1), SolveConfig(grid_step=0.001))
    solver._check_grid_budget(0.05, 200)  # the default grid fits far above n = 20
    solver._check_grid_budget(0.005, 20)


def test_rows_at_the_round_cap_finish_unconverged_and_are_scored(monkeypatch):
    # cap = ceil(64 / 0.5^2) = 256 < stall_window = 512: rows that neither
    # converge nor stall stop at the cap and are scored with the rest
    handed = []
    run = _GridEngine.run
    monkeypatch.setattr(_GridEngine, "run", lambda eng, cp: run(eng, lambda rows: handed.extend(rows) or cp(rows)))
    res = solve_is(np.array([0.9, 0.4, 0.4, 0.3]), SolveConfig(xi=0.5))
    assert res.status == "no-solution" and res.boost_iterations <= 256
    assert sorted(handed) == list(range(41 * 41)) == list(range(res.grid_evaluated))
    assert math.isfinite(res.est_dshapley)


@pytest.mark.parametrize("window", [0, -3, 1.5, math.nan, True, "8"])
def test_solve_config_rejects_bad_stall_window(window):
    with pytest.raises(ValueError, match="stall_window"):
        SolveConfig(stall_window=window)


def test_solve_config_accepts_stall_window_none_or_positive_integer():
    for window in (None, 1, np.int64(8)):
        assert SolveConfig(stall_window=window).stall_window == window


# ---------------------------------------------------------------------------
# Exhaustive baseline
# ---------------------------------------------------------------------------


def test_baseline_finds_exact_matches():
    g, d = exhaustive_baseline(np.full(3, 2.0 / 3.0), max_weight=2)
    assert d == pytest.approx(0.0, abs=1e-13)
    g, d = exhaustive_baseline(np.array([2.0, 0.0, 0.0]), max_weight=2)
    assert d == pytest.approx(0.0, abs=1e-13)


def test_baseline_rejects_large_instances():
    with pytest.raises(ValueError):
        exhaustive_baseline(np.zeros(6), max_weight=2)
    with pytest.raises(ValueError):
        exhaustive_baseline(np.zeros(3), max_weight=40)


def test_solver_matches_baseline_on_asymmetric_target():
    target = np.array([1.2, 0.6, 0.2])
    _, d_base = exhaustive_baseline(target, max_weight=3)
    res = solve_is(target, SolveConfig(xi=0.02, oracle_mode="exact-dp", epsilon=max(0.1, d_base)))
    assert res.est_dshapley <= d_base + 0.05
