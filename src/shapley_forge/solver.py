"""Grid search that turns a target index vector into a weighted voting game.

A target index vector pins the coordinate correlations of a matching game up
to two unknowns: the game's mean under the slice distribution and the mean
of its coordinate correlations.  The solver sweeps a grid over that square,
runs the boosting loop against each implied correlation vector, thresholds
each resulting clipped form into a voting game and keeps any candidate whose
exact index distance clears the acceptance margin 8*eps/10.

The whole grid is boosted in lockstep by boosting._GridEngine, at every n
and in both oracle modes; a row's integer net is its whole state, and a
row still live at the round cap finishes unconverged, like a stalled row.

Every row goes to validation once, at the checkpoint where it finishes.
In exact-enum mode one truth-table pass scores a batch; in exact-DP mode the
batch's rows are grouped by weight vector (finished rows often share one and
differ only in the threshold net_0), and each group is scored from one
subset table in which only the threshold window moves (see _subsetdp),
except the rows whose lower bound from that table is past the margin.  A
solve keeps those tables, within a byte budget, for the vectors that come
back at later checkpoints.  A grid whose engine arrays would pass their
byte budget is refused before anything is allocated.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import _subsetdp
from .boosting import _dense_refresh, _GridEngine, game_from_net, round_cap
from .games import VotingGame, integer_form, ltf_fn
from .indices import (
    d_shapley,
    shapley_exact_truthtable,
    shapley_int_ltf_dp,
    truthtable_coefficient_matrix,
)
from .mu import ENUM_CAP, lambda_n

ORACLE_MODES = ("exact-enum", "exact-dp")
# budget of the grid's (cells x (n+1)) 8-byte arrays: the targets, the
# engine's copy of them, and net and corr both by grid row and packed
_GRID_ARRAYS = 6
_GRID_BYTES = 512 << 20
# bytes of subset-table prefix sums one exact-DP solve keeps for reuse
_TABLE_CACHE_BYTES = 4 << 20


@dataclass(frozen=True)
class SolveConfig:
    epsilon: float | None = None
    xi: float = 0.005
    grid_step: float = 0.05
    oracle_mode: str = "exact-dp"
    stall_window: int | None = 512

    def __post_init__(self) -> None:
        if self.oracle_mode not in ORACLE_MODES:
            raise ValueError(f"oracle_mode must be one of {ORACLE_MODES}, got {self.oracle_mode!r}")
        if not 0 < self.grid_step <= 2:
            raise ValueError("grid_step must lie in (0, 2]")
        if not 0 < self.xi <= 1:
            raise ValueError("xi must lie in (0, 1]")
        if self.epsilon is not None and not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        sw = self.stall_window
        if sw is not None and (isinstance(sw, bool) or not isinstance(sw, numbers.Integral) or sw < 1):
            raise ValueError(f"stall_window must be None or an integer >= 1, got {sw!r}")


@dataclass(frozen=True)
class GuessPoint:
    """One grid cell: guessed mean of the game and of its correlations."""

    f_star_0: float
    mean_corr: float


@dataclass(frozen=True)
class SolveResult:
    game: VotingGame | None
    est_dshapley: float
    guess: GuessPoint | None
    boost_iterations: int
    status: str
    nu_warning: bool = False
    grid_evaluated: int = 0


# ---------------------------------------------------------------------------
# Guess construction and candidate validation
# ---------------------------------------------------------------------------


def _grid_points(step: float) -> int:
    return math.ceil(2.0 / step - 1e-9) + 1


def _grid_axis(step: float) -> np.ndarray:
    return np.linspace(-1.0, 1.0, _grid_points(step))


def _check_grid_budget(step: float, n: int) -> None:
    """Refuse a grid whose engine arrays would exceed the byte budget."""
    cells = _grid_points(step) ** 2
    need = _GRID_ARRAYS * cells * (n + 1) * 8
    if need > _GRID_BYTES:
        raise ValueError(
            f"grid_step {step:g} gives {cells} cells; at n = {n} the solver would need "
            f"{need >> 20} MiB, over the {_GRID_BYTES >> 20} MiB budget; use a coarser grid"
        )


def _target_rows(target: np.ndarray, nu: float, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All grid cells: returns (A, f0s, means) with A of shape (G, n+1)."""
    n = target.size
    lam = lambda_n(n)
    base = (2.0 / lam) * (target - nu)
    f0s = np.repeat(axis, axis.size)
    means = np.tile(axis, axis.size)
    A = np.empty((f0s.size, n + 1))
    A[:, 0] = f0s
    A[:, 1:] = means[:, None] + base[None, :]
    return A, f0s, means


def _exact_d_enum_batch(nets: np.ndarray, target: np.ndarray, n: int) -> np.ndarray:
    """Exact index distance for many candidates at once, by truth table.

    The scores net_0 + net . x are built by doubling in cube order: after
    voter j the first 2^(j+1) columns hold every sign pattern of voters
    0..j, the -net_j half first.  They are exact integers in float64, and
    the signs overwrite them in place.  Past _BLOCK_BYTES if need be (from
    n = 17), a chunk holds n/2 rows, so S @ coef reads coef once per n/2 rows.
    """
    coef = truthtable_coefficient_matrix(n)
    chunk = max(1, n // 2, _subsetdp._BLOCK_BYTES // (8 * coef.shape[0]))

    def dist(rows: np.ndarray) -> np.ndarray:
        rows = rows.astype(np.float64)
        S = np.empty((len(rows), coef.shape[0]))
        S[:, 0] = rows[:, 0]
        for j in range(n):
            half = 1 << j
            np.add(S[:, :half], rows[:, j + 1 : j + 2], out=S[:, half : 2 * half])
            S[:, :half] -= rows[:, j + 1 : j + 2]
        pos = S >= 0
        S.fill(-1.0)
        np.copyto(S, 1.0, where=pos)
        return np.linalg.norm(S @ coef - target[None, :], axis=1)

    return np.concatenate([dist(nets[s : s + chunk]) for s in range(0, len(nets), chunk)])


class _SwingTables(dict):
    """The _subsetdp swing tables one solve has built, by weight-vector bytes.

    A grid column's finished rows share one weight vector and come back at
    several checkpoints.  Past _TABLE_CACHE_BYTES of prefix sums the oldest
    tables are dropped (an object-dtype cell counts 48 bytes).
    """

    def __init__(self) -> None:
        super().__init__()
        self.nbytes = 0

    def get_or_build(self, key: bytes, w: np.ndarray):
        table = self.get(key)
        if table is None:
            table = self[key] = _subsetdp._swing_table(w)
            self.nbytes += self._cost(table)
            while self.nbytes > _TABLE_CACHE_BYTES and len(self) > 1:
                self.nbytes -= self._cost(self.pop(next(iter(self))))
        return table

    @staticmethod
    def _cost(table) -> int:
        P = table[0]
        return P.size * (48 if P.dtype == object else P.itemsize)


def _exact_d_dp_batch(
    nets: np.ndarray, target: np.ndarray, tables: _SwingTables | None = None, accept_at: float = math.inf
) -> np.ndarray:
    """Exact index distance for many candidates at once, by subset DP.

    Candidates sharing a weight vector net[1:] share one subset table and
    differ only in the step their threshold -net_0 puts on the +1 set's
    sum.  tables, if given, keeps those tables across calls.  Each distance
    is the one validate_candidate gives the candidate's game_from_net, bit
    for bit.

    Given accept_at, each group is screened first (_class_bound): a row
    whose bound exceeds accept_at, by a slack far above the rounding of
    either norm, cannot be accepted and is not scored; its entry is nan.
    """
    if tables is None:
        tables = _SwingTables()
    screen = accept_at * (1.0 + 1e-9) + 1e-9
    groups: dict[bytes, list[int]] = {}
    for i, net in enumerate(nets):
        groups.setdefault(net[1:].tobytes(), []).append(i)
    ds = np.full(len(nets), np.nan)
    for key, rows in groups.items():
        w = nets[rows[0], 1:]
        table = tables.get_or_build(key, w)
        total = sum(w.tolist())
        # the game of a net is [w.x >= -net_0]
        rows, ts = np.array(rows), np.array([_subsetdp._step(-int(nets[i, 0]), total) for i in rows])
        if screen < math.inf:
            near = _class_bound(table, ts, target) <= screen
            rows, ts = rows[near], ts[near]
        if rows.size:
            ds[rows] = [d_shapley(index, target) for index in _subsetdp._step_indices(w, ts, table=table)]
    return ds


def _class_bound(table, ts, target: np.ndarray) -> np.ndarray:
    """Per step t of ts, the index distance over the voters of the table's
    most common weight alone: a lower bound read at the cost of one weight."""
    P, off, vals, inv = table
    k = np.bincount(inv).argmax()
    return np.linalg.norm(_subsetdp._weight_indices(P, off, vals[k : k + 1], ts) - target[inv == k], axis=1)


def validate_candidate(target: np.ndarray, game: VotingGame, cfg: SolveConfig) -> float:
    """Exact index distance of a candidate, by the config's oracle mode.

    In exact-dp mode a game without an integer form (games.integer_form)
    is scored by its truth table.
    """
    target = np.asarray(target, dtype=np.float64)
    if cfg.oracle_mode == "exact-dp" and integer_form(game) is not None:
        return d_shapley(shapley_int_ltf_dp(game).shapley, target)
    return d_shapley(shapley_exact_truthtable(ltf_fn(game), game.n).shapley, target)


# ---------------------------------------------------------------------------
# Full solvers
# ---------------------------------------------------------------------------


def solve_is(target, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Synthesize a game whose index vector approximates the target."""
    return _solve(np.asarray(target, dtype=np.float64), cfg, cfg.xi, default_eps=0.1)


def solve_isbw(target, weight_bound: float, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Bounded-weight variant: xi shrinks with the assumed weight budget."""
    target = np.asarray(target, dtype=np.float64)
    if not (math.isfinite(weight_bound) and weight_bound > 0):
        raise ValueError(f"solve_isbw needs a positive finite weight_bound, got {weight_bound}")
    n = target.size
    xi = min(cfg.xi, 1.0 / (10.0 * n * weight_bound))
    return _solve(target, cfg, xi, default_eps=n ** (-1.0 / 8.0))


def _solve(target: np.ndarray, cfg: SolveConfig, xi: float, default_eps: float) -> SolveResult:
    n = target.size
    if n < 3:
        raise ValueError(f"need at least 3 voters, got {n}")
    if not np.all(np.isfinite(target)):
        raise ValueError("target entries must be finite")
    if cfg.oracle_mode == "exact-enum" and n > ENUM_CAP:
        raise ValueError(f"enumeration oracle is unavailable at n={n}; use exact-dp")
    eps = cfg.epsilon if cfg.epsilon is not None else default_eps
    accept_at = 0.8 * eps
    nu = 2.0 / n
    nu_warning = abs(float(target.sum()) - 2.0) > 0.01
    if nu_warning:
        warnings.warn(
            f"target entries sum to {target.sum():.4f}, not 2; treating the source "
            "as monotone non-constant anyway",
            stacklevel=3,
        )
    round_cap(xi)  # refuses an xi whose round cap is not finite, before any grid is built
    _check_grid_budget(cfg.grid_step, n)
    axis = _grid_axis(cfg.grid_step)
    A, f0s, means = _target_rows(target, nu, axis)

    engine, g, d, status = _solve_engine(target, cfg, xi, accept_at, A)
    return SolveResult(
        game=game_from_net(engine.net[g]),
        est_dshapley=d,
        guess=GuessPoint(float(f0s[g]), float(means[g])),
        boost_iterations=int(engine.t[g]),
        status=status,
        nu_warning=nu_warning,
        grid_evaluated=int(np.count_nonzero(~engine.alive)),
    )


def _solve_engine(target, cfg, xi, accept_at, A) -> tuple[_GridEngine, int, float, str]:
    """Lockstep grid; returns (engine, chosen cell, its distance, status).

    run() hands every row to the checkpoint where it finishes, and each is
    scored there once, unless in exact-DP mode its lower bound is past the
    margin and it is left out (nan, _exact_d_dp_batch).  The run stops at
    the first checkpoint that accepts a row, and the lowest (distance,
    rounds, cell) accepted row wins.  If none is accepted, the left-out rows
    whose bound does not pass the best distance scored are scored, and the
    lowest (distance, cell) wins: the row full scoring would choose.
    """
    n = target.size
    gamma = xi / 2.0
    engine = _GridEngine(n, A, gamma, _dense_refresh(n, gamma), stall_window=cfg.stall_window)
    d = np.full(A.shape[0], np.inf)
    tables = _SwingTables()  # freed when the solve returns

    def checkpoint(finished: list[int]) -> bool:
        nets = engine.net[finished]
        if cfg.oracle_mode == "exact-enum":
            d[finished] = _exact_d_enum_batch(nets, target, n)
        else:
            d[finished] = _exact_d_dp_batch(nets, target, tables, accept_at)
        return bool((d[finished] <= accept_at).any())

    engine.run(checkpoint)

    accepted = np.flatnonzero(d <= accept_at)
    if accepted.size:
        _, _, g = min(zip(d[accepted].tolist(), engine.t[accepted].tolist(), accepted.tolist()))
        return engine, g, float(d[g]), "solved"
    screened = np.flatnonzero(np.isnan(d))
    if screened.size:
        best = d[~np.isnan(d)].min(initial=np.inf)
        d[screened] = _exact_d_dp_batch(engine.net[screened], target, tables, best)
    g = int(np.nanargmin(d))
    return engine, g, float(d[g]), "no-solution"


def exhaustive_baseline(target, max_weight: int = 6) -> tuple[VotingGame, float]:
    """Best small integer game by brute force; the optimality yardstick.

    Enumerates every weight vector in {0..max_weight}^n (lexicographically)
    and every half-integer threshold in [-total, total], returning the first
    minimizer of the exact index distance.  It takes a finite 1-d target of
    1 to 5 entries and an integer max_weight in [0, 6].
    """
    target = np.asarray(target, dtype=np.float64)
    n = target.size
    if target.ndim != 1 or not 1 <= n <= 5:
        raise ValueError(f"baseline enumeration needs a 1-d target of 1 to 5 entries, got shape {target.shape}")
    if not np.all(np.isfinite(target)):
        raise ValueError("target entries must be finite")
    if isinstance(max_weight, bool) or not isinstance(max_weight, numbers.Integral) or not 0 <= max_weight <= 6:
        raise ValueError(f"baseline weight cap must be an integer in [0, 6], got {max_weight!r}")
    vecs = np.array(list(itertools.product(range(max_weight + 1), repeat=n)), dtype=np.float64)
    tots = vecs.sum(axis=1).astype(np.int64)
    best_d = np.empty(len(vecs))
    best_theta = np.empty(len(vecs))
    # vectors of one total share their thresholds, so each total is one batch
    for tot in np.unique(tots).tolist():
        rows = np.flatnonzero(tots == tot)
        thetas = np.arange(-2 * tot, 2 * tot + 1) * 0.5
        # the game of a net (-theta, w) is [w.x >= theta]
        nets = np.empty((rows.size, thetas.size, n + 1))
        nets[:, :, 0] = -thetas
        nets[:, :, 1:] = vecs[rows, None, :]
        ds = _exact_d_enum_batch(nets.reshape(-1, n + 1), target, n).reshape(rows.size, thetas.size)
        i = np.argmin(ds, axis=1)  # the lowest of a vector's best thresholds
        best_d[rows] = ds[np.arange(rows.size), i]
        best_theta[rows] = thetas[i]
    g = int(np.argmin(best_d))  # the earliest of the best vectors
    return VotingGame(vecs[g], float(best_theta[g])), float(best_d[g])
