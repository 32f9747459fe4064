"""Generalized power indices and conversions between the three views.

A function on the cube has three equivalent degree-1 summaries: its index
vector (expected jump when a voter flips up, over a uniform voter order),
its raw correlations under the reweighted-slice distribution, and its
coefficients in the orthonormal degree-1 basis.  This module computes the
index vector exactly (enumeration or subset DP) and converts between views.

The index convention is "generalized": for a monotone game it is twice the
classical value and the entries sum to f(all +1) - f(all -1) = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _subsetdp
from .games import QuotaGame, VotingGame, integer_form
from .mu import basis_coeffs, blocked_values, enumerate_cube, lambda_n


@dataclass(frozen=True)
class ShapleyReport:
    """Index vector plus the endpoint values that fix its affine frame."""

    shapley: np.ndarray
    nu: float
    f_top: float
    f_bottom: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "shapley", np.asarray(self.shapley, dtype=np.float64))
        self.shapley.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.shapley.size)


@lru_cache(maxsize=None)
def truthtable_coefficient_matrix(n: int) -> np.ndarray:
    """(2^n, n) matrix A with index vector = A.T @ (function truth table)."""
    cube = enumerate_cube(n)
    wt = np.count_nonzero(cube == 1, axis=1)
    # a voter of a weight-wt point: p[wt] = (wt-1)!(n-wt)!/n! at x_i = +1,
    # m[wt] = wt!(n-wt-1)!/n! at x_i = -1
    coef = _subsetdp._pivot_coef(n)
    p, m = np.concatenate(([0.0], coef)), np.concatenate((coef, [0.0]))
    A = np.where(cube == 1, p[wt][:, None], -m[wt][:, None])
    A.setflags(write=False)
    return A


def shapley_exact_truthtable(fn, n: int) -> ShapleyReport:
    """Index vector by summing the per-point formula over all 2^n inputs.

    fn maps an (m, n) +-1 matrix to m values; it is called on row blocks
    of the cube (mu.blocked_values).
    """
    vals = blocked_values(fn, enumerate_cube(n))
    arr = truthtable_coefficient_matrix(n).T @ vals
    f_top = float(vals[-1])
    f_bottom = float(vals[0])
    return ShapleyReport(shapley=arr, nu=(f_top - f_bottom) / n, f_top=f_top, f_bottom=f_bottom)


def shapley_exact_dp(game: QuotaGame) -> ShapleyReport:
    """Index vector of a quota game by pivot counting, no enumeration."""
    classical = _subsetdp.classical_pivot_dp(game.int_weights, game.quota)
    shap = 2.0 * classical
    return ShapleyReport(shapley=shap, nu=2.0 / game.n, f_top=1.0, f_bottom=-1.0)


def shapley_int_ltf_dp(game: VotingGame) -> ShapleyReport:
    """Index vector of an integer-weight sign game; negative weights allowed.

    Weights within 1e-9 of integers are rounded only if their rounding
    errors, plus a bound on the float rounding of w.x, sum strictly below
    the threshold's distance to the nearest integer (games.integer_form);
    any other game is refused, not scored as another.
    """
    # in floating point, before a weight past 2^63 can wrap in a cast
    _subsetdp.check_table_budget(game.n, int(np.abs(np.rint(game.weights)).sum()) + 1)
    form = integer_form(game)
    if form is None:
        raise ValueError("DP route needs integer weights, or near-integer ones whose rounding keeps the game")
    w, thr = form
    shap = _subsetdp.shapley_affine(w, thr)
    total = int(w.sum())
    f_top = 1.0 if total >= thr else -1.0
    f_bottom = 1.0 if -total >= thr else -1.0
    return ShapleyReport(shapley=shap, nu=(f_top - f_bottom) / game.n, f_top=f_top, f_bottom=f_bottom)


# ---------------------------------------------------------------------------
# View conversions.  corr is the (n+1,) raw correlation vector (entry 0 the
# mean, entry i the correlation with x_i); fhat the (n+1,) basis coefficient
# vector; shapley the (n,) index vector.
# ---------------------------------------------------------------------------


def fourier_from_correlations(corr: np.ndarray, basis=None) -> np.ndarray:
    corr = np.asarray(corr, dtype=np.float64)
    n = corr.size - 1
    if basis is None:
        basis = basis_coeffs(n)
    out = np.empty(n + 1)
    out[0] = corr[0]
    out[1:] = basis.alpha * corr[1:].sum() + basis.beta * corr[1:]
    return out


def correlations_from_fourier(fhat: np.ndarray, basis=None) -> np.ndarray:
    fhat = np.asarray(fhat, dtype=np.float64)
    n = fhat.size - 1
    if basis is None:
        basis = basis_coeffs(n)
    total = fhat[1:].sum() / (basis.alpha * n + basis.beta)
    out = np.empty(n + 1)
    out[0] = fhat[0]
    out[1:] = (fhat[1:] - basis.alpha * total) / basis.beta
    return out


def shapley_from_correlations(corr: np.ndarray, f_top: float, f_bottom: float, n: int) -> np.ndarray:
    """Index vector from correlations; corr is (n,) bare or (n+1,) with mean."""
    corr = np.asarray(corr, dtype=np.float64)
    if corr.size == n + 1:
        c = corr[1:]
    elif corr.size == n:
        c = corr
    else:
        raise ValueError(f"expected {n} or {n + 1} correlations, got {corr.size}")
    nu = (f_top - f_bottom) / n
    lam = lambda_n(n)
    return nu + 0.5 * lam * (c - c.mean())


def correlations_from_shapley(shapley: np.ndarray, nu: float, mean_corr: float) -> np.ndarray:
    """Coordinate correlations with prescribed mean; inverse of the above."""
    s = np.asarray(shapley, dtype=np.float64)
    lam = lambda_n(s.size)
    return (2.0 / lam) * (s - nu) + mean_corr


def shapley_from_fourier(fhat: np.ndarray, nu: float) -> np.ndarray:
    """Index vector from basis coefficients: sqrt(lam) times the centered tail."""
    fhat = np.asarray(fhat, dtype=np.float64)
    n = fhat.size - 1
    lam = lambda_n(n)
    tail = fhat[1:]
    return math.sqrt(lam) * (tail - tail.mean()) + nu


def d_shapley(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def d_fourier(fhat: np.ndarray, ghat: np.ndarray) -> float:
    """Distance over the coordinate coefficients, slot 0 excluded."""
    fhat = np.asarray(fhat, dtype=np.float64)
    ghat = np.asarray(ghat, dtype=np.float64)
    if fhat.shape != ghat.shape:
        raise ValueError(f"shape mismatch {fhat.shape} vs {ghat.shape}")
    return float(np.linalg.norm(fhat[1:] - ghat[1:]))
