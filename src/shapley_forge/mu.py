"""The reweighted-slice distribution on the cube and its degree-1 basis.

The distribution lives on {-1,+1}^n minus the two constant strings.  A draw
picks a Hamming weight k in {1, ..., n-1} with probability proportional to
1/k + 1/(n-k), then a uniform point of that slice.  Under it the coordinates
are exchangeable with mean zero and pair correlation 1 - 4/lam(n), and the
span of {1, x_1, ..., x_n} has an orthonormal basis built from two scalars
(alpha, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _subsetdp

# budget of one float64 (draws x n) matrix; a probe holds up to about three
_SAMPLE_BYTES = 512 << 20


def lambda_n(n: int) -> float:
    """Normalizer sum_{0<k<n} (1/k + 1/(n-k)) = 2 * H_{n-1}."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 2.0 * math.fsum(1.0 / k for k in range(1, n))


def slice_prob(n: int, k: int) -> float:
    """Probability that a draw has Hamming weight k."""
    if not 0 < k < n:
        raise ValueError(f"slice weight must satisfy 0 < k < n, got k={k}, n={n}")
    return (1.0 / k + 1.0 / (n - k)) / lambda_n(n)


def mu_pmf(n: int, wt: int) -> float:
    """Probability of one specific point with the given Hamming weight."""
    if not 0 <= wt <= n:
        raise ValueError(f"Hamming weight out of range: {wt}")
    if wt == 0 or wt == n:
        return 0.0
    return slice_prob(n, wt) / math.comb(n, wt)


def _slice_probs(n: int, lam: float) -> list[float]:
    """slice_prob(n, k) for k = 1..n-1, the same floats, given lam = lambda_n(n)."""
    return [(1.0 / k + 1.0 / (n - k)) / lam for k in range(1, n)]


@lru_cache(maxsize=None)
def mu_pmf_points(n: int) -> np.ndarray:
    """Read-only (n+1,) vector of mu_pmf(n, k) for k = 0..n; refuses an n whose C(n, k) pass the float range."""
    out = np.zeros(n + 1)
    if n >= 2:
        try:
            out[1:n] = [p / math.comb(n, k) for k, p in enumerate(_slice_probs(n, lambda_n(n)), 1)]
        except OverflowError:  # C(n, n/2) passes the float range from n = 1030 on
            raise ValueError(f"the slice point masses at n = {n} need C(n, k) past the float range") from None
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MuDistribution:
    """Precomputed sampling tables; index k of slice_weight is the slice."""

    n: int
    lam: float
    slice_weight: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self) -> None:
        self.slice_weight.setflags(write=False)
        self.cumulative.setflags(write=False)


def mu_distribution(n: int) -> MuDistribution:
    if n < 3:
        raise ValueError(f"distribution tables need n >= 3, got {n}")
    lam = lambda_n(n)
    weights = np.zeros(n + 1)
    weights[1:n] = _slice_probs(n, lam)
    return MuDistribution(n=n, lam=lam, slice_weight=weights, cumulative=np.cumsum(weights))


def _weights_from_uniform(dist: MuDistribution, u: np.ndarray) -> np.ndarray:
    ks = np.searchsorted(dist.cumulative, u, side="right")
    # guard the u ~ 1.0 edge against cumulative rounding
    return np.minimum(ks, dist.n - 1)


def check_samples(m: int, n: int) -> None:
    """Refuse a sample count below 1, or one whose (m, n) float64 draws pass the byte budget."""
    if m < 1:
        raise ValueError(f"samples must be at least 1, got {m}")
    if m * n * 8 > _SAMPLE_BYTES:
        raise ValueError(f"{m} samples of {n} coordinates exceed the {_SAMPLE_BYTES >> 20} MiB sample budget")


def sample_mu_batch(dist: MuDistribution, m: int, rng: np.random.Generator) -> np.ndarray:
    """(m, n) int8 matrix of independent draws."""
    n = dist.n
    ks = _weights_from_uniform(dist, rng.random(m))
    X = np.full((m, n), -1, dtype=np.int8)
    U = rng.random((m, n))
    for k in range(1, n):
        rows = np.nonzero(ks == k)[0]
        if rows.size == 0:
            continue
        # k smallest of a row of iid uniforms is a uniform k-subset
        idx = np.argpartition(U[rows], k - 1, axis=1)[:, :k]
        X[rows[:, None], idx] = 1
    return X


ENUM_CAP = 20


@lru_cache(maxsize=None)
def enumerate_cube(n: int) -> np.ndarray:
    """All of {-1,+1}^n as a (2^n, n) int8 matrix, coordinate j from bit j."""
    if n > ENUM_CAP:
        raise ValueError(f"refusing to enumerate 2^{n} points (cap {ENUM_CAP})")
    cube = np.empty((2**n, n), dtype=np.int8)
    for j in range(n):
        # bit j of the row index: runs of 2^j zeros then 2^j ones
        runs = cube.reshape(-1, 2, 1 << j, n)
        runs[:, 0, :, j] = -1
        runs[:, 1, :, j] = 1
    cube.setflags(write=False)
    return cube


@lru_cache(maxsize=None)
def enumerate_support(n: int) -> np.ndarray:
    """The cube minus the all-(-1) and all-(+1) rows."""
    support = enumerate_cube(n)[1:-1]
    support.setflags(write=False)
    return support


@lru_cache(maxsize=None)
def mu_weights(n: int) -> np.ndarray:
    """Point probabilities aligned with enumerate_support(n)."""
    support = enumerate_support(n)
    wt = np.count_nonzero(support == 1, axis=1)
    out = mu_pmf_points(n)[wt]
    out.setflags(write=False)
    return out


def blocked_values(fn, X: np.ndarray) -> np.ndarray:
    """fn over the rows of X as float64, fn called on row blocks of X.

    A block holds about _subsetdp._BLOCK_BYTES of fn's float64 cast of its
    rows, so the working arrays stay that small however many rows X has.
    """
    rows = max(1, _subsetdp._BLOCK_BYTES // (8 * X.shape[1]))
    vals = np.empty(X.shape[0])
    for s in range(0, X.shape[0], rows):
        vals[s : s + rows] = fn(X[s : s + rows])
    return vals


def exact_correlations(fn, n: int) -> np.ndarray:
    """(n+1,) vector: entry 0 is E[f], entry i is E[f x_i]."""
    # weighted over the whole cube, in cube order: x_j is +1 on the rows
    # whose index has bit j set, -1 on the rest
    weighted = np.zeros(2**n)
    weighted[1:-1] = mu_weights(n) * blocked_values(fn, enumerate_support(n))
    out = np.empty(n + 1)
    out[0] = weighted.sum()
    for j in range(n):
        halves = weighted.reshape(-1, 2, 1 << j)
        out[j + 1] = halves[:, 1].sum() - halves[:, 0].sum()
    return out


def pair_correlation(n: int) -> float:
    """E[x_i x_j] for i != j."""
    return 1.0 - 4.0 / lambda_n(n)


def degree1_moment_matrix(n: int) -> np.ndarray:
    """Second moments of (1, x_1, ..., x_n): identity diagonal, rho off it."""
    rho = pair_correlation(n)
    M = np.full((n + 1, n + 1), rho)
    M[0, :] = 0.0
    M[:, 0] = 0.0
    np.fill_diagonal(M, 1.0)
    return M


@dataclass(frozen=True)
class FourierBasis:
    """Scalars of the orthonormal degree-1 basis z_i = alpha*sum_j x_j + beta*x_i."""

    n: int
    alpha: float
    beta: float


def basis_coeffs(n: int) -> FourierBasis:
    if n < 3:
        raise ValueError(f"the degree-1 basis degenerates below n=3, got {n}")
    lam = lambda_n(n)
    den = n * lam - 4.0 * (n - 1)
    if den <= 0:
        raise ValueError(f"basis undefined at n={n}")
    beta = math.sqrt(lam) / 2.0
    alpha = (math.sqrt(lam / den) - beta) / n
    return FourierBasis(n=n, alpha=alpha, beta=beta)

