"""Anti-concentration probes and distance-transfer reports.

Three numeric checks back the solver's guarantees: how much slice-measure
mass sits near a game's decision boundary, how often a random voter-order
prefix leaves the running total near zero, and a Littlewood-Offord style
bound under independent biased coordinates.  Each probe is exact by
enumeration at small n and Monte-Carlo beyond, and reports an estimate with
its standard error so bound checks can allow for sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .games import VotingGame, ltf_fn
from .indices import (
    d_fourier,
    d_shapley,
    fourier_from_correlations,
    shapley_exact_truthtable,
)
from .mu import (
    basis_coeffs,
    check_samples,
    enumerate_cube,
    enumerate_support,
    exact_correlations,
    lambda_n,
    mu_distribution,
    mu_weights,
    sample_mu_batch,
)

EXACT_CAP = 14
BALANCED_EXACT_CAP = 8


@dataclass(frozen=True)
class AntiConcReport:
    r: float
    estimate: float
    stderr: float
    samples: int
    distribution: str
    method: str


@dataclass(frozen=True)
class BiasedDist:
    """Independent coordinates, each +1 with probability bias."""

    n: int
    bias: float

    def __post_init__(self) -> None:
        if not 0 < self.bias < 1:
            raise ValueError(f"bias must lie in (0,1), got {self.bias}")


def _check_probe(r: float, samples: int) -> None:
    if not r >= 0:  # refuses NaN too
        raise ValueError(f"r must be nonnegative, got {r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _sample_report(hits: np.ndarray, r: float, distribution: str) -> AntiConcReport:
    m = hits.size
    p = float(hits.mean())
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / m)
    return AntiConcReport(r=r, estimate=p, stderr=stderr, samples=m, distribution=distribution, method="sampled")


def anticonc_mu(game: VotingGame, r: float, *, samples: int = 200_000, seed: int = 0) -> AntiConcReport:
    """Mass of |w.x - theta| < r (strict) under the slice distribution."""
    _check_probe(r, samples)
    n = game.n
    if n <= EXACT_CAP:
        scores = enumerate_support(n) @ game.weights - game.threshold
        est = float(mu_weights(n)[np.abs(scores) < r].sum())
        return AntiConcReport(r=r, estimate=est, stderr=0.0, samples=2**n - 2, distribution="mu", method="exact")
    check_samples(samples, n)
    rng = np.random.default_rng(seed)
    X = sample_mu_batch(mu_distribution(n), samples, rng)
    hits = np.abs(X @ game.weights - game.threshold) < r
    return _sample_report(hits, r, "mu")


def balanced_fraction(
    w0: float, weights, i: int, r: float, *, samples: int = 200_000, seed: int = 0
) -> AntiConcReport:
    """Fraction of size-i prefix sets T with |w0 + w(T) - w(T^c)| <= r.

    A uniform voter order makes its length-i prefix a uniform i-subset, so
    this is the chance the running signed total sits within r of zero right
    after the i-th voter joins.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    if not (math.isfinite(w0) and np.all(np.isfinite(w))):
        raise ValueError(f"w0 and the weights must be finite, got w0 = {w0}")
    if not 0 <= i <= n:
        raise ValueError(f"prefix length must lie in [0, {n}], got {i}")
    _check_probe(r, samples)
    tot = float(w.sum())
    if n <= BALANCED_EXACT_CAP:
        hits = 0
        count = 0
        for T in combinations(range(n), i):
            s = w0 + 2.0 * float(w[list(T)].sum()) - tot
            hits += abs(s) <= r
            count += 1
        return AntiConcReport(
            r=r, estimate=hits / count, stderr=0.0, samples=count, distribution="balanced-prefix", method="exact"
        )
    check_samples(samples, n)
    rng = np.random.default_rng(seed)
    U = rng.random((samples, n))
    if i == 0:
        sums = np.zeros(samples)
    else:
        idx = np.argpartition(U, min(i - 1, n - 1), axis=1)[:, :i]
        sums = w[idx].sum(axis=1)
    hits = np.abs(w0 + 2.0 * sums - tot) <= r
    return _sample_report(hits, r, "balanced-prefix")


def balanced_prefix_bound(n: int, i: int, eta: float) -> float:
    """Upper bound (4/eta) * min(i, n-i) / n, valid for monotone eta-reasonable
    games whose total weight is at least (2/eta) * r."""
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0,1)")
    return (4.0 / eta) * min(i, n - i) / n


def littlewood_offord_bound(weights, r: float, bias: float) -> float:
    """1/sqrt(K * bias * (1-bias)) with K the count of weights at least r."""
    w = np.asarray(weights, dtype=np.float64)
    K = int(np.count_nonzero(np.abs(w) >= r))
    if K == 0:
        return math.inf
    return 1.0 / math.sqrt(K * bias * (1.0 - bias))


def anticonc_biased(
    game: VotingGame, r: float, dist: BiasedDist, *, samples: int = 200_000, seed: int = 0
) -> tuple[AntiConcReport, float, bool]:
    """Mass of |w.x - theta| < r under independent biased coordinates.

    Returns (report, bound, violated); the bound is vacuous (inf) when no
    weight reaches r, and a sampled violation needs a 5-sigma excess.
    """
    _check_probe(r, samples)
    if dist.n != game.n:
        raise ValueError(f"dimension mismatch: game n={game.n}, distribution n={dist.n}")
    n = game.n
    delta = dist.bias
    bound = littlewood_offord_bound(game.weights, r, delta)
    if n <= EXACT_CAP:
        cube = enumerate_cube(n)
        wt = np.count_nonzero(cube == 1, axis=1)
        probs = delta**wt * (1.0 - delta) ** (n - wt)
        scores = cube @ game.weights - game.threshold
        est = float(probs[np.abs(scores) < r].sum())
        report = AntiConcReport(
            r=r, estimate=est, stderr=0.0, samples=2**n, distribution="biased", method="exact"
        )
        return report, bound, est > bound
    check_samples(samples, n)
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((samples, n)) < delta, np.int8(1), np.int8(-1))
    hits = np.abs(X @ game.weights - game.threshold) < r
    report = _sample_report(hits, r, "biased")
    return report, bound, report.estimate > bound + 5.0 * report.stderr


@dataclass(frozen=True)
class DistanceReport:
    n: int
    d_shapley: float
    d_fourier: float
    corr_gap: float
    shapley_bound: float
    shapley_slack: float
    fourier_bound: float
    fourier_slack: float


def distance_report(f_fn, g_fn, n: int) -> DistanceReport:
    """Exact distances between two functions plus the two transfer bounds.

    The index distance is bounded by 4/sqrt(n) + sqrt(lam) times the basis
    distance, and the basis distance by sqrt(2 (alpha^2 n^2 + beta^2)) times
    the raw correlation gap; both slacks should come out nonnegative.
    """
    if n > 12:
        raise ValueError(f"distance reports are capped at n=12, got {n}")
    rep_f = shapley_exact_truthtable(f_fn, n)
    rep_g = shapley_exact_truthtable(g_fn, n)
    corr_f = exact_correlations(f_fn, n)
    corr_g = exact_correlations(g_fn, n)
    basis = basis_coeffs(n)
    fhat = fourier_from_correlations(corr_f, basis)
    ghat = fourier_from_correlations(corr_g, basis)
    ds = d_shapley(rep_f.shapley, rep_g.shapley)
    df = d_fourier(fhat, ghat)
    gap = float(np.linalg.norm(corr_f - corr_g))
    lam = lambda_n(n)
    s_bound = 4.0 / math.sqrt(n) + math.sqrt(lam) * df
    f_bound = math.sqrt(2.0 * (basis.alpha**2 * n**2 + basis.beta**2)) * gap
    return DistanceReport(
        n=n,
        d_shapley=ds,
        d_fourier=df,
        corr_gap=gap,
        shapley_bound=s_bound,
        shapley_slack=s_bound - ds,
        fourier_bound=f_bound,
        fourier_slack=f_bound - df,
    )


def ltf_distance_report(f_game: VotingGame, g_game: VotingGame) -> DistanceReport:
    if f_game.n != g_game.n:
        raise ValueError("games must share the voter count")
    return distance_report(ltf_fn(f_game), ltf_fn(g_game), f_game.n)
