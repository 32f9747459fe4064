"""Monte-Carlo estimators for correlations and for the index vector.

Sample counts follow additive Chernoff bounds so that with probability
1 - delta every coordinate lands within its share of an overall Euclidean
budget gamma: correlations get gamma/sqrt(n+1) per slot from m =
ceil(2 (n+1) ln(2(n+1)/delta) / gamma^2) draws, index estimates get
gamma/sqrt(n) per voter from m = ceil(8 n ln(2n/delta) / gamma^2) sampled
voter orders (each summand spans [-2, 2]).

Draws and sampled orders go through fn in blocks sized by
_subsetdp._BLOCK_BYTES, so working memory does not grow with the sample
count; only the (n+1,) or (n,) accumulators persist between blocks.  The
voter orders of a games.ltf_fn evaluator whose game has an integer form
(games.integer_form) and sum |w| < 2^52 skip fn: a prefix passes iff the
running weight sum of its voters, exact in float64, reaches the form's
step, which scores every prefix as fn would, so the estimate is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _subsetdp
from .games import integer_form
from .mu import mu_distribution, sample_mu_batch


@dataclass(frozen=True)
class EstimateConfig:
    gamma: float = 0.1
    delta: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0,1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        correlation_sample_count(1, self.gamma, self.delta)  # the least count either estimator draws


def _sample_count(scale: int, c: int, gamma: float, delta: float) -> int:
    """ceil(scale * c * ln(2c/delta) / gamma^2); refuses one that is not finite."""
    bound = scale * c * math.log(2 * c / delta) / gamma**2 if gamma**2 > 0 else math.inf
    if not math.isfinite(bound):
        raise ValueError(f"gamma = {gamma:g} and delta = {delta:g} give a sample count that is not finite")
    return math.ceil(bound)


def correlation_sample_count(n: int, gamma: float, delta: float) -> int:
    return _sample_count(2, n + 1, gamma, delta)


def shapley_sample_count(n: int, gamma: float, delta: float) -> int:
    return _sample_count(8, n, gamma, delta)


def estimate_correlations(fn, n: int, cfg: EstimateConfig) -> tuple[np.ndarray, int]:
    """Estimate (E[f], E[f x_1], ..., E[f x_n]) under the slice distribution."""
    m = correlation_sample_count(n, cfg.gamma, cfg.delta)
    rng = np.random.default_rng(cfg.seed)
    dist = mu_distribution(n)
    acc = np.zeros(n + 1)
    # fn's float64 cast of a block of draws is the largest array
    block = max(1, _subsetdp._BLOCK_BYTES // (8 * n))
    done = 0
    while done < m:
        b = min(block, m - done)
        X = sample_mu_batch(dist, b, rng)
        v = np.asarray(fn(X), dtype=np.float64)
        acc[0] += v.sum()
        acc[1:] += v @ X
        done += b
    return acc / m, m


def _order_sweep(fn, n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Sum of per-voter jumps over m sampled voter orders.

    Each order is swept once: the n+1 nested prefixes are evaluated in a
    batch and consecutive differences are credited to the voter that joined.
    Per-order totals telescope to f(all +1) - f(all -1) exactly.  Orders go
    in blocks whose (b*(n+1), n) prefix rows, cast to float64 by fn, take
    about _subsetdp._BLOCK_BYTES; the block size does not change which
    orders are drawn.  For a game with an integer form (w, thr) and sum |w|
    < 2^52 the prefix values are [cumsum(w[P]) >= t] for the step t of thr
    (_subsetdp._step), so no prefix row is built and fn is not called: O(n)
    per order, not O(n^2).
    """
    acc = np.zeros(n)
    form = integer_form(fn._game) if hasattr(fn, "_game") else None
    sweep = form is not None and np.abs(form[0]).sum() < 2**52
    if sweep:
        t = _subsetdp._step(form[1], int(form[0].sum()))
        w = form[0].astype(np.float64)
    steps = np.arange(n + 1)[None, :, None]
    block = max(1, _subsetdp._BLOCK_BYTES // (8 * (n + 1) * n))
    done = 0
    while done < m:
        b = min(block, m - done)
        P = np.argsort(rng.random((b, n)), axis=1)
        if not sweep:
            rank = np.argsort(P, axis=1)
            X = np.where(rank[:, None, :] < steps, np.int8(1), np.int8(-1))
            V = np.asarray(fn(X.reshape(-1, n)), dtype=np.float64).reshape(b, n + 1)
        else:
            U = np.zeros((b, n + 1))
            np.cumsum(w[P], axis=1, out=U[:, 1:])
            V = np.where(U >= t, 1.0, -1.0)
        diffs = V[:, 1:] - V[:, :-1]
        acc += np.bincount(P.ravel(), weights=diffs.ravel(), minlength=n)
        done += b
    return acc


def estimate_shapley(fn, n: int, cfg: EstimateConfig) -> tuple[np.ndarray, int]:
    """Estimate the index vector from random voter orders."""
    m = shapley_sample_count(n, cfg.gamma, cfg.delta)
    rng = np.random.default_rng(cfg.seed)
    return _order_sweep(fn, n, m, rng) / m, m


def estimate_shapley_fixed(fn, n: int, m: int, seed: int = 0) -> np.ndarray:
    """Index estimate from a caller-chosen number of sampled orders."""
    if m < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    return _order_sweep(fn, n, m, rng) / m
