"""Exact subset-sum counting tables for integer-weight games.

Everything here counts subsets T of the voter set, binned by size k and by
integer weight sum u; offset indexing maps a possibly negative u onto column
u + off.  Counts are exact at every n: a table over n <= 62 voters holds
int64 (every count is at most C(n, k) < 2^62), a larger one Python ints.
Tables past a byte budget are refused before anything is allocated.

Consumers evaluate a scalar profile on the signed score 2*u - total (the
value of w.x when the +1 set sums to u), so the same tables serve sign
games, clipped games and pivot counts, with negative weights allowed.

Pivot counts need no per-voter table.  The counts over the voters other
than i unroll to G_i[k, u] = sum_j (-1)^j F[k - j, u - j*w_i], and under a
step profile voter i swings exactly when the others' sum u falls in one
window: [t - w_i, t) for w_i > 0, [t, t - w_i) for w_i < 0.  So a swing
count is an alternating sum of window sums of F, each two lookups into the
row prefix sums of F.  Only the windows depend on t: games that share a
weight vector and differ in threshold share one table, one set of prefix
sums and one grouping of voters by weight, and _window_swings counts them
all in one call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# largest voter count whose subset counts C(n, k) all fit in int64
_INT64_MAX_N = 62
# budget of one (n+1) x width count table, at 8 bytes a cell
_TABLE_BYTES = 256 << 20
# bytes of the (t, j, k, weight) window gathers in one block of steps t and shifts j
_GATHER_BYTES = 32 << 20


def _int_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.int64)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("need a non-empty 1-d integer weight vector")
    return w


def check_table_budget(n: int, width: int) -> None:
    """Refuse an (n+1) x width count table over the byte budget."""
    if (n + 1) * width * 8 > _TABLE_BYTES:
        raise ValueError(
            f"subset table of {n + 1} x {width} counts exceeds the "
            f"{_TABLE_BYTES >> 20} MiB budget; the weights are too large"
        )


def subset_count_table(weights) -> tuple[np.ndarray, int]:
    """F[k, u + off] = number of k-subsets with weight sum u."""
    ws = _int_weights(weights).tolist()
    n = len(ws)
    lo = sum(v for v in ws if v < 0)
    hi = sum(v for v in ws if v > 0)
    off = -lo
    width = hi - lo + 1
    check_table_budget(n, width)
    F = np.zeros((n + 1, width), dtype=np.int64 if n <= _INT64_MAX_N else object)
    F[0, off] = 1
    a = b = off  # columns reachable by the voters added so far
    for i, wi in enumerate(ws):
        # rows past i are still zero; numpy buffers the overlapping operands
        F[1 : i + 2, a + wi : b + wi + 1] += F[: i + 1, a : b + 1]
        a, b = a + min(wi, 0), b + max(wi, 0)
    return F, off


def _shift(row: np.ndarray, d: int) -> np.ndarray:
    """out[u] = row[u - d], zero-filled."""
    out = np.zeros_like(row)
    if d == 0:
        out[:] = row
    elif d > 0:
        out[d:] = row[:-d]
    else:
        out[:d] = row[-d:]
    return out


def leave_one_out(F: np.ndarray, off: int, wi: int) -> np.ndarray:
    """Counts over the other voters, deconvolved from the full table.

    G[k, u + off] counts k-subsets avoiding voter i with weight sum u; rows
    follow G[k] = F[k] - shift(G[k-1], wi), ascending in k.
    """
    n = F.shape[0] - 1
    G = np.zeros((n, F.shape[1]), dtype=F.dtype)
    G[0] = F[0]
    for k in range(1, n):
        G[k] = F[k] - _shift(G[k - 1], wi)
    return G


def mu_correlations_affine(weights, phi, pmf_point: np.ndarray) -> np.ndarray:
    """Correlations (E[h], E[h x_1], ..., E[h x_n]) of h(x) = phi(w.x).

    phi maps integer scores to values, vectorized.  pmf_point[k] is the
    probability of one specific point of Hamming weight k.
    """
    w = _int_weights(weights)
    n = w.size
    total = int(w.sum())
    F, off = subset_count_table(w)
    width = F.shape[1]
    u = np.arange(width) - off

    vals_full = np.asarray(phi(2 * u - total), dtype=np.float64)
    out = np.empty(n + 1)
    out[0] = float(np.einsum("k,ku,u->", pmf_point[: n + 1], F, vals_full))

    for i, wi in enumerate(w):
        G = leave_one_out(F, off, int(wi))
        # x_i = +1: Hamming weight k+1, score 2(u + w_i) - total
        vplus = np.asarray(phi(2 * (u + wi) - total), dtype=np.float64)
        # x_i = -1: Hamming weight k, score 2u - total
        vminus = vals_full
        acc = 0.0
        for k in range(n):
            row = G[k]
            acc += pmf_point[k + 1] * float(row @ vplus) - pmf_point[k] * float(row @ vminus)
        out[i + 1] = acc
    return out


def _swing_table(w: np.ndarray) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """What every threshold of weight vector w reads: (P, off, vals, inv).

    P[r, c] is the sum of F[r, :c] over the subset table F of w; row n is
    never needed (k - j <= n - 1) and is zeroed to serve as the target of
    every r = k - j < 0.  vals are the distinct weights and inv maps each
    voter to its column.
    """
    F, off = subset_count_table(w)
    n, width = w.size, F.shape[1]
    # np.unique(w, return_inverse=True) costs twice this at small n, and
    # plain np.unique (numpy 2.4) loads a hash table worth 1 MB of peak RSS
    vals = np.sort(w)
    vals = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]
    inv = np.searchsorted(vals, w)
    P = np.zeros((n + 1, width + 1), dtype=F.dtype)
    np.cumsum(F[:n], axis=1, out=P[:n, 1:])
    return P, off, vals, inv


def _window_swings(w: np.ndarray, ts, table=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Swing counts across each step in ts, one column per distinct weight.

    Returns (S, vals, inv): vals are the distinct weights, inv maps each
    voter to its column, and S[i, k, g] counts the k-subsets of the other
    voters whose sum u puts u and u + vals[g] on opposite sides of ts[i]
    (the window of the module docstring).  Every step reads the same
    _swing_table(w), which a caller that scores w again may pass as table;
    only the windows move.  Int64 arithmetic wraps in a ring, so S is exact
    whenever its entries fit, which the table's dtype ensures.
    """
    P, off, vals, inv = _swing_table(w) if table is None else table
    n, width = w.size, P.shape[1] - 1
    # outside [lo, hi + 1] every window is empty, and t stays in int64
    t = np.array([min(max(int(v), -off), width - off) + off for v in ts], dtype=np.int64)
    a = t[:, None] - np.maximum(vals, 0)
    b = t[:, None] - np.minimum(vals, 0)

    # each (t, j) pair of a block gathers 24 * n * vals.size bytes
    k = np.arange(n)
    pair = 24 * n * vals.size
    step = max(2, _GATHER_BYTES // pair) // 2 * 2  # even: j0 stays even
    t_step = max(1, _GATHER_BYTES // (pair * min(step, n)))
    S = np.zeros((t.size, n, vals.size), dtype=P.dtype)
    for j0 in range(0, n, step):
        j = np.arange(j0, min(n, j0 + step))
        r = k[None, :] - j[:, None]
        r[r < 0] = n
        r = r[:, :, None]
        shift = j[:, None] * vals[None, :]
        for t0 in range(0, t.size, t_step):
            blk = slice(t0, t0 + t_step)
            hi = np.clip(b[blk, None, :] - shift, 0, width)[:, :, None, :]
            lo = np.clip(a[blk, None, :] - shift, 0, width)[:, :, None, :]
            win = P[r, hi] - P[r, lo]  # (t, j, k, g) window sums of F[k - j]
            S[blk] += win[:, 0::2].sum(axis=1) - win[:, 1::2].sum(axis=1)
    return S, vals, inv


@lru_cache(maxsize=None)
def _pivot_coef(n: int) -> np.ndarray:
    """k!(n-1-k)!/n!: the probability of one k-subset preceding a voter."""
    coef = np.array([1.0 / (n * math.comb(n - 1, k)) for k in range(n)])
    coef.setflags(write=False)
    return coef


def _pivot_probabilities(S: np.ndarray) -> np.ndarray:
    """sum_k S[k] k!(n-1-k)!/n! per column, in float64."""
    n = S.shape[0]
    if S.dtype == object:  # divide exactly: the coefficients can underflow
        combs = np.array([math.comb(n - 1, k) for k in range(n)], dtype=object)
        return (S / combs[:, None]).astype(np.float64).sum(axis=0) / n
    return _pivot_coef(n) @ S


def shapley_affine(weights, threshold: float) -> np.ndarray:
    """Generalized index vector of the sign game h(x) = [w.x >= threshold].

    Entry i is the expected jump of h, +-1 valued, when voter i flips up
    after a uniformly random prefix: +2 or -2 times its swing probability.
    """
    w = _int_weights(weights)
    # w.x = 2u - total is an integer, so w.x >= threshold iff u >= t
    t = -((-math.ceil(threshold) - sum(w.tolist())) // 2)
    S, vals, inv = _window_swings(w, [t])
    return (2.0 * np.sign(vals) * _pivot_probabilities(S[0]))[inv]


def classical_pivot_dp(int_weights, quota: int) -> np.ndarray:
    """Classical power vector of a nonnegative-integer quota game."""
    w = _int_weights(int_weights)
    if np.any(w < 0):
        raise ValueError("quota games need nonnegative weights")
    S, _, inv = _window_swings(w, [quota])
    return _pivot_probabilities(S[0])[inv]
