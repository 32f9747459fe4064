"""Exact subset-sum counting tables for integer-weight games.

Everything here counts subsets T of the voter set, binned by size k and by
integer weight sum u; offset indexing maps a possibly negative u onto column
u + off.  Counts are exact at every n: a table over n <= 62 voters holds
int64 (every count is at most C(n, k) < 2^62), a larger one Python ints.
Tables past a byte budget are refused before anything is allocated.

One core, _window_sums, serves every consumer.  The counts over the voters
other than i unroll to G_i[k, u] = sum_j (-1)^j F[k - j, u - j*w_i], so for
a profile phi of the +1 set's sum, Psi_e[k] = sum_u G_i[k, u] phi(u + e*w_i)
is sum_j (-1)^j V[k - j, j + e], where V[r, m] = sum_v F[r, v] phi(v + m*w_i)
is read once per cell r + m <= n and voters of equal weight share it.
Every phi is -1 below an edge alpha and +1 from an edge beta, so V comes
from the row prefix sums of F.  A step (alpha = beta) serves sign games,
quota games and solve validation, whose index is
sum_k k!(n-1-k)!/n! (Psi_1 - Psi_0)[k]; thresholds of one weight vector
share its table.  The boosting oracle's clipped profile is gamma*(2u + d)
on [alpha, beta), which also reads the prefix sums of the first moment
u*F; its correlation slot i is sum_k pmf(k+1) Psi_1[k] - pmf(k) Psi_0[k].

Integer parts are summed exactly, and only the final combination with gamma
is float.  Int64 arithmetic wraps in a ring, so a sum is exact whenever its
true value fits.  A Psi is at most C(n-1, k), but a first-moment sum up to
C(n-1, k) * max|2u + d| over the linear window: first moments are int64
while that bound fits and Python ints above it, like the table itself.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# largest voter count whose subset counts C(n, k) all fit in int64
_INT64_MAX_N = 62
# budget of one (n+1) x width count table, at 8 bytes a cell
_TABLE_BYTES = 256 << 20
# bytes of the (profile, weight, cell) gathers of one block of _window_sums
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


def mu_correlations_affine(weights, c0: int, gamma: float, pmf_point: np.ndarray) -> np.ndarray:
    """Correlations (E[h], E[h x_1], ..., E[h x_n]) of h(x) = clip(gamma (w.x + c0), -1, 1).

    pmf_point[k] is the probability of one specific point of Hamming weight k.
    """
    w = _int_weights(weights)
    table = _swing_table(w)
    off, width = table[1], table[0].shape[1] - 1
    # w.x = 2u - total, so h = clip(gamma (2u + d)): -1 below alpha, +1 from beta
    d = int(c0) - sum(w.tolist())
    z = gamma * (2 * (np.arange(width) - off) + d)
    alpha = int(np.count_nonzero(z <= -1.0)) - off
    beta = int(np.count_nonzero(z < 1.0)) - off
    Psi, _, inv = _window_sums(w, [alpha], [beta], gamma, d, table)
    Psi = np.asarray(Psi[0], dtype=np.float64)
    # x_i = +1 puts a k-subset of the others at Hamming weight k + 1
    up = pmf_point[1:] @ Psi[1]
    down = pmf_point[:-1] @ Psi[0]
    # F[k] = G_i[k] + G_i[k-1] shifted by w_i, for any one voter i
    return np.concatenate(([up[0] + down[0]], (up - down)[inv]))


def _swing_table(w: np.ndarray) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """What every profile of weight vector w reads: (P, off, vals, inv).

    P[r, c] is the sum of F[r, :c] over the subset table F of w, for the
    rows r < n that any other voter set reaches.  vals are the distinct
    weights and inv maps each voter to its column.
    """
    F, off = subset_count_table(w)
    n, width = w.size, F.shape[1]
    # np.unique(w, return_inverse=True) costs twice this at small n, and
    # plain np.unique (numpy 2.4) loads a hash table worth 1 MB of peak RSS
    vals = np.sort(w)
    vals = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]
    inv = np.searchsorted(vals, w)
    P = np.zeros((n, width + 1), dtype=F.dtype)
    np.cumsum(F[:n], axis=1, out=P[:, 1:])
    return P, off, vals, inv


@lru_cache(maxsize=None)
def _diagonals(n: int) -> tuple[np.ndarray, ...]:
    """The cells (r, m) of V that Psi reads, with (-1)^m and the diagonal starts.

    The n cells m = 0 come first.  Then diagonal d = r + m = 1..n lists its
    cells m = 1..d, from starts[d - 1] on (counted past the m = 0 cells).
    """
    m = np.concatenate([np.zeros(n, dtype=np.int64)] + [np.arange(1, d + 1) for d in range(1, n + 1)])
    r = np.concatenate([np.arange(n)] + [d - np.arange(1, d + 1) for d in range(1, n + 1)])
    d = np.arange(1, n + 1)
    out = (r, m, 1 - 2 * (m % 2), d * (d - 1) // 2)
    for a in out:
        a.setflags(write=False)
    return out


def _alternating(X: np.ndarray, n: int, c: int) -> np.ndarray:
    """c times (Psi_0, Psi_1) of values X[q] on the cells of _diagonals(n), per row q.

    Psi_0[k] = X[k, 0] + D[k] and Psi_1[k] = -D[k + 1], where D[d] sums
    (-1)^m X[r, m] over diagonal d's cells m >= 1.
    """
    _, _, sign, starts = _diagonals(n)
    Y = X * (c * sign)
    D = np.add.reduceat(Y[:, n:], starts, axis=1)
    out = np.stack((Y[:, :n], -D), axis=1)
    out[:, 0, 1:] += D[:, :-1]
    return out


def _window_sums(w: np.ndarray, alpha, beta=None, gamma: float = 0.0, d: int = 0, table=None):
    """(Psi, vals, inv): Psi[p, e, k, g] = sum_u G_g[k, u] phi_p(u + e*vals[g]).

    vals are the distinct weights and inv maps each voter to its column g.
    phi_p is -1 below alpha[p], +1 from beta[p] and gamma*(2u + d) between.
    Steps (beta = None) give integer Psi of the table's dtype, a linear
    window float64.  A caller that scores w again may pass its
    _swing_table(w) as table; only the edges move.
    """
    P, off, vals, inv = _swing_table(w) if table is None else table
    n, width = w.size, P.shape[1] - 1
    r, m, _, _ = _diagonals(n)
    # outside [lo, hi + 1] an edge changes no value phi takes on the table
    a, b = (np.array([min(max(int(e), -off), width - off) + off for e in edges], dtype=np.int64)
            for edges in (alpha, alpha if beta is None else beta))
    linear = beta is not None and bool((a < b).any())
    if linear:
        d2 = int(d) - 2 * off  # 2u + d = 2c + d2 at column c
        edge = max(np.abs(2 * a + d2).max(), np.abs(2 * b - 2 + d2).max())
        if P.dtype != object and math.comb(n - 1, (n - 1) // 2) * int(edge) >= 1 << 63:
            P = P.astype(object)
        P1 = np.zeros_like(P)  # prefix sums of c * F[r, c]
        np.cumsum(np.diff(P, axis=1) * np.arange(width), axis=1, out=P1[:, 1:])

    T, G, L = a.size, vals.size, r.size
    ea, eb = np.repeat(a, G), np.repeat(b, G)
    wv = np.tile(vals, T)
    base = r * (width + 1)
    rows = max(1, _GATHER_BYTES // (L * (96 if linear else 24)))
    # V's row totals C(n, r) sum to Psi_0 = Psi_1 = C(n-1, k): phi = +1 throughout
    totals = np.array([math.comb(n - 1, k) for k in range(n)], dtype=P.dtype)
    out = np.empty((T * G, 2, n), dtype=np.float64 if linear else P.dtype)
    for q0 in range(0, T * G, rows):
        q = slice(q0, q0 + rows)
        mw = np.multiply.outer(wv[q], m)

        def gather(P, e):
            c = e[q, None] - mw
            np.maximum(c, 0, out=c)
            np.minimum(c, width, out=c)
            c += base
            return P.ravel().take(c)

        lo = gather(P, ea)
        if not linear:
            out[q] = totals + _alternating(lo, n, -2)
            continue
        hi = gather(P, eb)
        J1 = 2 * (gather(P1, eb) - gather(P1, ea)) + (2 * mw + d2) * (hi - lo)
        J0 = totals + _alternating(lo + hi, n, -1)
        out[q] = np.asarray(J0, dtype=np.float64) + gamma * np.asarray(_alternating(J1, n, 1), dtype=np.float64)
    return np.ascontiguousarray(out.reshape(T, G, 2, n).transpose(0, 2, 3, 1)), vals, inv


@lru_cache(maxsize=None)
def _pivot_coef(n: int) -> np.ndarray:
    """k!(n-1-k)!/n!: the probability of one k-subset preceding a voter."""
    coef = np.array([1.0 / (n * math.comb(n - 1, k)) for k in range(n)])
    coef.setflags(write=False)
    return coef


def _step_indices(Psi: np.ndarray) -> np.ndarray:
    """sum_k k!(n-1-k)!/n! (Psi_1 - Psi_0)[k] per step profile and weight, in float64.

    Psi_1 - Psi_0 is twice a signed swing count: exact in int64 (below
    2 C(n-1, k) < 2^63), and its float is exactly twice that of the count.
    """
    n = Psi.shape[2]
    D = Psi[:, 1] - Psi[:, 0]
    if D.dtype == object:  # divide exactly: the coefficients can underflow
        combs = np.array([math.comb(n - 1, k) for k in range(n)], dtype=object)
        return (D / combs[:, None]).astype(np.float64).sum(axis=1) / n
    return np.stack([_pivot_coef(n) @ Dt for Dt in D])


def shapley_affine(weights, threshold: float) -> np.ndarray:
    """Generalized index vector of the sign game h(x) = [w.x >= threshold].

    Entry i is the expected jump of h, +-1 valued, when voter i flips up
    after a uniformly random prefix: +2 or -2 times its swing probability.
    """
    w = _int_weights(weights)
    # w.x = 2u - total is an integer, so w.x >= threshold iff u >= t
    t = -((-math.ceil(threshold) - sum(w.tolist())) // 2)
    Psi, _, inv = _window_sums(w, [t])
    return _step_indices(Psi)[0][inv]


def classical_pivot_dp(int_weights, quota: int) -> np.ndarray:
    """Classical power vector of a nonnegative-integer quota game."""
    w = _int_weights(int_weights)
    if np.any(w < 0):
        raise ValueError("quota games need nonnegative weights")
    Psi, _, inv = _window_sums(w, [quota])
    return (0.5 * _step_indices(Psi)[0])[inv]
