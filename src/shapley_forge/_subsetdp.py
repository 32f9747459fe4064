"""Exact subset-sum counting tables for integer-weight games.

Everything here counts subsets T of the voter set, binned by size k and by
integer weight sum u; offset indexing maps a possibly negative u onto column
u + off.  Counts are exact at every n: a table over n <= 62 voters holds
int64 (every count is at most C(n, k) < 2^62), a larger one Python ints.
Tables past a byte budget are refused before anything is allocated.  Only
the rows k <= n/2 are counted, each voter by one flat add between two
buffers; complements mirror them into the rows above (subset_count_table).

Step profiles: the counts over the voters other than i unroll to G_i[k, u]
= sum_j (-1)^j F[k - j, u - j*w_i], so for a step phi of the +1 set's sum,
-1 below t and +1 from it, Psi_e[k] = sum_u G_i[k, u] phi(u + e*w_i) is
sum_j (-1)^j V[k - j, j + e], where V[r, m] = sum_v F[r, v] phi(v + m*w_i).
Voter i's index is sum_k k!(n-1-k)!/n! (Psi_1 - Psi_0)[k].  The row totals
of F cancel in that difference, so what is read is X[r, m], the number of
r-subsets with v + m*w_i < t: once per cell r + m <= n, from the row prefix
sums of F, and voters of equal weight share it.  One reader
(_weight_indices) serves sign games, quota games and solve validation,
whose screen reads a single weight; thresholds of one weight vector share
its table.  Int64 arithmetic wraps in a ring, so these sums are exact
whenever the true value fits, and Psi_1 - Psi_0 is below 2 C(n-1, k).

Clipped profiles: the boosting oracle's h = clip(gamma (w.x + c0)) is -1,
linear, then +1 in the +1 set's sum.  A clip table per weight vector
(_clip_tables) holds the pmf-weighted counts R_0 = sum_k pmf(k) F[k] and,
per distinct weight g, L_g = sum_k pmf(k) G_g[k], with G_g formed exactly
by a recurrence in k before any weighting.  From their prefix sums and
first moments, E[h] = sum_u R_0 phi and E[h x_i] = E[h] - 2 sum_u L_g phi
are a few lookups for each c0, so the rows of a batch that share a weight
vector up to order share one table (mu_correlations_nets).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# largest voter count whose subset counts C(n, k) all fit in int64
_INT64_MAX_N = 62
# largest voter count whose subset counts all fit a float64 mantissa (2^53)
_FLOAT_EXACT_N = 56
# budget of one (n+1) x width count table, at 8 bytes a cell
_TABLE_BYTES = 256 << 20
# bytes of the temporary arrays of one block of a blocked loop, here and in
# the solver; each loop reads it at call time and sizes its blocks by its own
# bytes per item.  Up to n = 16 larger blocks are no faster, and 16 MiB ones
# grow a heap that the allocator does not give back
_BLOCK_BYTES = 4 << 20


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
    """F[k, u + off] = number of k-subsets with weight sum u.

    Only rows k <= n // 2 are counted; the complement of a k-subset of sum u
    is an (n - k)-subset of sum total - u, so F[n - k, c] = F[k, W - 1 - c]
    fills the rest.  Flat, with row stride W, adding voter w is
    F'[j] = F[j] + F[j - (W + w)]: one 1-D add over the rows and columns
    reached so far, from one buffer into the other.  A read that leaves its
    row lands on a column no voter set reaches, so it reads 0; only the
    reads left of the buffer, F[0, c - w] for c < w, are skipped.
    """
    ws = _int_weights(weights).tolist()
    n = len(ws)
    lo = sum(v for v in ws if v < 0)
    hi = sum(v for v in ws if v > 0)
    off = -lo
    width = hi - lo + 1
    check_table_budget(n, width)
    F = np.zeros((n + 1, width), dtype=np.int64 if n <= _INT64_MAX_N else object)
    h = n // 2
    # rows 0..h of F and a spare buffer take turns; the last voter writes F
    bufs = [F[: h + 1].reshape(-1), np.zeros((h + 1) * width, dtype=F.dtype)]
    if n % 2:
        bufs.reverse()
    for buf in bufs:
        buf[off] = 1
    a = b = off  # columns reachable by the voters added so far
    for i, wi in enumerate(ws if h else ()):  # one voter: row 0 and its mirror
        src, dst = bufs[i % 2], bufs[1 - i % 2]
        a, b = a + min(wi, 0), b + max(wi, 0)
        s = width + wi
        start, stop = width + a, min(i + 1, h) * width + b + 1
        if start < s:  # row 1, columns a..wi-1: nothing to add
            dst[start:s] = src[start:s]
            start = s
        np.add(src[start:stop], src[start - s : stop - s], out=dst[start:stop])
    F[h + 1 :] = F[n - h - 1 :: -1, ::-1]
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
    One row of mu_correlations_nets.
    """
    w = _int_weights(weights)
    return mu_correlations_nets(np.array([[c0, *w.tolist()]], dtype=np.int64), gamma, pmf_point)[0]


def mu_correlations_nets(nets: np.ndarray, gamma: float, pmf_point: np.ndarray) -> np.ndarray:
    """mu_correlations_affine of (net[1:], net[0]) for each int64 row of nets.

    A clip table does not depend on voter order, so the rows are grouped by
    their sorted voter net, one table is built per group, and each row reads
    its correlations from its group's table at its own net_0; inv maps each
    voter of a row to its rank among the row's distinct weights.  The tables
    are built together, narrowest first, in batches whose _clip_tables
    arrays stay within about _BLOCK_BYTES.
    """
    n = nets.shape[1] - 1
    order = np.argsort(nets[:, 1:], axis=1, kind="stable")
    srt = np.take_along_axis(nets[:, 1:], order, axis=1)
    new = np.ones(srt.shape, dtype=bool)
    new[:, 1:] = srt[:, 1:] != srt[:, :-1]
    rank = np.cumsum(new, axis=1)  # the last column counts a row's distinct weights
    inv = np.empty(srt.shape, dtype=np.intp)
    np.put_along_axis(inv, order, rank - 1, axis=1)
    groups: dict[bytes, int] = {}
    grp = np.array([groups.setdefault(s.tobytes(), len(groups)) for s in srt])
    first = np.empty(len(groups), dtype=np.intp)
    first[grp[::-1]] = np.arange(grp.size)[::-1]  # each group's first row
    srt = srt[first]
    out = np.empty((len(nets), n + 1))

    def build(batch: list[int]) -> None:
        Q, start = _clip_tables(srt[batch], pmf_point)
        job = np.full(len(srt), -1)
        job[batch] = start
        rows = np.flatnonzero(job[grp] >= 0)
        out[rows] = _clip_correlations(Q, job[grp[rows]], nets[rows], inv[rows], gamma)

    # 8-byte rows of _clip_tables arrays per table, at its batch's width: n + 1
    # of F, and 8 per job (its R_0 and one L_g per distinct weight)
    width = np.abs(srt).sum(axis=1) + 2
    per = n + 1 + 8 * (1 + rank[first, -1])
    batch: list[int] = []
    size = 0
    for g in np.argsort(width, kind="stable").tolist():
        if batch and 8 * width[g] * (size + per[g]) > _BLOCK_BYTES:
            build(batch)
            batch, size = [], 0
        batch.append(g)
        size += per[g]
    build(batch)
    return out


def _clip_tables(srt: np.ndarray, pmf_point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, start): the clip tables of the sorted weight vectors srt, built together.

    The table of a row holds, over the columns c = u + off of its subset
    table F, the pmf-weighted counts R_0 = sum_k pmf(k) F[k] and, for each
    distinct weight g, L_g = sum_k pmf(k) G_g[k], where G_g counts the
    subsets of the voters other than one of weight g.  G_g[k] = F[k] -
    G_g[k-1] shifted by g runs in F's exact dtype, and only then is it
    weighted, so every weighted term is non-negative.  Each profile is a
    job: row m's R_0 is job start[m], and its L_g follow in weight order.
    Q[0, j] holds the row prefix sums of job j's profile and Q[1, j] those
    of c times it, padded to one width.  Every sum runs element by element
    in a fixed order, so a table does not depend on the rows built with it.
    """
    M, n = srt.shape
    tabs = [subset_count_table(w)[0] for w in srt]
    width = max(F.shape[1] for F in tabs)
    # float64 holds every count exactly up to _FLOAT_EXACT_N voters
    dtype = np.float64 if n <= _FLOAT_EXACT_N else tabs[0].dtype
    F = np.zeros((n + 1, M, width), dtype=dtype)
    for m, Fm in enumerate(tabs):
        F[:, m, : Fm.shape[1]] = Fm
    del tabs
    # one job per row for R_0, then one per distinct weight: table row order
    job = np.ones((M, n + 1), dtype=bool)
    job[:, 2:] = srt[:, 1:] != srt[:, :-1]
    job = np.flatnonzero(job)
    net, pos = np.divmod(job, n + 1)
    J = job.size
    # G[k-1] shifted by g, read through a zero column at index width; an
    # R_0 job reads only that column, so its G[k] is F[k]
    col = np.arange(width) - srt[net, pos - 1][:, None]
    col[(col < 0) | (col >= width) | (pos == 0)[:, None]] = width
    col += (width + 1) * np.arange(J)[:, None]
    G = np.zeros((J, width + 1), dtype=dtype)
    Gk = G[:, :width]
    X = np.zeros((J, width))
    for k in range(n + 1):  # G_g[n] is 0, exactly
        np.subtract(F[k].take(net, axis=0), G.ravel().take(col), out=Gk)
        X += pmf_point[k] * (Gk if dtype == np.float64 else Gk.astype(np.float64))
    Q = np.zeros((2, J, width + 1))
    np.cumsum(X, axis=1, out=Q[0, :, 1:])
    X *= np.arange(width)
    np.cumsum(X, axis=1, out=Q[1, :, 1:])
    return Q, np.flatnonzero(pos == 0)


def _clip_edges(gamma: float) -> tuple[int, int]:
    """(s1, s2): gamma*s <= -1 iff s <= s1 and gamma*s >= 1 iff s >= s2, over integers s.

    The products are the floats the clip sees; they are monotone in s.
    Both edges are capped at +-2^61, beyond every score a table holds.
    """
    lim = 1 << 61
    if not gamma > 1.0 / lim:
        return -lim, lim
    s1 = max(-lim, math.floor(-1.0 / gamma))
    while gamma * (s1 + 1) <= -1.0:
        s1 += 1
    while s1 > -lim and gamma * s1 > -1.0:
        s1 -= 1
    s2 = min(lim, math.ceil(1.0 / gamma))
    while gamma * (s2 - 1) >= 1.0:
        s2 -= 1
    while s2 < lim and gamma * s2 < 1.0:
        s2 += 1
    return s1, s2


def _clip_correlations(Q, start, nets, inv, gamma: float) -> np.ndarray:
    """Correlations of clip(gamma (net[1:].x + net_0)) for each row of nets, read from its table.

    start[r] is the R_0 job of row r's table in Q (_clip_tables), and inv[r]
    maps its voters to the table's distinct weights, whose jobs follow.  At
    column c of a table, w.x + net_0 = 2c + d with d = net_0 - sum|w|, so
    the profile is -1 on columns below a, +1 from b and gamma (2c + d)
    between: each profile sum is six lookups into a table's prefix sums.
    Slot 0 is the R_0 sum S_0, and voter slot i is S_0 - 2 S_g for its
    weight g.
    """
    s1, s2 = _clip_edges(gamma)
    top = np.abs(nets[:, 1:]).sum(axis=1) + 1  # columns of each row's table
    d = nets[:, 0] - (top - 1)
    a = np.clip((s1 - d) // 2 + 1, 0, top)[:, None]
    b = np.clip(-((d - s2) // 2), 0, top)[:, None]
    job = start[:, None] + np.pad(inv + 1, ((0, 0), (1, 0)))  # R_0, then each voter's L_g
    P, C = Q
    out = np.empty(nets.shape)
    step = max(1, _BLOCK_BYTES // (96 * nets.shape[1]))
    for lo in range(0, len(nets), step):
        r = slice(lo, lo + step)
        j = job[r]
        Pa, Pb, Pt = P[j, a[r]], P[j, b[r]], P[j, top[r, None]]
        Ca, Cb = C[j, a[r]], C[j, b[r]]
        S = (Pt - Pb) - Pa + gamma * (2 * (Cb - Ca) + d[r, None] * (Pb - Pa))
        out[r, 0] = S[:, 0]
        out[r, 1:] = S[:, :1] - 2 * S[:, 1:]
    return out


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
    """The cells (r, m) that _step_indices reads, with 2 (-1)^m and the diagonal starts.

    The n cells m = 0 come first.  Then diagonal d = r + m = 1..n lists its
    cells m = 1..d, from starts[d - 1] on (counted past the m = 0 cells).
    """
    m = np.concatenate([np.zeros(n, dtype=np.int64)] + [np.arange(1, d + 1) for d in range(1, n + 1)])
    r = np.concatenate([np.arange(n)] + [d - np.arange(1, d + 1) for d in range(1, n + 1)])
    d = np.arange(1, n + 1)
    out = (r, m, 2 - 4 * (m % 2), d * (d - 1) // 2)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _comb_row(n: int) -> np.ndarray:
    """C(n-1, k) for k < n, in the dtype of a subset table over n voters."""
    out = np.array([math.comb(n - 1, k) for k in range(n)], dtype=np.int64 if n <= _INT64_MAX_N else object)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _pivot_coef(n: int) -> np.ndarray:
    """k!(n-1-k)!/n!: the probability of one k-subset preceding a voter."""
    coef = np.array([1.0 / (n * math.comb(n - 1, k)) for k in range(n)])
    coef.setflags(write=False)
    return coef


def _step(thr: int, total: int) -> int:
    """t with [w.x >= thr] = [u >= t]: w.x = 2u - total is an integer, so t = ceil((thr + total) / 2)."""
    return -((-thr - total) // 2)


def _step_indices(w: np.ndarray, ts, table=None) -> np.ndarray:
    """(T, n) index vectors, in voter order, of the games [u >= t] for the steps t of ts.

    u is the weight sum of the +1 voters.  A caller that scores w again may
    pass its _swing_table(w) as table; only the steps move.
    """
    P, off, vals, inv = _swing_table(w) if table is None else table
    return _weight_indices(P, off, vals, ts)[:, inv]


def _weight_indices(P: np.ndarray, off: int, vals: np.ndarray, ts) -> np.ndarray:
    """(T, G): the index of a voter of weight vals[g] in the game [u >= t], for the steps t of ts.

    P and off are those of a _swing_table; vals may be any of its weights.
    For a voter of weight g, X[r, m] = P[r, t + off - m*g] at the cells of
    _diagonals(n), and Psi_1 - Psi_0 = 2 (X[k, 0] + A_k + A_{k+1}), where
    A_d sums (-1)^m X[r, m] over diagonal d's cells m >= 1 (A_0 = 0): twice
    a signed swing count, exact in int64 (below 2 C(n-1, k) < 2^63), whose
    float is exactly twice that of the count.
    """
    n, width = P.shape[0], P.shape[1] - 1
    r, m, sign, starts = _diagonals(n)
    # outside [lo, hi + 1] a step changes no value phi takes on the table
    a = np.array([min(max(int(t), -off), width - off) + off for t in ts], dtype=np.int64)
    T, G, L = a.size, vals.size, r.size
    ea = np.repeat(a, G)
    wv = np.broadcast_to(vals, (T, G)).ravel()
    base = r * (width + 1)
    rows = max(1, _BLOCK_BYTES // (L * 24))
    D = np.empty((T * G, n), dtype=P.dtype)
    for q0 in range(0, T * G, rows):
        q = slice(q0, q0 + rows)
        c = ea[q, None] - np.multiply.outer(wv[q], m)
        np.maximum(c, 0, out=c)
        np.minimum(c, width, out=c)
        c += base
        X = P.ravel().take(c)
        X *= sign
        A = np.add.reduceat(X[:, n:], starts, axis=1)
        D[q] = X[:, :n] + A
        D[q, 1:] += A[:, :-1]
    D = np.ascontiguousarray(D.reshape(T, G, n).transpose(0, 2, 1))
    if D.dtype == object:  # divide exactly: the coefficients can underflow
        return (D / _comb_row(n)[:, None]).astype(np.float64).sum(axis=1) / n
    return np.matmul(_pivot_coef(n), D)


def shapley_affine(weights, threshold: float) -> np.ndarray:
    """Generalized index vector of the sign game h(x) = [w.x >= threshold].

    Entry i is the expected jump of h, +-1 valued, when voter i flips up
    after a uniformly random prefix: +2 or -2 times its swing probability.
    """
    w = _int_weights(weights)
    return _step_indices(w, [_step(math.ceil(threshold), sum(w.tolist()))])[0]


def classical_pivot_dp(int_weights, quota: int) -> np.ndarray:
    """Classical power vector of a nonnegative-integer quota game."""
    w = _int_weights(int_weights)
    if np.any(w < 0):
        raise ValueError("quota games need nonnegative weights")
    return 0.5 * _step_indices(w, [quota])[0]
