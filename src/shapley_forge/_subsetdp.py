"""Exact subset-sum counting tables for integer-weight games.

Everything here counts subsets T of the voter set, binned by size k and by
integer weight sum u.  Tables are exact int64 counts; offset indexing maps a
possibly negative u onto column u + off.  Consumers evaluate a scalar profile
phi on the signed score 2*u - total (the value of w.x when the +1 set sums
to u), so the same tables serve sign games, clipped games and pivot counts,
with negative weights allowed throughout.
"""

from __future__ import annotations

import math

import numpy as np


def _int_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.int64)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("need a non-empty 1-d integer weight vector")
    return w


def subset_count_table(weights) -> tuple[np.ndarray, int]:
    """F[k, u + off] = number of k-subsets with weight sum u."""
    w = _int_weights(weights)
    n = w.size
    lo = int(np.minimum(w, 0).sum())
    hi = int(np.maximum(w, 0).sum())
    off = -lo
    width = hi - lo + 1
    F = np.zeros((n + 1, width), dtype=np.int64)
    F[0, off] = 1
    for i, wi in enumerate(w):
        nxt = F.copy()
        if wi >= 0:
            nxt[1:, wi:] += F[:-1, : width - wi if wi else width]
        else:
            nxt[1:, :wi] += F[:-1, -wi:]
        F = nxt
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
    G = np.zeros((n, F.shape[1]), dtype=np.int64)
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


def shapley_affine(weights, phi) -> np.ndarray:
    """Generalized index vector of h(x) = phi(w.x) via pivot counting.

    Entry i sums phi(score with i flipped up) - phi(score with i down) over
    ordered prefixes, weighted k!(n-1-k)!/n! by prefix size k.
    """
    w = _int_weights(weights)
    n = w.size
    total = int(w.sum())
    F, off = subset_count_table(w)
    width = F.shape[1]
    u = np.arange(width) - off

    coef = np.array([1.0 / (n * math.comb(n - 1, k)) for k in range(n)])
    out = np.empty(n)
    for i, wi in enumerate(w):
        G = leave_one_out(F, off, int(wi))
        dplus = np.asarray(phi(2 * (u + wi) - total), dtype=np.float64)
        dminus = np.asarray(phi(2 * u - total), dtype=np.float64)
        out[i] = float(coef @ (G @ (dplus - dminus)))
    return out


def classical_pivot_dp(int_weights, quota: int) -> np.ndarray:
    """Classical power vector of a nonnegative-integer quota game."""
    w = _int_weights(int_weights)
    if np.any(w < 0):
        raise ValueError("quota games need nonnegative weights")
    n = w.size
    F, off = subset_count_table(w)
    coef = np.array([1.0 / (n * math.comb(n - 1, k)) for k in range(n)])
    out = np.empty(n)
    for i, wi in enumerate(w):
        G = leave_one_out(F, off, int(wi))
        lo = max(0, quota - int(wi)) + off
        hi = min(quota - 1, F.shape[1] - 1 - off) + off
        if hi < lo:
            out[i] = 0.0
            continue
        pivots = G[:, lo : hi + 1].sum(axis=1)
        out[i] = float(coef @ pivots)
    return out
