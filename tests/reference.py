"""Slow reference implementations, independent of the package internals.

Everything here recomputes quantities from first principles: permutation
enumeration for index vectors, explicit rational pmf construction for the
slice distribution, and direct summation for correlations.  Test modules
compare package output against these oracles, so keep this file free of
shapley_forge imports.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def perm_shapley(fn1, n: int) -> np.ndarray:
    """Index vector straight from the definition: average over all n! orders
    of the jump fn1(prefix with i) - fn1(prefix without i).  fn1 takes one
    +-1 vector.  O(n! * n); keep n <= 7."""
    out = [Fraction(0)] * n
    for perm in itertools.permutations(range(n)):
        x = -np.ones(n, dtype=np.int8)
        for i in perm:
            before = fn1(x)
            x[i] = 1
            out[i] += Fraction(fn1(x)) - Fraction(before)
    total = math.factorial(n)
    return np.array([float(v / total) for v in out])


def classical_shapley_shubik(int_weights, quota: int) -> np.ndarray:
    """Pivot probability per voter over all orders of a quota game."""
    n = len(int_weights)
    counts = [0] * n
    for perm in itertools.permutations(range(n)):
        acc = 0
        for i in perm:
            acc += int_weights[i]
            if acc >= quota:
                counts[i] += 1
                break
    total = math.factorial(n)
    return np.array([c / total for c in counts])


def classical_pivot_counting(int_weights, quota: int) -> np.ndarray:
    """Pivot probability per voter of a quota game by exact subset counting.

    For each voter, Python-int counts c[k][s] of the k-subsets of the other
    voters with weight sum s < quota; the voter is pivotal after such a
    prefix when s + w_i >= quota, which has probability k!(n-1-k)!/n! per
    subset.  Exact at any n, no permutations; O(n^2 * quota) per distinct
    weight, so keep n * quota modest."""
    weights = [int(v) for v in int_weights]
    n = len(weights)
    by_weight = {}
    for i, wi in enumerate(weights):
        if wi in by_weight:  # voters of equal weight are exchangeable
            continue
        others = weights[:i] + weights[i + 1 :]
        c = [[0] * quota for _ in range(n)]
        c[0][0] = 1
        for m, v in enumerate(others):
            for k in range(m + 1, 0, -1):
                prev, row = c[k - 1], c[k]
                for s in range(quota - 1, v - 1, -1):
                    row[s] += prev[s - v]
        prob = Fraction(0)
        for k in range(n):
            pivots = sum(c[k][max(0, quota - wi) :])
            prob += Fraction(pivots * math.factorial(k) * math.factorial(n - 1 - k), math.factorial(n))
        by_weight[wi] = float(prob)
    return np.array([by_weight[wi] for wi in weights])


def mu_pmf_fraction(n: int, wt: int) -> Fraction:
    """Point mass of the slice distribution, exact rationals throughout."""
    if not 1 <= wt <= n - 1:
        return Fraction(0)
    lam = sum(Fraction(1, k) + Fraction(1, n - k) for k in range(1, n))
    slice_mass = (Fraction(1, wt) + Fraction(1, n - wt)) / lam
    return slice_mass / math.comb(n, wt)


def mu_correlations(fn1, n: int) -> np.ndarray:
    """(n+1)-vector (E f, E f x_1, ..., E f x_n) under the slice law."""
    acc = np.zeros(n + 1)
    for bits in itertools.product((-1, 1), repeat=n):
        x = np.array(bits, dtype=np.int8)
        wt = int(np.count_nonzero(x == 1))
        p = float(mu_pmf_fraction(n, wt))
        if p == 0.0:
            continue
        v = float(fn1(x))
        acc[0] += p * v
        acc[1:] += p * v * x
    return acc


def mu_expectation(fn1, n: int) -> float:
    return float(mu_correlations(fn1, n)[0])


def balanced_split_fraction(w0: float, weights, i: int, r: float) -> float:
    """Fraction of size-i subsets T with |w0 + w(T) - w(complement)| <= r."""
    weights = list(weights)
    n = len(weights)
    total = sum(weights)
    hits = 0
    count = 0
    for T in itertools.combinations(range(n), i):
        wT = sum(weights[j] for j in T)
        count += 1
        if abs(w0 + wT - (total - wT)) <= r:
            hits += 1
    return hits / count


def anticonc_mass(weights, theta: float, r: float) -> float:
    """P(|w.x - theta| < r) by enumeration of the slice support."""
    n = len(weights)
    w = np.asarray(weights, dtype=np.float64)
    mass = 0.0
    for bits in itertools.product((-1, 1), repeat=n):
        x = np.array(bits, dtype=np.int8)
        wt = int(np.count_nonzero(x == 1))
        p = float(mu_pmf_fraction(n, wt))
        if p and abs(float(w @ x) - theta) < r:
            mass += p
    return mass


def ltf1(weights, theta: float):
    """Scalar sign evaluator with the tie convention sign(0) = +1."""
    w = np.asarray(weights, dtype=np.float64)

    def fn1(x) -> float:
        return 1.0 if float(w @ np.asarray(x, dtype=np.float64)) - theta >= 0 else -1.0

    return fn1


def table_fn1(values: np.ndarray, n: int):
    """Scalar evaluator for a truth table indexed LSB-first (bit i of the row
    index is +1 at coordinate i)."""

    def fn1(x) -> float:
        idx = 0
        for i, b in enumerate(x):
            if b == 1:
                idx |= 1 << i
        return float(values[idx])

    return fn1


class RoundCapError(RuntimeError):
    """The reference engine's round cap was exceeded."""


class LockstepEngine:
    """Straightforward masked lockstep boosting, one row per grid target.

    Every live row appends the most violated signed literal each round.  A
    row in linear mode moves its correlations by gamma * sign * cross[j]
    (cross is the (n+1, n+1) second-moment matrix); once its L1 mass passes
    lin_cap it is dense for good and refresh(nets) recomputes them after
    every append.  A row finishes when converged (largest violation at most
    gamma) or stalled (no improvement by gamma/16 in stall_window rounds).
    All state is kept per grid row, so it is current after every step.
    """

    def __init__(self, n, targets, gamma, cross, refresh, *, stall_window=512, cap=math.inf):
        self.A = np.asarray(targets, dtype=np.float64)
        G = self.A.shape[0]
        self.gamma = float(gamma)
        self.cross = cross
        self.refresh = refresh
        self.stall_window = math.inf if stall_window is None else int(stall_window)
        self.cap = cap
        self.net = np.zeros((G, n + 1), dtype=np.int64)
        self.corr = np.zeros((G, n + 1))
        self.t = np.zeros(G, dtype=np.int64)
        self.best = np.full(G, np.inf)
        self.last_improved = np.zeros(G, dtype=np.int64)
        self.alive = np.ones(G, dtype=bool)
        self.converged = np.zeros(G, dtype=bool)
        self.dense = np.zeros(G, dtype=bool)
        self.lin_cap = int(math.floor(1.0 / self.gamma)) - 1

    def step(self) -> list:
        act = np.nonzero(self.alive)[0]
        if act.size == 0:
            return []
        viol = self.A[act] - self.corr[act]
        absv = np.abs(viol)
        j = np.argmax(absv, axis=1)
        pick = np.arange(act.size)
        v = absv[pick, j]
        conv = v <= self.gamma
        improved = v < self.best[act] - self.gamma / 16.0
        stalled = (~conv) & (~improved) & (self.t[act] - self.last_improved[act] >= self.stall_window)
        self.converged[act[conv]] = True
        finished = act[conv | stalled]
        self.alive[finished] = False
        imp_rows = act[improved]
        self.best[imp_rows] = v[improved]
        self.last_improved[imp_rows] = self.t[imp_rows]

        run = ~(conv | stalled)
        rows = act[run]
        if rows.size == 0:
            return finished.tolist()
        if np.max(self.t[rows]) + 1 > self.cap:
            raise RoundCapError(f"grid row exceeded the round cap {self.cap}")
        jj = j[run]
        sg = np.where(viol[pick[run], jj] > 0, 1, -1).astype(np.int64)
        self.net[rows, jj] += sg
        self.t[rows] += 1

        lin = ~self.dense[rows]
        lrows = rows[lin]
        self.corr[lrows] += self.gamma * sg[lin, None] * self.cross[jj[lin]]
        self.dense[lrows[np.abs(self.net[lrows]).sum(axis=1) > self.lin_cap]] = True
        now_dense = rows[self.dense[rows]]
        if now_dense.size:
            self.corr[now_dense] = self.refresh(self.net[now_dense])
        return finished.tolist()
