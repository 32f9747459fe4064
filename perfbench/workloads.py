"""The benchmark's workloads: seeded inputs, the timed call, and its checks.

Each workload is a fixed cycle of operation kinds.  Operation i has kind
``kinds[i % len(kinds)]`` and draws its inputs from ``default_rng([seed, i])``,
so a seed fixes every input and a traced re-run of operation i sees the same
inputs.  The package receives only target vectors and games; the checks use
a truth-table oracle written here, independent of the package's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from shapley_forge import estimators, games, indices, mu, solver

EPSILON = 0.1  # solve_is default acceptance distance
TOL = 1e-9  # index vectors are float sums of exact rationals


# ---------------------------------------------------------------------------
# Inputs and the independent truth-table oracle
# ---------------------------------------------------------------------------


def random_quota(rng: np.random.Generator, n: int, max_weight: int = 10, eta: float = 0.1):
    """Monotone eta-reasonable quota game (weights <= max_weight) as (w, q)."""
    while True:
        w = rng.integers(0, max_weight + 1, size=n)
        total = int(w.sum())
        if total < n:
            continue
        q = int(rng.integers(max(1, total // 6), total - total // 6 + 1))
        # quota_to_ltf threshold is 2q - total - 1/2 against ||w||_1 = total
        if abs(2 * q - total - 0.5) <= (1.0 - eta) * total:
            return w.astype(np.int64), q


def random_signed_ltf(rng: np.random.Generator, n: int):
    """Integer sign game with weights in [-40, 200], like a boosting net."""
    w = rng.integers(-40, 201, size=n).astype(np.int64)
    span = max(1, int(np.abs(w).sum()) // 4)
    theta = int(rng.integers(-span, span + 1))
    return w, theta


def quota_values(w: np.ndarray, q: int):
    return lambda X: np.where((X == 1).astype(np.int64) @ w >= q, 1.0, -1.0)


def ltf_values(weights: np.ndarray, threshold: float):
    """sign(w.x - theta) with sign(0) = +1, the VotingGame semantics."""
    return lambda X: np.where(X @ weights - threshold >= 0, 1.0, -1.0)


def truth_table_index(value_fn, n: int, chunk: int = 1 << 15):
    """Index vector of f by summing the per-point formula over all 2^n points.

    Entry i sums f(x) / (n C(n-1, k-1)) over points with x_i = +1 and
    -f(x) / (n C(n-1, k)) over points with x_i = -1, k the Hamming weight.
    """
    plus = np.array([1.0 / (n * math.comb(n - 1, k - 1)) if k else 0.0 for k in range(n + 1)])
    minus = np.array([1.0 / (n * math.comb(n - 1, k)) if k < n else 0.0 for k in range(n + 1)])
    shifts = np.arange(n)
    acc = np.zeros(n)
    for lo in range(0, 1 << n, chunk):
        bits = (np.arange(lo, min(lo + chunk, 1 << n))[:, None] >> shifts) & 1
        X = (2 * bits - 1).astype(np.int8)
        f = np.asarray(value_fn(X), dtype=np.float64)
        wt = bits.sum(axis=1)
        acc += f @ np.where(bits == 1, plus[wt][:, None], -minus[wt][:, None])
    return acc


def end_gap(value_fn, n: int) -> float:
    """f(all +1) - f(all -1), what every index vector of f sums to."""
    ends = value_fn(np.array([[1] * n, [-1] * n], dtype=np.int8))
    return float(ends[0] - ends[1])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    index: int
    kind: str
    budget_s: float
    call: object  # () -> output, the timed part
    check: object  # output -> Outcome


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    solve: dict | None = None  # solve workloads: status and distances
    work: int = 0  # estimator orders


class Workload:
    """A cycle of operation kinds.

    ``reference_s`` holds, per kind name, the median wall time of that kind
    when the benchmark was defined: x86_64, 2 vCPUs, one BLAS thread, Python
    3.11, numpy 2.4.  The end-to-end rate divides each operation's time by
    its kind's reference, so that input-dependent cost differences between
    kinds do not depend on where a run's deadline falls in the cycle.
    """

    name = ""
    kinds: tuple = ()
    reference_s: dict = {}
    budget_s = 60.0  # per-operation time budget

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def op(self, i: int) -> Op:
        kind = self.kinds[i % len(self.kinds)]
        return self.make(i, kind, np.random.default_rng([self.seed, i]))

    def budget(self, kind_name: str) -> float:
        return self.budget_s

    def make(self, i: int, kind, rng) -> Op:
        raise NotImplementedError

    def tables(self) -> tuple[list, list]:
        """(mu-layer builders, other cached-table builders) run at set-up."""
        return [], []

    def defect_probe(self) -> list[dict]:
        return []


def _kind_name(kind) -> str:
    return "-".join(str(k) for k in kind)


class SolveWorkload(Workload):
    def make(self, i, kind, rng) -> Op:
        n, xi, mode = kind
        w, q = random_quota(rng, n)
        target = truth_table_index(quota_values(w, q), n)
        cfg = solver.SolveConfig(xi=xi, oracle_mode=mode)

        def check(res) -> Outcome:
            if res.game is None or not math.isfinite(res.est_dshapley):
                return Outcome(False, f"status {res.status} without a finite scored game")
            got = truth_table_index(ltf_values(res.game.weights, res.game.threshold), n)
            true_d = float(np.linalg.norm(got - target))
            info = {
                "status": res.status,
                "est_dshapley": float(res.est_dshapley),
                "true_dshapley": true_d,
                "mismatch": abs(true_d - res.est_dshapley) > TOL,
                "grid_evaluated": int(res.grid_evaluated),
                "boost_iterations": int(res.boost_iterations),
            }
            if res.status == "solved" and true_d > EPSILON:
                return Outcome(False, f"solved but true distance {true_d:.4g} > {EPSILON}", info)
            return Outcome(True, "", info)

        name = _kind_name(kind)
        return Op(i, name, self.budget(name), lambda: solver.solve_is(target, cfg), check)

    def tables(self):
        ns = sorted({k[0] for k in self.kinds})
        mu_builds = [lambda n=n: mu.mu_weights(n) for n in ns]
        other = [lambda n=n: indices.truthtable_coefficient_matrix(n) for n in ns]
        return mu_builds, other


class SolveSmall(SolveWorkload):
    """solve_is round trips on quota-game targets (monotone, 0.1-reasonable,
    weights <= 10) crossing n in {12, 14}, xi in {0.005, 0.02} and the
    exact-enum / exact-dp oracles.  Every solve runs in the lockstep grid
    engine: at xi=0.02 the dense correlation refresh takes most of the time,
    at xi=0.005 linear engine steps do; the subset DP only validates.

    A solve gets four times its configuration's reference time.  About a
    quarter of the xi=0.005 solves take 10 s at n=14 (2 s at n=12) instead
    of 0.3-0.7 s; they end as ``timeout`` rather than spending a third of a
    run on one sample.
    """

    name = "solve-small"
    # slow kinds first, so a run cut by its deadline has sampled every kind
    kinds = tuple(
        (n, xi, mode) for xi in (0.02, 0.005) for n in (14, 12) for mode in ("exact-enum", "exact-dp")
    )
    budget_factor = 4.0
    reference_s = {
        "14-0.02-exact-enum": 6.15, "14-0.02-exact-dp": 6.57,
        "12-0.02-exact-enum": 1.05, "12-0.02-exact-dp": 1.35,
        "14-0.005-exact-enum": 0.307, "14-0.005-exact-dp": 0.718,
        "12-0.005-exact-enum": 0.263, "12-0.005-exact-dp": 0.448,
    }

    def budget(self, kind_name: str) -> float:
        return self.budget_factor * self.reference_s[kind_name]


class SolveWide(SolveWorkload):
    """solve_is at n in {16, 20}, exact-dp, default xi, 7 s budget per solve.
    Past the engine's cap the solver boosts one grid cell at a time and
    nearly all time goes to subset-DP boosting-oracle calls.  When the
    benchmark was defined no solve finished within its budget, so every one
    ends as ``timeout``: batching the grid or a faster DP shows here first.
    """

    name = "solve-wide"
    kinds = ((16, 0.005, "exact-dp"), (20, 0.005, "exact-dp"))
    budget_s = 7.0
    # every solve ran out of its budget when the benchmark was defined
    reference_s = {"16-0.005-exact-dp": 7.0, "20-0.005-exact-dp": 7.0}

    def tables(self):
        return [], []


class IndexOracles(Workload):
    """One index computation per game, no solver: the DP index vector of
    quota games and of signed integer LTFs (weights -40..200, like boosting
    nets) at n in {16, 20, 30, 50}, the truth table at n in {14, 16, 18},
    and estimate_shapley at n=20, gamma=0.1, delta=0.01.  The DP builds one
    large table plus n leave-one-outs, unlike the solver's many small calls.
    Quota games at n >= 68 overflow the int64 subset counts; they run in
    ``defect_probe``, after the timed loop, so that they show as reproduced
    defects rather than as failed timed operations.
    """

    name = "index-oracles"
    kinds = (
        ("quota-dp", 16), ("quota-dp", 20), ("quota-dp", 30), ("quota-dp", 50),
        ("ltf-dp", 16), ("ltf-dp", 20), ("ltf-dp", 30), ("ltf-dp", 50),
        ("truthtable", 14), ("truthtable", 16), ("truthtable", 18),
        ("estimate", 20),
    )
    budget_s = 30.0
    reference_s = {
        "quota-dp-16": 0.00165, "quota-dp-20": 0.00253, "quota-dp-30": 0.00583, "quota-dp-50": 0.0160,
        "ltf-dp-16": 0.00380, "ltf-dp-20": 0.00618, "ltf-dp-30": 0.0157, "ltf-dp-50": 0.0726,
        "truthtable-14": 0.00148, "truthtable-16": 0.00612, "truthtable-18": 0.0411,
        "estimate-20": 0.904,
    }
    est_gamma = 0.1
    est_delta = 0.01

    def make(self, i, kind, rng) -> Op:
        what, n = kind
        name = _kind_name(kind)
        if what == "quota-dp":
            w, q = random_quota(rng, n)
            game = games.QuotaGame(tuple(int(v) for v in w), q)
            ref = quota_values(w, q)
            call = lambda: indices.shapley_exact_dp(game)
            return Op(i, name, self.budget(name), call, lambda rep: self._check_index(rep.shapley, ref, n))
        w, theta = random_signed_ltf(rng, n)
        game = games.VotingGame(w.astype(np.float64), float(theta))
        ref = ltf_values(w, theta)
        if what == "ltf-dp":
            call = lambda: indices.shapley_int_ltf_dp(game)
            return Op(i, name, self.budget(name), call, lambda rep: self._check_index(rep.shapley, ref, n))
        if what == "truthtable":
            call = lambda: indices.shapley_exact_truthtable(games.ltf_fn(game), n)
            check = lambda rep: self._check_index(rep.shapley, ref, n, full=True)
            return Op(i, name, self.budget(name), call, check)
        cfg = estimators.EstimateConfig(
            gamma=self.est_gamma, delta=self.est_delta, seed=int(rng.integers(2**63))
        )
        call = lambda: estimators.estimate_shapley(games.ltf_fn(game), n, cfg)
        return Op(i, name, self.budget(name), call, lambda out: self._check_estimate(out, game, ref, n))

    @staticmethod
    def _check_index(shap, ref, n: int, full: bool = False) -> Outcome:
        """Entries sum to f_top - f_bottom; at n <= 16 (or full) match the truth table."""
        total = end_gap(ref, n)
        if abs(float(np.sum(shap)) - total) > TOL:
            return Outcome(False, f"entries sum to {float(np.sum(shap))!r}, expected {total}")
        if full or n <= 16:
            exact = truth_table_index(ref, n)
            gap = float(np.max(np.abs(np.asarray(shap) - exact)))
            if gap > TOL:
                return Outcome(False, f"differs from the truth table by {gap:.3g}")
        return Outcome(True)

    def _check_estimate(self, out, game, ref, n: int) -> Outcome:
        est, m = out
        total = end_gap(ref, n)
        if abs(float(est.sum()) - total) > TOL:
            return Outcome(False, f"estimate sums to {float(est.sum())!r}, expected {total}", work=m)
        exact = indices.shapley_int_ltf_dp(game).shapley
        err = float(np.linalg.norm(est - exact))
        if err > self.est_gamma:
            return Outcome(False, f"estimate off by {err:.4g} > gamma {self.est_gamma}", work=m)
        return Outcome(True, work=m)

    def tables(self):
        ns = sorted({n for what, n in self.kinds if what == "truthtable"})
        mu_builds = [lambda n=n: mu.enumerate_cube(n) for n in ns]
        mu_builds.append(lambda: mu.mu_distribution(20))
        other = [lambda n=n: indices.truthtable_coefficient_matrix(n) for n in ns]
        return mu_builds, other

    def defect_probe(self) -> list[dict]:
        """Exact DP past the int64 range of the subset counts (n >= 68)."""
        out = []
        rng = np.random.default_rng([self.seed, 1 << 31])  # apart from every op index
        for n in (68, 70, 80):
            cases = [("majority", (1,) * n, n // 2 + 1)]
            w, q = random_quota(rng, n)
            cases.append(("quota", tuple(int(v) for v in w), q))
            for label, w, q in cases:
                shap = indices.shapley_exact_dp(games.QuotaGame(w, q)).shapley
                total = float(shap.sum())
                ok = abs(total - 2.0) <= TOL
                if ok and label == "majority":
                    ok = bool(np.all(np.abs(shap - 2.0 / n) <= TOL))
                out.append({"case": f"{label}-{n}", "ok": ok, "sum": total})
        return out


WORKLOADS = {w.name: w for w in (SolveSmall, SolveWide, IndexOracles)}
