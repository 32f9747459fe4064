"""Correlation-matching boosting loop.

The loop grows a clipped linear form whose correlations under the slice
distribution track a target vector a = (a_0, ..., a_n).  Each round queries
an oracle for the current correlations, finds the worst violated slot, and
appends the literal (or negated literal) of that slot; the hypothesis is the
running sum of appended literals scaled by gamma = xi/2 and clipped to
[-1, 1].  The loop stops once every slot is within gamma, which an averaging
argument guarantees within 64/xi^2 rounds for oracles accurate to xi/16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _subsetdp
from .estimators import EstimateConfig, estimate_correlations
from .games import LinearBoundedFunction, VotingGame, lbf_fn
from .mu import enumerate_support, mu_pmf_points, mu_weights


@dataclass(frozen=True)
class BoostTargets:
    """Target correlation vector (slot 0 the mean) and accuracy xi."""

    a: np.ndarray
    xi: float

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("target vector must have a mean slot plus n coordinates")
        if not 0 < self.xi <= 1:
            raise ValueError(f"xi must lie in (0, 1], got {self.xi}")
        object.__setattr__(self, "a", a)
        a.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.a.size - 1)

    @property
    def gamma(self) -> float:
        return self.xi / 2.0


@dataclass
class BoostState:
    """Append counts per signed literal; row 0 counts +literal, row 1 -literal."""

    n: int
    gamma: float
    t: int = 0
    counts: np.ndarray = None

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = np.zeros((2, self.n + 1), dtype=np.int64)

    @property
    def net(self) -> np.ndarray:
        return self.counts[0] - self.counts[1]


class IterationCapError(RuntimeError):
    """Raised when the round cap 64/xi^2 would be exceeded."""


def lbf_from_state(state: BoostState) -> LinearBoundedFunction:
    net = state.net
    return LinearBoundedFunction(
        weights=state.gamma * net[1:].astype(np.float64),
        threshold=-state.gamma * float(net[0]),
    )


def game_from_net(net: np.ndarray) -> VotingGame:
    """Voting game sign(net . (1, x)) of a boosting net, with integer weights.

    This is the game the solver validates and returns.  Scaling by gamma
    would not change its sign in exact arithmetic, but in floating point it
    can move scores of 0 below 0 and break the sign(0) = +1 tie the other way.
    """
    return VotingGame(net[1:].astype(np.float64), float(-net[0]))


# ---------------------------------------------------------------------------
# Oracles: callables mapping a BoostState to the (n+1,) correlation vector of
# its clipped form, accurate to xi/16.
# ---------------------------------------------------------------------------


def _support_ext(n: int) -> np.ndarray:
    support = enumerate_support(n)
    out = np.ones((support.shape[0], n + 1), dtype=np.int8)
    out[:, 1:] = support
    return out


def exact_enum_oracle(n: int):
    """Zero-error oracle by enumeration of the 2^n - 2 support points."""
    Xext = _support_ext(n)
    wts = mu_weights(n)

    def oracle(state: BoostState) -> np.ndarray:
        S = Xext.astype(np.int64) @ state.net
        h = np.clip(state.gamma * S, -1.0, 1.0)
        return (h * wts) @ Xext

    return oracle


def exact_dp_oracle(n: int):
    """Zero-error oracle by subset counting; no enumeration, any n.

    One subset table of w = net[1:] per call: the clipped form is read off
    its row prefix sums and first moments, with no per-voter table.
    """
    pmf_point = mu_pmf_points(n)

    def oracle(state: BoostState) -> np.ndarray:
        net = state.net
        return _subsetdp.mu_correlations_affine(net[1:], int(net[0]), state.gamma, pmf_point)

    return oracle


def sampled_oracle(n: int, xi: float, delta_each: float, seed: int):
    """Monte-Carlo oracle; each call is within xi/16 per slot w.p. 1 - delta_each."""
    gamma_est = (xi / 16.0) * math.sqrt(n + 1)
    rng = np.random.default_rng(seed)

    def oracle(state: BoostState) -> np.ndarray:
        cfg = EstimateConfig(gamma=gamma_est, delta=delta_each, seed=int(rng.integers(2**63)))
        est, _ = estimate_correlations(lbf_fn(lbf_from_state(state)), n, cfg)
        return est

    return oracle


@dataclass
class BoostResult:
    state: BoostState
    correlations: np.ndarray
    iterations: int
    converged: bool


def boost(
    targets: BoostTargets,
    oracle,
    *,
    cap: int | None = None,
    stall_window: int | None = None,
) -> BoostResult:
    """Run the loop until every slot is matched to within gamma = xi/2.

    The stop test runs before any append, so a target within gamma of the
    zero function returns immediately with an empty state.  Ties on the
    worst slot break toward the lowest index.  Exceeding the round cap
    raises IterationCapError; an optional stall window returns converged =
    False instead when the worst violation has not dropped by at least
    gamma/16 (below the oracle noise floor) for that many rounds in a row.
    """
    n = targets.n
    gamma = targets.gamma
    if cap is None:
        cap = math.ceil(64.0 / targets.xi**2)
    state = BoostState(n=n, gamma=gamma)
    best = math.inf
    last_improved = 0
    while True:
        a_t = oracle(state)
        viol = targets.a - a_t
        j = int(np.argmax(np.abs(viol)))
        v = float(abs(viol[j]))
        if v <= gamma:
            return BoostResult(state, a_t, state.t, True)
        if v < best - gamma / 16.0:
            best = v
            last_improved = state.t
        elif stall_window is not None and state.t - last_improved >= stall_window:
            return BoostResult(state, a_t, state.t, False)
        if state.t + 1 > cap:
            raise IterationCapError(f"no convergence within {cap} rounds (xi={targets.xi})")
        state.counts[0 if viol[j] > 0 else 1, j] += 1
        state.t += 1
