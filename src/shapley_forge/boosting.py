"""Correlation-matching boosting: one loop, the lockstep grid engine.

The loop grows a clipped linear form whose correlations under the slice
distribution track a target vector a = (a_0, ..., a_n).  Each round queries
an oracle for the current correlations, finds the worst violated slot, and
appends the literal (or negated literal) of that slot; the hypothesis is the
running sum of appended literals scaled by gamma = xi/2 and clipped to
[-1, 1].  The loop stops once every slot is within gamma, which an averaging
argument guarantees within 64/xi^2 rounds (round_cap) for oracles accurate
to xi/16.  A row's state is the integer net of its appended literals; a
row that has neither converged nor stalled when it reaches the round cap
finishes there unconverged.

_GridEngine is the one loop.  It boosts the solver's whole grid of targets
in lockstep, at every n, and boost runs one target on it as a one-row grid
whose dense refresh is the given oracle (tests/reference.py keeps the plain
scalar loop to check it against).  Rows stay in a closed-form "linear"
regime while their running sums provably never clip, and move one-way into
a dense regime whose correlations are recomputed from the net after every
append by one refresh callable.  The solver's (_dense_refresh) reads the
support table up to n = 12, and above it one clip table per distinct sorted
voter net, shared by the round's rows that carry it (see _subsetdp).  Both
are exact, so a solve never samples.

The first rounds walk the voters once per grid column, not once per row,
with the same floats (see _GridEngine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _subsetdp
from .estimators import EstimateConfig, estimate_correlations
from .games import VotingGame
from .mu import enumerate_support, mu_pmf_points, mu_weights, pair_correlation

# largest n whose dense refresh uses the support table: the largest n at
# which it is faster than the clip tables over whole dense solves at both
# xi = 0.02 and 0.005 (at n = 13 the tables win at xi = 0.02 and lose at
# 0.005, where sum |w| is larger)
_ENUM_CAP = 12
# rounds between two validations of the rows that finished in between
_CHECK_EVERY = 64
# bytes of the recorded column walks; caps the linear prefix's length
_WALK_BYTES = 16 << 20


def round_cap(xi: float) -> int:
    """ceil(64/xi^2), the round cap of the averaging argument; refuses one that is not finite."""
    bound = 64.0 / xi**2 if xi**2 > 0 else math.inf
    if not math.isfinite(bound):
        raise ValueError(f"xi = {xi:g} is too small: the round cap 64/xi^2 is not finite")
    return math.ceil(bound)


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
        round_cap(self.xi)
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
    """The net of appended literals: net[j] is the +x_j appends minus the -x_j ones (x_0 = 1)."""

    n: int
    gamma: float
    t: int = 0
    net: np.ndarray = None

    def __post_init__(self) -> None:
        if self.net is None:
            self.net = np.zeros(self.n + 1, dtype=np.int64)


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
    """Monte-Carlo oracle; each call is within xi/16 per slot w.p. 1 - delta_each.

    It samples the clipped form the exact oracles read: clip(gamma * S) of
    the integer score S = net_0 + net . x.
    """
    gamma_est = (xi / 16.0) * math.sqrt(n + 1)
    rng = np.random.default_rng(seed)

    def oracle(state: BoostState) -> np.ndarray:
        net, gamma = state.net, state.gamma
        cfg = EstimateConfig(gamma=gamma_est, delta=delta_each, seed=int(rng.integers(2**63)))
        est, _ = estimate_correlations(lambda X: np.clip(gamma * (X @ net[1:] + net[0]), -1.0, 1.0), n, cfg)
        return est

    return oracle


@dataclass
class BoostResult:
    state: BoostState
    correlations: np.ndarray
    iterations: int
    converged: bool


def boost(targets: BoostTargets, oracle, *, cap: int | None = None, stall_window: int | None = None) -> BoostResult:
    """Boost one target on a one-row _GridEngine until every slot is within gamma = xi/2.

    The oracle is the engine's dense refresh: it is queried once the row can
    clip, and the closed form is exact before that.  A target within gamma
    of the zero function returns at once with an empty state, and ties on
    the worst slot go to the lowest index.  It returns converged = False
    when it would append past the round cap (round_cap(xi) unless cap is
    given), or, given a stall window, when the worst violation has not
    dropped by gamma/16 (the oracle noise floor) for that many rounds.
    """
    n, gamma = targets.n, targets.gamma
    eng = _GridEngine(n, targets.a[None, :], gamma, _oracle_refresh(n, gamma, oracle), stall_window=stall_window)
    if cap is not None:
        eng.cap = cap
    eng.run()
    t = int(eng.t[0])
    return BoostResult(BoostState(n, gamma, t, eng.net[0]), eng.corr[0], t, bool(eng.converged[0]))


def _oracle_refresh(n: int, gamma: float, oracle):
    """Dense refresh by one oracle call per row."""
    return lambda nets: np.stack([oracle(BoostState(n, gamma, net=net)) for net in nets])


# ---------------------------------------------------------------------------
# Lockstep grid engine
# ---------------------------------------------------------------------------


class _GridEngine:
    """Boosts every target row of A in lockstep; a row's net is its whole state.

    A row starts in linear mode: while sum_l |net_l| stays below 1/gamma no
    support point can clip, so the correlation update of an append is the
    closed-form gamma * sign * (second-moment column), exact at any n.  Once
    the L1 mass crosses the cap the row flips permanently to dense mode, and
    after every append its correlations are recomputed from its net by
    refresh: a callable mapping (r, n+1) int64 nets to (r, n+1) correlations.
    A row finishes when it converges (largest violation at most gamma), when
    it stalls, or unconverged at the round cap round_cap(2 * gamma), where
    it may not append.

    Columns.  The second-moment matrix keeps slot 0 apart from the voters,
    so in linear mode an append on slot 0 moves only corr_0 and a voter
    append moves only the voter slots.  Rows with the same target voter
    part A[1:] (a grid column, or any rows whose A[1:] bytes agree) share one
    voter walk: the voter appends the step would make, recorded once per
    column by _VoterWalks.

    Prefix.  In the first R0 = min(lin_cap, stall_window, cap) rounds no row
    can go dense, stall or hit the cap (R0 also keeps the recorded walks
    within _WALK_BYTES).  There a row is the merge of its column's walk with
    its own slot-0 walk, and it finishes converged at round a* + b*: a* is
    the number of slot-0 appends its A_0 needs, read once per distinct A_0,
    and b* the round its column's walk stops.  So a prefix round advances
    the walks, gives the rows of each walk that stopped their final state
    from the walk's state at b*, files them under their round, and returns
    the rows filed under its own; no per-row state moves.  R0 is read at
    the first step or run().

    Handoff.  At round R0 the rows still live are replayed through the
    prefix, round by round with the step's arithmetic, for their voter
    appends, best and last_improved; their net and corr are rebuilt from
    the walks, and the full step below runs from there on.  copy_back()
    replays the same way while the prefix lasts.

    After the prefix the live rows are boosted packed, in grid order, at the
    front of private working arrays, and every live row has made the same
    number of appends.  alive, dense and converged are current after every
    step; net, corr and t are current for finished rows.  run() does not
    fill in the live rows when a checkpoint stops it: copy_back() does.
    """

    def __init__(
        self,
        n: int,
        targets: np.ndarray,
        gamma: float,
        refresh,
        *,
        stall_window: int | None = 512,
    ) -> None:
        self.n = n
        self.gamma = float(gamma)
        A = np.asarray(targets, dtype=np.float64)
        if A.ndim != 2 or A.shape[1] != n + 1:
            raise ValueError(f"targets must be (G, {n + 1})")
        self.G = A.shape[0]
        # degree1_moment_matrix(n): 1 on the diagonal, rho between voters
        self.rho = pair_correlation(n)
        self.refresh = refresh
        self.stall_window = math.inf if stall_window is None else int(stall_window)

        self.net = np.zeros((self.G, n + 1), dtype=np.int64)
        self.corr = np.zeros((self.G, n + 1))
        self.t = np.zeros(self.G, dtype=np.int64)
        self.alive = np.ones(self.G, dtype=bool)
        self.converged = np.zeros(self.G, dtype=bool)
        self.dense = np.zeros(self.G, dtype=bool)
        # no point clips while the L1 mass of net stays at or below this
        self.lin_cap = int(math.floor(1.0 / self.gamma)) - 1
        self.cap = round_cap(2.0 * self.gamma)

        # the first _live rows of these hold the live rows, in grid order
        self._live = self.G
        self._rounds = 0  # appends made by every live row
        self._row = np.arange(self.G)  # grid index of each packed row
        self._A = A.copy()
        self._net = np.zeros_like(self.net)
        self._corr = np.zeros_like(self.corr)
        self._best = np.full(self.G, np.inf)
        self._last_improved = np.zeros(self.G, dtype=np.int64)
        self._mass = np.zeros(self.G, dtype=np.int64)
        self._dense = np.zeros(self.G, dtype=bool)
        self._flat = np.arange(self.G) * (n + 1)  # offset of each packed row
        self._r0: int | None = None  # read at the first step
        self._walk: _VoterWalks | None = None  # set while in the prefix

    def step(self) -> list[int]:
        """One boosting round for every live row; returns rows that finished."""
        if self._live == 0:
            return []
        if self._r0 is None:
            self._begin()
        if self._walk is not None:
            if self._rounds < self._r0:
                return self._prefix_step()
            self._handoff()
        L, T = self._live, self._rounds
        viol = self._A[:L] - self._corr[:L]
        j = np.abs(viol).argmax(axis=1)
        at = self._flat[:L] + j
        vj = viol.ravel()[at]
        v = np.abs(vj)
        conv = v <= self.gamma
        improved = v < self._best[:L] - self.gamma / 16.0
        np.copyto(self._best[:L], v, where=improved)
        np.copyto(self._last_improved[:L], T, where=improved)
        done = conv
        if T >= self.stall_window:
            done = conv | (~improved & (T - self._last_improved[:L] >= self.stall_window))
        if T + 1 > self.cap:  # no row may append again: the rest finish as they are
            done = np.ones_like(conv)

        finished: list[int] = []
        if done.any():
            out = np.flatnonzero(done)
            g = self._row[out]
            self.net[g] = self._net[out]
            self.corr[g] = self._corr[out]
            self.t[g] = T
            self.converged[g] = conv[out]
            self.alive[g] = False
            finished = g.tolist()
            keep = np.flatnonzero(~done)
            L = self._live = keep.size
            if L == 0:
                return finished
            # stable compaction; the rows before the first finished one stay
            first, tail = out[0], keep[out[0] :]
            for a in (self._row, self._A, self._net, self._corr, self._best,
                      self._last_improved, self._mass, self._dense):
                a[first:L] = a[tail]
            j, vj = j[keep], vj[keep]
            at = self._flat[:L] + j
        self._rounds = T + 1

        up = vj > 0
        net = self._net.ravel()
        old = net[at]
        new = old + np.where(up, 1, -1)
        net[at] = new
        self._mass[:L] += np.abs(new) - np.abs(old)

        # corr += gamma * sign * cross[j] by its structure: +-gamma*rho on
        # every voter slot (+-0 when j = 0), then +-gamma on slot j itself
        corr = self._corr.ravel()
        pick = corr[at]
        f0 = self._corr[:L, 0].copy()  # whole rows add faster than [:, 1:]
        sgamma = np.where(up, self.gamma, -self.gamma)
        self._corr[:L] += (sgamma * np.where(j > 0, self.rho, 0.0))[:, None]
        self._corr[:L, 0] = f0
        corr[at] = pick + sgamma

        # the L1 mass is at most the number of appends, T + 1
        if T + 1 > self.lin_cap:
            over = self._mass[:L] > self.lin_cap
            flip = over & ~self._dense[:L]
            if flip.any():
                self._dense[:L] |= over
                self.dense[self._row[:L][flip]] = True
        dense = np.flatnonzero(self._dense[:L])
        if dense.size:
            self._corr[dense] = self.refresh(self._net[dense])
        return finished

    def _begin(self) -> None:
        """Read R0 and, if the prefix is not empty, set up its schedule.

        A column is a run of rows with equal A[1:] bytes in A_1 order; a row
        of equal A_1 in between splits one in two, at the cost of a walk.
        """
        order = np.argsort(self._A[:, 1], kind="stable")
        key = self._A[order, 1:].view(np.int64)
        new = np.ones(self.G, dtype=bool)
        new[1:] = (key[1:] != key[:-1]).any(axis=1)
        C = int(np.count_nonzero(new))
        col = np.empty(self.G, dtype=np.intp)
        col[order] = np.cumsum(new) - 1
        per_round = (16 + _VoterWalks.slot_type(self.n).itemsize) * C  # vmax, step and slot
        r0 = min(self.lin_cap, self.stall_window, self.cap, _WALK_BYTES // per_round)
        R0 = self._r0 = math.floor(r0)
        if R0 <= 0:
            return
        self._walk = _VoterWalks(self._A[order[new], 1:], self.gamma, self.rho, R0)
        self._col = col
        self._members = np.split(order, np.flatnonzero(new)[1:])  # rows of each column, in grid order
        self._up = (self._A[:, 0] > 0).astype(np.intp)
        self._astar = self._walk.slot0_rounds(self._A[:, 0])
        self._due: dict[int, list[int]] = {}  # rows finishing at each prefix round

    def _prefix_step(self) -> list[int]:
        """One round of the prefix: the column walks advance, scheduled rows finish.

        A row appends on slot 0 when |viol_0| is at least its column walk's
        next voter maximum (argmax keeps the first index on a tie), else it
        takes the walk's next voter append.  So it makes at most a* slot-0
        and b* voter appends, and finishes converged at round a* + b*, where
        b* is the round its column's walk stops.  When a walk stops, the rows
        of its column that finish inside the prefix get their final net,
        corr and t at once, and wait in _due for their round.
        """
        T, walk = self._rounds, self._walk
        stopped = walk.advance(T)
        if stopped is not None:
            g = np.concatenate([self._members[c] for c in stopped.tolist()])
            due = self._astar[g] + T
            inside = due < self._r0
            g, due = g[inside], due[inside]
            a, c, up = self._astar[g], self._col[g], self._up[g]
            self.net[g, 0] = np.where(up, a, -a)
            self.net[g, 1:] = walk.net[c]
            self.corr[g, 0] = walk.c0[up, a]
            self.corr[g, 1:] = walk.corr[c]
            self.t[g] = due
            for row, r in zip(g.tolist(), due.tolist()):
                self._due.setdefault(r, []).append(row)
        g = self._due.pop(T, [])
        if g:
            g.sort()
            self.converged[g] = True
            self.alive[g] = False
            self._live -= len(g)
        if self._live:
            self._rounds = T + 1
        return g

    def _merge(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """b, best and last_improved of live prefix rows after the rounds so far.

        Replays the prefix round by round with the step's arithmetic: v is
        the larger of |viol_0| and the column walk's voter maximum after b
        voter appends, and a tie goes to slot 0.  A live row has not
        converged in any of these rounds.
        """
        gamma, R0, C = self.gamma, self._r0, self._walk.C
        vmax = self._walk.vmax.ravel()
        k = self._col[rows].copy()  # flat index of the next voter maximum
        a = self._up[rows] * (R0 + 1)  # flat index of corr_0 in walk.c0
        a0, c0 = self._A[rows, 0], self._walk.c0.ravel()
        best = np.full(rows.size, np.inf)
        last = np.zeros(rows.size, dtype=np.int64)
        for T in range(self._rounds):
            m = vmax[k]
            v0 = np.abs(a0 - c0[a])
            voter = v0 < m
            v = np.maximum(v0, m)
            improved = v < best - gamma / 16.0
            np.putmask(best, improved, v)
            np.putmask(last, improved, T)
            k += voter * C
            a += ~voter
        return (k - self._col[rows]) // C, best, last

    def _replay(self, rows: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """net and corr of live prefix rows that have made b voter appends."""
        a, up = self._rounds - b, self._up[rows]
        net = np.empty((rows.size, self.n + 1), dtype=np.int64)
        corr = np.empty((rows.size, self.n + 1))
        net[:, 0] = np.where(up, a, -a)
        corr[:, 0] = self._walk.c0[up, a]
        net[:, 1:], corr[:, 1:] = self._walk.states(self._col[rows], b)
        return net, corr

    def _handoff(self) -> None:
        """Pack the live rows into the working arrays and leave the prefix."""
        live = np.flatnonzero(self.alive)
        L = live.size
        b, self._best[:L], self._last_improved[:L] = self._merge(live)
        net, corr = self._replay(live, b)
        self._row[:L] = live
        self._A[:L] = self._A[live]
        self._net[:L] = net
        self._corr[:L] = corr
        self._mass[:L] = np.abs(net).sum(axis=1)
        self._walk = None

    def run(self, checkpoint=None) -> None:
        """Step until every row has finished or checkpoint stops the run.

        Every _CHECK_EVERY rounds the rows finished since the last call go to
        checkpoint; a True return stops the run there, and the live rows'
        net, corr and t are left for copy_back() to fill in.
        """
        pending: list[int] = []
        k = 0
        while self._live:
            pending.extend(self.step())
            k += 1
            if checkpoint is not None and k % _CHECK_EVERY == 0 and pending:
                if checkpoint(pending):
                    return
                pending = []
        if checkpoint is not None and pending:
            checkpoint(pending)

    def copy_back(self) -> None:
        """Make net, corr and t current for the still-live rows too."""
        if self._walk is not None:
            g = np.flatnonzero(self.alive)
            if g.size:
                self.net[g], self.corr[g] = self._replay(g, self._merge(g)[0])
        else:
            g = self._row[: self._live]
            self.net[g] = self._net[: self._live]
            self.corr[g] = self._corr[: self._live]
        self.t[g] = self._rounds


class _VoterWalks:
    """The voter walks of the grid columns, one linear-mode voter append per round.

    advance(T) makes each walk's T-th voter append with the float operations
    of _GridEngine.step on the voter slots, and records what later reads
    need: the largest voter violation before it (vmax), the slot and the
    signed step +-gamma.  A walk whose largest violation is at most gamma
    has reached b* and stops there: its later steps are +-0, so corr keeps
    its state at b*, and its net at b* is summed from the record once, when
    it stops.  c0 holds the two slot-0 walks, one per sign of A_0.
    """

    def __init__(self, targets: np.ndarray, gamma: float, rho: float, rounds: int) -> None:
        self.C, self.n = targets.shape
        self.targets = targets
        self.gamma = gamma
        self.rho = rho
        self.net = np.zeros((self.C, self.n), dtype=np.int64)  # set when a walk stops
        self.corr = np.zeros((self.C, self.n))
        self._viol, self._av = np.empty_like(self.corr), np.empty_like(self.corr)
        self._flat = np.arange(self.C) * self.n
        self.vmax = np.empty((rounds, self.C))
        self.slot = np.empty((rounds, self.C), dtype=self.slot_type(self.n))
        self.step = np.empty((rounds, self.C))
        self._move = np.ones(self.C, dtype=bool)
        self._moving = self.C
        # while |viol_0| > gamma a slot-0 append moves corr_0 by gamma toward
        # A_0 without crossing it, so after a of them corr_0 is the step's
        # sequential sum of a copies of +gamma (A_0 > 0) or -gamma:
        # c0[A_0 > 0, a]
        self.c0 = np.zeros((2, rounds + 1))
        np.cumsum(np.full(rounds, -gamma), out=self.c0[0, 1:])
        np.cumsum(np.full(rounds, gamma), out=self.c0[1, 1:])

    @staticmethod
    def slot_type(n: int) -> np.dtype:
        """The smallest unsigned type that holds a voter slot 0..n-1."""
        return np.min_scalar_type(max(n - 1, 0))

    def slot0_rounds(self, a0: np.ndarray) -> np.ndarray:
        """a*: the slot-0 appends until |A_0 - corr_0| <= gamma (R0 if none before).

        Before a*, A_0 - corr_0 keeps the sign of A_0, so a* is the first a
        at which +-(A_0 - corr_0) <= gamma.  That test only turns from false
        to true as a grows, so a binary search finds it, once per distinct
        A_0.
        """
        R0 = self.c0.shape[1] - 1
        vals = np.sort(a0)
        vals = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]
        up = (vals > 0).astype(np.intp)
        sgn = np.where(up, 1.0, -1.0)
        lo, hi = np.zeros(vals.size, dtype=np.intp), np.full(vals.size, R0)
        while (lo < hi).any():
            mid = (lo + hi) // 2
            ok = sgn * (vals - self.c0[up, mid]) <= self.gamma
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, np.minimum(mid + 1, hi))
        return lo[np.searchsorted(vals, a0)]

    def advance(self, T: int) -> np.ndarray | None:
        """Record round T; returns the walks that stop at T (b* = T), if any."""
        if not self._moving:
            return None
        viol = np.subtract(self.targets, self.corr, out=self._viol)
        j = np.abs(viol, out=self._av).argmax(axis=1)
        at = self._flat + j
        vj = viol.take(at)
        m = np.abs(vj, out=self.vmax[T])
        moving = np.count_nonzero(m > self.gamma)
        stopped = None
        if moving < self._moving:
            move = m > self.gamma
            stopped = np.flatnonzero(self._move > move)  # moving before, not now
            self._move, self._moving = move, moving
            # sum the record's +-1 steps per slot, exactly
            at_b = (np.arange(stopped.size) * self.n + self.slot[:T, stopped]).ravel()
            net = np.bincount(at_b, np.sign(self.step[:T, stopped]).ravel(), stopped.size * self.n)
            self.net[stopped] = net.reshape(stopped.size, self.n)
            if not moving:
                return stopped
        # +-0.0 on a stopped walk: no corr of a walk is -0.0, so it stays put
        sgamma = np.copysign(self.gamma, vj, out=self.step[T])
        if self._moving < self.C:
            sgamma *= self._move
        self.slot[T] = j
        pick = self.corr.take(at)
        self.corr += (sgamma * self.rho)[:, None]
        pick += sgamma
        self.corr.put(at, pick)
        return stopped

    def states(self, col: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Voter net and corr of walk col[i] after b[i] appends.

        Each voter slot of a walk only ever adds the round's delta (the step
        on the appended slot, the step times rho on the others), so its
        values are a running sum, and a sequential cumsum from the same start
        gives the same floats.  The rounds go in blocks of about
        _subsetdp._BLOCK_BYTES.
        """
        C, n = self.C, self.n
        net = np.empty((b.size, n), dtype=np.int64)
        corr = np.empty((b.size, n))
        cnet = np.zeros((1, C, n), dtype=np.int64)
        ccorr = np.zeros((1, C, n))
        block = max(1, _subsetdp._BLOCK_BYTES // (16 * C * n))
        cc = np.arange(C)[None, :]
        lo, top = 0, int(b.max())
        while True:
            hi = min(lo + block, top)
            sgamma = self.step[lo:hi]
            Dn = np.zeros((hi - lo + 1, C, n), dtype=np.int64)
            Dc = np.empty((hi - lo + 1, C, n))
            Dn[:1], Dc[:1] = cnet, ccorr
            Dc[1:] = (sgamma * self.rho)[:, :, None]
            rr = np.arange(1, hi - lo + 1)[:, None]
            j = self.slot[lo:hi]
            Dn[rr, cc, j] = np.sign(sgamma)
            Dc[rr, cc, j] = sgamma
            np.cumsum(Dn, axis=0, out=Dn)
            np.cumsum(Dc, axis=0, out=Dc)
            sel = np.flatnonzero((b >= lo) & (b <= hi))
            net[sel] = Dn[b[sel] - lo, col[sel]]
            corr[sel] = Dc[b[sel] - lo, col[sel]]
            if hi == top:
                return net, corr
            cnet, ccorr = Dn[-1:], Dc[-1:]
            lo = hi


def _support_refresh(n: int, gamma: float):
    """Dense refresh by the support table, in row chunks of about _subsetdp._BLOCK_BYTES.

    The float32 scores are exact integers while the L1 mass of a net stays
    below 2^24; only the clipped average is rounded, far inside the xi/16
    oracle budget.
    """
    ext = _support_ext(n).astype(np.float32)
    XT = np.ascontiguousarray(ext.T)
    Wmu32 = (mu_weights(n)[:, None] * ext).astype(np.float32)
    g32 = np.float32(gamma)

    def refresh(nets: np.ndarray) -> np.ndarray:
        chunk = max(1, _subsetdp._BLOCK_BYTES // (4 * ext.shape[0]))
        out = np.empty(nets.shape)
        for s in range(0, len(nets), chunk):
            H = nets[s : s + chunk].astype(np.float32) @ XT
            H *= g32
            np.clip(H, -1.0, 1.0, out=H)
            out[s : s + chunk] = H @ Wmu32
        return out

    return refresh


def _table_refresh(n: int, gamma: float):
    """Dense refresh from clip tables, one per distinct sorted voter net (_subsetdp)."""
    pmf = mu_pmf_points(n)
    return lambda nets: _subsetdp.mu_correlations_nets(nets, gamma, pmf)


def _dense_refresh(n: int, gamma: float):
    """The dense refresh of an n-voter grid: the support table up to _ENUM_CAP, else clip tables."""
    return _table_refresh(n, gamma) if n > _ENUM_CAP else _support_refresh(n, gamma)
