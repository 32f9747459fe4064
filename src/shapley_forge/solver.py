"""Grid search that turns a target index vector into a weighted voting game.

A target index vector pins the coordinate correlations of a matching game up
to two unknowns: the game's mean under the slice distribution and the mean
of its coordinate correlations.  The solver sweeps a grid over that square,
runs the boosting loop against each implied correlation vector, thresholds
each resulting clipped form into a voting game and keeps any candidate whose
exact index distance clears the acceptance margin 8*eps/10.

The whole grid is boosted in lockstep by one vectorized engine, at every n
and in both oracle modes.  A row's integer net is its whole state.  Rows stay
in a closed-form "linear" regime while their running sums provably never
clip, and move one-way into a dense regime whose correlations are recomputed
from the net after every append by one refresh callable: from the support
table up to n = 12, and above it from one clip table per distinct sorted
voter net, shared by the round's rows that carry it (see _subsetdp).  Both
are exact, so the boosting oracle never samples.

In the linear regime an append moves either corr_0 or the voter
correlations, never both, and every row of a grid column (one mean_corr)
has the same voter targets.  So for the first rounds, where no row can go
dense, stall or hit the cap, the engine walks the voters once per column,
and a row finishes at round a* + b*: the slot-0 appends its f0 needs plus
the round its column's walk stops.  A round there advances the walks and
returns the rows scheduled for it; the rows still live when those rounds
end are replayed, and the full per-row step takes over.  The results are
the same floats either way.  A row still live at the round cap finishes
unconverged, like a stalled row.

Every row is scored exactly once, at the checkpoint where it finishes.  In
exact-enum mode one truth-table pass scores a batch; in exact-DP mode the
batch's rows are grouped by weight vector (finished rows often share one and
differ only in the threshold net_0), and each group is scored from one
subset table in which only the threshold window moves (see _subsetdp).  A
solve keeps those tables, within a byte budget, for the vectors that come
back at later checkpoints.  A grid whose engine arrays would pass their
byte budget is refused before anything is allocated.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import _subsetdp
from .boosting import game_from_net
from .games import VotingGame, ltf_fn
from .indices import (
    d_shapley,
    shapley_exact_truthtable,
    shapley_int_ltf_dp,
    truthtable_coefficient_matrix,
)
from .mu import enumerate_cube, enumerate_support, lambda_n, mu_pmf_points, mu_weights, pair_correlation

ORACLE_MODES = ("exact-enum", "exact-dp")
# largest n whose dense refresh uses the support table: the largest n at
# which it is faster than the clip tables over whole dense solves at both
# xi = 0.02 and 0.005 (at n = 13 the tables win at xi = 0.02 and lose at
# 0.005, where sum |w| is larger)
_ENUM_CAP = 12
# rounds between two validations of the rows that finished in between
_CHECK_EVERY = 64
# bytes of the recorded column walks; caps the linear prefix's length
_WALK_BYTES = 16 << 20
# budget of the grid's (cells x (n+1)) 8-byte arrays: the targets, the
# engine's copy of them, and net and corr both by grid row and packed
_GRID_ARRAYS = 6
_GRID_BYTES = 512 << 20
# bytes of subset-table prefix sums one exact-DP solve keeps for reuse
_TABLE_CACHE_BYTES = 4 << 20


@dataclass(frozen=True)
class SolveConfig:
    epsilon: float | None = None
    xi: float = 0.005
    grid_step: float = 0.05
    oracle_mode: str = "exact-dp"
    stall_window: int | None = 512

    def __post_init__(self) -> None:
        if self.oracle_mode not in ORACLE_MODES:
            raise ValueError(f"oracle_mode must be one of {ORACLE_MODES}, got {self.oracle_mode!r}")
        if not 0 < self.grid_step <= 2:
            raise ValueError("grid_step must lie in (0, 2]")
        if not 0 < self.xi <= 1:
            raise ValueError("xi must lie in (0, 1]")
        if self.epsilon is not None and not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        sw = self.stall_window
        if sw is not None and (isinstance(sw, bool) or not isinstance(sw, numbers.Integral) or sw < 1):
            raise ValueError(f"stall_window must be None or an integer >= 1, got {sw!r}")


@dataclass(frozen=True)
class GuessPoint:
    """One grid cell: guessed mean of the game and of its correlations."""

    f_star_0: float
    mean_corr: float


@dataclass(frozen=True)
class SolveResult:
    game: VotingGame | None
    est_dshapley: float
    guess: GuessPoint | None
    boost_iterations: int
    status: str
    nu_warning: bool = False
    grid_evaluated: int = 0


# ---------------------------------------------------------------------------
# Vectorized multi-target boosting engine
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
    it stalls, or unconverged at the round cap, where it may not append.

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
    the walks, schedules the rows of each column whose walk stopped, and
    returns the rows scheduled for it, built from the walk's state at b*;
    no per-row state moves.  R0 is read at the first step.

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
        cap: float = math.inf,
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
        self.cap = cap

        self.net = np.zeros((self.G, n + 1), dtype=np.int64)
        self.corr = np.zeros((self.G, n + 1))
        self.t = np.zeros(self.G, dtype=np.int64)
        self.alive = np.ones(self.G, dtype=bool)
        self.converged = np.zeros(self.G, dtype=bool)
        self.dense = np.zeros(self.G, dtype=bool)
        # no point clips while the L1 mass of net stays at or below this
        self.lin_cap = int(math.floor(1.0 / self.gamma)) - 1

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
        """Read R0 and, if the prefix is not empty, set up its schedule."""
        cols: dict[bytes, int] = {}
        col = np.array([cols.setdefault(a.tobytes(), len(cols)) for a in self._A[:, 1:]])
        C = len(cols)
        r0 = min(self.lin_cap, self.stall_window, self.cap, _WALK_BYTES // (17 * C))
        R0 = self._r0 = math.floor(r0)
        if R0 <= 0:
            return
        rep = np.empty(C, dtype=np.int64)
        rep[col] = np.arange(self.G)  # any row of each column
        self._walk = _VoterWalks(self._A[rep, 1:], self.gamma, self.rho, R0)
        self._col = col
        self._up = (self._A[:, 0] > 0).astype(np.intp)
        self._astar = self._walk.slot0_rounds(self._A[:, 0])
        # the round each row finishes at, once its column's walk has stopped
        self._due = np.full(self.G, -1, dtype=np.int64)

    def _prefix_step(self) -> list[int]:
        """One round of the prefix: the column walks advance, scheduled rows finish.

        A row appends on slot 0 when |viol_0| is at least its column walk's
        next voter maximum (argmax keeps the first index on a tie), else it
        takes the walk's next voter append.  So it makes at most a* slot-0
        and b* voter appends, and finishes converged at round a* + b*, where
        b* is the round its column's walk stops.
        """
        T, walk = self._rounds, self._walk
        stopped = walk.advance(T)
        if stopped is not None:
            hit = stopped[self._col]
            self._due[hit] = self._astar[hit] + T
        g = (self._due == T).nonzero()[0]
        if g.size:
            a, c, up = self._astar[g], self._col[g], self._up[g]
            self.net[g, 0] = np.where(up, a, -a)
            self.net[g, 1:] = walk.net[c]
            self.corr[g, 0] = walk.c0[up, a]
            self.corr[g, 1:] = walk.corr[c]
            self.t[g] = T
            self.converged[g] = True
            self.alive[g] = False
            self._live -= g.size
        if self._live:
            self._rounds = T + 1
        return g.tolist()

    def _merge(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """b, best and last_improved of live prefix rows after the rounds so far.

        Replays the prefix round by round with the step's arithmetic: v is
        the larger of |viol_0| and the column walk's voter maximum after b
        voter appends, and a tie goes to slot 0.  A live row has not
        converged in any of these rounds.
        """
        gamma, R0 = self.gamma, self._r0
        vmax = self._walk.vmax.ravel()
        k = self._col[rows] * R0  # flat index of the next voter maximum
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
            k += voter
            a += ~voter
        return k - self._col[rows] * R0, best, last

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

    advance(T) records each walk's T-th voter append, with the float
    operations of _GridEngine.step on the voter slots: the largest voter
    violation before it (vmax), the slot and the sign.  A walk whose largest
    violation is at most gamma has reached b* and stops there (sign 0), so
    net and corr hold each stopped walk's state at b*.  c0 holds the two
    slot-0 walks, one per sign of A_0.
    """

    def __init__(self, targets: np.ndarray, gamma: float, rho: float, rounds: int) -> None:
        self.C, self.n = targets.shape
        self.targets = targets
        self.gamma = gamma
        self.rho = rho
        self.net = np.zeros((self.C, self.n), dtype=np.int64)
        self.corr = np.zeros((self.C, self.n))
        self._flat = np.arange(self.C) * self.n
        self.vmax = np.empty((self.C, rounds))
        self.slot = np.empty((self.C, rounds), dtype=np.intp)
        self.sign = np.zeros((self.C, rounds), dtype=np.int8)
        self._moving = np.ones(self.C, dtype=bool)
        # while |viol_0| > gamma a slot-0 append moves corr_0 by gamma toward
        # A_0 without crossing it, so after a of them corr_0 is the step's
        # sequential sum of a copies of +gamma (A_0 > 0) or -gamma:
        # c0[A_0 > 0, a]
        self.c0 = np.zeros((2, rounds + 1))
        np.cumsum(np.full(rounds, -gamma), out=self.c0[0, 1:])
        np.cumsum(np.full(rounds, gamma), out=self.c0[1, 1:])

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
        """Record round T; returns the mask of walks that stop at T (b* = T), if any."""
        if not self._moving.any():
            return None
        viol = self.targets - self.corr
        av = np.abs(viol)
        j = av.argmax(axis=1)
        at = self._flat + j
        m = av.ravel()[at]
        self.vmax[:, T] = m
        move = m > self.gamma
        stopped = self._moving > move  # moving before, not now
        stopped = stopped if stopped.any() else None
        self._moving = move
        if not move.any():
            return stopped
        # +-0.0 on a stopped walk: no corr of a walk is -0.0, so it stays put
        sgamma = np.copysign(self.gamma, viol.ravel()[at]) * move
        self.slot[:, T] = j
        self.sign[:, T] = np.sign(sgamma)
        pick = self.corr.ravel()[at]
        self.corr += (sgamma * self.rho)[:, None]
        self.corr.ravel()[at] = pick + sgamma
        self.net.ravel()[at] += self.sign[:, T]
        return stopped

    def states(self, col: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Voter net and corr of walk col[i] after b[i] appends.

        Each voter slot of a walk only ever adds the round's delta (sgamma on
        the appended slot, sgamma * rho on the others), so its values are a
        running sum, and a sequential cumsum from the same start gives the
        same floats.  The rounds go in blocks of about _subsetdp._BLOCK_BYTES.
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
            s = self.sign[:, lo:hi].T
            sgamma = s * self.gamma
            Dn = np.zeros((hi - lo + 1, C, n), dtype=np.int64)
            Dc = np.empty((hi - lo + 1, C, n))
            Dn[:1], Dc[:1] = cnet, ccorr
            Dc[1:] = (sgamma * self.rho)[:, :, None]
            rr = np.arange(1, hi - lo + 1)[:, None]
            j = self.slot[:, lo:hi].T
            Dn[rr, cc, j] = s
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
    support = enumerate_support(n)
    ext = np.ones((support.shape[0], n + 1), dtype=np.float32)
    ext[:, 1:] = support
    XT = np.ascontiguousarray(ext.T)
    Wmu32 = (mu_weights(n)[:, None] * ext).astype(np.float32)
    g32 = np.float32(gamma)

    def refresh(nets: np.ndarray) -> np.ndarray:
        chunk = max(1, _subsetdp._BLOCK_BYTES // (4 * support.shape[0]))
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


# ---------------------------------------------------------------------------
# Guess construction and candidate validation
# ---------------------------------------------------------------------------


def _grid_points(step: float) -> int:
    return math.ceil(2.0 / step - 1e-9) + 1


def _grid_axis(step: float) -> np.ndarray:
    return np.linspace(-1.0, 1.0, _grid_points(step))


def _check_grid_budget(step: float, n: int) -> None:
    """Refuse a grid whose engine arrays would exceed the byte budget."""
    cells = _grid_points(step) ** 2
    need = _GRID_ARRAYS * cells * (n + 1) * 8
    if need > _GRID_BYTES:
        raise ValueError(
            f"grid_step {step:g} gives {cells} cells; at n = {n} the solver would need "
            f"{need >> 20} MiB, over the {_GRID_BYTES >> 20} MiB budget; use a coarser grid"
        )


def _target_rows(target: np.ndarray, nu: float, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All grid cells: returns (A, f0s, means) with A of shape (G, n+1)."""
    n = target.size
    lam = lambda_n(n)
    base = (2.0 / lam) * (target - nu)
    f0s = np.repeat(axis, axis.size)
    means = np.tile(axis, axis.size)
    A = np.empty((f0s.size, n + 1))
    A[:, 0] = f0s
    A[:, 1:] = means[:, None] + base[None, :]
    return A, f0s, means


def _exact_d_enum_batch(nets: np.ndarray, target: np.ndarray, n: int) -> np.ndarray:
    """Exact index distance for many candidates at once, by truth table.

    The scores net_0 + net . x are built by doubling in cube order: after
    voter j the first 2^(j+1) columns hold every sign pattern of voters
    0..j, the -net_j half first.  They are exact integers in float64, and
    the signs overwrite them in place.  Past _BLOCK_BYTES if need be (from
    n = 17), a chunk holds n/2 rows, so S @ coef reads coef once per n/2 rows.
    """
    coef = truthtable_coefficient_matrix(n)
    chunk = max(1, n // 2, _subsetdp._BLOCK_BYTES // (8 * coef.shape[0]))

    def dist(rows: np.ndarray) -> np.ndarray:
        rows = rows.astype(np.float64)
        S = np.empty((len(rows), coef.shape[0]))
        S[:, 0] = rows[:, 0]
        for j in range(n):
            half = 1 << j
            np.add(S[:, :half], rows[:, j + 1 : j + 2], out=S[:, half : 2 * half])
            S[:, :half] -= rows[:, j + 1 : j + 2]
        pos = S >= 0
        S.fill(-1.0)
        np.copyto(S, 1.0, where=pos)
        return np.linalg.norm(S @ coef - target[None, :], axis=1)

    return np.concatenate([dist(nets[s : s + chunk]) for s in range(0, len(nets), chunk)])


class _SwingTables(dict):
    """The _subsetdp swing tables one solve has built, by weight-vector bytes.

    A grid column's finished rows share one weight vector and come back at
    several checkpoints.  Past _TABLE_CACHE_BYTES of prefix sums the oldest
    tables are dropped (an object-dtype cell counts 48 bytes).
    """

    def __init__(self) -> None:
        super().__init__()
        self.nbytes = 0

    def get_or_build(self, key: bytes, w: np.ndarray):
        table = self.get(key)
        if table is None:
            table = self[key] = _subsetdp._swing_table(w)
            self.nbytes += self._cost(table)
            while self.nbytes > _TABLE_CACHE_BYTES and len(self) > 1:
                self.nbytes -= self._cost(self.pop(next(iter(self))))
        return table

    @staticmethod
    def _cost(table) -> int:
        P = table[0]
        return P.size * (48 if P.dtype == object else P.itemsize)


def _exact_d_dp_batch(
    nets: np.ndarray, target: np.ndarray, tables: _SwingTables | None = None
) -> np.ndarray:
    """Exact index distance for many candidates at once, by subset DP.

    Candidates sharing a weight vector net[1:] share one subset table and
    differ only in the step their threshold -net_0 puts on the +1 set's
    sum.  tables, if given, keeps those tables across calls.  Each distance
    is the one validate_candidate gives the candidate's game_from_net, bit
    for bit.
    """
    if tables is None:
        tables = _SwingTables()
    groups: dict[bytes, list[int]] = {}
    for i, net in enumerate(nets):
        groups.setdefault(net[1:].tobytes(), []).append(i)
    ds = np.empty(len(nets))
    for key, rows in groups.items():
        w = nets[rows[0], 1:]
        total = sum(w.tolist())
        # net_0 + w.x = net_0 + 2u - total >= 0 iff u >= t, as in shapley_affine
        ts = [-((int(nets[i, 0]) - total) // 2) for i in rows]
        Psi, _, inv = _subsetdp._window_sums(w, ts, table=tables.get_or_build(key, w))
        for i, index in zip(rows, _subsetdp._step_indices(Psi)):
            ds[i] = d_shapley(index[inv], target)
    return ds


def validate_candidate(target: np.ndarray, game: VotingGame, cfg: SolveConfig) -> float:
    """Exact index distance of a candidate, by the config's oracle mode."""
    target = np.asarray(target, dtype=np.float64)
    w_int = np.rint(game.weights)
    if cfg.oracle_mode == "exact-dp" and np.all(np.abs(game.weights - w_int) <= 1e-9):
        return d_shapley(shapley_int_ltf_dp(game).shapley, target)
    return d_shapley(shapley_exact_truthtable(ltf_fn(game), game.n).shapley, target)


# ---------------------------------------------------------------------------
# Full solvers
# ---------------------------------------------------------------------------


def solve_is(target, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Synthesize a game whose index vector approximates the target."""
    return _solve(np.asarray(target, dtype=np.float64), cfg, cfg.xi, default_eps=0.1)


def solve_isbw(target, weight_bound: float, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Bounded-weight variant: xi shrinks with the assumed weight budget."""
    target = np.asarray(target, dtype=np.float64)
    if not (math.isfinite(weight_bound) and weight_bound > 0):
        raise ValueError(f"solve_isbw needs a positive finite weight_bound, got {weight_bound}")
    n = target.size
    xi = min(cfg.xi, 1.0 / (10.0 * n * weight_bound))
    return _solve(target, cfg, xi, default_eps=n ** (-1.0 / 8.0))


def _solve(target: np.ndarray, cfg: SolveConfig, xi: float, default_eps: float) -> SolveResult:
    n = target.size
    if n < 3:
        raise ValueError(f"need at least 3 voters, got {n}")
    if not np.all(np.isfinite(target)):
        raise ValueError("target entries must be finite")
    if cfg.oracle_mode == "exact-enum" and n > 20:
        raise ValueError(f"enumeration oracle is unavailable at n={n}; use exact-dp")
    eps = cfg.epsilon if cfg.epsilon is not None else default_eps
    accept_at = 0.8 * eps
    nu = 2.0 / n
    nu_warning = abs(float(target.sum()) - 2.0) > 0.01
    if nu_warning:
        warnings.warn(
            f"target entries sum to {target.sum():.4f}, not 2; treating the source "
            "as monotone non-constant anyway",
            stacklevel=3,
        )
    bound = 64.0 / xi**2 if xi**2 > 0 else math.inf
    if not math.isfinite(bound):
        raise ValueError(f"xi = {xi:g} is too small: the round cap 64/xi^2 is not finite")
    cap = math.ceil(bound)
    _check_grid_budget(cfg.grid_step, n)
    axis = _grid_axis(cfg.grid_step)
    A, f0s, means = _target_rows(target, nu, axis)

    engine, g, d, status = _solve_engine(target, cfg, xi, accept_at, A, cap)
    return SolveResult(
        game=game_from_net(engine.net[g]),
        est_dshapley=d,
        guess=GuessPoint(float(f0s[g]), float(means[g])),
        boost_iterations=int(engine.t[g]),
        status=status,
        nu_warning=nu_warning,
        grid_evaluated=int(np.count_nonzero(~engine.alive)),
    )


def _solve_engine(target, cfg, xi, accept_at, A, cap) -> tuple[_GridEngine, int, float, str]:
    """Lockstep grid; returns (engine, chosen cell, its distance, status).

    run() hands every row to the checkpoint where it finishes, and each is
    scored there once.  The run stops at the first checkpoint that accepts a
    row, and the lowest (distance, rounds, cell) accepted row wins; if none
    is accepted every row was scored, and the lowest (distance, cell) wins.
    """
    n = target.size
    gamma = xi / 2.0
    refresh = _table_refresh(n, gamma) if n > _ENUM_CAP else _support_refresh(n, gamma)
    engine = _GridEngine(n, A, gamma, refresh, stall_window=cfg.stall_window, cap=cap)
    d = np.full(A.shape[0], np.inf)
    tables = _SwingTables()  # freed when the solve returns

    def checkpoint(finished: list[int]) -> bool:
        nets = engine.net[finished]
        if cfg.oracle_mode == "exact-enum":
            d[finished] = _exact_d_enum_batch(nets, target, n)
        else:
            d[finished] = _exact_d_dp_batch(nets, target, tables)
        return bool((d[finished] <= accept_at).any())

    engine.run(checkpoint)

    accepted = np.flatnonzero(d <= accept_at)
    if accepted.size:
        _, _, g = min(zip(d[accepted].tolist(), engine.t[accepted].tolist(), accepted.tolist()))
        return engine, g, float(d[g]), "solved"
    g = int(np.argmin(d))
    return engine, g, float(d[g]), "no-solution"


def exhaustive_baseline(target, max_weight: int = 6) -> tuple[VotingGame, float]:
    """Best small integer game by brute force; the optimality yardstick.

    Enumerates every weight vector in {0..max_weight}^n (lexicographically)
    and every half-integer threshold in [-total, total], returning the first
    minimizer of the exact index distance.
    """
    target = np.asarray(target, dtype=np.float64)
    n = target.size
    if n > 5:
        raise ValueError(f"baseline enumeration is capped at n=5, got {n}")
    if max_weight > 6:
        raise ValueError(f"baseline weight cap is 6, got {max_weight}")
    cube = enumerate_cube(n).astype(np.float64)
    A = truthtable_coefficient_matrix(n)
    best: tuple | None = None
    for w in itertools.product(range(max_weight + 1), repeat=n):
        wv = np.array(w, dtype=np.float64)
        vals = cube @ wv
        tot = int(wv.sum())
        thetas = np.arange(-2 * tot, 2 * tot + 1) * 0.5
        signs = np.where(vals[None, :] >= thetas[:, None], 1.0, -1.0)
        ds = np.linalg.norm(signs @ A - target[None, :], axis=1)
        i = int(np.argmin(ds))
        if best is None or ds[i] < best[0]:
            best = (float(ds[i]), wv, float(thetas[i]))
    assert best is not None
    return VotingGame(best[1], best[2]), best[0]
