import math
import re
import tracemalloc

import numpy as np
import pytest

import reference as ref
from shapley_forge import _subsetdp, boosting
from shapley_forge._subsetdp import classical_pivot_dp, leave_one_out, subset_count_table
from shapley_forge.boosting import BoostState, exact_dp_oracle
from shapley_forge.mu import mu_pmf


def _full_copy_table(weights):
    """The plain subset-sum DP: a fresh copy of the table per voter."""
    lo = sum(min(v, 0) for v in weights)
    width = sum(abs(v) for v in weights) + 1
    F = np.zeros((len(weights) + 1, width), dtype=object)
    F[0, -lo] = 1
    for wi in weights:
        nxt = F.copy()
        for k in range(1, len(weights) + 1):
            for c in range(width):
                if 0 <= c - wi < width:
                    nxt[k, c] += F[k - 1, c - wi]
        F = nxt
    return F, -lo


def test_in_place_table_matches_full_copy_build(rng):
    # n = 65 crosses into the Python-int table
    for n in (1, 2, 5, 9, 14, 65):
        w = [int(v) for v in rng.integers(-4, 5, size=n)]
        F, off = subset_count_table(w)
        want, want_off = _full_copy_table(w)
        assert off == want_off
        assert F.dtype == (np.int64 if n <= 62 else object)
        assert F.tolist() == want.tolist()


def test_classical_pivot_dp_matches_permutations(rng):
    cases = [((0, 3, 0, 2), 5), ((1, 1, 1), 3), ((4, 0, 0, 0, 1), 1), ((5,), 5)]
    for _ in range(12):
        n = int(rng.integers(2, 8))
        w = [int(v) for v in rng.integers(0, 6, size=n)]
        w[int(rng.integers(n))] = 0
        if sum(w) == 0:
            w[0] = 1
        cases.append((tuple(w), int(rng.integers(1, sum(w) + 1))))
        cases.append((tuple(w), sum(w)))  # unanimity among the nonzero voters
    for w, quota in cases:
        got = classical_pivot_dp(w, quota)
        assert np.allclose(got, ref.classical_shapley_shubik(w, quota), atol=1e-12), (w, quota)
        assert np.all(got[np.asarray(w) == 0] == 0.0)


def test_half_table_matches_full_copy_build_on_net_weights(rng):
    # weights like a boosting net's, where the flat adds wrap across rows most
    for n in range(1, 21):
        w = [int(v) for v in rng.integers(-40, 201, size=n)]
        F, off = subset_count_table(w)
        want, want_off = _full_copy_table(w)
        assert off == want_off
        assert F.tolist() == want.tolist(), w


@pytest.mark.parametrize(
    "w",
    [[0] * 7, [0] * 8, [-3, -1, -4, -1, -5], [-2, -7, -1, -8], [9], [-2], [0], [5, 0, 0, -5], [1, 30]],
    ids=["zeros-odd", "zeros-even", "negative-odd", "negative-even", "one", "one-negative", "one-zero",
         "cancelling", "wide-last"],
)
def test_half_table_edge_weights(w):
    F, off = subset_count_table(w)
    want, want_off = _full_copy_table(w)
    assert off == want_off
    assert F.dtype == np.int64
    assert F.tolist() == want.tolist()


@pytest.mark.parametrize("n", [62, 63, 65])
def test_half_table_across_the_int64_boundary(n, rng):
    w = [int(v) for v in rng.integers(-1, 3, size=n)]
    F, off = subset_count_table(w)
    assert F.dtype == (np.int64 if n <= 62 else object)
    want, want_off = _full_copy_table(w)
    assert off == want_off
    assert F.tolist() == want.tolist()
    # all ones: the counts are C(n, k), up to C(62, 31) > 2^58 in int64
    F, off = subset_count_table([1] * n)
    assert F.tolist() == [[math.comb(n, k) if c == k else 0 for c in range(n + 1)] for k in range(n + 1)]


@pytest.mark.parametrize("n", [1, 2, 7, 12, 63])
def test_table_rows_mirror_by_complement(n, rng):
    # a k-subset of sum u leaves an (n - k)-subset of sum total - u
    w = [int(v) for v in rng.integers(-40, 201, size=n)]
    F, _ = subset_count_table(w)
    for k in range(n + 1):
        assert F[n - k].tolist() == F[k, ::-1].tolist()


def test_table_over_budget_is_refused_before_allocation():
    tracemalloc.start()
    try:
        cells = _subsetdp._TABLE_BYTES // 8
        for w, rows, width in (([10**12, 1, 1], 4, 10**12 + 3), ([cells // 3, 1], 3, cells // 3 + 2)):
            msg = (
                f"subset table of {rows} x {width} counts exceeds the "
                f"{_subsetdp._TABLE_BYTES >> 20} MiB budget; the weights are too large"
            )
            with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
                subset_count_table(w)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_swing_counts_do_not_depend_on_the_gather_blocks(monkeypatch, rng):
    w = rng.integers(-5, 8, size=41)
    total = int(np.abs(w).sum())
    # steps inside the table, at its edges, beyond them and past int64
    ts = [17, -total - 2, -total, 0, total, total + 9, -(10**30), 10**30]
    ts += rng.integers(-total, total + 1, size=40).tolist()

    steps = _subsetdp._step_indices(w, ts)
    assert steps.shape == (len(ts), 41) and steps.dtype == np.float64
    for t, S in zip(ts, steps):
        assert np.array_equal(_subsetdp._step_indices(w, [t])[0], S)
    cells = 41 * 44 // 2  # cells read per (step, weight) row
    monkeypatch.setattr(_subsetdp, "_BLOCK_BYTES", 24 * cells * 5)  # 5 rows a block
    assert np.array_equal(_subsetdp._step_indices(w, ts), steps)
    monkeypatch.setattr(_subsetdp, "_BLOCK_BYTES", 1)  # one row per block
    assert np.array_equal(_subsetdp._step_indices(w, ts), steps)


def _per_voter_correlations(w, c0, gamma, pmf):
    """The correlations of clip(gamma (w.x + c0)) from one leave-one-out table per voter."""
    F, off = subset_count_table(w)
    F = F.astype(object)
    n, total = len(w), sum(w)
    u = np.arange(F.shape[1]) - off
    per_weight = {}

    def phi(s):
        return np.clip(gamma * (2 * s - total + c0), -1.0, 1.0)

    out = [sum(pmf[k] * (F[k] @ phi(u)) for k in range(n + 1))]
    for wi in w:
        if wi not in per_weight:  # voters of equal weight have one table
            G = leave_one_out(F, off, wi)
            up, down = G @ phi(u + wi), G @ phi(u)
            per_weight[wi] = sum(pmf[k + 1] * up[k] - pmf[k] * down[k] for k in range(n))
        out.append(per_weight[wi])
    return np.array(out, dtype=np.float64)


@pytest.mark.parametrize("n", [5, 17, 40, 62, 63, 70])
def test_correlations_match_per_voter_sums_past_int64(n, rng):
    # first-moment sums pass int64 at n = 62 when the linear window is wide
    # (C(61, 30) * 50 > 2^63); n >= 63 tables hold Python ints throughout
    pmf = np.array([mu_pmf(n, k) for k in range(n + 1)])
    w = [int(v) for v in rng.integers(-3, 4, size=n)]
    total, A = sum(w), sum(abs(v) for v in w)  # w.x ranges over [-A, A]
    cases = [
        (1.0, 1 - total % 2),  # odd scores: no score is linear, every one clips
        (0.05, A + 40),  # window below the table: h = +1 throughout
        (0.05, -A - 40),  # window above it: h = -1 throughout
        (0.05, A - 10),  # window straddles the lowest score
        (0.05, -A + 10),  # window straddles the highest score
        (2.0 / A, 3),  # window inside the table, half its span
    ]
    cases = [(w, gamma, c0) for gamma, c0 in cases]
    if n == 62:
        cases.append(([1] * 62, 0.0025, 40))  # every score linear, |w.x + c0| up to 102
    for w, gamma, c0 in cases:
        got = _subsetdp.mu_correlations_affine(w, c0, gamma, pmf)
        want = _per_voter_correlations(w, c0, gamma, pmf)
        assert np.allclose(got, want, rtol=0, atol=1e-12), (gamma, c0)


def _rows_with_every_window(rng, n: int, height: int) -> np.ndarray:
    """Dense-refresh rows at gamma = 1/height, covering every kind of window.

    A narrow voter net (sum |w| < height) gets windows that clip on neither
    side, on either one and beyond the table; a wide one (sum |w| > 2
    height) windows that clip on both sides, on either one, and beyond.
    Each net also comes back with its voters permuted, and the all-zero net
    with three thresholds.
    """
    narrow = rng.integers(-1, 2, size=n)
    wide = rng.choice([-7, -5, -3, 3, 4, 6, 7], size=n)
    rows = []
    for w, c0s in ((narrow, (0, height, -height, 3 * height)),
                   (wide, (0, int(np.abs(wide).sum()), -int(np.abs(wide).sum()), 9 * n + height))):
        for c0 in c0s:
            rows += [[c0, *w], [c0 + 1, *w], [c0, *rng.permutation(w)]]
    rows += [[c0] + [0] * n for c0 in (0, height // 2, -3 * height)]
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("n", [3, 5, 12, 15, 20, 40, 63, 70])
def test_table_refresh_matches_the_dp_oracle_and_per_voter_sums(n, rng, monkeypatch):
    height = 2 * n + 2
    gamma = 1.0 / height
    nets = _rows_with_every_window(rng, n, height)
    got = boosting._table_refresh(n, gamma)(nets)
    # one row in the engine gives the DP oracle's floats, bit for bit
    oracle = exact_dp_oracle(n)
    for net, row in zip(nets, got):
        assert np.array_equal(oracle(BoostState(n, gamma, net=net)), row)
    # and is within 1e-12 of the exact per-voter sums
    pmf = np.array([mu_pmf(n, k) for k in range(n + 1)])
    for net, row in [*zip(nets[::3], got[::3]), *zip(nets[2::3], got[2::3])]:
        want = _per_voter_correlations([int(v) for v in net[1:]], int(net[0]), gamma, pmf)
        assert np.allclose(row, want, rtol=0, atol=1e-12), net
    # tables built one at a time and read one row per gather block
    monkeypatch.setattr(_subsetdp, "_BLOCK_BYTES", 1)
    refresh = boosting._table_refresh(n, gamma)
    assert np.array_equal(refresh(nets), got)
    assert np.array_equal(refresh(nets[::-1]), got[::-1])
