import numpy as np
import pytest

import reference as ref
from shapley_forge import _subsetdp
from shapley_forge._subsetdp import classical_pivot_dp, subset_count_table


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


def test_table_over_budget_is_refused_before_allocation():
    with pytest.raises(ValueError, match="budget"):
        subset_count_table([10**12, 1, 1])
    cells = _subsetdp._TABLE_BYTES // 8
    with pytest.raises(ValueError, match="budget"):
        subset_count_table([cells // 3, 1])  # 3 x (cells // 3 + 2) cells


def test_swing_counts_do_not_depend_on_the_gather_blocks(monkeypatch, rng):
    w = rng.integers(-5, 8, size=41)
    total = int(np.abs(w).sum())
    # steps inside the table, at its edges, beyond them and past int64
    ts = [17, -total - 2, -total, 0, total, total + 9, -(10**30), 10**30]
    ts += rng.integers(-total, total + 1, size=40).tolist()
    whole = _subsetdp._window_swings(w, ts)[0]
    assert whole.shape == (len(ts), 41, np.unique(w).size)
    for t, S in zip(ts, whole):
        assert np.array_equal(_subsetdp._window_swings(w, [t])[0][0], S)
    pair = 24 * 41 * np.unique(w).size  # gather bytes per (step, shift) pair
    monkeypatch.setattr(_subsetdp, "_GATHER_BYTES", 3 * 42 * pair)  # 3 steps, all shifts
    assert np.array_equal(_subsetdp._window_swings(w, ts)[0], whole)
    monkeypatch.setattr(_subsetdp, "_GATHER_BYTES", 1)  # one step and two shifts j per block
    assert np.array_equal(_subsetdp._window_swings(w, ts)[0], whole)
