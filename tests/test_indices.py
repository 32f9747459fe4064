import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import random_table, table_batch_fn
from shapley_forge.games import QuotaGame, VotingGame, ltf_fn, quota_to_ltf
from shapley_forge.indices import (
    correlations_from_fourier,
    correlations_from_shapley,
    d_fourier,
    d_shapley,
    fourier_from_correlations,
    shapley_exact_dp,
    shapley_exact_truthtable,
    shapley_from_correlations,
    shapley_from_fourier,
    shapley_int_ltf_dp,
    truthtable_coefficient_matrix,
)
from shapley_forge.mu import exact_correlations, lambda_n


def test_truthtable_matches_permutation_definition(rng):
    for n in (3, 4, 5):
        for _ in range(3):
            vals = random_table(rng, n)
            rep = shapley_exact_truthtable(table_batch_fn(vals, n), n)
            want = ref.perm_shapley(ref.table_fn1(vals, n), n)
            assert np.allclose(rep.shapley, want, atol=1e-12)


def test_report_fields(rng):
    n = 4
    vals = random_table(rng, n)
    rep = shapley_exact_truthtable(table_batch_fn(vals, n), n)
    assert rep.n == n
    assert rep.f_bottom == vals[0]
    assert rep.f_top == vals[-1]
    assert rep.nu == pytest.approx((rep.f_top - rep.f_bottom) / n)


@given(st.integers(min_value=3, max_value=7), st.randoms(use_true_random=False))
def test_telescoping_sum(n, pyrng):
    vals = np.array([pyrng.uniform(-1, 1) for _ in range(2**n)])
    rep = shapley_exact_truthtable(table_batch_fn(vals, n), n)
    assert rep.shapley.sum() == pytest.approx(rep.f_top - rep.f_bottom, abs=1e-11)


def test_coefficient_matrix_columns_sum_to_jump():
    # each voter's coefficients over the cube add up to applying the
    # telescoping identity to the indicator of that voter
    n = 5
    A = truthtable_coefficient_matrix(n)
    assert A.shape == (2**n, n)
    top = np.ones(n, dtype=np.int8)
    vals_const = np.ones(2**n)
    assert np.allclose(A.T @ vals_const, 0.0, atol=1e-13)


def test_small_games_have_rational_indices():
    # the permutation reference sums in rationals; the float route lands on it
    dictator = VotingGame(np.array([1.0, 0.0, 0.0]), 0.5)
    want = ref.perm_shapley(ref.ltf1(dictator.weights, dictator.threshold), 3)
    assert want.tolist() == [2.0, 0.0, 0.0]
    assert shapley_exact_truthtable(ltf_fn(dictator), 3).shapley.tolist() == [2.0, 0.0, 0.0]
    majority = VotingGame(np.ones(3), 0.0)
    want = ref.perm_shapley(ref.ltf1(majority.weights, majority.threshold), 3)
    assert want.tolist() == [2 / 3] * 3
    rep = shapley_exact_truthtable(ltf_fn(majority), 3)
    assert np.allclose(rep.shapley, want, atol=1e-16)


def test_monotone_games_double_classical_value(rng):
    for _ in range(5):
        n = int(rng.integers(3, 7))
        w = [int(v) for v in rng.integers(0, 8, size=n)]
        if sum(w) == 0:
            w[0] = 1
        quota = int(rng.integers(1, sum(w) + 1))
        q = QuotaGame(tuple(w), quota)
        rep = shapley_exact_dp(q)
        classical = ref.classical_shapley_shubik(w, quota)
        assert np.allclose(rep.shapley, 2.0 * classical, atol=1e-12)
        assert rep.shapley.sum() == pytest.approx(2.0, abs=1e-12)


def test_quota_dp_agrees_with_truthtable():
    q = QuotaGame((49, 49, 2), 51)
    rep_dp = shapley_exact_dp(q)
    rep_tt = shapley_exact_truthtable(ltf_fn(quota_to_ltf(q)), 3)
    assert np.allclose(rep_dp.shapley, rep_tt.shapley, atol=1e-13)
    assert np.allclose(rep_dp.shapley, 2.0 / 3.0, atol=1e-13)


def test_int_ltf_dp_handles_negative_weights(rng):
    for n in (4, 6, 9):
        for _ in range(4):
            w = rng.integers(-7, 8, size=n).astype(float)
            theta = float(rng.integers(-5, 6)) + 0.5
            g = VotingGame(w, theta)
            rep_dp = shapley_int_ltf_dp(g)
            rep_tt = shapley_exact_truthtable(ltf_fn(g), n)
            assert np.allclose(rep_dp.shapley, rep_tt.shapley, atol=1e-11)
            assert rep_dp.f_top == rep_tt.f_top
            assert rep_dp.f_bottom == rep_tt.f_bottom


def test_fourier_correlation_roundtrip(rng):
    for n in (3, 6, 11):
        corr = rng.uniform(-1, 1, size=n + 1)
        fhat = fourier_from_correlations(corr)
        back = correlations_from_fourier(fhat)
        assert np.allclose(back, corr, atol=1e-12)


def test_shapley_correlation_roundtrip(rng):
    for n in (3, 5, 10):
        corr = rng.uniform(-1, 1, size=n + 1)
        f_top, f_bottom = 1.0, -1.0
        shap = shapley_from_correlations(corr, f_top, f_bottom, n)
        nu = (f_top - f_bottom) / n
        back = correlations_from_shapley(shap, nu, float(corr[1:].mean()))
        assert np.allclose(back, corr[1:], atol=1e-12)


def test_two_routes_to_the_index_agree(rng):
    # corr -> shapley directly, and corr -> basis -> shapley
    for n in (3, 7):
        vals = random_table(rng, n)
        fn = table_batch_fn(vals, n)
        rep = shapley_exact_truthtable(fn, n)
        corr = exact_correlations(fn, n)
        via_corr = shapley_from_correlations(corr, rep.f_top, rep.f_bottom, n)
        via_basis = shapley_from_fourier(fourier_from_correlations(corr), rep.nu)
        assert np.allclose(via_corr, rep.shapley, atol=1e-12)
        assert np.allclose(via_basis, rep.shapley, atol=1e-12)


def test_shapley_from_correlations_accepts_trimmed_vector(rng):
    n = 5
    corr = rng.uniform(-1, 1, size=n + 1)
    full = shapley_from_correlations(corr, 1.0, -1.0, n)
    trimmed = shapley_from_correlations(corr[1:], 1.0, -1.0, n)
    assert np.array_equal(full, trimmed)


def test_centering_kills_the_mean_guess(rng):
    # the index vector cannot depend on the guessed correlation mean;
    # exactness needs the canonical sum-to-2 normalization
    n = 6
    shap = rng.uniform(0, 1, size=n)
    shap *= 2.0 / shap.sum()
    nu = 2.0 / n
    a = correlations_from_shapley(shap, nu, 0.1)
    b = correlations_from_shapley(shap, nu, -0.4)
    lam = lambda_n(n)
    back_a = nu + (lam / 2.0) * (a - a.mean())
    back_b = nu + (lam / 2.0) * (b - b.mean())
    assert np.allclose(back_a, back_b, atol=1e-13)
    assert np.allclose(back_a, shap, atol=1e-13)


def test_distance_helpers():
    maj = np.full(3, 2.0 / 3.0)
    dic = np.array([2.0, 0.0, 0.0])
    assert d_shapley(maj, maj) == 0.0
    assert d_shapley(maj, dic) == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-13)
    fhat = np.array([0.5, 0.1, 0.2, 0.3])
    ghat = np.array([-0.5, 0.1, 0.2, 0.3])
    # slot 0 is excluded from the basis distance
    assert d_fourier(fhat, ghat) == 0.0


def test_int_ltf_dp_matches_truthtable_on_signed_games(rng):
    # zero and negative weights, both parities of threshold + total, and
    # thresholds past +-sum|w|, where the game is constant and the index 0
    parities = set()
    for trial in range(120):
        n = 3 + trial % 10
        w = rng.integers(-6, 7, size=n)
        w[rng.random(n) < 0.2] = 0
        span = int(np.abs(w).sum())
        kind = trial % 6
        if kind == 0:
            thr = float(span + 1 + rng.integers(0, 4))
        elif kind == 1:
            thr = float(-span - rng.integers(0, 4))
        else:
            thr = float(rng.integers(-span, span + 1)) + (0.5 if kind == 2 else 0.0)
        g = VotingGame(w.astype(float), thr)
        rep = shapley_int_ltf_dp(g)
        want = shapley_exact_truthtable(ltf_fn(g), n).shapley
        assert np.allclose(rep.shapley, want, atol=1e-12), (w, thr)
        if kind < 2:
            assert not rep.shapley.any()
        else:
            parities.add((math.ceil(thr) + int(w.sum())) % 2)
    assert parities == {0, 1}


def test_int_ltf_dp_refuses_huge_weights_by_the_table_budget():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "invalid value encountered in cast"
        for w in (1e20, -1e20, 1e300):
            with pytest.raises(ValueError, match="budget"):
                shapley_int_ltf_dp(VotingGame(np.array([w, 1.0, 1.0]), 0.5))


@pytest.mark.parametrize(
    "weights, threshold, index",
    [
        # all +1 scores 3 + 1e-10 >= 3 + 1e-11, but the rounded weights score 3 < 4
        ([1.0 + 1e-10, 1.0, 1.0], 3.0 + 1e-11, 2.0 / 3.0),
        # the rounding errors sum below the threshold's distance to 17, but
        # ltf_values' float sum at all +1 rounds up onto the threshold
        ([2.0000000004517617, 5.0, 3.0, 7.0], 17.000000000451763, 0.5),
    ],
    ids=["threshold-near-an-integer", "float-sum-on-the-threshold"],
)
def test_int_ltf_dp_refuses_a_rounding_that_changes_the_game(weights, threshold, index):
    g = VotingGame(np.array(weights), threshold)
    assert np.allclose(shapley_exact_truthtable(ltf_fn(g), g.n).shapley, index, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="integer weights"):
        shapley_int_ltf_dp(g)


@settings(max_examples=150)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.floats(-1e-9, 1e-9)), min_size=1, max_size=10),
    st.integers(-30, 30),
    st.one_of(st.floats(-2e-9, 2e-9), st.floats(-1.0, 1.0)),
)
def test_int_ltf_dp_scores_near_integer_weights_only_when_rounding_keeps_the_game(voters, base, frac):
    g = VotingGame(np.array([k + d for k, d in voters]), base + frac)
    try:
        rep = shapley_int_ltf_dp(g)
    except ValueError as exc:
        assert "integer weights" in str(exc)
        return
    want = shapley_exact_truthtable(ltf_fn(g), g.n).shapley
    assert np.allclose(rep.shapley, want, rtol=0, atol=1e-12)


def test_int_ltf_dp_refuses_a_large_half_integer_weight():
    # rounding 100000.5 to 100000 would flip the point (+1, -1, -1)
    with pytest.raises(ValueError, match="integer weights"):
        shapley_int_ltf_dp(VotingGame(np.array([100000.5, 100000.0, 0.0]), 0.25))


@pytest.mark.parametrize("n", [63, 68, 80, 100, 200])
def test_quota_dp_majority_is_exact_at_large_n(n):
    rep = shapley_exact_dp(QuotaGame((1,) * n, n // 2 + 1))
    assert np.allclose(rep.shapley, 2.0 / n, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [64, 70])
def test_quota_dp_matches_python_int_counts_at_large_n(rng, n):
    for _ in range(2):
        w = tuple(int(v) for v in rng.integers(0, 6, size=n))
        quota = int(rng.integers(1, sum(w) + 1))
        rep = shapley_exact_dp(QuotaGame(w, quota))
        want = 2.0 * ref.classical_pivot_counting(w, quota)
        assert np.allclose(rep.shapley, want, rtol=0, atol=1e-12)
