import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from conftest import random_table, table_batch_fn
from shapley_forge import mu
from shapley_forge.mu import (
    basis_coeffs,
    degree1_moment_matrix,
    enumerate_cube,
    enumerate_support,
    exact_correlations,
    lambda_n,
    mu_distribution,
    mu_pmf,
    mu_pmf_points,
    mu_weights,
    pair_correlation,
    sample_mu_batch,
    slice_prob,
)


def test_lambda_frozen_values():
    assert lambda_n(3) == pytest.approx(3.0, abs=1e-15)
    assert lambda_n(4) == pytest.approx(11.0 / 3.0, abs=1e-15)


@given(st.integers(min_value=3, max_value=40))
def test_lambda_is_twice_partial_harmonic(n):
    exact = 2 * sum(Fraction(1, k) for k in range(1, n))
    assert lambda_n(n) == pytest.approx(float(exact), rel=1e-14)


def test_slice_and_pmf_frozen_values():
    assert slice_prob(4, 2) == pytest.approx(3.0 / 11.0, abs=1e-15)
    assert mu_pmf(4, 2) == pytest.approx(1.0 / 22.0, abs=1e-15)
    assert mu_pmf(3, 1) == pytest.approx(1.0 / 6.0, abs=1e-15)


@given(st.integers(min_value=3, max_value=12))
def test_pmf_matches_reference_and_sums_to_one(n):
    total = 0.0
    for k in range(1, n):
        assert mu_pmf(n, k) == pytest.approx(float(ref.mu_pmf_fraction(n, k)), rel=1e-14)
        total += math.comb(n, k) * mu_pmf(n, k)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert sum(slice_prob(n, k) for k in range(1, n)) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_cube_is_lsb_first():
    cube = enumerate_cube(2)
    assert cube.tolist() == [[-1, -1], [1, -1], [-1, 1], [1, 1]]
    assert not cube.flags.writeable
    for n in range(1, 13):
        # entry (r, j) is +1 exactly when bit j of the row index r is set
        bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        cube = enumerate_cube(n)
        assert cube.dtype == np.int8
        assert np.array_equal(cube, np.where(bits == 1, 1, -1))


def test_enumerate_support_drops_constants():
    sup = enumerate_support(4)
    assert sup.shape == (14, 4)
    wt = np.count_nonzero(sup == 1, axis=1)
    assert wt.min() == 1 and wt.max() == 3


def test_mu_weights_align_with_pmf():
    n = 5
    sup = enumerate_support(n)
    wts = mu_weights(n)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    for row, p in zip(sup, wts):
        k = int(np.count_nonzero(row == 1))
        assert p == pytest.approx(mu_pmf(n, k), rel=1e-14)


def test_exact_expectation_of_coordinates_vanishes():
    n = 6
    for i in range(n):
        val = exact_correlations(lambda X, _i=i: X[:, _i].astype(float), n)[0]
        assert val == pytest.approx(0.0, abs=1e-15)


def test_pair_correlation_frozen_and_brute():
    assert pair_correlation(4) == pytest.approx(-1.0 / 11.0, abs=1e-15)
    n = 6
    rho = exact_correlations(lambda X: (X[:, 0] * X[:, 1]).astype(float), n)[0]
    assert pair_correlation(n) == pytest.approx(rho, abs=1e-14)


def test_moment_matrix_matches_enumeration():
    # slot 0 of the extended vector (1, x) is the constant coordinate
    for n in (3, 5, 8):
        M = degree1_moment_matrix(n)
        sup = enumerate_support(n).astype(np.float64)
        ext = np.ones((sup.shape[0], n + 1))
        ext[:, 1:] = sup
        wts = mu_weights(n)
        brute = (ext * wts[:, None]).T @ ext
        assert np.allclose(M, brute, atol=1e-13)


def test_basis_frozen_n3():
    b = basis_coeffs(3)
    assert b.alpha == pytest.approx(math.sqrt(3) / 6, abs=1e-14)
    assert b.beta == pytest.approx(math.sqrt(3) / 2, abs=1e-14)


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_basis_is_orthonormal_under_mu(n):
    b = basis_coeffs(n)
    sup = enumerate_support(n).astype(np.float64)
    wts = mu_weights(n)
    Z = b.alpha * sup.sum(axis=1, keepdims=True) + b.beta * sup
    gram = (Z * wts[:, None]).T @ Z
    assert np.allclose(gram, np.eye(n), atol=1e-12)
    assert np.allclose((wts[:, None] * Z).sum(axis=0), 0.0, atol=1e-12)


def test_exact_correlations_matches_reference(rng):
    for n in (3, 5):
        vals = random_table(rng, n)
        got = exact_correlations(table_batch_fn(vals, n), n)
        want = ref.mu_correlations(ref.table_fn1(vals, n), n)
        assert np.allclose(got, want, atol=1e-13)


def test_mu_distribution_validation():
    with pytest.raises(ValueError):
        mu_distribution(2)


@pytest.mark.parametrize("n", [3, 10, 57, 400])
def test_mu_tables_read_lambda_once_and_match_the_per_k_values(monkeypatch, n):
    calls = []
    monkeypatch.setattr(mu, "lambda_n", lambda m: calls.append(m) or lambda_n(m))
    points = mu_pmf_points.__wrapped__(n)
    assert len(calls) == 1
    assert points.tobytes() == np.array([mu_pmf(n, k) for k in range(n + 1)]).tobytes()
    calls.clear()
    weights = mu_distribution(n).slice_weight
    assert len(calls) == 1
    assert weights[1:n].tobytes() == np.array([slice_prob(n, k) for k in range(1, n)]).tobytes()
    assert weights[0] == weights[n] == 0.0


def test_mu_pmf_points_refuses_an_n_past_the_float_range():
    # C(1030, 515) is the first binomial past the float range
    assert np.isfinite(mu_pmf_points.__wrapped__(1029)).all()
    for n in (1030, 1100):
        with pytest.raises(ValueError, match=f"n = {n}"):
            mu_pmf_points.__wrapped__(n)


def test_sampler_hits_slice_frequencies():
    n = 5
    m = 200_000
    rng = np.random.default_rng(42)
    X = sample_mu_batch(mu_distribution(n), m, rng)
    assert X.shape == (m, n)
    wt = np.count_nonzero(X == 1, axis=1)
    assert wt.min() >= 1 and wt.max() <= n - 1
    for k in range(1, n):
        p = slice_prob(n, k)
        freq = float(np.mean(wt == k))
        sigma = math.sqrt(p * (1 - p) / m)
        assert abs(freq - p) <= 5 * sigma + 1e-12
    # coordinates are exchangeable with zero mean
    mean = X.mean(axis=0)
    assert np.all(np.abs(mean) <= 5 / math.sqrt(m))
    # pairwise correlation matches the closed form
    rho = pair_correlation(n)
    emp = float(np.mean(X[:, 0] * X[:, 1]))
    assert abs(emp - rho) <= 5 / math.sqrt(m)


def test_sampler_is_uniform_within_slice():
    n = 4
    m = 120_000
    rng = np.random.default_rng(7)
    X = sample_mu_batch(mu_distribution(n), m, rng)
    wt = np.count_nonzero(X == 1, axis=1)
    ones = X[wt == 1]
    # all 4 singleton patterns should be equally likely within the slice
    counts = np.array([(ones[:, i] == 1).sum() for i in range(n)], dtype=float)
    p = counts / counts.sum()
    sigma = math.sqrt(0.25 * 0.75 / counts.sum())
    assert np.all(np.abs(p - 0.25) <= 5 * sigma)
