"""The index and estimator paths work in blocks of _subsetdp._BLOCK_BYTES.

Block sizes must not change a result (beyond float summation order for
non-sign functions), and the working memory of a call must stay within a
few blocks however many cube points or sampled orders it covers.
"""

import tracemalloc

import numpy as np
import pytest

from shapley_forge import _subsetdp
from shapley_forge.estimators import estimate_shapley_fixed
from shapley_forge.games import VotingGame, ltf_fn, ltf_values
from shapley_forge.indices import shapley_exact_truthtable, truthtable_coefficient_matrix
from shapley_forge.mu import (
    enumerate_cube,
    enumerate_support,
    exact_correlations,
    mu_weights,
)

N = 10


def _sign_outputs() -> dict:
    rng = np.random.default_rng(7)
    int_game = VotingGame(rng.integers(-3, 9, size=N).astype(np.float64), 2.5)
    float_game = VotingGame(rng.normal(size=N), 0.3)
    out = {}
    for label, game in (("int", int_game), ("float", float_game)):
        fn = ltf_fn(game)
        out[f"truthtable-{label}"] = shapley_exact_truthtable(fn, N).shapley
        out[f"correlations-{label}"] = exact_correlations(fn, N)
        out[f"estimate-{label}"] = estimate_shapley_fixed(fn, N, 1500, seed=4)
    return out


def _bounded_outputs() -> dict:
    rng = np.random.default_rng(8)
    w = rng.normal(size=N) / 3
    fn = lambda X: np.clip(X @ w - 0.1, -1.0, 1.0)
    return {
        "truthtable": shapley_exact_truthtable(fn, N).shapley,
        "correlations": exact_correlations(fn, N),
        "estimate": estimate_shapley_fixed(fn, N, 1500, seed=4),
    }


def test_results_do_not_depend_on_the_block_budget(monkeypatch):
    sign, bounded = _sign_outputs(), _bounded_outputs()
    monkeypatch.setattr(_subsetdp, "_BLOCK_BYTES", 1)  # one row or order a block
    for key, value in _sign_outputs().items():
        assert np.array_equal(value, sign[key]), key
    for key, value in _bounded_outputs().items():
        assert np.allclose(value, bounded[key], rtol=0.0, atol=1e-12), key


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_order_sweep_works_in_a_few_blocks():
    # 20,000 orders at n = 16 as one array would cast 20000 * 17 * 16 float64s.
    # ltf_fn of an integer-weight game takes the prefix-sum sweep, and any
    # other evaluator the generic one, which builds and scores every prefix
    game = VotingGame(np.arange(1.0, 17.0), 3.5)
    for fn in (ltf_fn(game), lambda X: ltf_values(game, X)):
        assert _peak_bytes(lambda: estimate_shapley_fixed(fn, 16, 20000)) <= 2 * _subsetdp._BLOCK_BYTES


def test_exact_correlations_work_in_a_few_blocks():
    n = 16
    fn = ltf_fn(VotingGame(np.arange(1.0, n + 1.0), 3.5))
    enumerate_support(n)  # the cached support and its weights are not working memory
    mu_weights(n)
    assert _peak_bytes(lambda: exact_correlations(fn, n)) <= 2 * _subsetdp._BLOCK_BYTES


def test_truthtable_works_in_a_few_blocks():
    n = 16
    fn = ltf_fn(VotingGame(np.arange(1.0, n + 1.0), 3.5))
    enumerate_cube(n)  # the cached cube and coefficient matrix are not working memory
    truthtable_coefficient_matrix(n)
    assert _peak_bytes(lambda: shapley_exact_truthtable(fn, n)) <= 2 * _subsetdp._BLOCK_BYTES


@pytest.mark.parametrize("budget", [1, 3 * 8 * N])
def test_blocked_calls_see_every_row_once(monkeypatch, budget):
    monkeypatch.setattr(_subsetdp, "_BLOCK_BYTES", budget)
    seen = []

    def fn(X):
        seen.append(X.copy())
        return np.ones(len(X))

    shapley_exact_truthtable(fn, N)
    assert max(len(X) for X in seen) == max(1, budget // (8 * N))
    assert np.array_equal(np.concatenate(seen), enumerate_cube(N))
