"""The same exact-DP results at one and at two BLAS threads, byte for byte."""

import os
import subprocess
import sys

# Solves at n >= 13 refresh dense rows from clip tables and validate by the
# subset DP.  Up to n = 12 the float32 support refresh sums in an order that
# depends on BLAS blocking, so those solves are left out until it does not.
_WORK = """
import numpy as np
from shapley_forge.games import QuotaGame, VotingGame
from shapley_forge.indices import shapley_exact_dp, shapley_int_ltf_dp
from shapley_forge.solver import SolveConfig, solve_is

for n in (13, 14, 16, 20):
    rng = np.random.default_rng([5, n])
    w = rng.integers(1, 11, size=n)
    target = shapley_exact_dp(QuotaGame(tuple(w.tolist()), int(w.sum()) // 2 + 1)).shapley
    for xi in (0.02, 0.005):
        r = solve_is(target, SolveConfig(xi=xi))
        print(n, xi, repr(r.game.weights.tolist()), repr(r.game.threshold), repr(r.est_dshapley),
              r.status, r.grid_evaluated, r.boost_iterations)
for n in (16, 30, 50, 70):
    rng = np.random.default_rng([6, n])
    w = rng.integers(-40, 201, size=n)
    game = VotingGame(w.astype(float), float(rng.integers(-200, 201)))
    print(n, repr(shapley_int_ltf_dp(game).shapley.tolist()))
"""


def _run(threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-c", _WORK], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dp_solves_and_indices_do_not_depend_on_the_blas_thread_count():
    one = _run(1)
    assert len(one.splitlines()) == 12
    assert _run(2) == one
