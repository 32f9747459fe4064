"""Fixed solves whose SolveResult is pinned in golden_solves.json.

A change to the engine or to validation that is meant to keep outputs
bit-identical must leave every field below unchanged: the game, the guess,
the rounds, the status and the number of grid cells evaluated compare with
==, and the distance within 1e-12.

To pin the results of the current code (only when outputs are meant to
change, and say why in the change log):

    PYTHONPATH=src python tests/test_golden_solves.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from shapley_forge import solver
from shapley_forge.games import QuotaGame
from shapley_forge.indices import shapley_exact_dp

GOLDEN = Path(__file__).with_name("golden_solves.json")

# name -> (target, weight bound, SolveConfig keywords); a target ["quota",
# seed, n] is the index vector of a random quota game with weights 0..10 and
# quota total // 2 + 1, and a case with a weight bound runs solve_isbw
CASES = {
    "dp-16-a": (["quota", 101, 16], None, {"xi": 0.005}),
    "dp-16-b": (["quota", 102, 16], None, {"xi": 0.005}),
    "dp-20-a": (["quota", 103, 20], None, {"xi": 0.005}),
    "dp-20-b": (["quota", 104, 20], None, {"xi": 0.005}),
    # xi = 0.02: rows outlive lin_cap = 99, go dense and hand off
    "dp-12-dense": (["quota", 105, 12], None, {"xi": 0.02}),
    "enum-12-dense": (["quota", 105, 12], None, {"xi": 0.02, "oracle_mode": "exact-enum"}),
    "dp-10-stall-64": (["quota", 106, 10], None, {"xi": 0.005, "stall_window": 64}),
    "enum-8-no-stall": (["quota", 107, 8], None, {"xi": 0.02, "stall_window": None,
                                                "oracle_mode": "exact-enum"}),
    "dp-6-isbw": (["quota", 108, 6], 3, {}),
    "dp-14-grid-0.25": (["quota", 109, 14], None, {"xi": 0.02, "grid_step": 0.25}),
    # unreachable: every cell of the grid is boosted and scored
    "dp-5-unreachable": ([1.5, -0.5, 1.0, 0.25, -0.25], None, {"xi": 0.02}),
    "enum-3-unreachable": ([-1.0, -1.0, -1.0], None, {"xi": 0.02, "oracle_mode": "exact-enum"}),
}


def _target(spec) -> np.ndarray:
    if spec[0] != "quota":
        return np.asarray(spec, dtype=np.float64)
    _, seed, n = spec
    weights = tuple(int(w) for w in np.random.default_rng(seed).integers(0, 11, n))
    return shapley_exact_dp(QuotaGame(weights, sum(weights) // 2 + 1)).shapley


def _solve(name: str) -> dict:
    spec, bound, kwargs = CASES[name]
    cfg = solver.SolveConfig(**kwargs)
    if bound is None:
        res = solver.solve_is(_target(spec), cfg)
    else:
        res = solver.solve_isbw(_target(spec), bound, cfg)
    return {
        "weights": res.game.weights.tolist(),
        "threshold": res.game.threshold,
        "guess": [res.guess.f_star_0, res.guess.mean_corr],
        "boost_iterations": res.boost_iterations,
        "status": res.status,
        "grid_evaluated": res.grid_evaluated,
        "est_dshapley": res.est_dshapley,
    }


@pytest.mark.filterwarnings("ignore:target entries sum to")
@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_matches_the_pinned_result(name):
    want = json.loads(GOLDEN.read_text())[name]
    got = _solve(name)
    for field in ("weights", "threshold", "guess", "boost_iterations", "status", "grid_evaluated"):
        assert got[field] == want[field], field
    assert abs(got["est_dshapley"] - want["est_dshapley"]) <= 1e-12


def test_golden_file_pins_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    pinned = {name: _solve(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(pinned, indent=1) + "\n")
    sys.stderr.write(f"pinned {len(pinned)} solves in {GOLDEN}\n")
