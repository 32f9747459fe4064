"""shapley-forge: design weighted voting games from target power indices.

Given a target vector of generalized Shapley-Shubik indices, the solver
searches a two-parameter grid of correlation profiles, boosts a clipped
linear form against each profile, and returns a voting game whose exact or
estimated index vector lands within the requested distance of the target.

Submodules load lazily so that importing the package (or its CLI) does not
pull in numpy; the command line sets BLAS thread limits before numpy first
loads, and an eager import here would defeat that.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "AntiConcReport": ".diagnostics",
    "BiasedDist": ".diagnostics",
    "DistanceReport": ".diagnostics",
    "EstimateConfig": ".estimators",
    "estimate_correlations": ".estimators",
    "estimate_shapley": ".estimators",
    "QuotaGame": ".games",
    "VotingGame": ".games",
    "quota_to_ltf": ".games",
    "ShapleyReport": ".indices",
    "d_shapley": ".indices",
    "shapley_exact_dp": ".indices",
    "shapley_exact_truthtable": ".indices",
    "FourierBasis": ".mu",
    "MuDistribution": ".mu",
    "basis_coeffs": ".mu",
    "lambda_n": ".mu",
    "mu_distribution": ".mu",
    "GuessPoint": ".solver",
    "SolveConfig": ".solver",
    "SolveResult": ".solver",
    "exhaustive_baseline": ".solver",
    "solve_is": ".solver",
    "solve_isbw": ".solver",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(target, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
