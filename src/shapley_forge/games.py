"""Core game representations: voting games and quota games.

Conventions used throughout the package:

* inputs live in {-1,+1}^n; +1 means a yes-vote,
* an LTF evaluates sign(w.x - theta) with sign(0) = +1,
* batch evaluators take an (m, n) matrix of +-1 rows and return m values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VotingGame:
    """Linear threshold function sign(w.x - theta), sign(0) = +1."""

    weights: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d vector")
        if not np.all(np.isfinite(w)) or not np.isfinite(self.threshold):
            raise ValueError("weights and threshold must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "threshold", float(self.threshold))
        w.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.weights.size)


def integer_form(game: VotingGame) -> tuple[np.ndarray, int] | None:
    """(w, thr): int64 weights and an integer threshold with game = [w.x >= thr], or None.

    Weights within 1e-9 of integers are rounded only if their rounding
    errors, plus a bound on ltf_values' float rounding of w.x, sum strictly
    below theta's distance to the nearest integer, so that no point changes
    side; an integer theta takes exact integers only.  sum |w| < 2^53 keeps
    the partial sums of integer weights exact in float64.
    """
    w = np.rint(game.weights)
    err = np.abs(game.weights - w)
    total = float(np.abs(w).sum())
    if err.max() > 1e-9 or total >= 2.0**53:
        return None
    theta = game.threshold
    if err.any() and not math.fsum(err) + game.n * 2.0**-52 * total < abs(theta - round(theta)):
        return None
    return w.astype(np.int64), math.ceil(theta)


def _integral(value, what: str) -> int:
    """value as an int; refuses a bool and any value that int() would change."""
    try:
        as_int = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return as_int


@dataclass(frozen=True)
class QuotaGame:
    """Human-facing encoding: yes-set S passes iff sum of its weights >= quota."""

    int_weights: tuple[int, ...]
    quota: int

    def __post_init__(self) -> None:
        ws = tuple(_integral(w, "quota-game weight") for w in self.int_weights)
        if len(ws) < 1:
            raise ValueError("need at least one voter")
        if any(w < 0 for w in ws):
            raise ValueError("quota-game weights must be nonnegative integers")
        q = _integral(self.quota, "quota")
        if not 0 < q <= sum(ws):
            raise ValueError(f"quota must satisfy 0 < q <= total, got q={q} total={sum(ws)}")
        object.__setattr__(self, "int_weights", ws)
        object.__setattr__(self, "quota", q)

    @property
    def n(self) -> int:
        return len(self.int_weights)

    @property
    def total(self) -> int:
        return sum(self.int_weights)


def ltf_values(game: VotingGame, X: np.ndarray) -> np.ndarray:
    """sign(w.x - theta) for every row of X, as float +-1."""
    vals = X @ game.weights - game.threshold
    return np.where(vals >= 0, 1.0, -1.0)


def ltf_fn(game: VotingGame):
    """Batch oracle closure for a voting game; its _game attribute holds the game."""

    def fn(X):
        return ltf_values(game, X)

    fn._game = game
    return fn


def quota_to_ltf(g: QuotaGame) -> VotingGame:
    """Encode quota semantics as a sign form.

    With w.x = 2*w(S) - total for yes-set S, theta = 2q - total - 1/2 makes
    sign(w.x - theta) = +1 exactly when w(S) >= q; the half-integer offset
    rules out ties for integer weights.
    """
    theta = 2 * g.quota - g.total - 0.5
    return VotingGame(np.array(g.int_weights, dtype=np.float64), theta)


def is_eta_reasonable(game: VotingGame, eta: float) -> tuple[bool, bool]:
    """(|theta| <= (1-eta)*||w||_1, all weights >= 0)."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0,1), got {eta}")
    l1 = float(np.sum(np.abs(game.weights)))
    reasonable = abs(game.threshold) <= (1.0 - eta) * l1
    monotone = bool(np.all(game.weights >= 0))
    return reasonable, monotone


# ---------------------------------------------------------------------------
# File formats
#
# game file:  {"n": int, "weights": [...], "threshold": real}
# quota file: {"n": int, "weights": [int...], "quota": int}
# ---------------------------------------------------------------------------


def game_to_dict(game: VotingGame) -> dict:
    return {"n": game.n, "weights": [float(w) for w in game.weights], "threshold": game.threshold}


def game_from_dict(obj: dict) -> VotingGame:
    for key in ("n", "weights", "threshold"):
        if key not in obj:
            raise ValueError(f"game file missing field '{key}'")
    weights = np.asarray(obj["weights"], dtype=np.float64)
    if _integral(obj["n"], "game file: n") != weights.size:
        raise ValueError(f"game file: n={obj['n']} but {weights.size} weights given")
    return VotingGame(weights, float(obj["threshold"]))


def quota_from_dict(obj: dict) -> QuotaGame:
    for key in ("n", "weights", "quota"):
        if key not in obj:
            raise ValueError(f"quota file missing field '{key}'")
    weights = tuple(obj["weights"])
    if _integral(obj["n"], "quota file: n") != len(weights):
        raise ValueError(f"quota file: n={obj['n']} but {len(weights)} weights given")
    return QuotaGame(weights, obj["quota"])


def load_game(path: str) -> VotingGame:
    """Load a game file; quota files are accepted and converted."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if "quota" in obj:
        return quota_to_ltf(quota_from_dict(obj))
    return game_from_dict(obj)


def save_game(game: VotingGame, path: str) -> None:
    from .cli import dumps_json17  # local import to avoid a cycle at import time

    with open(path, "w") as fh:
        fh.write(dumps_json17(game_to_dict(game)))
        fh.write("\n")
