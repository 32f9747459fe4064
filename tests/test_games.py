import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import reference as ref
from shapley_forge.games import (
    QuotaGame,
    VotingGame,
    game_from_dict,
    game_to_dict,
    is_eta_reasonable,
    load_game,
    ltf_values,
    quota_from_dict,
    quota_to_ltf,
    save_game,
)


def _sign1(game: VotingGame, x) -> float:
    """The game's value at one input, through the batch evaluator."""
    return float(ltf_values(game, np.array([x]))[0])


def test_sign_tie_breaks_positive():
    g = VotingGame(np.array([1.0, 1.0]), 2.0)
    assert _sign1(g, (1, 1)) == 1.0
    assert _sign1(g, (1, -1)) == -1.0


def test_ltf_values_matches_scalar(rng):
    g = VotingGame(rng.normal(size=6), 0.3)
    X = np.where(rng.random((40, 6)) < 0.5, 1, -1)
    vals = ltf_values(g, X)
    assert vals.shape == (40,)
    fn1 = ref.ltf1(g.weights, g.threshold)
    for row, v in zip(X, vals):
        assert v == fn1(row)


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
    st.data(),
)
def test_quota_to_ltf_agrees_with_quota_semantics(weights, data):
    total = sum(weights)
    assume(total >= 1)
    quota = data.draw(st.integers(min_value=1, max_value=total))
    q = QuotaGame(tuple(weights), quota)
    g = quota_to_ltf(q)
    n = len(weights)
    for mask in range(2**n):
        members = [(mask >> i) & 1 for i in range(n)]
        coalition_weight = sum(w for w, m in zip(weights, members) if m)
        x = [1 if m else -1 for m in members]
        assert (_sign1(g, x) == 1.0) == (coalition_weight >= quota)


def test_quota_game_validation():
    with pytest.raises(ValueError):
        QuotaGame((1, 2), 0)
    with pytest.raises(ValueError):
        QuotaGame((1, -2), 1)
    with pytest.raises(ValueError):
        QuotaGame((1, 2), 4)


def test_quota_game_refuses_non_integral_weights_and_quota():
    # truncating 49.7/49/2 quota 51.9 to 49/49/2 quota 51 would score a
    # different game: the real one makes voter 3 a dummy
    with pytest.raises(ValueError, match="weight must be an integer"):
        quota_from_dict({"n": 3, "weights": [49.7, 49, 2], "quota": 51})
    with pytest.raises(ValueError, match="quota must be an integer"):
        quota_from_dict({"n": 3, "weights": [49, 49, 2], "quota": 51.9})
    for bad in (float("nan"), float("inf"), "49"):
        with pytest.raises(ValueError):
            QuotaGame((bad, 49, 2), 51)
    g = QuotaGame((49.0, np.int64(49), np.uint8(2)), np.int32(51))
    assert g == QuotaGame((49, 49, 2), 51)
    assert all(type(v) is int for v in (*g.int_weights, g.quota))


@pytest.mark.parametrize("n", [3.5, 3.9, 2.5, True, "3", None, float("nan")])
def test_game_files_refuse_a_voter_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        quota_from_dict({"n": n, "weights": [2, 1, 1], "quota": 3})
    with pytest.raises(ValueError, match="n must be an integer"):
        game_from_dict({"n": n, "weights": [2.0, 1.0, 1.0], "threshold": 0.5})


def test_game_files_accept_an_integral_voter_count():
    assert quota_from_dict({"n": 3.0, "weights": [2, 1, 1], "quota": 3}) == QuotaGame((2, 1, 1), 3)
    assert game_from_dict({"n": np.int64(3), "weights": [2.0, 1.0, 1.0], "threshold": 0.5}).n == 3
    with pytest.raises(ValueError, match="weight must be an integer"):
        QuotaGame((True, 1, 1), 2)


def test_is_eta_reasonable():
    g = VotingGame(np.ones(5), 0.0)
    assert is_eta_reasonable(g, 0.1) == (True, True)
    skew = VotingGame(np.ones(5), 4.9)
    assert is_eta_reasonable(skew, 0.1) == (False, True)
    signed = VotingGame(np.array([1.0, -1.0, 1.0]), 0.0)
    assert is_eta_reasonable(signed, 0.1) == (True, False)
    with pytest.raises(ValueError):
        is_eta_reasonable(g, 0.0)


def test_dict_roundtrip_is_exact():
    g = VotingGame(np.array([0.1, 1 / 3, -2e-17]), 0.7)
    g2 = game_from_dict(game_to_dict(g))
    assert np.array_equal(g.weights, g2.weights)
    assert g.threshold == g2.threshold


def test_save_load_roundtrip(tmp_path):
    g = VotingGame(np.array([0.1, 0.2, 0.30000000000000004]), -0.05)
    path = tmp_path / "game.json"
    save_game(g, str(path))
    g2 = load_game(str(path))
    assert np.array_equal(g.weights, g2.weights)
    assert g.threshold == g2.threshold


def test_load_quota_file(tmp_path):
    path = tmp_path / "quota.json"
    path.write_text(json.dumps({"n": 3, "weights": [49, 49, 2], "quota": 51}))
    g = load_game(str(path))
    assert g.threshold == 2 * 51 - 100 - 0.5
    assert _sign1(g, (1, 1, -1)) == 1.0
    assert _sign1(g, (1, -1, -1)) == -1.0


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "weights": [1, 2]}))
    with pytest.raises(ValueError):
        load_game(str(path))
    path.write_text(json.dumps({"n": 3, "weights": [1, 2], "quota": 1}))
    with pytest.raises(ValueError):
        load_game(str(path))


def test_dimension_mismatch_raises():
    g = VotingGame(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        ltf_values(g, np.array([[1, 1]]))
