import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from shapley_forge.cli import app, dumps_json17


def run_app(args, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    with pytest.raises(SystemExit) as exc:
        app(args)
    out, err = capsys.readouterr()
    code = exc.value.code if exc.value.code is not None else 0
    return code, out, err


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"n": 3, "weights": [49, 49, 2], "quota": 51}))
    return str(path)


@pytest.fixture
def target_file(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(
        json.dumps({"n": 3, "shapley": [2 / 3, 2 / 3, 2 / 3], "convention": "generalized"})
    )
    return str(path)


# ---------------------------------------------------------------------------
# JSON formatting helper
# ---------------------------------------------------------------------------


def test_dumps_json17_roundtrips_floats():
    vals = [0.1, 1 / 3, 2e-17, 1.7976931348623157e308, -0.0, 123456789.123456789]
    text = dumps_json17({"xs": vals, "n": 3, "ok": True, "none": None})
    back = json.loads(text)
    assert back["xs"] == vals
    assert back["n"] == 3 and back["ok"] is True and back["none"] is None


def test_dumps_json17_handles_numpy_scalars():
    text = dumps_json17({"a": np.float64(0.25), "b": np.int64(7), "c": np.arange(3)})
    assert json.loads(text) == {"a": 0.25, "b": 7, "c": [0, 1, 2]}


def test_dumps_json17_rejects_exotic_objects():
    with pytest.raises(TypeError):
        dumps_json17({"f": object()})


# ---------------------------------------------------------------------------
# compute / estimate
# ---------------------------------------------------------------------------


def test_compute_exact_enum(game_file, capsys):
    code, out, _ = run_app(["compute", "--game", game_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["convention"] == "generalized"
    assert doc["method"] == "exact-enum"
    assert np.allclose(doc["shapley"], 2 / 3, atol=1e-12)
    assert doc["manifest"]["command"] == "compute"
    assert doc["manifest"]["outcome"] == "ok"


@pytest.mark.parametrize(
    "game, message",
    [
        ({"n": 3, "weights": [10**12, 1, 1], "quota": 2}, "budget"),  # a 29 TiB subset table
        ({"n": 3, "weights": [1.5, 1, 1], "threshold": 0.5}, "integer weights"),
        ({"n": 3, "weights": [1e20, 1, 1], "threshold": 0.5}, "budget"),  # past int64
        ({"n": 3, "weights": [49.7, 49, 2], "quota": 51}, "weight must be an integer"),
        ({"n": 3, "weights": [49, 49, 2], "quota": 51.9}, "quota must be an integer"),
        ({"n": 3.5, "weights": [2, 1, 1], "quota": 3}, "n must be an integer"),
        ({"n": 3.9, "weights": [2.0, 1.0, 1.0], "threshold": 0.5}, "n must be an integer"),
        ({"n": True, "weights": [2, 1, 1], "quota": 3}, "n must be an integer"),
        ({"n": "3", "weights": [2.0, 1.0, 1.0], "threshold": 0.5}, "n must be an integer"),
    ],
)
def test_compute_exact_dp_rejects_bad_weights_with_exit_2(game, message, tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game))
    code, out, err = run_app(["compute", "--game", str(path), "--exact-dp"], capsys)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_compute_modes_agree(game_file, capsys):
    code, out, _ = run_app(["compute", "--game", game_file, "--exact-dp"], capsys)
    dp = json.loads(out)["shapley"]
    code, out, _ = run_app(
        ["compute", "--game", game_file, "--samples", "40000", "--seed", "9"], capsys
    )
    doc = json.loads(out)
    assert doc["method"] == "sampled" and doc["m"] == 40000
    assert np.allclose(dp, 2 / 3, atol=1e-12)
    assert np.abs(np.asarray(doc["shapley"]) - np.asarray(dp)).max() <= 0.05


def test_compute_missing_game_exits_2(capsys):
    code, _, err = run_app(["compute", "--game", "/nonexistent.json"], capsys)
    assert code == 2
    assert "error:" in err


def test_estimate_schema(game_file, capsys):
    code, out, _ = run_app(
        ["estimate", "--game", game_file, "--gamma", "0.2", "--delta", "0.05", "--seed", "4"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == 0.2 and doc["seed"] == 4
    assert doc["m"] > 0
    assert np.abs(np.asarray(doc["shapley"]) - 2 / 3).max() <= 0.2


def test_estimate_rejects_infinite_gamma(game_file, capsys):
    code, out, err = run_app(["estimate", "--game", game_file, "--gamma", "inf"], capsys)
    assert code == 2
    assert out == ""
    assert "gamma" in err


@pytest.mark.parametrize(
    "cmd",
    [
        ["compute", "--samples", "1"],
        ["estimate"],
        ["sample-mu", "-n", "3", "--samples", "2"],
    ],
    ids=["compute", "estimate", "sample-mu"],
)
def test_negative_seed_exits_2(game_file, capsys, cmd):
    if cmd[0] in ("compute", "estimate"):
        cmd = [cmd[0], "--game", game_file, *cmd[1:]]
    code, out, err = run_app([*cmd, "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "--seed" in err


# ---------------------------------------------------------------------------
# solve / solve-bounded
# ---------------------------------------------------------------------------


def test_solve_writes_file_and_exits_0(target_file, tmp_path, capsys):
    out_path = tmp_path / "solution.json"
    code, _, err = run_app(
        [
            "solve",
            "--target",
            target_file,
            "--xi",
            "0.05",
            "--oracle",
            "dp",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "solved"
    assert doc["est_dshapley"] <= 0.08
    assert len(doc["weights"]) == 3
    assert len(doc["guess"]) == 2
    assert doc["manifest"]["outcome"] == "solved"


def test_solve_defaults_to_exact_dp_and_records_no_seed(target_file, capsys):
    code, out, err = run_app(["solve", "--target", target_file, "--xi", "0.05"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["status"] == "solved"
    assert doc["manifest"]["config"]["oracle"] == "dp"
    assert doc["manifest"]["seed"] is None


def test_solved_game_feeds_compute_exact_dp(target_file, tmp_path, capsys):
    sol = tmp_path / "sol.json"
    code, _, _ = run_app(
        ["solve", "--target", target_file, "--xi", "0.05", "--oracle", "dp", "--out", str(sol)],
        capsys,
    )
    assert code == 0
    solved = json.loads(sol.read_text())
    code, out, err = run_app(["compute", "--exact-dp", "--game", str(sol)], capsys)
    assert code == 0, err
    got = np.asarray(json.loads(out)["shapley"])
    target = np.asarray(json.loads(open(target_file).read())["shapley"])
    assert np.linalg.norm(got - target) == pytest.approx(solved["est_dshapley"], abs=1e-9)


def test_solve_standard_convention_doubles(tmp_path, capsys):
    path = tmp_path / "std.json"
    path.write_text(json.dumps({"n": 3, "shapley": [1 / 3, 1 / 3, 1 / 3], "convention": "standard"}))
    code, out, _ = run_app(["solve", "--target", str(path), "--xi", "0.05", "--oracle", "dp"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "solved"


def test_solve_unreachable_target_exits_1(tmp_path, capsys):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"n": 3, "shapley": [-1.0, -1.0, -1.0], "convention": "generalized"}))
    with pytest.warns(UserWarning, match="sum to"):
        code, out, _ = run_app(["solve", "--target", str(path), "--xi", "0.05", "--oracle", "dp"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "no-solution"
    assert doc["est_dshapley"] == pytest.approx(1 / np.sqrt(3), abs=1e-6)


@pytest.mark.parametrize("xi", ["0.5", "0.9"])
def test_solve_with_a_round_cap_below_the_stall_window_returns_json(tmp_path, capsys, xi):
    # the round cap ceil(64 / xi^2) is 256 or 80, below stall_window 512
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"n": 4, "shapley": [0.9, 0.4, 0.4, 0.3], "convention": "generalized"}))
    code, out, _ = run_app(["solve", "--target", str(path), "--xi", xi], capsys)
    doc = json.loads(out)
    assert (code, doc["status"]) in ((0, "solved"), (1, "no-solution"))
    assert doc["iterations"] <= math.ceil(64 / float(xi) ** 2)


def test_solve_over_budget_grid_exits_2(tmp_path, monkeypatch, capsys):
    from shapley_forge import solver

    def allocate(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(solver, "_target_rows", allocate)
    monkeypatch.setattr(solver, "_GridEngine", allocate)
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"n": 20, "shapley": [0.1] * 20, "convention": "generalized"}))
    code, _, err = run_app(["solve", "--target", str(path), "--grid", "0.001"], capsys)
    assert code == 2 and "budget" in err


def test_solve_bad_target_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "shapley": [1, 2], "convention": "generalized"}))
    code, _, err = run_app(["solve", "--target", str(path)], capsys)
    assert code == 2
    path.write_text(json.dumps({"n": 3, "shapley": [1, 1, 0], "convention": "martian"}))
    code, _, err = run_app(["solve", "--target", str(path)], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "shapley, flags",
    [
        ([2 / 3, float("nan"), 2 / 3], []),
        ([2 / 3, 2 / 3, 2 / 3], ["--epsilon", "-1"]),
        ([2 / 3, 2 / 3, 2 / 3], ["--epsilon", "nan"]),
        # an exact solve is seedless: no --seed, no --delta, no sampled oracle
        ([2 / 3, 2 / 3, 2 / 3], ["--seed", "1"]),
        ([2 / 3, 2 / 3, 2 / 3], ["--delta", "0.01"]),
        ([2 / 3, 2 / 3, 2 / 3], ["--oracle", "sampled"]),
    ],
    ids=["nan-target", "negative-epsilon", "nan-epsilon", "seed-flag", "delta-flag", "sampled-oracle"],
)
def test_solve_rejects_bad_inputs_with_exit_2(tmp_path, capsys, shapley, flags):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"n": 3, "shapley": shapley, "convention": "generalized"}))
    out_path = tmp_path / "sol.json"
    code, _, err = run_app(
        ["solve", "--target", str(path), "--xi", "0.05", "--out", str(out_path), *flags], capsys
    )
    assert code == 2
    assert "error:" in err
    assert not out_path.exists()


@pytest.mark.parametrize("bound", ["nan", "inf"])
def test_solve_bounded_rejects_non_finite_weight_bound(target_file, capsys, bound):
    code, _, err = run_app(
        ["solve-bounded", "--target", target_file, "--weight-bound", bound, "--xi", "0.05"], capsys
    )
    assert code == 2
    assert "weight_bound" in err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("solve", ["--xi", "1e-300"]),  # xi**2 underflows to 0
        ("solve", ["--xi", "1e-160"]),  # 64 / xi**2 overflows to inf
        ("solve-bounded", ["--weight-bound", "1e300"]),  # xi = 1 / (10 n W)
    ],
)
def test_solve_refuses_an_xi_without_a_finite_round_cap(target_file, capsys, command, flags):
    code, out, err = run_app([command, "--target", target_file, *flags], capsys)
    assert code == 2
    assert out == ""
    assert "round cap" in err and "Traceback" not in err


def test_solve_bounded_requires_flag(target_file, capsys):
    with pytest.raises(SystemExit) as exc:
        app(["solve-bounded", "--target", target_file])
    assert exc.value.code == 2
    capsys.readouterr()


def test_solve_bounded_runs(target_file, capsys):
    code, out, _ = run_app(
        [
            "solve-bounded",
            "--target",
            target_file,
            "--weight-bound",
            "3",
            "--xi",
            "0.05",
            "--oracle",
            "dp",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["status"] == "solved"


# ---------------------------------------------------------------------------
# sample-mu / diagnose
# ---------------------------------------------------------------------------


def test_sample_mu_csv(capsys):
    code, out, err = run_app(["sample-mu", "-n", "6", "--samples", "10", "--seed", "2"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["sample_index", "wt", "bits"]
    assert len(rows) == 11
    for idx, wt, bits in rows[1:]:
        assert len(bits) == 6
        assert int(wt) == bits.count("+")
        assert 1 <= int(wt) <= 5
    # manifest goes to stderr when the table goes to stdout
    assert json.loads(err)["command"] == "sample-mu"


def test_sample_mu_sidecar_manifest(tmp_path, capsys):
    out_path = tmp_path / "draws.csv"
    code, _, _ = run_app(
        ["sample-mu", "-n", "4", "--samples", "5", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out_path.exists()
    manifest = json.loads((tmp_path / "draws.csv.manifest.json").read_text())
    assert manifest["command"] == "sample-mu"
    assert manifest["config"]["samples"] == 5


def test_diagnose_anticonc_mu(game_file, capsys):
    code, out, _ = run_app(
        ["diagnose", "anticonc-mu", "--game", game_file, "--r", "0.5"], capsys
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["method"] == "exact"
    assert float(rows[0]["estimate"]) >= 0.0


def test_diagnose_balanced(game_file, capsys):
    code, out, _ = run_app(
        ["diagnose", "balanced", "--game", game_file, "--i", "1", "--r", "2", "--eta", "0.2"],
        capsys,
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["within_bound"] in ("True", "False")
    assert float(row["bound"]) > 0


@pytest.mark.parametrize("eta", ["nan", "0", "1", "-0.5", "2"])
def test_diagnose_balanced_rejects_eta_outside_unit_interval(game_file, capsys, eta):
    code, out, err = run_app(
        ["diagnose", "balanced", "--game", game_file, "--i", "1", "--r", "2", f"--eta={eta}"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "eta" in err


@pytest.mark.parametrize(
    "mode, flags",
    [
        ("anticonc-mu", ["--r", "-1"]),
        ("anticonc-biased", ["--r", "-1"]),
        ("anticonc-mu", ["--r", "nan"]),
        ("balanced", ["--i", "1", "--r", "nan"]),
        ("anticonc-biased", ["--r", "nan"]),
        ("anticonc-mu", ["--samples", "0"]),
        ("anticonc-mu", ["--samples", "-3"]),
        ("balanced", ["--i", "3", "--samples", "0"]),
        ("anticonc-biased", ["--samples", "0"]),
    ],
    ids=["mu-negative-r", "biased-negative-r", "mu-nan-r", "balanced-nan-r", "biased-nan-r",
         "mu-zero-samples", "mu-negative-samples", "balanced-zero-samples", "biased-zero-samples"],
)
def test_diagnose_rejects_bad_r_or_samples_with_exit_2(tmp_path, capsys, mode, flags):
    # n = 25 is past every exact cap, so the sampled paths see --samples
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"n": 25, "weights": [1] * 25, "quota": 13}))
    code, out, err = run_app(["diagnose", mode, "--game", str(path), *flags], capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_diagnose_distances(game_file, tmp_path, capsys):
    other = tmp_path / "maj.json"
    other.write_text(json.dumps({"n": 3, "weights": [1, 1, 1], "threshold": 0.0}))
    code, out, _ = run_app(
        ["diagnose", "distances", "--game", game_file, "--other", str(other)], capsys
    )
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    # the quota game computes the same function as the majority game
    assert float(row["d_shapley"]) == pytest.approx(0.0, abs=1e-12)
    assert float(row["shapley_slack"]) >= 0.0


def test_diagnose_needs_other_for_distances(game_file, capsys):
    code, _, err = run_app(["diagnose", "distances", "--game", game_file], capsys)
    assert code == 2


def test_boost_debug_trace(target_file, capsys):
    code, out, _ = run_app(
        ["boost-debug", "--target", target_file, "--f0", "0", "--mean-corr", "0.3", "--xi", "0.05"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    assert {"t", "literal", "violation"} == set(rows[0])
    assert rows[0]["literal"].startswith(("+", "-"))


# ---------------------------------------------------------------------------
# process-level checks
# ---------------------------------------------------------------------------


def test_console_script_subprocess(game_file):
    proc = subprocess.run(
        [sys.executable, "-m", "shapley_forge.cli", "--threads", "1", "compute", "--game", game_file],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert np.allclose(doc["shapley"], 2 / 3, atol=1e-12)


def test_threads_flag_sets_env(game_file):
    probe = (
        "import os, json, shapley_forge.cli as c; c._configure_threads(['--threads', '2']); "
        "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["2", "2"]
