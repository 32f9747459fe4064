"""Smoke runs of the scripts under scripts/, each into a temporary CSV."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_anticonc_sweep.py", ["--n", "5", "17", "--random-games", "1", "--samples", "2000"]),
        ("run_estimator_calibration.py", ["--n", "4", "--gamma", "0.3", "--runs", "2"]),
        ("run_roundtrip_sweep.py", ["--instances", "2", "--n-min", "6", "--n-max", "6", "--grid", "0.25"]),
    ],
    ids=["anticonc-sweep", "estimator-calibration", "roundtrip-sweep"],
)
def test_script_writes_its_csv(tmp_path, script, args):
    out = tmp_path / "out.csv"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(out.open()))
    assert len(rows) >= 2  # a header and at least one row
