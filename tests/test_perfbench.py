"""The benchmark's traced run must find every function it wraps.

A wrap target that no longer exists drops its per-layer metrics from the
traced result, which then no longer matches the metric names the benchmark
declares in BENCHMARK.json.
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_every_wrap_target_exists():
    modules = {name: importlib.import_module(f"shapley_forge.{name}") for name in run.PACKAGE_MODULES}
    installer = tracing.Installer(modules, layers.TARGETS)
    assert installer.absent == []


def test_layer_metrics_are_declared():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert {name for name, *_ in layers.METRICS} <= declared
