"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  ``cli`` and ``diagnostics`` are left out:
neither is on the solve or compute path.  Every metric names the wrap
targets it is computed from; when none of them exists any more the metric
is left out of the result instead of failing the run.
"""

from __future__ import annotations

import numpy as np

from tracing import Probe, Target

ORACLE_MODES = ("exact-enum", "exact-dp", "sampled")


def _engine_rows(args, kwargs):
    eng = args[0]
    return {"rows": int(eng.alive.sum()), "dense_rows": int((eng.alive & eng.dense).sum())}


def _table_cells(args, kwargs):
    w = np.asarray(args[0])
    return {"cells": (w.size + 1) * (int(np.abs(w).sum()) + 1)}


def _one_candidate(args, kwargs):
    return {"candidates": 1}


VALIDATE = Probe("solver.validate", before=_one_candidate)

TARGETS = [
    Target("solver", "solve_is", [Probe("solver.solve", after=lambda a, k, r: {
        "cells": r.grid_evaluated, "solved": r.status == "solved"})]),
    Target("solver", "_GridEngine.step", [Probe("solver.engine.step", before=_engine_rows)]),
    Target("solver", "_exact_d_enum_batch", [Probe("solver.validate", before=lambda a, k: {
        "candidates": len(a[0])})]),
    Target("solver", "validate_candidate", [VALIDATE]),
    Target("indices", "shapley_int_ltf_dp", [Probe("indices.shapley_int_ltf_dp")],
           outer={"solver": [VALIDATE]}),
    Target("indices", "shapley_exact_truthtable", [Probe("indices.shapley_exact_truthtable")],
           outer={"solver": [VALIDATE]}),
    Target("indices", "shapley_exact_dp", [Probe("indices.shapley_exact_dp")]),
    Target("boosting", "boost", [Probe("boosting.boost", after=lambda a, k, r: {
        "converged": bool(r.converged)})]),
    *[
        Target("boosting", f"{mode.replace('-', '_')}_oracle", [],
               returns=[Probe(f"boosting.oracle.{mode}")])
        for mode in ORACLE_MODES
    ],
    Target("_subsetdp", "subset_count_table",
           [Probe("subsetdp.subset_count_table", before=_table_cells)]),
    *[
        Target("_subsetdp", fn, [Probe(f"subsetdp.{fn}")])
        for fn in ("leave_one_out", "mu_correlations_affine", "shapley_affine", "classical_pivot_dp")
    ],
    Target("estimators", "estimate_shapley", [Probe("estimators.estimate_shapley",
           after=lambda a, k, r: {"orders": r[1]})]),
    Target("estimators", "estimate_correlations", [Probe("estimators.estimate_correlations",
           after=lambda a, k, r: {"samples": r[1]})]),
    Target("mu", "sample_mu_batch", [Probe("mu.sample_mu_batch", before=lambda a, k: {
        "samples": int(a[1])})]),
    Target("games", "ltf_values", [Probe("games.ltf_values", before=lambda a, k: {
        "rows": int(np.shape(a[1])[0])})]),
]


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _span_metrics(span: str, target: str, kinds=("calls", "busy_s")) -> list:
    out = []
    for kind in kinds:
        if kind == "calls":
            out.append((f"{span}.calls", "count", [target], lambda t, s=span: t.calls[s]))
        elif kind == "busy_s":
            out.append((f"{span}.busy_s", "s", [target], lambda t, s=span: t.busy[s]))
        elif kind == "self_s":
            out.append((f"{span}.self_s", "s", [target], lambda t, s=span: t.self_s[s]))
    return out


def _metric_table() -> list:
    """(name, unit, targets it needs, tracer -> value)."""
    c = lambda key: (lambda t: t.counters[key])  # noqa: E731
    eng = "solver._GridEngine.step"
    solve = "solver.solve_is"
    boost = "boosting.boost"
    rows = [
        *_span_metrics("solver.solve", solve, ("calls", "self_s")),
        ("solver.engine.steps", "count", [eng], lambda t: t.calls["solver.engine.step"]),
        ("solver.engine.step_s", "s", [eng], lambda t: t.busy["solver.engine.step"]),
        ("solver.engine.row_steps", "count", [eng], c("solver.engine.step.rows")),
        ("solver.engine.dense_row_frac", "ratio", [eng], lambda t: _ratio(
            t.counters["solver.engine.step.dense_rows"], t.counters["solver.engine.step.rows"])),
        ("solver.validate.calls", "count",
         ["solver._exact_d_enum_batch", "solver.validate_candidate"],
         c("solver.validate.candidates")),
        ("solver.validate.busy_s", "s",
         ["solver._exact_d_enum_batch", "solver.validate_candidate"],
         lambda t: t.busy["solver.validate"]),
        ("solver.grid.cells_evaluated", "count", [solve], c("solver.solve.cells")),
        ("solver.grid.solved_per_cell", "ratio", [solve], lambda t: _ratio(
            t.counters["solver.solve.solved"], t.counters["solver.solve.cells"])),
        *_span_metrics("boosting.boost", boost, ("calls",)),
        # one oracle query per round plus the final stop test; unlike the
        # returned iteration count this also counts boosts cut by the budget
        ("boosting.boost.rounds", "count", [boost], lambda t: sum(
            t.calls[f"boosting.oracle.{mode}"] for mode in ORACLE_MODES)),
        *_span_metrics("boosting.boost", boost, ("self_s",)),
        ("boosting.boost.converged_frac", "ratio", [boost], lambda t: _ratio(
            t.counters["boosting.boost.converged"], t.calls["boosting.boost"])),
    ]
    for mode in ORACLE_MODES:
        span = f"boosting.oracle.{mode}"
        target = f"boosting.{mode.replace('-', '_')}_oracle"
        rows += _span_metrics(span, target)
        rows.append((f"{span}.calls_per_s", "1/s", [target],
                     lambda t, s=span: _ratio(t.calls[s], t.busy[s])))
    for fn in ("shapley_int_ltf_dp", "shapley_exact_dp", "shapley_exact_truthtable"):
        rows += _span_metrics(f"indices.{fn}", f"indices.{fn}")
    for fn in ("subset_count_table", "leave_one_out", "mu_correlations_affine",
               "shapley_affine", "classical_pivot_dp"):
        rows += _span_metrics(f"subsetdp.{fn}", f"_subsetdp.{fn}")
    rows.append(("subsetdp.subset_count_table.cells", "count", ["_subsetdp.subset_count_table"],
                 c("subsetdp.subset_count_table.cells")))
    for fn, work, unit in (("estimate_shapley", "orders", "orders_per_s"),
                           ("estimate_correlations", "samples", "samples_per_s")):
        span = f"estimators.{fn}"
        rows += _span_metrics(span, span)
        rows.append((f"{span}.{unit}", "1/s", [span],
                     lambda t, s=span, w=work: _ratio(t.counters[f"{s}.{w}"], t.busy[s])))
    rows.append(("mu.sample_mu_batch.samples_per_s", "1/s", ["mu.sample_mu_batch"],
                 lambda t: _ratio(t.counters["mu.sample_mu_batch.samples"],
                                  t.busy["mu.sample_mu_batch"])))
    rows.append(("games.ltf_values.rows_per_s", "1/s", ["games.ltf_values"],
                 lambda t: _ratio(t.counters["games.ltf_values.rows"], t.busy["games.ltf_values"])))
    return rows


METRICS = _metric_table()


def layer_metrics(tracer, absent: list[str]) -> dict:
    """Per-layer metrics from the merged tracer.

    A metric is left out when every wrap target it is computed from is absent.
    """
    lost = set(absent)
    out = {}
    for name, unit, needs, fn in METRICS:
        if lost.issuperset(needs):
            continue
        out[name] = {"value": float(fn(tracer)), "unit": unit}
    return out
