#!/usr/bin/env python3
"""Benchmark of shapley-forge: solve round trips and exact/sampled index oracles.

Run from the repository root:

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One run sets up (imports the package from ``src/`` and builds its cached
tables, several times), then runs the workload's operations in a closed
loop, one at a time, for ``--seconds`` seconds.  Every operation has a time
budget enforced in-process by an interval timer: an operation over budget is
recorded as ``timeout`` and the run goes on.  An operation cut short by the
end of the run is discarded.  Outputs are checked after each operation,
outside its timing.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation twice, untraced and traced (with the wrappers of ``tracing.py``)
in alternating order; it reports per-layer metrics from the traced copies,
output-quality metrics from the untraced ones, and the tracing overhead as
traced minus untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable report
goes to standard error, and the full record (provenance, every operation,
spans) to ``perfbench/out/``.  BLAS runs on one thread, pinned before numpy
loads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("solve-small", "solve-wide", "index-oracles")
BLAS_THREADS = 1  # a dense n=14 solve is no faster on two BLAS threads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3
INDEX_KINDS = ("quota-dp", "ltf-dp", "truthtable")
# cli and diagnostics are not on the solve or compute path
PACKAGE_MODULES = ("games", "mu", "indices", "_subsetdp", "estimators", "boosting", "solver")

clock = time.perf_counter


class OpTimeout(BaseException):
    """Raised by the interval timer; BaseException so library code cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_budgeted(call, budget_s: float):
    """(status, output, wall seconds) of call() under an in-process time budget."""
    if budget_s <= 0:  # setitimer(0) would disarm the timer, not fire it
        return "timeout", None, 0.0
    status, out = "ok", None
    t0 = clock()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            out = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status = "timeout"
    except Exception as exc:  # one failing operation is recorded, not fatal
        status, out = "error", f"{type(exc).__name__}: {exc}"
    return status, out, clock() - t0


# ---------------------------------------------------------------------------
# Set-up: pinned threads, package import, cached tables
# ---------------------------------------------------------------------------


def pin_threads() -> int:
    threads = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_package():
    """Import numpy and the package's modules from src/; (seconds, modules)."""
    src = ROOT / "src"
    if not (src / "shapley_forge" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {src}")
    sys.path.insert(0, str(src))
    t0 = clock()
    import numpy  # noqa: F401

    modules = {name: importlib.import_module(f"shapley_forge.{name}") for name in PACKAGE_MODULES}
    elapsed = clock() - t0
    origin = Path(modules["solver"].__file__).resolve()
    if not origin.is_relative_to(src.resolve()):
        raise SystemExit(f"error: shapley_forge imported from {origin}, not from {src}")
    return elapsed, modules


def build_tables(wl, modules) -> tuple[float, float]:
    """Median (mu table build, all table builds) seconds over fresh caches."""
    cached = [
        getattr(modules["mu"], "enumerate_cube", None),
        getattr(modules["mu"], "enumerate_support", None),
        getattr(modules["mu"], "mu_weights", None),
        getattr(modules["indices"], "truthtable_coefficient_matrix", None),
    ]
    mu_builds, other = wl.tables()
    mu_s, total_s = [], []
    for _ in range(SETUP_REPEATS):
        for fn in cached:
            getattr(fn, "cache_clear", lambda: None)()
        t0 = clock()
        for build in mu_builds:
            build()
        t1 = clock()
        for build in other:
            build()
        t2 = clock()
        mu_s.append(t1 - t0)
        total_s.append(t2 - t0)
    return statistics.median(mu_s), statistics.median(total_s)


def provenance(args, threads: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# The measured loop
# ---------------------------------------------------------------------------


def run_ops(wl, seconds: float, installer, merged):
    """Closed loop over the workload's operations; returns the op records.

    In a traced run each operation also runs a traced copy; odd operations
    run it first, so warm-up cost does not land on one side of the overhead.
    """
    records = []
    deadline = clock() + seconds

    def budget(op) -> float:
        # the first operation always gets its full budget, so attempted >= 1
        return op.budget_s if not records else min(op.budget_s, deadline - clock())

    i = 0
    while deadline > clock() or not records:
        op = wl.op(i)
        traced = None
        if installer is not None and i % 2:
            traced = run_traced(op, budget(op), installer)
            if traced is None:
                break
        b = budget(op)
        status, out, wall = run_budgeted(op.call, b)
        if status == "timeout" and b < op.budget_s:
            break
        if installer is not None and traced is None:
            traced = run_traced(op, budget(op), installer)
            if traced is None:
                break
        rec = {"op": i, "kind": op.kind, "status": status, "wall_s": wall}
        if traced is not None:
            rec["traced_status"], rec["traced_wall_s"], tracer = traced
            merged.merge(tracer)
        rec.update(check(op, status, out))
        records.append(rec)
        i += 1
    return records


def run_traced(op, budget: float, installer):
    """(status, wall, tracer) of a traced copy of op; None if the run deadline cut it."""
    from tracing import Tracer

    tracer = Tracer(op_id=op.index)
    installer.install(tracer)
    try:
        status, _, wall = run_budgeted(op.call, budget)
    finally:
        installer.uninstall()
    if status == "timeout" and budget < op.budget_s:
        return None
    return status, wall, tracer


def check(op, status: str, out) -> dict:
    if status == "error":
        return {"ok": False, "detail": str(out)}
    if status == "timeout":
        return {"ok": True, "detail": "over budget"}
    try:
        outcome = op.check(out)
    except Exception as exc:  # a check that cannot run counts against the output
        return {"ok": False, "detail": f"check raised {type(exc).__name__}: {exc}"}
    rec = {"ok": outcome.ok, "detail": outcome.detail}
    if outcome.solve is not None:
        rec["solve"] = outcome.solve
    if outcome.work:
        rec["work"] = outcome.work
    return rec


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _ratio(a, b) -> float:
    return float(a) / float(b) if b else 0.0


def end_to_end(records, setup_s: float, wl) -> dict:
    """setup_s, ops_per_min and peak_rss_mb of one run.

    ops_per_min is the rate of one round of the workload's operation kinds,
    60 / (mean reference time of a kind * median over operations of wall
    time / reference time of its kind).  Dividing by the reference keeps
    the mix of kinds a run reached from moving the rate; the median keeps a
    few slow inputs (solve-small's timeouts) from moving it.  The plain mean
    rate is among the result metrics.
    """
    ratios = [r["wall_s"] / wl.reference_s[r["kind"]] for r in records]
    round_s = statistics.fmean(wl.reference_s.values())
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_min": {"value": 60.0 / (round_s * statistics.median(ratios)), "unit": "1/min"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def result_metrics(records, defects, solving: bool) -> dict:
    """Output quality and per-kind rates, measured on the untraced operations."""
    solves = records if solving else []
    scored = [r["solve"] for r in records if "solve" in r]
    walls = [r["wall_s"] for r in records]
    index_walls = [r["wall_s"] for r in records if r["kind"].startswith(INDEX_KINDS)]
    est = [r for r in records if r["kind"].startswith("estimate")]
    values = {
        "result.ops_per_min_mean": (_ratio(60.0 * len(walls), sum(walls)), "1/min"),
        "result.op_s_p50": (_median(walls), "s"),
        "result.solved_frac": (_ratio(sum(s["status"] == "solved" for s in scored), len(solves)), "ratio"),
        "result.dshapley_true_p50": (_median([s["true_dshapley"] for s in scored]), "1"),
        "result.est_mismatch_frac": (_ratio(sum(s["mismatch"] for s in scored), len(scored)), "ratio"),
        "result.timeout_frac": (_ratio(sum(r["status"] == "timeout" for r in records), len(records)), "ratio"),
        "result.failed_frac": (_ratio(sum(not r["ok"] for r in records), len(records)), "ratio"),
        "result.index_per_s": (_ratio(len(index_walls), sum(index_walls)), "1/s"),
        "result.index_s_p50": (_median(index_walls), "s"),
        "result.estimate_orders_per_s": (
            _ratio(sum(r.get("work", 0) for r in est), sum(r["wall_s"] for r in est)), "1/s"),
        "result.known_defect_failed": (float(sum(not d["ok"] for d in defects)), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def trace_overhead(records) -> dict:
    pairs = [r for r in records if "traced_wall_s" in r]
    untraced = sum(r["wall_s"] for r in pairs)
    extra = sum(r["traced_wall_s"] for r in pairs) - untraced
    return {
        "trace.overhead_s": {"value": extra, "unit": "s"},
        "trace.overhead_frac": {"value": _ratio(extra, untraced), "unit": "ratio"},
    }


def report(workload: str, title: str, metrics: dict) -> None:
    print(f"[{workload}] {title}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    threads = pin_threads()
    import_s, modules = import_package()
    import layers
    import workloads
    from tracing import Installer, Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed)
    mu_s, tables_s = build_tables(wl, modules)
    setup_s = import_s + tables_s

    signal.signal(signal.SIGALRM, _on_alarm)
    installer = merged = None
    if args.trace:
        installer = Installer(modules, layers.TARGETS)
        merged = Tracer()
    t0 = clock()
    records = run_ops(wl, args.seconds, installer, merged)
    loop_s = clock() - t0
    defects = wl.defect_probe()

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    e2e = end_to_end(records, setup_s, wl)
    extra = result_metrics(records, defects, isinstance(wl, workloads.SolveWorkload))
    if args.trace:
        metrics = layers.layer_metrics(merged, installer.absent)
        metrics["mu.tables.build_s"] = {"value": mu_s, "unit": "s"}
        metrics.update(extra)
        metrics.update(trace_overhead(records))
    else:
        metrics = e2e

    report(args.workload, f"seed {args.seed}: {attempted} ops, {failed} failed, "
           f"{sum(r['status'] == 'timeout' for r in records)} timeouts, loop {loop_s:.1f}s", e2e)
    report(args.workload, "results (untraced operations)", extra)
    if args.trace:
        report(args.workload, "per layer (traced copies)",
               {k: v for k, v in metrics.items() if k not in extra})
        if installer.absent:
            print(f"  absent wrap targets: {', '.join(installer.absent)}", file=sys.stderr)
    for r in records:
        if not r["ok"]:
            print(f"  FAILED op {r['op']} ({r['kind']}): {r['detail']}", file=sys.stderr)
    for d in defects:
        if not d["ok"]:
            print(f"  known defect reproduced: {d['case']} sums to {d['sum']!r}", file=sys.stderr)

    full = {
        "provenance": provenance(args, threads),
        "why": " ".join(type(wl).__doc__.split()),
        "setup": {"import_s": import_s, "tables_s": tables_s, "mu_tables_s": mu_s},
        "metrics": metrics,
        "end_to_end": e2e,
        "results": extra,
        "records": records,
        "defect_probe": defects,
    }
    if args.trace:
        full["absent_targets"] = installer.absent
        full["spans"] = merged.spans
        full["spans_dropped"] = merged.dropped
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1, default=float) + "\n")

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other; prints a summary."""
    summary = {}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        summary[name] = json.loads(lines[-1])
        code |= 0 if summary[name]["correct"] else 1
    for name, res in summary.items():
        print(f"[{name}] correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
