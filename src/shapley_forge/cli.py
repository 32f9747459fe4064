"""Command line front end.

Subcommands: compute (exact or sampled index vector of a game file),
estimate (accuracy-driven sampling), solve / solve-bounded (grid-search
synthesis from a target file; exact and seedless, by the subset DP or with
--oracle enum the truth table), sample-mu (draws from the slice
distribution), and diagnose (anti-concentration and distance reports).

Exit codes: 0 success, 1 solver reported no solution, 2 usage or input
validation failure.  JSON floats are emitted with 17 significant digits.
Heavy imports happen inside handlers so that --threads (or the
SHAPLEY_FORGE_THREADS environment variable) can pin the BLAS thread count
before numpy loads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from collections.abc import Iterable

_START = time.monotonic()


def _die(msg: str, code: int = 2) -> None:
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(code)


# ---------------------------------------------------------------------------
# JSON with reproducible float formatting
# ---------------------------------------------------------------------------


def _plain(obj):
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    if hasattr(obj, "item") and not isinstance(obj, (bool, int, float, str)):
        return _plain(obj.item())
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def dumps_json17(obj, _level: int = 0) -> str:
    """Serialize with floats at 17 significant digits (round-trip exact)."""
    obj = _plain(obj) if _level == 0 else obj
    pad = "  " * (_level + 1)
    end = "  " * _level
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return format(obj, ".17g")
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}{json.dumps(str(k))}: {dumps_json17(v, _level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{end}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [f"{pad}{dumps_json17(v, _level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{end}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Shared input/output plumbing
# ---------------------------------------------------------------------------


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        _die(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _die(f"{path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        _die(f"{path}: expected a JSON object")
    return obj


def _load_game(path: str):
    from .games import load_game

    try:
        return load_game(path)
    except (ValueError, OSError) as exc:
        _die(f"bad game file {path}: {exc}")


def _load_target(path: str):
    """Target file {n, shapley, convention}; standard convention is doubled."""
    obj = _load_json_file(path)
    for key in ("n", "shapley", "convention"):
        if key not in obj:
            _die(f"target file {path} missing field '{key}'")
    n = obj["n"]
    shap = obj["shapley"]
    conv = obj["convention"]
    if not isinstance(shap, list) or len(shap) != n:
        _die(f"target file {path}: expected {n} index entries, got {len(shap) if isinstance(shap, list) else type(shap).__name__}")
    try:
        vec = [float(v) for v in shap]
    except (TypeError, ValueError):
        _die(f"target file {path}: index entries must be numbers")
    if conv == "standard":
        vec = [2.0 * v for v in vec]
    elif conv != "generalized":
        _die(f"target file {path}: convention must be 'generalized' or 'standard', got {conv!r}")
    return n, vec


def _manifest(command: str, config: dict, seed, outcome: str) -> dict:
    from . import __version__

    config = {k: v for k, v in config.items() if not callable(v)}
    return {
        "command": command,
        "config": _plain(config),
        "seed": seed,
        "version": __version__,
        "wall_time_s": time.monotonic() - _START,
        "outcome": outcome,
    }


def _emit_json(payload: dict, out: str | None) -> None:
    text = dumps_json17(payload) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"OK wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _write_csv(fh, header: list[str], rows: Iterable) -> int:
    """Write header and rows, reading rows once as they come; returns the row count."""
    w = csv.writer(fh)
    w.writerow(header)
    count = 0
    for row in rows:
        w.writerow(row)
        count += 1
    return count


def _emit_csv(header: list[str], rows: Iterable, out: str | None, manifest: dict) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            count = _write_csv(fh, header, rows)
        with open(out + ".manifest.json", "w") as fh:
            fh.write(dumps_json17(manifest) + "\n")
        print(f"OK wrote {out} ({count} rows)", file=sys.stderr)
    else:
        _write_csv(sys.stdout, header, rows)
        print(dumps_json17(manifest), file=sys.stderr)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _fmt_cell(v) -> object:
    if isinstance(v, float):
        return format(v, ".17g")
    return v


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_compute(args) -> int:
    from .estimators import estimate_shapley_fixed
    from .games import ltf_fn
    from .indices import shapley_exact_truthtable, shapley_int_ltf_dp
    from .mu import ENUM_CAP

    game = _load_game(args.game)
    n = game.n
    if args.samples is not None:
        if args.samples < 1:
            _die("--samples must be positive")
        vec = estimate_shapley_fixed(ltf_fn(game), n, args.samples, args.seed)
        method = "sampled"
        extra = {"m": args.samples, "seed": args.seed}
    elif args.exact_dp:
        try:
            vec = shapley_int_ltf_dp(game).shapley
        except ValueError as exc:
            _die(str(exc))
        method = "exact-dp"
        extra = {}
    else:
        if n > ENUM_CAP:
            _die(f"--exact-enum is capped at n={ENUM_CAP}, got n={n}; use --exact-dp or --samples")
        vec = shapley_exact_truthtable(ltf_fn(game), n).shapley
        method = "exact-enum"
        extra = {}
    payload = {
        "n": n,
        "shapley": list(vec),
        "convention": "generalized",
        "method": method,
        **extra,
        "manifest": _manifest("compute", vars(args), args.seed, "ok"),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_estimate(args) -> int:
    from .estimators import EstimateConfig, estimate_shapley
    from .games import ltf_fn

    game = _load_game(args.game)
    try:
        cfg = EstimateConfig(gamma=args.gamma, delta=args.delta, seed=args.seed)
    except ValueError as exc:
        _die(str(exc))
    vec, m = estimate_shapley(ltf_fn(game), game.n, cfg)
    payload = {
        "n": game.n,
        "shapley": list(vec),
        "convention": "generalized",
        "m": m,
        "seed": args.seed,
        "gamma": args.gamma,
        "delta": args.delta,
        "manifest": _manifest("estimate", vars(args), args.seed, "ok"),
    }
    _emit_json(payload, args.out)
    return 0


_ORACLE_FLAGS = {"enum": "exact-enum", "dp": "exact-dp"}


def _cmd_solve(args, bounded: bool) -> int:
    import numpy as np

    from .solver import SolveConfig, solve_is, solve_isbw

    n, target = _load_target(args.target)
    try:
        cfg = SolveConfig(
            epsilon=args.epsilon,
            xi=args.xi,
            grid_step=args.grid,
            oracle_mode=_ORACLE_FLAGS[args.oracle],
        )
    except ValueError as exc:
        _die(str(exc))
    try:
        if bounded:
            res = solve_isbw(np.asarray(target), args.weight_bound, cfg)
        else:
            res = solve_is(np.asarray(target), cfg)
    except ValueError as exc:
        _die(str(exc))
    payload = {
        "n": n,
        "weights": list(res.game.weights),
        "threshold": res.game.threshold,
        "est_dshapley": res.est_dshapley,
        "status": res.status,
        "guess": [res.guess.f_star_0, res.guess.mean_corr],
        "iterations": res.boost_iterations,
        "manifest": _manifest("solve-bounded" if bounded else "solve", vars(args), None, res.status),
    }
    _emit_json(payload, args.out)
    return 0 if res.status == "solved" else 1


def _cmd_sample_mu(args) -> int:
    import numpy as np

    from .mu import check_samples, mu_distribution, sample_mu_batch

    if args.n < 3:
        _die("need n >= 3")
    try:
        check_samples(args.samples, args.n)
    except ValueError as exc:
        _die(str(exc))
    rng = np.random.default_rng(args.seed)
    X = sample_mu_batch(mu_distribution(args.n), args.samples, rng)
    man = _manifest("sample-mu", vars(args), args.seed, "ok")
    _emit_csv(["sample_index", "wt", "bits"], _draw_rows(X), args.out, man)
    return 0


def _draw_rows(X):
    """(index, weight, '+'/'-' string) per draw, made one block of draws at a time.

    A block's arrays and lists take about 8 bytes per draw and voter, so
    about _subsetdp._BLOCK_BYTES in all.
    """
    import numpy as np

    from ._subsetdp import _BLOCK_BYTES

    m, n = X.shape
    block = max(1, _BLOCK_BYTES // (8 * n))
    for s in range(0, m, block):
        yes = X[s : s + block] == 1
        wt = np.count_nonzero(yes, axis=1).tolist()
        bits = np.where(yes, np.uint8(ord("+")), np.uint8(ord("-"))).view(f"S{n}")[:, 0]
        yield from zip(range(s, s + len(wt)), wt, (b.decode() for b in bits))


def _cmd_diagnose(args) -> int:
    from . import diagnostics as dg

    mode = args.mode
    seed = args.seed
    try:
        if mode == "anticonc-mu":
            game = _load_game(args.game)
            rep = dg.anticonc_mu(game, args.r, samples=args.samples, seed=seed)
            header = ["distribution", "method", "n", "r", "estimate", "stderr", "samples"]
            rows = [[rep.distribution, rep.method, game.n, rep.r, rep.estimate, rep.stderr, rep.samples]]
        elif mode == "balanced":
            game = _load_game(args.game)
            if args.i is None:
                _die("balanced mode needs --i (prefix length)")
            w0 = -game.threshold if args.w0 is None else args.w0
            bound = dg.balanced_prefix_bound(game.n, args.i, args.eta)
            rep = dg.balanced_fraction(w0, game.weights, args.i, args.r, samples=args.samples, seed=seed)
            ok = rep.estimate <= bound + 5.0 * rep.stderr
            header = ["n", "i", "w0", "r", "estimate", "stderr", "samples", "method", "bound", "within_bound"]
            rows = [[game.n, args.i, w0, rep.r, rep.estimate, rep.stderr, rep.samples, rep.method, bound, ok]]
        elif mode == "anticonc-biased":
            game = _load_game(args.game)
            dist = dg.BiasedDist(game.n, args.bias)
            rep, bound, violated = dg.anticonc_biased(game, args.r, dist, samples=args.samples, seed=seed)
            header = ["n", "bias", "r", "estimate", "stderr", "samples", "method", "bound", "violated"]
            rows = [[game.n, args.bias, rep.r, rep.estimate, rep.stderr, rep.samples, rep.method, bound, violated]]
        else:  # distances
            if not args.other:
                _die("distances mode needs --other GAME")
            rep = dg.ltf_distance_report(_load_game(args.game), _load_game(args.other))
            header = ["n", "d_shapley", "d_fourier", "corr_gap", "shapley_bound", "shapley_slack",
                      "fourier_bound", "fourier_slack"]
            rows = [[getattr(rep, k) for k in header]]
    except ValueError as exc:
        _die(str(exc))
    rows = [[_fmt_cell(v) for v in row] for row in rows]
    man = _manifest("diagnose", vars(args), seed, "ok")
    _emit_csv(header, rows, args.out, man)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shapley-forge",
        description="Design weighted voting games from target Shapley-Shubik power indices.",
    )
    ap.add_argument("--threads", type=int, default=None, help="BLAS thread count (env: SHAPLEY_FORGE_THREADS)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact or sampled index vector of a game file")
    p.add_argument("--game", required=True, help="game JSON ({n,weights,threshold} or {n,weights,quota})")
    mx = p.add_mutually_exclusive_group()
    mx.add_argument("--exact-enum", action="store_true", help="truth-table enumeration (default)")
    mx.add_argument("--exact-dp", action="store_true", help="subset-count DP, integer weights")
    mx.add_argument("--samples", type=int, default=None, help="Monte-Carlo with this many sampled orders")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("estimate", help="sampled index vector with accuracy gamma")
    p.add_argument("--game", required=True)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    for name, bounded in (("solve", False), ("solve-bounded", True)):
        p = sub.add_parser(name, help="synthesize a game from a target index file")
        p.add_argument("--target", required=True, help="target JSON {n,shapley,convention}")
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--xi", type=float, default=0.005)
        p.add_argument("--grid", type=float, default=0.05)
        p.add_argument("--oracle", choices=tuple(_ORACLE_FLAGS), default="dp")
        if bounded:
            p.add_argument("--weight-bound", type=float, required=True)
        p.add_argument("--out", default=None)
        p.set_defaults(func=lambda a, _b=bounded: _cmd_solve(a, _b))

    p = sub.add_parser("sample-mu", help="draw from the slice distribution, CSV out")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample_mu)

    p = sub.add_parser("diagnose", help="anti-concentration probes and distance reports")
    p.add_argument("mode", choices=("anticonc-mu", "balanced", "anticonc-biased", "distances"))
    p.add_argument("--game", required=True)
    p.add_argument("--other", default=None, help="second game (distances mode)")
    p.add_argument("--r", type=float, default=0.1)
    p.add_argument("--i", type=int, default=None, help="prefix length (balanced mode)")
    p.add_argument("--w0", type=float, default=None, help="offset; defaults to -threshold")
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--bias", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_diagnose)

    return ap


def _configure_threads(argv: list[str]) -> None:
    source, threads = "SHAPLEY_FORGE_THREADS", os.environ.get("SHAPLEY_FORGE_THREADS")
    for i, tok in enumerate(argv):
        if tok == "--threads" and i + 1 < len(argv):
            source, threads = "--threads", argv[i + 1]
        elif tok.startswith("--threads="):
            source, threads = "--threads", tok.split("=", 1)[1]
    if threads:
        try:
            k = int(threads)
        except ValueError:
            _die(f"{source} expects an integer, got {threads!r}")
        if k < 1:
            _die(f"{source} expects a thread count of at least 1, got {k}")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(k)


def app(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    _configure_threads(argv)
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except SystemExit:
        raise
    except KeyboardInterrupt:
        return 130
    raise SystemExit(code)


if __name__ == "__main__":
    app()
