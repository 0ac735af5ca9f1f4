"""Command-line surface: run | batch | sweep | fixed-target | drift-check |
bounds-check | bound.

Configuration may come from a flat JSON file (--config); explicit flags
override file values, unknown file keys are errors.  Machine-readable
summaries go to stdout, progress to stderr.  Exit codes: 0 success,
2 configuration error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import experiments as xp
from .ea import ControllerParams, run
from .fitness import FitnessFunction
from .oracle import (
    check_transition_bounds,
    drift_grid_check,
    elitist_evaluations_bound,
    g1_grid_lambdas,
    g2_band_states,
    make_potential,
)

TRACE_COLUMNS = [
    "run_id",
    "generation",
    "fitness",
    "lambda_real",
    "lambda_int",
    "evaluations",
    "best_so_far",
]


class ConfigError(Exception):
    pass


def _out_dir() -> Path:
    return Path(os.environ.get("ONELAMBDA_OUTDIR", "."))


def _load_config(path: str | None, known: dict) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a flat JSON object")
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key: {key!r}")
    return data


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    cfg = dict(defaults)
    cfg.update(_load_config(getattr(args, "config", None), defaults))
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _parse_list(text, conv=float) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(conv(v) for v in text)
    try:
        return tuple(conv(v) for v in str(text).split(",") if v != "")
    except ValueError as exc:
        raise ConfigError(f"cannot parse list value {text!r}") from exc


def _batch_config(cfg: dict, n_values, s_values, runs: int) -> xp.BatchConfig:
    """A subcommand's grid as a BatchConfig.  Keys the subcommand lacks
    keep the self-adjusting comma algorithm on onemax and BatchConfig's
    defaults (sweep and fixed-target have no algo, fn or eval cap)."""
    return xp.BatchConfig(
        algorithm=cfg.get("algo", "comma"),
        fn_spec=cfg.get("fn", "onemax"),
        n_values=n_values,
        fs_values=tuple((float(cfg["F"]), s) for s in s_values),
        runs=runs,
        master_seed=int(cfg["seed"]),
        gen_cap_multiplier=cfg["gen_cap_multiplier"],
        eval_cap=int(cfg["eval_cap"]) if cfg.get("eval_cap") else None,
        stop_on_optimum=bool(cfg.get("stop_on_optimum", True)),
        trace_level=cfg.get("trace", "summary"),
        lambda0=float(cfg.get("lambda0", 1.0)),
        static_lambda=int(cfg["static_lambda"]) if cfg.get("static_lambda") else None,
    )


def _trace_rows(rec, fn, run_id):
    if rec.rows is None:
        yield (
            run_id,
            rec.generations,
            rec.final_fitness,
            rec.final_lambda,
            None,
            rec.evaluations,
            rec.best_fitness,
        )
        return
    r = rec.rows
    for t in range(r["generation"].size):
        yield (
            run_id,
            int(r["generation"][t]),
            fn.display(int(r["fitness_raw"][t])),
            float(r["lambda_real"][t]),
            int(r["lambda_int"][t]),
            int(r["evaluations"][t]),
            fn.display(int(r["best_raw"][t])),
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

RUN_DEFAULTS = {
    "algo": "comma",
    "fn": "onemax",
    "n": None,
    "F": 1.5,
    "s": None,
    "lambda0": 1.0,
    "static_lambda": None,
    "seed": 1,
    "gen_cap_multiplier": 500.0,
    "eval_cap": None,
    "stop_on_optimum": True,
    "trace": "summary",
    "out": None,
}


def cmd_run(args) -> int:
    cfg = _merge(args, RUN_DEFAULTS)
    if cfg["n"] is None:
        raise ConfigError("missing required key: n")
    n = int(cfg["n"])
    if cfg["algo"] in ("comma", "plus") and cfg["s"] is None:
        raise ConfigError("missing required key: s (needed by the self-adjusting controller)")
    s = float(cfg["s"] if cfg["s"] is not None else 1.0)
    config = _batch_config(cfg, (n,), (s,), runs=1)
    params = ControllerParams(F=float(cfg["F"]), s=s)
    fn = FitnessFunction.parse(cfg["fn"], n)
    kind = config.kind_for(n)
    rec = run(
        kind,
        fn,
        params,
        config.stopping(n),
        config.master_seed,
        trace_level=config.trace_level,
        lambda0=config.lambda0,
    )
    out = Path(cfg["out"]) if cfg["out"] else _out_dir() / "run_trace.csv"
    xp.write_csv(
        out,
        TRACE_COLUMNS,
        _trace_rows(rec, fn, run_id=0),
        meta={**cfg, "algorithm": kind.label},
        timestamp=not args.no_timestamp,
    )
    print(
        json.dumps(
            {
                "stop_cause": rec.stop_cause.value,
                "generations": rec.generations,
                "evaluations": rec.evaluations,
                "final_fitness": rec.final_fitness,
                "best_fitness": rec.best_fitness,
                "output": str(out),
            }
        )
    )
    return 0


BATCH_DEFAULTS = {
    "preset": None,
    "full_scale": False,
    "algo": "comma",
    "fn": "onemax",
    "n": "100",
    "s": "1",
    "F": 1.5,
    "runs": 10,
    "seed": 1,
    "gen_cap_multiplier": 500.0,
    "eval_cap": None,
    "trace": "summary",
    "static_lambda": None,
    "workers": None,
    "out_dir": None,
}


def _progress(done, total):
    if total >= 20 and done % max(1, total // 20) == 0:
        print(f"  {done}/{total} runs", file=sys.stderr)


def cmd_batch(args) -> int:
    cfg = _merge(args, BATCH_DEFAULTS)
    out_dir = Path(cfg["out_dir"]) if cfg["out_dir"] else _out_dir()
    workers = int(cfg["workers"]) if cfg["workers"] else (os.cpu_count() or 1)
    ts = not args.no_timestamp
    if cfg["preset"]:
        rows, meta = xp.run_figure(
            cfg["preset"], int(cfg["seed"]), bool(cfg["full_scale"]), workers, _progress
        )
        out = out_dir / xp.FIGURES[cfg["preset"]].csv
        xp.write_csv(out, list(rows[0].keys()), rows, meta=meta, timestamp=ts)
        print(json.dumps({"preset": cfg["preset"], "output": str(out)}))
        return 0
    config = _batch_config(cfg, _parse_list(cfg["n"], int), _parse_list(cfg["s"]), int(cfg["runs"]))
    batch = xp.run_batch(config, workers=workers, progress=_progress)
    rows = []
    for cell in batch.cells:
        for ridx, rec in enumerate(cell.records):
            rows.append(
                {
                    "algorithm": cell.algorithm,
                    "fn": cell.fn_spec,
                    "n": cell.n,
                    "F": cell.F,
                    "s": cell.s,
                    "run": ridx,
                    "stop_cause": rec.stop_cause.value,
                    "generations": rec.generations,
                    "evaluations": rec.evaluations,
                    "initial_fitness": rec.initial_fitness,
                    "final_fitness": rec.final_fitness,
                    "best_fitness": rec.best_fitness,
                    "final_lambda": rec.final_lambda,
                }
            )
    out = out_dir / "batch_runs.csv"
    xp.write_csv(out, list(rows[0].keys()), rows, meta=config.to_dict(), timestamp=ts)
    print(json.dumps({"cells": len(batch.cells), "runs": len(rows), "output": str(out)}))
    return 0


SWEEP_DEFAULTS = {
    "n": "100",
    "s": "0.5,1,2,5,10,20",
    "F": 1.5,
    "runs": 100,
    "seed": 1,
    "gen_cap_multiplier": 500.0,
    "workers": None,
    "out": None,
}


def cmd_sweep(args) -> int:
    cfg = _merge(args, SWEEP_DEFAULTS)
    config = _batch_config(cfg, _parse_list(cfg["n"], int), _parse_list(cfg["s"]), int(cfg["runs"]))
    batch = xp.run_batch(config, workers=int(cfg["workers"]) if cfg["workers"] else None)
    rows = xp.sweep_table(batch)
    out = Path(cfg["out"]) if cfg["out"] else _out_dir() / "fig3_sweep.csv"
    xp.write_csv(out, list(rows[0].keys()), rows, meta=cfg, timestamp=not args.no_timestamp)
    print(json.dumps({"cells": len(rows), "output": str(out)}))
    return 0


FT_DEFAULTS = {
    "n": 1000,
    "s": "1,2,3.4,5",
    "F": 1.5,
    "runs": 100,
    "seed": 1,
    "gen_cap_multiplier": 500.0,
    "targets": "all",
    "workers": None,
    "out": None,
}


def cmd_fixed_target(args) -> int:
    cfg = _merge(args, FT_DEFAULTS)
    config = _batch_config(
        {**cfg, "trace": "levels"}, (int(cfg["n"]),), _parse_list(cfg["s"]), int(cfg["runs"])
    )
    batch = xp.run_batch(config, workers=int(cfg["workers"]) if cfg["workers"] else None)
    targets = None if cfg["targets"] == "all" else [int(t) for t in _parse_list(cfg["targets"], int)]
    rows = []
    for cell in batch.cells:
        rows.extend(xp.fixed_target_table(cell, targets))
    out = Path(cfg["out"]) if cfg["out"] else _out_dir() / "fig4_fixed_target.csv"
    xp.write_csv(out, list(rows[0].keys()), rows, meta=cfg, timestamp=not args.no_timestamp)
    print(json.dumps({"rows": len(rows), "output": str(out)}))
    return 0


DRIFT_DEFAULTS = {
    "potential": "g1",
    "n": 1000,
    "F": 1.5,
    "s": None,
    "threshold": None,
    "cap_gain": False,
    "out": None,
}


def cmd_drift_check(args) -> int:
    cfg = _merge(args, DRIFT_DEFAULTS)
    n = int(cfg["n"])
    F = float(cfg["F"])
    kind = cfg["potential"]
    if kind not in ("g1", "g2"):
        raise ConfigError("potential must be g1 or g2")
    if cfg["s"] is None:
        cfg["s"] = 0.5 if kind == "g1" else 18.0
    s = float(cfg["s"])
    params = ControllerParams(F=F, s=s)
    pot = make_potential(kind, F=F, s=s, n=n)
    if kind == "g1":
        states = [(i, lam) for i in range(n) for lam in g1_grid_lambdas(n, params)]
        threshold = float(cfg["threshold"]) if cfg["threshold"] is not None else (1 - s) / (2 * math.e)
        direction = "min_at_least"
    else:
        states = g2_band_states(n, F)
        threshold = float(cfg["threshold"]) if cfg["threshold"] is not None else -0.0008
        direction = "max_at_most"
    report = drift_grid_check(
        pot, params, n, states, threshold, direction,
        cap_gain_at_one=bool(cfg["cap_gain"]), collect_rows=True,
    )
    out = Path(cfg["out"]) if cfg["out"] else _out_dir() / f"drift_{kind}.csv"
    rows = (
        (n, i, lam, lint, d, threshold, (d - threshold) if direction == "min_at_least" else (threshold - d),
         (d >= threshold) if direction == "min_at_least" else (d <= threshold))
        for (i, lam, lint, d) in report.rows
    )
    xp.write_csv(
        out,
        ["n", "i", "lambda_real", "lambda_int", "drift", "threshold", "margin", "pass"],
        rows,
        meta=cfg,
        timestamp=not args.no_timestamp,
    )
    print(
        json.dumps(
            {
                "potential": kind,
                "states": report.states_checked,
                "extreme_drift": report.extreme,
                "extreme_state": report.extreme_state,
                "violations": len(report.violations),
                "band_empty": report.empty,
                "output": str(out),
            }
        )
    )
    return 0


BOUNDS_DEFAULTS = {
    "n": 163,
    "lambdas": "1,2,3,5,8,13,21,34,55,64",
    "out": None,
}


def cmd_bounds_check(args) -> int:
    cfg = _merge(args, BOUNDS_DEFAULTS)
    n = int(cfg["n"])
    lambdas = [int(v) for v in _parse_list(cfg["lambdas"], int)]
    report = check_transition_bounds(n, lambdas=lambdas, collect_rows=True)
    out = Path(cfg["out"]) if cfg["out"] else _out_dir() / "bounds_report.csv"
    rows = (
        (c.n, c.i, c.lam, c.quantity, c.name, c.side, c.exact, c.bound, c.margin, c.ok)
        for c in report.rows
    )
    xp.write_csv(
        out,
        ["n", "i", "lambda", "quantity", "bound", "side", "exact", "bound_value", "margin", "pass"],
        rows,
        meta=cfg,
        timestamp=not args.no_timestamp,
    )
    print(
        json.dumps(
            {
                "n": n,
                "states": report.states_checked,
                "checks": report.checks_performed,
                "violations": len(report.violations),
                "output": str(out),
            }
        )
    )
    return 0 if report.ok else 1


BOUND_DEFAULTS = {"n": None, "a": 0, "b": None, "F": 1.5, "s": 1.0, "lambda0": 1.0}


def cmd_bound(args) -> int:
    cfg = _merge(args, BOUND_DEFAULTS)
    if cfg["n"] is None:
        raise ConfigError("missing required key: n")
    n = int(cfg["n"])
    b = int(cfg["b"]) if cfg["b"] is not None else n
    value = elitist_evaluations_bound(
        n, int(cfg["a"]), b, float(cfg["F"]), float(cfg["s"]), float(cfg["lambda0"])
    )
    print(value)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="flat JSON config file; flags override its keys")
    p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp header line")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="onelambda",
        description="Success-based offspring population control laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single seeded run, trace CSV out")
    p.add_argument("--algo", choices=["comma", "plus", "static"])
    p.add_argument("--fn", help="onemax|zeromax|twomax|jump:k|cliff:d|ridge")
    p.add_argument("--n", type=int)
    p.add_argument("--F", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--lambda0", type=float)
    p.add_argument("--static-lambda", dest="static_lambda", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--gen-cap-mult", dest="gen_cap_multiplier", type=float)
    p.add_argument("--eval-cap", dest="eval_cap", type=int)
    p.add_argument("--trace", choices=["summary", "levels", "full"])
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("batch", help="grid of seeded runs (or a figure preset)")
    p.add_argument("--preset", help="|".join(sorted(xp.FIGURES)))
    p.add_argument("--full-scale", dest="full_scale", action="store_true", default=None)
    p.add_argument("--algo", choices=["comma", "plus", "static"])
    p.add_argument("--fn")
    p.add_argument("--n", help="comma-separated problem sizes")
    p.add_argument("--s", help="comma-separated success rates")
    p.add_argument("--F", type=float)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--gen-cap-mult", dest="gen_cap_multiplier", type=float)
    p.add_argument("--eval-cap", dest="eval_cap", type=int)
    p.add_argument("--trace", choices=["summary", "levels", "full"])
    p.add_argument("--static-lambda", dest="static_lambda", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    _add_common(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("sweep", help="success-rate sweep (capped generations per n)")
    p.add_argument("--n")
    p.add_argument("--s")
    p.add_argument("--F", type=float)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--gen-cap-mult", dest="gen_cap_multiplier", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fixed-target", help="mean evaluations to reach fitness targets")
    p.add_argument("--n", type=int)
    p.add_argument("--s")
    p.add_argument("--F", type=float)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--gen-cap-mult", dest="gen_cap_multiplier", type=float)
    p.add_argument("--targets", help="'all' or comma-separated fitness values")
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_fixed_target)

    p = sub.add_parser("drift-check", help="exact potential drift over a state grid")
    p.add_argument("--potential", choices=["g1", "g2"])
    p.add_argument("--n", type=int)
    p.add_argument("--F", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--cap-gain", dest="cap_gain", action="store_true", default=None)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_drift_check)

    p = sub.add_parser("bounds-check", help="exact transition quantities vs sandwich bounds")
    p.add_argument("--n", type=int)
    p.add_argument("--lambdas", help="comma-separated offspring counts")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_bounds_check)

    p = sub.add_parser("bound", help="closed-form elitist evaluation bound")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--F", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--lambda0", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
