"""Command-line surface: run | batch | figure | sweep | fixed-target |
drift-check | bounds-check | bound.

Every setting is declared once, as a flag of its subcommand in
build_parser.  A flat JSON config file (--config) is read by the same
parser: each key names a setting's dest and becomes that flag, ahead of
the command line's flags, so explicit flags override file values.
Unknown keys and values the flag rejects are configuration errors.  Machine-readable
summaries go to stdout, progress to stderr.  Exit codes: 0 success,
1 a check failed (drift-check or bounds-check found a violation or
checked no state), 2 configuration error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import repeat
from pathlib import Path

from . import experiments as xp
from .ea import LAMBDA_MAX, ControllerParams, run
from .fitness import FitnessFunction
from .oracle import (
    BOUND_COLUMNS,
    DRIFT_COLUMNS,
    check_transition_bounds,
    drift_claim,
    drift_grid_check,
    elitist_evaluations_bound,
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

# The largest --n: memory and time grow with n (a run keeps a table over
# the n + 1 levels, about 130 MB at 10**6; a check visits every level).
N_MAX = 10**6

# namespace entries that are not settings: neither config keys nor CSV metadata
_NOT_SETTINGS = ("help", "func", "config", "command", "no_timestamp")
# settings that never change the rows: config keys, but not CSV metadata
_NOT_RECORDED = ("out", "out_dir", "workers")


class ConfigError(Exception):
    pass


def _settings(args: argparse.Namespace) -> dict:
    """The parsed settings that shape the rows, as a CSV's config metadata
    records them: never the output location or the worker count."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_SETTINGS + _NOT_RECORDED}


def _out_location(args) -> tuple:
    """(setting, path, is_dir): where a CSV command writes, and the flag or
    variable that says so: --out's file, else --out-dir's directory, else
    $ONELAMBDA_OUTDIR's (default the working directory)."""
    if getattr(args, "out", None):
        return "--out", Path(args.out), False
    if getattr(args, "out_dir", None):
        return "--out-dir", Path(args.out_dir), True
    return "ONELAMBDA_OUTDIR", Path(os.environ.get("ONELAMBDA_OUTDIR") or "."), True


def _write_output(args, name, rows, meta, summary, columns=None) -> None:
    """The one output step of every CSV command.  Write ``rows`` with
    ``meta`` as the config header to :func:`_out_location`'s file, or
    ``name`` in its directory; the columns are the first dict row's keys
    unless given.  A command with --workers writes with that many workers
    (:func:`_workers`), any other with one per usable CPU.  Then print
    ``summary()`` as JSON with the path added as "output": it is called
    after the write, so it may read what a stream of rows tallied."""
    _, out, is_dir = _out_location(args)
    if is_dir:
        out = out / name
    xp.write_csv(out, columns or list(rows[0].keys()), rows, meta=meta,
                 timestamp=not args.no_timestamp,
                 workers=_workers(args) if hasattr(args, "workers") else None)
    print(json.dumps({**summary(), "output": str(out)}))


def _check_n(args) -> None:
    """Refuse an --n above N_MAX before any command computes with it."""
    n = getattr(args, "n", None)
    largest = max(n if isinstance(n, tuple) else (n or 0,), default=0)
    if largest > N_MAX:
        raise ConfigError(f"--n must be at most {N_MAX} (memory grows with n), got {largest}")


def _check_out(args) -> None:
    """Refuse, before any command computes, an output location the command
    could not write: an --out that is a directory, or a path whose nearest
    existing ancestor is not a writable directory (missing directories are
    made at the write).  ``bound`` writes no file."""
    if not hasattr(args, "out") and not hasattr(args, "out_dir"):
        return
    setting, path, is_dir = _out_location(args)
    if not is_dir and path.is_dir():
        raise ConfigError(f"{setting} {path} is a directory, not a file")
    start = path if is_dir else path.parent
    ancestor = next(p for p in (start, *start.parents) if p.exists())
    if not ancestor.is_dir() or not os.access(ancestor, os.W_OK | os.X_OK):
        raise ConfigError(f"{setting} {path}: {ancestor} is not a writable directory")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def worker_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _workers(args) -> int:
    """--workers as run_batch takes it: unset or 0 is one worker per CPU
    this process may run on, and a larger count is clamped to that."""
    cpus = xp.usable_cpus()
    return min(args.workers or cpus, cpus)


def int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v)


def float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v)


def target_list(text: str) -> tuple | None:
    """'all' (None) or comma-separated fitness values."""
    return None if text == "all" else int_list(text)


def _batch_config(args, n_values, s_values, runs, algo="comma", fn="onemax", **fields):
    """A subcommand's grid as a BatchConfig: F, seed and the generation cap
    from ``args``; ``fields`` the BatchConfig fields the subcommand sets."""
    return xp.BatchConfig(
        algorithm=algo,
        fn_spec=fn,
        n_values=n_values,
        fs_values=tuple((args.F, s) for s in s_values),
        runs=runs,
        master_seed=args.seed,
        gen_cap_multiplier=args.gen_cap_multiplier,
        **fields,
    )


def _trace_rows(rec, fn, run_id):
    """The rows of TRACE_COLUMNS: one per generation from the record's
    columns on a full trace, else the summary row."""
    r = rec.rows
    if r is None:
        return [(run_id, rec.generations, rec.final_fitness, rec.final_lambda, None,
                 rec.evaluations, rec.best_fitness)]
    return zip(repeat(run_id), r["generation"].tolist(),
               map(fn.display, r["fitness_raw"].tolist()), r["lambda_real"].tolist(),
               r["lambda_int"].tolist(), r["evaluations"].tolist(),
               map(fn.display, r["best_raw"].tolist()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    if args.n is None:
        raise ConfigError("missing required key: n")
    if args.algo in ("comma", "plus") and args.s is None:
        raise ConfigError("missing required key: s (needed by the self-adjusting controller)")
    n = args.n
    s = args.s if args.s is not None else 1.0
    config = _batch_config(
        args, (n,), (s,), 1, args.algo, args.fn,
        eval_cap=args.eval_cap or None, stop_on_optimum=args.stop_on_optimum,
        trace_level=args.trace, lambda0=args.lambda0, static_lambda=args.static_lambda,
    )
    params = ControllerParams(F=args.F, s=s)
    fn = FitnessFunction.parse(args.fn, n)
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
    summary = {
        "stop_cause": rec.stop_cause.value,
        "generations": rec.generations,
        "evaluations": rec.evaluations,
        "final_fitness": rec.final_fitness,
        "best_fitness": rec.best_fitness,
    }
    _write_output(args, "run_trace.csv", _trace_rows(rec, fn, run_id=0),
                  {**_settings(args), "algorithm": kind.label}, lambda: summary, TRACE_COLUMNS)
    return 0


def _progress(done, total):
    if total >= 20 and done % max(1, total // 20) == 0:
        print(f"  {done}/{total} runs", file=sys.stderr)


def cmd_batch(args) -> int:
    config = _batch_config(
        args, args.n, args.s, args.runs, args.algo, args.fn,
        eval_cap=args.eval_cap or None, static_lambda=args.static_lambda,
    )
    batch = xp.run_batch(config, workers=_workers(args), progress=_progress)
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
    _write_output(args, "batch_runs.csv", rows, config.to_dict(),
                  lambda: {"cells": len(batch.cells), "runs": len(rows)})
    return 0


def cmd_figure(args) -> int:
    rows, meta = xp.run_figure(args.name, args.seed, args.full_scale, _workers(args),
                               _progress)
    _write_output(args, xp.FIGURES[args.name].csv, rows, meta, lambda: {"preset": args.name})
    return 0


def cmd_sweep(args) -> int:
    config = _batch_config(args, args.n, args.s, args.runs)
    batch = xp.run_batch(config, workers=_workers(args), progress=_progress)
    rows = xp.sweep_table(batch)
    _write_output(args, "fig3_sweep.csv", rows, _settings(args), lambda: {"cells": len(rows)})
    return 0


def cmd_fixed_target(args) -> int:
    config = _batch_config(args, (args.n,), args.s, args.runs, trace_level="levels")
    xp.check_targets(args.targets, FitnessFunction.parse(config.fn_spec, args.n).optimum_raw + 1)
    batch = xp.run_batch(config, workers=_workers(args), progress=_progress)
    rows = [row for cell in batch.cells for row in xp.fixed_target_table(cell, args.targets)]
    _write_output(args, "fig4_fixed_target.csv", rows, _settings(args),
                  lambda: {"rows": len(rows)})
    return 0


def cmd_drift_check(args) -> int:
    n, F, kind = args.n, args.F, args.potential
    if args.s is None:
        args.s = 0.5 if kind == "g1" else 18.0
    pot, states, threshold, direction = drift_claim(kind, n, F, args.s)
    if args.threshold is not None:
        threshold = args.threshold

    def write(report):  # inside the check's call, which returns with final tallies
        _write_output(args, f"drift_{kind}.csv", report.rows, _settings(args), lambda: {
            "potential": kind,
            "states": report.states_checked,
            "extreme_drift": report.extreme,
            "extreme_state": report.extreme_state,
            "violations": report.violations,
            "band_empty": report.states_checked == 0,
        }, DRIFT_COLUMNS)

    report = drift_grid_check(
        pot, ControllerParams(F=F, s=args.s), n, states, threshold, direction,
        cap_gain_at_one=args.cap_gain, write=write,
    )
    return 0 if report.ok else 1


def cmd_bounds_check(args) -> int:
    def write(report):  # inside the check's call, which returns with final tallies
        _write_output(args, "bounds_report.csv", report.rows, _settings(args), lambda: {
            "n": args.n,
            "states": report.states_checked,
            "checks": report.checks_performed,
            "violations": report.violations,
        }, BOUND_COLUMNS)

    return 0 if check_transition_bounds(args.n, lambdas=args.lambdas, write=write).ok else 1


def cmd_bound(args) -> int:
    if args.n is None:
        raise ConfigError("missing required key: n")
    b = args.b if args.b is not None else args.n
    print(elitist_evaluations_bound(args.n, args.a, b, args.F, args.s, args.lambda0))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# settings several subcommands share: dest -> (flag, add_argument keywords)
_SHARED = {
    "algo": ("--algo", dict(choices=["comma", "plus", "static"], default="comma")),
    "fn": ("--fn", dict(default="onemax", help="onemax|zeromax|twomax|jump:k|cliff:d|ridge")),
    "F": ("--F", dict(type=float, default=1.5)),
    "lambda0": ("--lambda0", dict(type=float, default=1.0)),
    "static_lambda": ("--static-lambda", dict(type=positive_int)),
    "seed": ("--seed", dict(type=int, default=1)),
    "gen_cap_multiplier": ("--gen-cap-mult", dict(type=float, default=500.0)),
    "eval_cap": ("--eval-cap", dict(type=int)),
    "workers": ("--workers", dict(
        type=worker_count,
        help="worker processes; unset or 0 is one per CPU this process may run on, "
             "and a larger count is clamped to that number")),
    "out": ("--out", {}),
    "out_dir": ("--out-dir", {}),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="onelambda",
        description="Success-based offspring population control laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    most = f"at most {N_MAX}: memory and time grow with n"

    def command(name, func, help, *shared):
        # no abbreviations: `figure fig3 --s 20` would otherwise set --seed
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for dest in shared:
            flag, kwargs = _SHARED[dest]
            p.add_argument(flag, dest=dest, **kwargs)
        p.add_argument("--config", help="flat JSON config file; flags override its keys")
        p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp header line")
        p.set_defaults(func=func)
        return p

    p = command("run", cmd_run, "single seeded run, trace CSV out", "algo", "fn", "F",
                "lambda0", "static_lambda", "seed", "gen_cap_multiplier", "eval_cap", "out")
    p.add_argument("--n", type=int, help=f"problem size, {most}")
    p.add_argument("--s", type=float)
    p.add_argument("--trace", choices=["summary", "full"], default="summary",
                   help="summary: one row; full: one row per generation")
    p.set_defaults(stop_on_optimum=True)  # config-file only

    p = command("batch", cmd_batch, "grid of seeded runs", "algo", "fn", "F", "seed",
                "gen_cap_multiplier", "eval_cap", "static_lambda", "workers", "out_dir")
    p.add_argument("--n", type=int_list, default="100", help=f"problem sizes, each {most}")
    p.add_argument("--s", type=float_list, default="1", help="comma-separated success rates")
    p.add_argument("--runs", type=int, default=10)

    p = command("figure", cmd_figure, "one figure preset's CSV", "seed", "workers", "out_dir")
    p.add_argument("name", metavar="NAME", choices=sorted(xp.FIGURES))
    p.add_argument("--full-scale", dest="full_scale", action="store_true",
                   help="the study's sizes and run counts")

    p = command("sweep", cmd_sweep, "success-rate sweep (capped generations per n)", "F", "seed",
                "gen_cap_multiplier", "workers", "out")
    p.add_argument("--n", type=int_list, default="100", help=f"problem sizes, each {most}")
    p.add_argument("--s", type=float_list, default="0.5,1,2,5,10,20")
    p.add_argument("--runs", type=int, default=100)

    p = command("fixed-target", cmd_fixed_target, "mean evaluations to reach fitness targets",
                "F", "seed", "gen_cap_multiplier", "workers", "out")
    p.add_argument("--n", type=int, default=1000, help=f"problem size, {most}")
    p.add_argument("--s", type=float_list, default="1,2,3.4,5")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--targets", type=target_list, default="all",
                   help="'all' or comma-separated fitness values")

    p = command("drift-check", cmd_drift_check, "exact potential drift over a state grid",
                "F", "out")
    p.add_argument("--potential", choices=["g1", "g2"], default="g1")
    p.add_argument("--n", type=positive_int, default=1000, help=f"problem size, {most}")
    p.add_argument("--s", type=float, help="default 0.5 for g1, 18 for g2")
    p.add_argument("--threshold", type=float)
    p.add_argument("--cap-gain", dest="cap_gain", action="store_true")

    p = command("bounds-check", cmd_bounds_check, "exact transition quantities vs sandwich bounds",
                "out")
    p.add_argument("--n", type=positive_int, default=163, help=f"problem size, {most}")
    p.add_argument("--lambdas", type=int_list, default="1,2,3,5,8,13,21,34,55,64",
                   help=f"comma-separated offspring counts, each from 1 to {LAMBDA_MAX:.2g}")

    p = command("bound", cmd_bound, "closed-form elitist evaluation bound", "F", "lambda0")
    p.add_argument("--n", type=int, help=f"problem size, {most}")
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int)
    p.add_argument("--s", type=float, default=1.0)

    return ap


def _config_tokens(parser: argparse.ArgumentParser, path: str) -> tuple[list, dict]:
    """Read a flat JSON config file as flag tokens for ``parser``.

    A key is a setting's dest.  A list becomes a comma-joined value, null
    is allowed where the setting's default is None and leaves it there, and
    a switch (a flag without a value) must be a JSON bool.  A config-only
    setting (a parser default with no flag) must have its default's type
    and becomes the parser's default.  Returns the tokens and the config
    key behind each flag.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a flat JSON object")
    flags = {a.dest: a for a in parser._actions if a.option_strings and a.dest not in _NOT_SETTINGS}
    tokens, keys = [], {}
    for key, value in data.items():
        action = flags.get(key)
        if action is None:
            default = None if key in _NOT_SETTINGS else parser.get_default(key)
            if default is None:
                raise ConfigError(f"unknown config key: {key!r}")
            if type(value) is not type(default):
                raise ConfigError(f"config key {key!r} must be a JSON {type(default).__name__}")
            parser.set_defaults(**{key: value})
            continue
        flag = action.option_strings[0]
        keys[flag] = key
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key!r} is a switch: use true or false")
            if value:
                tokens.append(flag)
        elif value is None:
            if action.default is not None:
                raise ConfigError(f"config key {key!r} cannot be null")
        else:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            tokens.append(f"{flag}={value}")
    return tokens, keys


def _parse_with_config(parser, args, argv) -> argparse.Namespace:
    """Parse the config file's tokens ahead of the command line's flags."""
    (commands,) = (a for a in parser._actions if a.dest == "command")
    sub = commands.choices[args.command]
    tokens, keys = _config_tokens(sub, args.config)
    # the command line's flags parsed already, so any error is the file's
    sub.exit_on_error = False
    try:
        return sub.parse_args(tokens + argv[argv.index(args.command) + 1:])
    except argparse.ArgumentError as exc:
        key = keys.get(exc.argument_name, exc.argument_name)
        raise ConfigError(f"config key {key!r}: {exc.message}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _parse_with_config(parser, args, argv)
        _check_n(args)
        _check_out(args)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
