"""The four benchmark workloads.

Each workload turns (seed, repetition) into inputs, runs them through the
program's public entry points (``experiments.run_batch`` and friends,
``ea.run``, ``cli.main``), and checks the outputs afterwards.  Only
``execute`` is timed.  Every workload has a "full" size, which the
benchmark measures, and a "tiny" size, which the self-test and the
traced run's layer probes use.

An operation is one run (simulation workloads) or one CLI invocation
(``oracle-cli``).  ``check`` returns how many operations of a repetition
failed their output check, with a message for each failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from onelambda import cli, ea, oracle
from onelambda import experiments as xp
from onelambda.fitness import FitnessFunction

F = 1.5
RUNTIME_CV = 0.32  # largest CV of evaluations / (n log2 n) over C7's cells
NPROC = len(os.sched_getaffinity(0))


def sub_seed(tag: int, seed: int, rep: int) -> int:
    """Master seed of repetition ``rep`` of a workload run with ``seed``."""
    return int(np.random.SeedSequence((tag, seed, rep)).generate_state(1)[0])


def clear_oracle_caches() -> None:
    """Empty every memo table of the oracle, as a fresh CLI process has it."""
    for obj in vars(oracle).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


@dataclass
class Outcome:
    """What one repetition produced: raw results plus the work it did."""

    results: object
    work: float  # evaluations, or oracle states for oracle-cli
    csv_files: list = field(default_factory=list)


class Stagnation:
    """comma on onemax n=100 at s=20 (held at lambda~1 until the evaluation
    cap) plus a small s=1 cell; trace level "levels", sequential, ending in
    the evaluation-share histogram (C9 / the fig6 preset)."""

    name = "stagnation"
    tag = 1
    uses_pool = False

    def __init__(self, size: str):
        tiny = size == "tiny"
        self.n = 100
        self.runs = 1 if tiny else 2
        self.eval_cap = 30_000 if tiny else 150_000
        self.n_values = (self.n,)

    def inputs(self, seed: int, rep: int):
        return xp.BatchConfig(
            algorithm="comma", fn_spec="onemax", n_values=(self.n,),
            fs_values=((F, 20.0), (F, 1.0)), runs=self.runs,
            master_seed=sub_seed(self.tag, seed, rep), gen_cap_multiplier=None,
            eval_cap=self.eval_cap, trace_level="levels",
        )

    def operations(self, config) -> int:
        return 2 * config.runs

    def execute(self, config, out_dir, workers=None) -> Outcome:
        batch = xp.run_batch(config, workers=1)
        hist = {cell.s: xp.evals_per_fitness_histogram(cell) for cell in batch.cells}
        rows = [row for cell_rows in hist.values() for row in cell_rows]
        path = out_dir / "fig6_eval_histogram.csv"
        xp.write_csv(path, list(rows[0].keys()), rows, meta=config.to_dict(), timestamp=False)
        work = sum(r.evaluations for c in batch.cells for r in c.records)
        return Outcome((batch, hist), work, [path])

    def check(self, config, outcome):
        batch, hist = outcome.results
        failed, notes = 0, []
        stuck = batch.cell(self.n, s=20.0).records
        for r in stuck:
            if r.stop_cause != ea.StopCause.EVALUATION_CAP:
                failed += 1
                notes.append(f"s=20 run stopped by {r.stop_cause.value}")
        mode = max(hist[20.0], key=lambda row: row["share_pct"])["fitness"]
        if not 40 <= mode <= 60:
            failed = len(stuck)
            notes.append(f"s=20 evaluation-share mode {mode} outside 40..60")
        for r in batch.cell(self.n, s=1.0).records:
            if r.stop_cause != ea.StopCause.OPTIMUM:
                failed += 1
                notes.append(f"s=1 run stopped by {r.stop_cause.value}")
        return failed, notes


class FigureBatch:
    """comma, plus and static on onemax over four n, many short seeded runs
    over the process pool, then the runtime box statistics and their CSV
    (C7 / the fig2 preset at a smaller run count)."""

    name = "figure-batch"
    tag = 2
    uses_pool = True
    algorithms = ("comma", "plus", "static")

    def __init__(self, size: str):
        tiny = size == "tiny"
        self.n_values = (100, 200) if tiny else (100, 200, 500, 1000)
        self.runs = 3 if tiny else 10

    def inputs(self, seed: int, rep: int):
        return [
            xp.BatchConfig(
                algorithm=algo, fn_spec="onemax", n_values=self.n_values,
                fs_values=((F, 1.0),), runs=self.runs,
                master_seed=sub_seed(self.tag * 10 + j, seed, rep), gen_cap_multiplier=500.0,
            )
            for j, algo in enumerate(self.algorithms)
        ]

    def operations(self, configs) -> int:
        return sum(c.runs * len(c.n_values) for c in configs)

    def execute(self, configs, out_dir, workers=None) -> Outcome:
        workers = workers or NPROC
        batches, stats = {}, {}
        for config in configs:
            batch = xp.run_batch(config, workers=workers)
            batches[config.algorithm] = batch
            stats[config.algorithm] = [xp.normalized_runtime_stats(c) for c in batch.cells]
        rows = [row for algo_rows in stats.values() for row in algo_rows]
        path = out_dir / "fig2_boxstats.csv"
        meta = {"ns": self.n_values, "runs": self.runs, "seeds": [c.master_seed for c in configs]}
        xp.write_csv(path, list(rows[0].keys()), rows, meta=meta, timestamp=False)
        work = sum(r.evaluations for b in batches.values() for c in b.cells for r in c.records)
        return Outcome((batches, stats), work, [path])

    def check(self, configs, outcome):
        """Every comma run reaches the optimum, and C7's median ratios hold.

        C7 uses 200 runs per cell, a repetition here R.  The log of a ratio
        of two medians of R runs has a standard deviation of about
        sqrt(2) * 1.25 * CV / sqrt(R); the runtime CV is at most 0.32 over
        C7's cells (200 runs each).  So each of C7's bounds is widened by
        the factor exp(5 sd), 2.45 at R=10.  Resampling 200-run cells put
        every ratio's 1-in-10^5 quantile inside these bands.  A failed
        ratio fails every run of the repetition.
        """
        batches, stats = outcome.results
        failed, notes = 0, []
        for cell in batches["comma"].cells:
            for r in cell.records:
                if r.stop_cause != ea.StopCause.OPTIMUM:
                    failed += 1
                    notes.append(f"comma n={cell.n} stopped by {r.stop_cause.value}")
        med = {algo: {row["n"]: row["median"] for row in rows} for algo, rows in stats.items()}
        slack = math.exp(5 * math.sqrt(2) * 1.25 * RUNTIME_CV / math.sqrt(self.runs))
        lo, hi = self.n_values[0], self.n_values[-1]
        bad = []
        if med["comma"][lo] is None or med["comma"][hi] is None:
            bad.append("comma medians missing")
        elif not 0.5 / slack <= med["comma"][hi] / med["comma"][lo] <= 2.0 * slack:
            bad.append(f"comma scaling ratio n={hi}/n={lo} outside {0.5 / slack:.3f}..{2 * slack:.3f}")
        for n in self.n_values:
            cm, pl, st = med["comma"][n], med["plus"][n], med["static"][n]
            if None in (cm, pl, st):
                bad.append(f"n={n}: a median is missing")
                continue
            if not 1.0 / slack < cm / st <= 3.0 * slack:
                bad.append(f"n={n}: comma/static {cm / st:.3f} outside ({1 / slack:.3f}, {3 * slack:.3f}]")
            if max(cm, pl) / min(cm, pl) > 1.25 * slack:
                bad.append(f"n={n}: comma/plus spread {max(cm, pl) / min(cm, pl):.3f} > {1.25 * slack:.3f}")
        if bad:
            failed = self.operations(configs)
            notes.extend(bad)
        return failed, notes


@dataclass
class LargeLambdaRun:
    fn_spec: str
    n: int
    stop: ea.StoppingCondition
    allowed: frozenset
    seed: np.random.SeedSequence


class LargeLambda:
    """comma where lambda grows geometrically within a few generations,
    every run bounded by a lambda-abort threshold (so no generation asks
    for much more than 1e5 offspring) and an evaluation cap: jump:3 stuck
    at its gap; cliff held at its optimum with stop_on_optimum off (the
    drop sits at d < n/2, so a random start is already past it, and at the
    optimum no offspring improves); and ridge, which needs the genotype
    engine."""

    name = "large-lambda"
    tag = 3
    uses_pool = False

    def __init__(self, size: str):
        tiny = size == "tiny"
        n = 30 if tiny else 100
        abort = 2_000.0 if tiny else 50_000.0
        cap = 20 * int(abort)  # backstop; the abort threshold binds first
        self.n_values = (n,)
        self.plan = [
            ("jump:3", n, ea.StoppingCondition(max_evaluations=cap, lambda_abort_threshold=abort),
             frozenset({"optimum", "lambda_abort"})),
            (f"cliff:{n // 3}", n, ea.StoppingCondition(
                max_evaluations=cap, lambda_abort_threshold=abort, stop_on_optimum=False),
             frozenset({"lambda_abort"})),
            ("ridge", n, ea.StoppingCondition(
                max_evaluations=3_000 if tiny else 25_000, lambda_abort_threshold=abort),
             frozenset({"optimum", "evaluation_cap"})),
        ]
        self.copies = 1 if tiny else 2

    def inputs(self, seed: int, rep: int):
        root = np.random.SeedSequence((self.tag, seed, rep))
        seeds = root.spawn(len(self.plan) * self.copies)
        return [
            LargeLambdaRun(spec, n, stop, allowed, seeds[k * len(self.plan) + j])
            for k in range(self.copies)
            for j, (spec, n, stop, allowed) in enumerate(self.plan)
        ]

    def operations(self, runs) -> int:
        return len(runs)

    def execute(self, runs, out_dir, workers=None) -> Outcome:
        kind = ea.AlgorithmKind.self_adjusting_comma()
        params = ea.ControllerParams(F=F, s=1.0)
        records = [
            ea.run(kind, FitnessFunction.parse(r.fn_spec, r.n), params, r.stop, r.seed)
            for r in runs
        ]
        columns = ["fn", "n", "stop_cause", "generations", "evaluations", "final_lambda", "best_fitness"]
        rows = [
            [rec.fn_spec, rec.n, rec.stop_cause.value, rec.generations, rec.evaluations,
             rec.final_lambda, rec.best_fitness]
            for rec in records
        ]
        path = out_dir / "large_lambda_runs.csv"
        meta = {"plan": [[spec, n, stop.max_evaluations, stop.lambda_abort_threshold, stop.stop_on_optimum]
                         for spec, n, stop, _ in self.plan]}
        xp.write_csv(path, columns, rows, meta=meta, timestamp=False)
        return Outcome(records, sum(rec.evaluations for rec in records), [path])

    def check(self, runs, outcome):
        failed, notes = 0, []
        for r, rec in zip(runs, outcome.results):
            if rec.stop_cause.value not in r.allowed:
                failed += 1
                notes.append(f"{r.fn_spec} stopped by {rec.stop_cause.value}")
        return failed, notes


# pinned outputs of each invocation: (states, checks, extreme drift)
_PINNED = {
    "full": {
        "g1": (26_800, None, 0.29832078840008125),
        "g2": (109, None, None),
        "bounds": (4_800, 50_803, None),
    },
    "tiny": {
        "g1": (4_020, None, 0.29910796346054525),
        "g2": (109, None, None),
        "bounds": (200, 2_020, None),
    },
}


class OracleCli:
    """drift-check g1 (n=400, s=0.5) and g2 (n=1000, s=18) plus bounds-check
    at n=200 with lambda=1..24, each through cli.main with cold oracle
    caches.

    The sizes keep one repetition near two seconds, so a run holds enough
    repetitions for a steady median: at the CLI's g1 default (n=1000) and
    bounds-check at n=500 with lambda=1..64, one repetition took 10 to 15
    seconds.
    """

    name = "oracle-cli"
    tag = 4
    uses_pool = False

    def __init__(self, size: str):
        self.size = size
        tiny = size == "tiny"
        g1_n = 60 if tiny else 400
        bounds_n, lambdas = (40, "1,2,3,5,8") if tiny else (200, ",".join(map(str, range(1, 25))))
        self.n_values = (g1_n, bounds_n)
        self.commands = {
            "g1": ["drift-check", "--potential", "g1", "--n", str(g1_n), "--F", "1.5", "--s", "0.5"],
            "g2": ["drift-check", "--potential", "g2", "--n", "1000", "--F", "1.5", "--s", "18"],
            "bounds": ["bounds-check", "--n", str(bounds_n), "--lambdas", lambdas],
        }

    def inputs(self, seed: int, rep: int):
        order = list(self.commands)
        np.random.default_rng(sub_seed(self.tag, seed, rep)).shuffle(order)
        return order

    def operations(self, order) -> int:
        return len(order)

    def invoke(self, key, out_dir, cold=True):
        """One CLI invocation; cold, as a fresh process pays it, by default."""
        if cold:
            clear_oracle_caches()
        path = out_dir / f"{key}.csv"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.commands[key] + ["--out", str(path), "--no-timestamp"])
        return code, buf.getvalue(), path

    def execute(self, order, out_dir, workers=None) -> Outcome:
        results = {key: self.invoke(key, out_dir) for key in order}
        work = 0
        for code, stdout, _ in results.values():
            if code == 0:
                work += json.loads(stdout.strip().splitlines()[-1])["states"]
        return Outcome(results, work, [results[k][2] for k in self.commands])

    def warm_over_cold(self, order, out_dir) -> float:
        """Each invocation once cold and once right after with warm caches:
        total warm time over total cold time."""
        cold = warm = 0.0
        for key in order:
            t0 = time.perf_counter()
            self.invoke(key, out_dir)
            t1 = time.perf_counter()
            self.invoke(key, out_dir, cold=False)
            cold += t1 - t0
            warm += time.perf_counter() - t1
        return warm / cold

    def check(self, order, outcome):
        failed, notes = 0, []
        for key, (code, stdout, _) in outcome.results.items():
            states, checks, extreme = _PINNED[self.size][key]
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            else:
                out = json.loads(stdout.strip().splitlines()[-1])
                if out["states"] != states:
                    problems.append(f"states {out['states']} != {states}")
                if out["violations"] != 0:
                    problems.append(f"{out['violations']} violations")
                if checks is not None and out["checks"] != checks:
                    problems.append(f"checks {out['checks']} != {checks}")
                if extreme is not None and not math.isclose(out["extreme_drift"], extreme, rel_tol=1e-9):
                    problems.append(f"extreme drift {out['extreme_drift']!r} != {extreme!r}")
            if problems:
                failed += 1
                notes.append(f"{key}: " + "; ".join(problems))
        return failed, notes


WORKLOADS = {w.name: w for w in (Stagnation, FigureBatch, LargeLambda, OracleCli)}
