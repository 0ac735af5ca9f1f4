"""Seeded batch execution and the aggregations behind the study figures.

A batch is a grid of cells (algorithm, function, n, F, s); each cell runs
a fixed number of independent seeded runs.  Run (cell_index, run_index)
draws its generator from SeedSequence(master_seed, spawn_key=(cell_index,
run_index)), so results are reproducible and independent of worker
scheduling.  Censored runs (any stop cause other than the optimum) are
kept and flagged, never dropped silently.

Normalisation conventions: "log n" is log base 2 everywhere (runtime
normalisers n*log2(n), the 4*log2(n) lambda threshold and the r*log2(n)
best-so-far gap in the ratchet monitors).  Sweep generation counts are
normalised by n, matching the 500n generation cap.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .ea import (
    AlgorithmKind,
    ControllerParams,
    RunRecord,
    StopCause,
    StoppingCondition,
    default_static_lambda,
    run,
)
from .fitness import FitnessFunction

__all__ = [
    "BatchConfig",
    "CellResult",
    "BatchResult",
    "child_seed",
    "run_batch",
    "normalized_runtime_stats",
    "sweep_table",
    "check_targets",
    "fixed_target_table",
    "lambda_per_fitness",
    "evals_per_fitness_histogram",
    "ratchet_monitor",
    "bootstrap_mean_ci",
    "Figure",
    "FIGURES",
    "run_figure",
    "write_csv",
]


def child_seed(master_seed: int, cell_index: int, run_index: int) -> np.random.SeedSequence:
    """Deterministic per-run seed: SeedSequence spawn-key mixing of
    (master_seed, cell_index, run_index)."""
    return np.random.SeedSequence(master_seed, spawn_key=(cell_index, run_index))


@dataclass(frozen=True)
class BatchConfig:
    """A grid of cells sharing one master seed.

    ``algorithm`` is "comma", "plus" (self-adjusting) or "static"
    (fixed-lambda comma selection; ``static_lambda`` None uses the
    per-n baseline ceil(log_{e/(e-1)} n)).  Cells are the cross product
    of ``n_values`` and ``fs_values`` (pairs (F, s)); every cell runs
    ``runs`` independent runs.
    """

    algorithm: str
    fn_spec: str
    n_values: tuple
    fs_values: tuple  # ((F, s), ...)
    runs: int
    master_seed: int
    gen_cap_multiplier: float | None = 500.0  # cap = mult * n; None disables
    eval_cap: int | None = None
    stop_on_optimum: bool = True
    trace_level: str = "summary"
    lambda0: float = 1.0
    static_lambda: int | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ("comma", "plus", "static"):
            raise ValueError(f"algorithm must be comma|plus|static, got {self.algorithm!r}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not self.n_values or not self.fs_values:
            raise ValueError("n_values and fs_values must be non-empty")

    def cell_specs(self) -> list[tuple[int, int, float, float]]:
        out = []
        idx = 0
        for n in self.n_values:
            for F, s in self.fs_values:
                out.append((idx, int(n), float(F), float(s)))
                idx += 1
        return out

    def stopping(self, n: int) -> StoppingCondition:
        gen_cap = None
        if self.gen_cap_multiplier is not None and self.gen_cap_multiplier > 0:
            gen_cap = int(round(self.gen_cap_multiplier * n))
        return StoppingCondition(
            max_generations=gen_cap,
            max_evaluations=self.eval_cap,
            stop_on_optimum=self.stop_on_optimum,
        )

    def kind_for(self, n: int) -> AlgorithmKind:
        if self.algorithm == "static":
            lam = self.static_lambda if self.static_lambda else default_static_lambda(n)
            return AlgorithmKind.static_comma(lam)
        if self.algorithm == "plus":
            return AlgorithmKind.self_adjusting_plus()
        return AlgorithmKind.self_adjusting_comma()

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "static_lambda": self.static_lambda,
            "fn": self.fn_spec,
            "n_values": list(self.n_values),
            "fs_values": [list(p) for p in self.fs_values],
            "runs": self.runs,
            "master_seed": self.master_seed,
            "gen_cap_multiplier": self.gen_cap_multiplier,
            "eval_cap": self.eval_cap,
            "stop_on_optimum": self.stop_on_optimum,
            "trace_level": self.trace_level,
            "lambda0": self.lambda0,
        }


@dataclass
class CellResult:
    cell_index: int
    n: int
    F: float
    s: float
    algorithm: str
    fn_spec: str
    records: list[RunRecord] = field(default_factory=list)


@dataclass
class BatchResult:
    config: BatchConfig
    cells: list[CellResult]

    def cell(self, n: int, F: float | None = None, s: float | None = None) -> CellResult:
        for c in self.cells:
            if c.n == n and (F is None or c.F == F) and (s is None or c.s == s):
                return c
        raise KeyError(f"no cell with n={n}, F={F}, s={s}")


def _run_one(args) -> RunRecord:
    (config, cell_index, n, F, s, run_index) = args
    kind = config.kind_for(n)
    fn = FitnessFunction.parse(config.fn_spec, n)
    params = ControllerParams(F=F, s=s)
    seed = child_seed(config.master_seed, cell_index, run_index)
    return run(
        kind,
        fn,
        params,
        config.stopping(n),
        seed,
        trace_level=config.trace_level,
        lambda0=config.lambda0,
    )


def run_batch(config: BatchConfig, workers: int | None = None, progress=None) -> BatchResult:
    """Execute all cells; deterministic for a fixed (config, master_seed).

    ``workers`` > 1 distributes runs over a process pool; results are
    identical to the sequential order because every run owns its seed.
    ``progress(done, total)``, if given, is called as each run's record
    arrives, in run order, with or without the pool.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    tasks = []
    for cell_index, n, F, s in config.cell_specs():
        for run_index in range(config.runs):
            tasks.append((config, cell_index, n, F, s, run_index))
    parallel = workers > 1 and len(tasks) > 1
    records = []
    with (ProcessPoolExecutor(max_workers=workers) if parallel
          else contextlib.nullcontext()) as pool:
        if parallel:
            results = pool.map(_run_one, tasks, chunksize=max(1, len(tasks) // (8 * workers)))
        else:
            results = map(_run_one, tasks)
        for rec in results:
            records.append(rec)
            if progress is not None:
                progress(len(records), len(tasks))
    cells = []
    per_cell = config.runs
    for j, (cell_index, n, F, s) in enumerate(config.cell_specs()):
        kind = config.kind_for(n)
        cells.append(
            CellResult(
                cell_index=cell_index,
                n=n,
                F=F,
                s=s,
                algorithm=kind.label,
                fn_spec=config.fn_spec,
                records=records[j * per_cell : (j + 1) * per_cell],
            )
        )
    return BatchResult(config=config, cells=cells)


# ---------------------------------------------------------------------------
# aggregations
# ---------------------------------------------------------------------------


def normalized_runtime_stats(cell: CellResult) -> dict:
    """Five-number summary plus mean of evaluations / (n log2 n) over the
    runs that found the optimum; censored runs are counted, not included."""
    n = cell.n
    norm = n * math.log2(n)
    vals = np.array(
        [r.evaluations / norm for r in cell.records if r.stop_cause == StopCause.OPTIMUM]
    )
    out = {
        "algorithm": cell.algorithm,
        "n": n,
        "runs": len(cell.records),
        "censored": len(cell.records) - vals.size,
    }
    if vals.size:
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        out.update(
            min=float(vals.min()),
            q1=float(q1),
            median=float(med),
            q3=float(q3),
            max=float(vals.max()),
            mean=float(vals.mean()),
        )
    else:
        out.update(min=None, q1=None, median=None, q3=None, max=None, mean=None)
    return out


def bootstrap_mean_ci(
    values: np.ndarray,
    rng: np.random.Generator,
    level: float = 0.99,
    resamples: int = 10_000,
) -> tuple[float, float]:
    """Seeded percentile bootstrap CI for the mean."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        v = float(values[0]) if values.size else float("nan")
        return v, v
    idx = rng.integers(0, values.size, size=(resamples, values.size))
    means = values[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.percentile(means, [100 * alpha, 100 * (1 - alpha)])
    return float(lo), float(hi)


def sweep_table(batch: BatchResult) -> list[dict]:
    """Mean capped generations / n per cell with a 99% bootstrap CI.

    Capped runs contribute the cell's generation cap to the mean; without
    a cap, generations count in full.  The bootstrap generator is seeded
    from the batch's master seed.
    """
    seed = np.random.SeedSequence(batch.config.master_seed, spawn_key=(0xB007,))
    boot_rng = np.random.default_rng(seed)
    rows = []
    for cell in batch.cells:
        cap = batch.config.stopping(cell.n).max_generations
        vals = np.array([(r.generations if cap is None else min(r.generations, cap)) / cell.n
                         for r in cell.records])
        lo, hi = bootstrap_mean_ci(vals, boot_rng)
        rows.append(
            {
                "n": cell.n,
                "s": cell.s,
                "F": cell.F,
                "runs": len(cell.records),
                "reached_optimum": sum(
                    r.stop_cause == StopCause.OPTIMUM for r in cell.records
                ),
                "capped": sum(r.stop_cause != StopCause.OPTIMUM for r in cell.records),
                "mean_generations_over_n": float(vals.mean()),
                "ci_low": lo,
                "ci_high": hi,
            }
        )
    return rows


def _require_levels(records: list[RunRecord]) -> None:
    for r in records:
        if r.first_hit_evals is None:
            raise ValueError("this aggregation needs runs with trace_level 'levels' or 'full'")


def check_targets(targets, size: int) -> None:
    """Raise ValueError for a raw target outside the level table [0, size);
    None (every target) passes."""
    for raw in targets or ():
        if not 0 <= raw < size:
            raise ValueError(f"target {raw} is outside the level table [0, {size})")


def fixed_target_table(cell: CellResult, targets=None) -> list[dict]:
    """Mean evaluations to first reach each target fitness.

    Targets never reached by any run are emitted with mean None.  The
    first-hit count is taken at generation granularity (the evaluations
    counter after the hitting generation completes).  A target outside the
    level table's raw range [0, size) is a ValueError.
    """
    _require_levels(cell.records)
    fn = FitnessFunction.parse(cell.fn_spec, cell.n)
    size = cell.records[0].first_hit_evals.size
    if targets is None:
        targets = range(size)
    check_targets(targets, size)
    rows = []
    for raw in targets:
        hits = np.array(
            [r.first_hit_evals[raw] for r in cell.records if r.first_hit_evals[raw] >= 0],
            dtype=np.float64,
        )
        rows.append(
            {
                "n": cell.n,
                "s": cell.s,
                "target": fn.display(int(raw)),
                "runs_reached": int(hits.size),
                "mean_evaluations": float(hits.mean()) if hits.size else None,
            }
        )
    return rows


def lambda_per_fitness(cell: CellResult) -> list[dict]:
    """Mean offspring count used while the current fitness sat at each
    value; fitness values never visited are omitted."""
    _require_levels(cell.records)
    fn = FitnessFunction.parse(cell.fn_spec, cell.n)
    gens = np.sum([r.gens_at for r in cell.records], axis=0)
    lam = np.sum([r.lambda_sum_at for r in cell.records], axis=0)
    rows = []
    for raw in np.nonzero(gens)[0]:
        rows.append(
            {
                "n": cell.n,
                "s": cell.s,
                "fitness": fn.display(int(raw)),
                "mean_lambda": float(lam[raw] / gens[raw]),
                "generations": int(gens[raw]),
            }
        )
    return rows


def evals_per_fitness_histogram(cell: CellResult) -> list[dict]:
    """Percentage of all evaluations spent while sitting at each fitness."""
    _require_levels(cell.records)
    fn = FitnessFunction.parse(cell.fn_spec, cell.n)
    evals = np.sum([r.lambda_sum_at for r in cell.records], axis=0, dtype=np.float64)
    total = evals.sum()
    rows = []
    for raw in np.nonzero(evals)[0]:
        rows.append(
            {
                "n": cell.n,
                "s": cell.s,
                "fitness": fn.display(int(raw)),
                "evaluations": int(evals[raw]),
                "share_pct": float(100.0 * evals[raw] / total),
            }
        )
    return rows


def ratchet_monitor(cell: CellResult, r_values=(10.0,)) -> dict:
    """Count two kinds of trace anomalies over full-trace runs.

    (a) fitness drops in generations whose offspring count was at least
        4*log2(n);
    (b) per r in r_values, generations whose fitness sat more than
        r*log2(n) below the best-so-far fitness.
    """
    for rec in cell.records:
        if rec.rows is None:
            raise ValueError("ratchet_monitor needs trace_level 'full'")
    n = cell.n
    log2n = math.log2(n)
    lam_threshold = 4.0 * log2n
    eligible = 0
    drops = 0
    gap_rows = {float(r): 0 for r in r_values}
    gap_runs_clean = {float(r): 0 for r in r_values}
    total_generations = 0
    for rec in cell.records:
        fit = rec.rows["fitness_raw"]
        lam_int = rec.rows["lambda_int"]
        best = rec.rows["best_raw"]
        total_generations += fit.size - 1
        # generation t+1 uses row t's offspring count
        big = lam_int[:-1] >= lam_threshold
        eligible += int(big.sum())
        drops += int((fit[1:][big] < fit[:-1][big]).sum())
        for r in gap_rows:
            bad = int((fit < best - r * log2n).sum())
            gap_rows[r] += bad
            gap_runs_clean[r] += int(bad == 0)
    return {
        "n": n,
        "s": cell.s,
        "runs": len(cell.records),
        "total_generations": total_generations,
        "eligible_generations": eligible,
        "fitness_drops_at_large_lambda": drops,
        "drop_fraction": (drops / eligible) if eligible else 0.0,
        "gap_violations": gap_rows,
        "runs_without_gap_violation": gap_runs_clean,
    }


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """One figure preset: the batches behind one CSV file.

    Algorithm j of ``algorithms`` runs one batch on onemax at F = 1.5 under
    master seed ``seed + j``, over the cells ``n_values`` x ``s_values``
    with ``runs`` runs each; ``full`` replaces fields at full scale.
    ``aggregate(batch)`` turns each batch into CSV rows.
    """

    csv: str
    aggregate: Callable[[BatchResult], list]
    n_values: tuple
    s_values: tuple
    runs: int = 100
    full: dict = field(default_factory=dict)
    algorithms: tuple = ("comma",)
    gen_cap_multiplier: float | None = 500.0
    eval_cap: int | None = None
    trace_level: str = "summary"


def _ratchet_rows(batch: BatchResult) -> list[dict]:
    rows = []
    for cell in batch.cells:
        mon = ratchet_monitor(cell, r_values=(2.0, 5.0, 10.0, 20.0))
        for r, bad in mon["gap_violations"].items():
            rows.append(
                {
                    "n": mon["n"], "s": mon["s"], "runs": mon["runs"], "r": r,
                    "gap_violations": bad,
                    "runs_without_gap_violation": mon["runs_without_gap_violation"][r],
                    "eligible_generations": mon["eligible_generations"],
                    "fitness_drops_at_large_lambda": mon["fitness_drops_at_large_lambda"],
                }
            )
    return rows


FIGURES = {
    "fig2": Figure(
        "fig2_boxstats.csv", lambda batch: [normalized_runtime_stats(c) for c in batch.cells],
        (100, 200, 500, 1000), (1.0,), 200, full=dict(runs=1000),
        algorithms=("comma", "plus", "static"),
    ),
    "fig3": Figure(
        "fig3_sweep.csv", sweep_table, (100,), (0.5, 1, 2, 5, 10, 20),
        full=dict(n_values=(100, 200, 500, 1000),
                  s_values=(0.5, 1, 1.5, 2, 2.5, 3, 3.4, 4, 5, 10, 15, 20)),
    ),
    "fig4": Figure(
        "fig4_fixed_target.csv",
        lambda batch: [row for c in batch.cells for row in fixed_target_table(c)],
        (1000,), (1.0, 3.4), full=dict(s_values=(0.5, 1, 2, 3, 3.4, 4, 5)), trace_level="levels",
    ),
    "fig6": Figure(
        "fig6_eval_histogram.csv",
        lambda batch: [row for c in batch.cells for row in evals_per_fitness_histogram(c)],
        (100,), (20.0, 1.0), full=dict(s_values=(1, 2, 3, 3.4, 4, 5, 20)),
        gen_cap_multiplier=None, eval_cap=1_500_000, trace_level="levels",
    ),
    "ratchet": Figure("ratchet_report.csv", _ratchet_rows, (1000,), (1.0,), trace_level="full"),
}
# fig5 runs fig4's batches and aggregates the offspring count per fitness
FIGURES["fig5"] = replace(
    FIGURES["fig4"], csv="fig5_lambda_levels.csv",
    aggregate=lambda batch: [row for c in batch.cells for row in lambda_per_fitness(c)],
)


def run_figure(
    name: str, seed: int, full_scale: bool = False, workers: int | None = None, progress=None
) -> tuple[list[dict], dict]:
    """Run the batches of figure preset ``name`` and aggregate them.

    Returns the CSV rows and the CSV metadata, which holds every batch's
    configuration.  ``workers`` and ``progress`` go to :func:`run_batch`.
    """
    if name not in FIGURES:
        raise ValueError(f"unknown preset {name!r} (use {', '.join(sorted(FIGURES))})")
    fig = FIGURES[name]
    if full_scale:
        fig = replace(fig, **fig.full)
    rows, configs = [], []
    for j, algorithm in enumerate(fig.algorithms):
        config = BatchConfig(
            algorithm=algorithm, fn_spec="onemax", n_values=fig.n_values,
            fs_values=tuple((1.5, s) for s in fig.s_values), runs=fig.runs, master_seed=seed + j,
            gen_cap_multiplier=fig.gen_cap_multiplier, eval_cap=fig.eval_cap,
            trace_level=fig.trace_level,
        )
        rows.extend(fig.aggregate(run_batch(config, workers=workers, progress=progress)))
        configs.append(config.to_dict())
    return rows, {"preset": name, "seed": seed, "full_scale": full_scale, "batches": configs}


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def config_digest(meta: dict) -> str:
    return hashlib.sha256(json.dumps(meta, sort_keys=True, default=str).encode()).hexdigest()[:16]


def write_csv(path, columns, rows, meta: dict, timestamp: bool = True) -> None:
    """Write rows (dicts or sequences) with '#' header comments carrying
    the effective config, its hash and the normalisation conventions."""
    import csv
    import datetime
    import pathlib

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {json.dumps(meta, sort_keys=True, default=str)}\n")
        fh.write(f"# config_hash: {config_digest(meta)}\n")
        fh.write("# note: log-normalisations use log base 2\n")
        if timestamp:
            fh.write(f"# generated_at: {datetime.datetime.now().isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            if isinstance(row, dict):
                writer.writerow([_fmt(row.get(c)) for c in columns])
            else:
                writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v
