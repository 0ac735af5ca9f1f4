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

import atexit
import contextlib
import hashlib
import io
import json
import math
import os
import pickle
from collections import deque
from collections.abc import Callable
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, islice, repeat

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
    "usable_cpus",
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
    "Passes",
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
    gen_cap_multiplier: float | None = 500.0  # cap = mult * n; None or 0 disables
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
        mult = self.gen_cap_multiplier
        if mult is not None and not all(0 <= mult * n < math.inf for n in self.n_values):
            raise ValueError(f"gen_cap_multiplier * n must be finite and >= 0, got {mult}")
        if self.eval_cap is not None and self.eval_cap < 0:
            raise ValueError(f"eval_cap must be >= 0, got {self.eval_cap}")
        if not math.isfinite(self.lambda0):  # recorded in the config line even when static
            raise ValueError(f"lambda0 must be finite, got {self.lambda0}")
        if self.static_lambda is not None and self.algorithm != "static":
            raise ValueError(f"static_lambda needs algorithm 'static', got {self.algorithm!r}")

    def cell_specs(self) -> list[tuple[int, int, float, float]]:
        out = []
        idx = 0
        for n in self.n_values:
            for F, s in self.fs_values:
                out.append((idx, int(n), float(F), float(s)))
                idx += 1
        return out

    def stopping(self, n: int) -> StoppingCondition:
        mult = self.gen_cap_multiplier
        return StoppingCondition(
            max_generations=int(round(mult * n)) if mult else None,
            max_evaluations=self.eval_cap,
            stop_on_optimum=self.stop_on_optimum,
        )

    def kind_for(self, n: int) -> AlgorithmKind:
        if self.algorithm == "static":
            lam = default_static_lambda(n) if self.static_lambda is None else self.static_lambda
            return AlgorithmKind.static_comma(lam)
        return AlgorithmKind(self.algorithm)  # self-adjusting comma or plus

    def to_dict(self) -> dict:
        """The fields as a CSV's config metadata records them, fn_spec as "fn"."""
        data = asdict(self)
        data["fn"] = data.pop("fn_spec")
        return data


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


_POOL = None  # (owner pid, workers, executor) of the pool batches and writes reuse
_CHUNKS_PER_WORKER = 4  # chunks per worker that run_batch splits a batch into


def usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool(workers: int):
    """This process's pool of ``workers`` workers, created on first use.

    Batches (:func:`run_batch`) and the pooled CSV write (:func:`write_csv`)
    share it; in a pooled write a worker runs a whole pass of rows, such
    as one pass of an oracle check, with its verdict tally.  Later calls
    with the same worker count return the same pool, so its workers keep
    their level blocks and law rows warm from call to call.  Another worker
    count shuts the old pool down first.  A pool inherited through fork
    belongs to the parent process: it is neither used nor shut down, and a
    new one takes its place.  The executor module is imported here, so a
    process that never pools never loads ``multiprocessing``.

    Workers start by the platform's default method (fork on Linux) at the
    pool's first task, before the executor starts its manager thread, and
    run the program as it was then.  The old pool is shut down before a new
    one forks, so no fork happens beside a live manager thread.  At
    interpreter exit ``concurrent.futures`` joins the workers, and
    :func:`_drop_pool` shuts the pool down.
    """
    from concurrent.futures import ProcessPoolExecutor

    global _POOL
    pid = os.getpid()
    if _POOL is not None and _POOL[0] == pid:
        if _POOL[1] == workers:
            return _POOL[2]
        _POOL[2].shutdown()
    _POOL = (pid, workers, ProcessPoolExecutor(max_workers=workers))
    return _POOL[2]


def _drop_pool() -> None:
    """Shut this process's own pool down and forget it.  Also run at
    interpreter exit, so the executor is collected before the modules it
    uses are torn down."""
    global _POOL
    if _POOL is not None and _POOL[0] == os.getpid():
        _POOL[2].shutdown()
    _POOL = None


atexit.register(_drop_pool)


@contextlib.contextmanager
def _drop_pool_if_broken():
    """Run the block; if a pool worker dies in it, drop the pool and let the
    error propagate.  The next pooled call starts a new pool."""
    try:
        yield
    except BrokenExecutor:
        _drop_pool()
        raise


def run_batch(config: BatchConfig, workers: int | None = None, progress=None) -> BatchResult:
    """Execute all cells; deterministic for a fixed (config, master_seed).

    ``workers`` > 1 distributes runs over the process's pool (see
    :func:`_pool`), which later batches with the same worker count reuse;
    None means one worker per CPU this process may run on.  Results are
    identical to the sequential order because every run owns its seed.

    Runs go out largest first: sorted by (n, s) descending, ties in cell
    and run order.  A run's cost is its number of generations, which grows
    with n (evaluations grow as n log n, generation caps as 500 n) and at a
    fixed n with s (high-s cells run to their caps), so the longest runs
    start first and no worker is left finishing them alone.  The pool takes
    them in chunks of ceil(total runs / (4 * workers)) runs; the sequential
    branch runs the same order.  Each record is put back at its run's
    place, so the result does not depend on the order.

    ``progress(done, total)``, if given, is called as each record arrives,
    in dispatch order, not run order, with or without the pool.  If a
    worker dies, the pool is dropped and ``BrokenProcessPool`` propagates;
    the next pooled call starts a new pool.
    """
    if workers is None:
        workers = usable_cpus()
    tasks = []
    for cell_index, n, F, s in config.cell_specs():
        for run_index in range(config.runs):
            tasks.append((config, cell_index, n, F, s, run_index))
    order = sorted(range(len(tasks)), key=lambda k: (tasks[k][2], tasks[k][4]), reverse=True)
    ordered = [tasks[k] for k in order]
    records = [None] * len(tasks)
    with _drop_pool_if_broken():
        if workers > 1 and len(tasks) > 1:
            chunksize = math.ceil(len(tasks) / (_CHUNKS_PER_WORKER * workers))
            results = _pool(workers).map(_run_one, ordered, chunksize=chunksize)
        else:
            results = map(_run_one, ordered)
        for done, (k, rec) in enumerate(zip(order, results), 1):
            records[k] = rec
            if progress is not None:
                progress(done, len(tasks))
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


def bootstrap_mean_ci(values: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    """Seeded 99% percentile bootstrap CI for the mean, from 10 000
    resamples."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        v = float(values[0]) if values.size else float("nan")
        return v, v
    idx = rng.integers(0, values.size, size=(10_000, values.size))
    means = values[idx].mean(axis=1)
    alpha = (1.0 - 0.99) / 2.0
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
    """Raise ValueError for an empty target list or a raw target outside
    the level table [0, size); None (every target) passes."""
    if targets is not None and len(targets) == 0:
        raise ValueError("no targets: give 'all' or at least one fitness value")
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


def ratchet_monitor(cell: CellResult, r_values=(2.0, 5.0, 10.0, 20.0)) -> list[dict]:
    """The ratchet CSV rows of a cell of full-trace runs, one per r of
    ``r_values``.  Each row counts two kinds of trace anomalies:

    (a) fitness drops in generations whose offspring count was at least
        4*log2(n), out of all such (eligible) generations;
    (b) generations whose fitness sat more than r*log2(n) below the
        best-so-far fitness, and the runs with none.
    """
    for rec in cell.records:
        if rec.rows is None:
            raise ValueError("ratchet_monitor needs trace_level 'full'")
    log2n = math.log2(cell.n)
    eligible = drops = 0
    for rec in cell.records:
        fit = rec.rows["fitness_raw"]
        # generation t+1 uses row t's offspring count
        big = rec.rows["lambda_int"][:-1] >= 4.0 * log2n
        eligible += int(big.sum())
        drops += int((fit[1:][big] < fit[:-1][big]).sum())
    rows = []
    for r in map(float, r_values):
        gaps = [int((rec.rows["fitness_raw"] < rec.rows["best_raw"] - r * log2n).sum())
                for rec in cell.records]
        rows.append(
            {
                "n": cell.n, "s": cell.s, "runs": len(cell.records), "r": r,
                "gap_violations": sum(gaps), "runs_without_gap_violation": gaps.count(0),
                "eligible_generations": eligible, "fitness_drops_at_large_lambda": drops,
            }
        )
    return rows


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
    "ratchet": Figure(
        "ratchet_report.csv",
        lambda batch: [row for c in batch.cells for row in ratchet_monitor(c)],
        (1000,), (1.0,), trace_level="full",
    ),
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


_BLOCK_ROWS = 1024  # rows formatted per block: bounds the text held at once
_IN_FLIGHT = 6  # passes a pooled write has submitted and not yet written, at most


_SEQUENCES = (np.ndarray, list, tuple)  # the column kinds that are not one scalar
_BOOL_TEXT = np.array(["False", "True"], dtype=object)
# what a field's text may hold only if csv.writer would quote it or it was None
_QUOTED = (",", '"', "\r", "\n", "None")


def _size(columns) -> int:
    """The number of rows of ``columns``: the length of the shortest column
    that is an array, list or tuple; 0 if every column is a scalar."""
    return min((len(c) for c in columns if isinstance(c, _SEQUENCES)), default=0)


def _rows(columns) -> list:
    """The rows of ``columns`` as plain tuples of Python scalars: an array
    column by tolist(), a list or tuple as it is, and any other value, a
    scalar, repeated down the column."""
    size = _size(columns)
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray)
                      else c if isinstance(c, _SEQUENCES) else repeat(c, size)
                      for c in columns)))


def _column_text(column, size: int):
    """The ``size`` fields of one column as str() writes them for its
    :func:`_rows`, or None if one of them might need csv.writer: it holds
    a comma, quote, line break or "None".  A scalar takes one str(); a
    bool array True/False; an int or float array one str() per distinct
    value, a float keyed by its bits so that -0.0 and 0.0 stay apart; any
    other column, such as an array of names or a row block's column,
    str() on each entry."""
    if not isinstance(column, _SEQUENCES):
        text = _column_text([column], 1)
        return None if text is None else text * size
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "b":
            return _BOOL_TEXT.take(column.view(np.uint8)).tolist()
        if kind in "iuf":
            keys = column.view(f"i{column.itemsize}") if kind == "f" else column
            distinct, at = np.unique(keys, return_inverse=True)
            text = np.array(list(map(str, distinct.view(column.dtype).tolist())), dtype=object)
            return text.take(at).tolist()
        column = column.tolist()
    text = list(map(str, column))
    joined = "".join(text)
    return None if any(hazard in joined for hazard in _QUOTED) else text


def _text(block) -> str:
    """csv.writer's text for ``block``: a pass's columns, a tuple that
    :func:`_rows` reads, or a list of rows, plain tuples, which is
    transposed into its columns when every row holds the same number of
    fields, at least one.

    The fields are made a column at a time (:func:`_column_text`) and
    joined a row at a time.  csv.writer writes the block instead when its
    rows differ in length or are empty, a field might be None or need
    quoting, or the block is one column holding an empty field, which
    csv.writer quotes."""
    if isinstance(block, list):
        if len(set(map(len, block))) != 1 or not block[0]:
            return _writer_text(block)
        block = tuple(zip(*block))
    size = _size(block)
    texts = [_column_text(column, size) for column in block]
    if None in texts or (len(texts) == 1 and "" in texts[0]):
        return _writer_text(_rows(block))
    return "\r\n".join(map(",".join, zip(*texts))) + "\r\n" if size else ""


def _writer_text(rows) -> str:
    import csv

    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


class Passes:
    """Rows made a pass at a time, as :func:`write_csv` takes them.

    Each pass is a tuple (function, *args) of a module-level function, so
    that a pool worker can run it, that returns (columns, tally): the
    pass's columns, a tuple of arrays and scalars that :func:`_text`
    formats, and a small summary of them that ``take`` records.  Iterated,
    the object gives the rows, plain tuples of Python scalars
    (:func:`_rows`), each pass run in this process; :func:`write_csv`
    formats the columns (:meth:`columns`) or runs the passes in the pool.
    Either way every pass runs once, in order, and its tally is taken
    before its rows are read or its text is written."""

    def __init__(self, passes: list, take):
        self.count = len(passes)
        self.passes = iter(passes)  # shared: a pass taken by one reader is gone for all
        self.take = take
        self._rows = chain.from_iterable(map(_rows, self.columns()))

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._rows)

    def columns(self):
        """The columns of each pass left, run here."""
        for task in self.passes:
            columns, tally = _run_pass(task)
            self.take(tally)
            yield columns


def _run_pass(task):
    fn, *args = task
    return fn(*args)


def _given(block):
    """The pass of a block already made: it is its result, with no tally."""
    return block, None


def _pass_text(payload: bytes):
    """A pool worker's task: run the pickled pass (function, *args) and
    return its text (:func:`_text`) and its tally."""
    block, tally = _run_pass(pickle.loads(payload))
    return _text(block), tally


def _pooled_texts(passes, workers: int, take=None):
    """The texts of ``passes``, in order, each pass run as one task of the
    pool of ``workers`` workers; ``take``, if given, gets each pass's
    tally, in order, before its text is written.  Each pass is pickled here
    before it is submitted, so what is in flight is bytes, and at most
    ``_IN_FLIGHT`` passes are submitted and not yet written."""
    pool = _pool(workers)
    pending = deque()

    def written():
        text, tally = pending.popleft().result()
        if take is not None:
            take(tally)
        return text

    for payload in map(pickle.dumps, passes):
        if len(pending) == _IN_FLIGHT:
            yield written()
        pending.append(pool.submit(_pass_text, payload))
    while pending:
        yield written()


def write_csv(path, columns, rows, meta: dict, timestamp: bool = True,
              workers: int | None = None) -> None:
    """Write rows with '#' header comments carrying the effective config,
    its hash and the normalisation conventions.

    The rows of one call are all dicts (a missing key is an empty field)
    or all sequences in column order; the first row decides which.  The
    body is byte for byte what ``csv.writer``'s excel dialect writes:
    each field by str() (a float by its repr), None as an empty field,
    quotes only around a field that holds a comma, quote or line break
    and around a row's lone empty field, and '\\r\\n' after each row.

    Rows are turned into plain tuples (a dict through ``columns``, any
    other row by tuple()) and formatted in blocks of ``_BLOCK_ROWS``, so
    the file's text is never held whole; rows given as :class:`Passes`
    are formatted a pass at a time, from the pass's columns.  Either kind
    of block goes to the one formatter, :func:`_text`, which makes the
    text a column at a time and leaves a block that needs quoting or holds
    a None to csv.writer.  When there
    is more than one block or pass and ``workers`` is more than 1, each is
    one task of the process's pool (:func:`_pool`, shared with
    :func:`run_batch`): a block is pulled from ``rows`` and pickled here,
    while a pass is run by the worker, which also tallies it.  This
    process takes the tallies and writes the texts in order, at most
    ``_IN_FLIGHT`` tasks ahead of the file.  Otherwise all of it runs
    here.  ``workers`` None means one per CPU this process may run on.
    If a worker dies, the pool is dropped and ``BrokenProcessPool``
    propagates.
    """
    import csv
    import datetime
    import pathlib

    if workers is None:
        workers = usable_cpus()
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {json.dumps(meta, sort_keys=True, default=str)}\n")
        fh.write(f"# config_hash: {config_digest(meta)}\n")
        fh.write("# note: log-normalisations use log base 2\n")
        if timestamp:
            fh.write(f"# generated_at: {datetime.datetime.now().isoformat()}\n")
        csv.writer(fh).writerow(columns)
        if isinstance(rows, Passes):
            pooled = workers > 1 and rows.count > 1
            blocks, tasks, take = rows.columns(), rows.passes, rows.take
        else:
            rows = iter(rows)
            head = list(islice(rows, _BLOCK_ROWS + 1))  # the first block and one row more, if any
            if not head:
                return
            if isinstance(head[0], dict):
                def plain(row):
                    return tuple(map(row.get, columns))
            else:
                plain = tuple
            pooled = workers > 1 and len(head) > _BLOCK_ROWS
            rows = chain(iter(head), rows)  # an iterator, so head is freed once it is read
            del head
            blocks = iter(lambda: list(map(plain, islice(rows, _BLOCK_ROWS))), [])
            tasks, take = ((_given, block) for block in blocks), None
        with _drop_pool_if_broken():
            fh.writelines(_pooled_texts(tasks, workers, take) if pooled else map(_text, blocks))
