"""Benchmark of the onelambda lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` next
to this directory; without it the benchmark exits with an error and prints
no result.  The workloads and metrics are listed in ``BENCHMARK.json``;
``perfbench/workloads.py`` says what each workload runs and checks.

One run:

1. set-up, repeated and reported as the median (``setup_s``): a fresh
   interpreter importing the program, building the workload's inputs and,
   for the pooled workload, starting and joining a process pool;
2. with ``--trace 0``, repetitions of the workload for ``--seconds``
   seconds; ``wall_s`` and ``work_per_s`` are medians over repetitions.
   Repetition r uses inputs derived from (seed, r);
3. with ``--trace 1``, half the time untraced and half replaying the same
   repetitions with span wrappers installed, then the per-layer probes.
   Layers the workload never calls are measured on the tiny size of a
   workload that does call them, and the report says which.

Times are in reference seconds.  On a shared host the same work runs up
to 1.7 times slower for seconds to tens of seconds at a time, and a whole
run can fall into one slow spell.  So the benchmark runs its own fixed
reference task, a pure-Python loop, right after every timed repetition
and set-up round for about 5% of its time.  It scales each wall time by
REFERENCE_S (about the loop's time on a quiet 2-vCPU x86-64 VM) over the
median of the readings taken just before and just after it.  Scaled walls
varied across seeds by a quarter to a half as much as raw walls.  No
change to the program can move the reference task; raw wall times are
kept in the report.

Every repetition's outputs are checked; an operation (a run, or a CLI
invocation) that raises or fails its check counts as failed.  The last
line of standard output is the result as one JSON object.  A report with
provenance, per-repetition figures, CSV digests and (traced) the spans is
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
SETUP_ROUNDS = {"full": 9, "tiny": 1}
FIXED_COST_CALLS = {"full": 100, "tiny": 5}
REFERENCE_S = 0.03
REFERENCE_SHARE = 0.05
_REFERENCE_TABLE = list(range(1000))


def import_program() -> None:
    package = SRC / "onelambda"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import onelambda

    if Path(onelambda.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported onelambda from {onelambda.__file__}, not {package}")


def reference_s() -> float:
    """Wall time of the fixed reference task."""
    table = _REFERENCE_TABLE
    total = 0
    t0 = time.perf_counter()
    for i in range(350_000):
        total += table[i % 1000] * i
    return time.perf_counter() - t0


class SpeedReference:
    """Scales wall times by the reference task run around them."""

    def __init__(self):
        self.last = [reference_s() for _ in range(2)]

    def readings(self, after_s: float) -> list[float]:
        count = max(2, round(REFERENCE_SHARE * after_s / statistics.median(self.last)))
        return [reference_s() for _ in range(count)]

    def scale(self, wall: float) -> dict:
        """Call right after the timed work."""
        now = self.readings(wall)
        ref = statistics.median(self.last + now)
        self.last = now
        return {"wall_s": wall * REFERENCE_S / ref, "raw_wall_s": wall, "reference_s": ref}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def git_state() -> dict | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if rev.returncode != 0:
            return None
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return {"revision": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def provenance() -> dict:
    import multiprocessing

    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "git": git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "loadavg_start": os.getloadavg(),
    }


def pool_spawn_s(workers: int) -> float:
    """Start a process pool the way run_batch does, give every worker a
    task, and join it."""
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(abs, range(workers)))
    return time.perf_counter() - t0


def setup_round(wl, seed: int) -> float:
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import onelambda.cli",
                    str(SRC)], check=True, cwd=ROOT)
    wl.inputs(seed, 0)
    if wl.uses_pool:
        pool_spawn_s(NPROC)
    return time.perf_counter() - t0


def run_pass(wl, seed, budget, out_dir, tracer=None, phase="main", max_reps=None, workers=None):
    """Repetitions 0, 1, ... until ``budget`` seconds are used (at least one,
    at most ``max_reps``).  Only ``execute`` is timed."""
    reps = []
    speed = SpeedReference()
    start = time.perf_counter()
    while True:
        rep = len(reps)
        inputs = wl.inputs(seed, rep)
        rep_dir = out_dir / f"{phase}-rep{rep}"
        rep_dir.mkdir(parents=True, exist_ok=True)
        ctx = tracer.context(wl.name, rep, phase) if tracer else contextlib.nullcontext()
        ops = wl.operations(inputs)
        # a repetition that raises is data: every operation in it failed
        outcome, failed, notes, work, digests = None, ops, [], 0, {}
        t0 = time.perf_counter()
        try:
            with ctx:
                outcome = wl.execute(inputs, rep_dir, workers)
        except Exception:
            notes = [traceback.format_exc()]
        timing = speed.scale(time.perf_counter() - t0)
        if outcome is not None:
            try:
                failed, notes = wl.check(inputs, outcome)
                work = outcome.work
                digests = {p.name: sha256(p) for p in outcome.csv_files}
            except Exception:
                failed, notes = ops, [traceback.format_exc()]
        shutil.rmtree(rep_dir)
        reps.append({"rep": rep, "phase": phase, **timing, "operations": ops, "failed": failed,
                     "work": work, "notes": notes, "csv_sha256": digests})
        if max_reps is not None and len(reps) >= max_reps:
            break
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(r["raw_wall_s"] for r in reps) >= budget:
            break
    return reps


def fixed_cost_us(n_values, calls: int) -> float:
    """run() with max_generations=1, comma on onemax, averaged over the
    workload's n (median per n)."""
    from onelambda import ea
    from onelambda.fitness import FitnessFunction

    kind = ea.AlgorithmKind.self_adjusting_comma()
    params = ea.ControllerParams(F=1.5, s=1.0)
    stop = ea.StoppingCondition(max_generations=1, stop_on_optimum=False)
    per_n = []
    for n in n_values:
        fn = FitnessFunction("onemax", n)
        times = []
        for i in range(calls):
            t0 = time.perf_counter()
            ea.run(kind, fn, params, stop, i)
            times.append(time.perf_counter() - t0)
        per_n.append(statistics.median(times))
    return statistics.mean(per_n) * 1e6


def alloc_peak_mb(call) -> float:
    """tracemalloc peak of one replay of an ea.run call."""
    import tracemalloc

    from onelambda import ea

    _, args, kwargs = call
    tracemalloc.start()
    try:
        ea.run(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced_layers(wl, seed, size, out_dir, untraced_reps=None, budget=0.0):
    """Traced repetitions of ``wl`` plus its layer probes.

    Returns (metrics, notes, reps, tracer).  The traced pass replays the
    untraced repetitions' inputs, so their walls pair up.
    """
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    max_reps = len(untraced_reps) if untraced_reps else 1
    with tracer.installed():
        reps = run_pass(wl, seed, budget, out_dir, tracer, "main", max_reps=max_reps)
        if wl.uses_pool:
            reps += run_pass(wl, seed, 0.0, out_dir, tracer, "replay", max_reps=1, workers=1)
    replay = "replay" if wl.uses_pool else None
    metrics, notes = layer_metrics(tracer, ea_phase=replay or "main", pool_phase=replay)
    if tracer.largest_lambda_call is not None:
        metrics["ea.run.fixed_us"] = fixed_cost_us(wl.n_values, FIXED_COST_CALLS[size])
        metrics["ea.run.alloc_peak_mb"] = alloc_peak_mb(tracer.largest_lambda_call)
        notes["ea.run.alloc_peak_mb"] = {"final_lambda": tracer.largest_lambda_call[0]}
    if wl.uses_pool:
        metrics["experiments.pool.spawn_s"] = statistics.median(pool_spawn_s(NPROC) for _ in range(3))
    if hasattr(wl, "warm_over_cold"):
        metrics["oracle.warm_over_cold"] = wl.warm_over_cold(wl.inputs(seed, 0), out_dir)
    if untraced_reps:
        ratios = [t["wall_s"] / u["wall_s"] for t, u in zip(reps, untraced_reps)]
        metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return metrics, notes, reps, tracer


def fill_from_probes(layers, notes, spec, name, seed, out_dir):
    """Measure the layers ``name`` never calls on the tiny size of the
    workloads that do call them.  Fills ``layers`` and ``notes`` in place;
    returns ({metric: workload it came from}, the probes' repetitions)."""
    import workloads

    filled, reps = {}, []
    for other, cls in workloads.WORKLOADS.items():
        missing = [m["name"] for m in spec["per_layer"] if layers.get(m["name"]) is None]
        if not missing:
            break
        if other == name:
            continue
        probe, probe_notes, probe_reps, _ = traced_layers(cls("tiny"), seed, "tiny", out_dir)
        reps += probe_reps
        for metric in missing:
            if probe.get(metric) is not None:
                layers[metric], filled[metric] = probe[metric], other
                if metric in probe_notes:
                    notes[metric] = probe_notes[metric]
    return filled, reps


def main(argv=None, size: str = "full") -> int:
    import_program()
    import workloads

    ap = argparse.ArgumentParser(description="onelambda benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload](size)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": size, "provenance": provenance()}
    work_dir = OUT / f"tmp-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        speed = SpeedReference()
        setup = [speed.scale(setup_round(wl, args.seed)) for _ in range(SETUP_ROUNDS[size])]
        budget = args.seconds / 2 if args.trace else args.seconds
        reps = run_pass(wl, args.seed, budget, work_dir)
        metrics = {
            "setup_s": statistics.median(r["wall_s"] for r in setup),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "work_per_s": statistics.median(r["work"] / r["wall_s"] for r in reps),
        }
        report.update(setup_s=setup, untraced=reps)
        if args.trace:
            layers, notes, traced, tracer = traced_layers(wl, args.seed, size, work_dir, reps, budget)
            filled, probe_reps = fill_from_probes(layers, notes, spec, wl.name, args.seed, work_dir)
            reps = reps + traced + probe_reps
            metrics.update(layers)
            report.update(traced=traced, layer_notes=notes, filled_from_tiny_probe=filled)
            spans_path = OUT / f"{args.workload}-seed{args.seed}-trace1-spans.jsonl"
            tracer.write(spans_path)
            report["spans"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r["operations"] for r in reps)
    failed = sum(min(r["failed"], r["operations"]) for r in reps)
    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = (ru_self + ru_children) / 1024.0
    metrics["ok_frac"] = 1.0 - failed / attempted
    report["provenance"]["loadavg_end"] = os.getloadavg()
    report["metrics"] = metrics
    report["failures"] = [n for r in reps for n in r["notes"]]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_metrics = {}
    for m in wanted:
        value = metrics.get(m["name"])
        if value is None:
            report.setdefault("absent", []).append(m["name"])
            value = 0.0
        out_metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))
    print(f"perfbench: report {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
