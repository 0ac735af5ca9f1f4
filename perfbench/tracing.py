"""Spans around the program's public call sites, and the per-layer metrics
derived from them.

The wrappers are installed from the benchmark's own code, only in the
traced run, and removed again afterwards; nothing in the program changes.
Spans stay in memory (name, start, end, parent, workload, repetition,
phase) and are written out when the run ends.  A layer's self time is its
span's duration minus the part its child spans cover.  Calls made once per
offspring (``FitnessFunction.raw_from_bits`` on ridge) would drown the run
in spans, so they only add to a call counter and to the enclosing span's
child time.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict

import numpy as np

from onelambda import cli, ea
from onelambda import experiments as xp
from onelambda.fitness import FitnessFunction

_AGGREGATIONS = ("normalized_runtime_stats", "evals_per_fitness_histogram")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "workload", "rep", "phase", "hot_ns", "attrs")

    def __init__(self, sid, name, parent, workload, rep, phase):
        self.id = sid
        self.name = name
        self.parent = parent
        self.workload = workload
        self.rep = rep
        self.phase = phase
        self.hot_ns = 0
        self.attrs = {}
        self.start = time.perf_counter_ns()
        self.end = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start_ns": self.start, "end_ns": self.end,
            "parent": self.parent, "workload": self.workload, "rep": self.rep,
            "phase": self.phase, "hot_ns": self.hot_ns, **self.attrs,
        }


class Tracer:
    """In-memory span recorder with wrappers for the program's call sites."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.hot = defaultdict(lambda: [0, 0])  # name -> [calls, ns]
        self.workload = None
        self.rep = None
        self.phase = None
        self.largest_lambda_call = None  # (final lambda, args, kwargs) of ea.run
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self.stack[-1].id if self.stack else None
        s = Span(len(self.spans), name, parent, self.workload, self.rep, self.phase)
        self.spans.append(s)
        self.stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter_ns()
            self.stack.pop()

    @contextlib.contextmanager
    def context(self, workload, rep, phase):
        """Tag every span opened inside with (workload, rep, phase) under a
        root span for the repetition."""
        saved = (self.workload, self.rep, self.phase)
        self.workload, self.rep, self.phase = workload, rep, phase
        try:
            with self.span("bench.rep"):
                yield
        finally:
            self.workload, self.rep, self.phase = saved

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(s, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hot(self, name, fn):
        counter = self.hot[name]
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            counter[0] += 1
            counter[1] += dt
            if stack:
                stack[-1].hot_ns += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public call sites of fitness, ea, experiments, oracle
        (as the CLI calls it) and cli."""
        self._patch(FitnessFunction, "level_table",
                    self._spanned("fitness.level_table", FitnessFunction.level_table))
        self._patch(FitnessFunction, "raw_from_bits",
                    self._hot("fitness.raw_from_bits", FitnessFunction.raw_from_bits))
        run = self._spanned("ea.run", ea.run, self._on_run)
        for module in (ea, xp, cli):
            self._patch(module, "run", run)
        self._patch(xp, "run_batch", self._spanned("experiments.run_batch", xp.run_batch))
        for attr in _AGGREGATIONS:
            self._patch(xp, attr, self._spanned("experiments.aggregate", getattr(xp, attr)))
        self._patch(xp, "write_csv", self._write_csv_wrapper(xp.write_csv))
        self._patch(cli, "main", self._spanned("cli.main", cli.main))
        self._patch(cli, "drift_grid_check",
                    self._spanned("oracle.drift", cli.drift_grid_check, self._on_drift))
        self._patch(cli, "check_transition_bounds",
                    self._spanned("oracle.bounds", cli.check_transition_bounds, self._on_bounds))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _on_run(self, s, args, kwargs, rec):
        bound = dict(zip(("kind", "fn", "params", "stop", "seed", "trace_level", "lambda0", "engine"), args))
        bound.update(kwargs)
        engine = bound.get("engine", "auto")
        level = bound["fn"].level_based if engine == "auto" else engine == "level"
        s.attrs.update(
            engine="level" if level else "genotype", evals=rec.evaluations,
            gens=rec.generations, stop=rec.stop_cause.value, final_lambda=rec.final_lambda,
        )
        if self.largest_lambda_call is None or rec.final_lambda > self.largest_lambda_call[0]:
            self.largest_lambda_call = (rec.final_lambda, args, kwargs)

    @staticmethod
    def _on_drift(s, args, kwargs, report):
        s.attrs["states"] = report.states_checked

    @staticmethod
    def _on_bounds(s, args, kwargs, report):
        s.attrs.update(states=report.states_checked, checks=report.checks_performed)

    def _write_csv_wrapper(self, fn):
        tracer = self

        def write_csv(path, columns, rows, *args, **kwargs):
            count = [0]
            if hasattr(rows, "__len__"):
                count[0] = len(rows)
            else:
                def counted(it):
                    for row in it:
                        count[0] += 1
                        yield row
                rows = counted(rows)
            with tracer.span("experiments.write_csv") as s:
                fn(path, columns, rows, *args, **kwargs)
            s.attrs.update(rows=count[0], bytes=os.path.getsize(path))

        write_csv.__wrapped__ = fn
        return write_csv

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
            for name, (calls, ns) in self.hot.items():
                fh.write(json.dumps({"counter": name, "calls": calls, "ns": ns}) + "\n")


def self_times(spans) -> dict:
    """Span id -> self time in ns: duration minus child spans minus the
    per-call counters that ran inside it."""
    child = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration_ns
    return {s.id: s.duration_ns - child[s.id] - s.hot_ns for s in spans}


def tail_percentile(values, beyond: int = 10):
    """p95 when at least ``beyond`` samples lie above it, else the highest
    percentile that has that many (the median when none has).
    Returns (value, percentile used, sample count)."""
    n = len(values)
    q = 95.0 if n * 0.05 >= beyond else max(50.0, 100.0 * (1.0 - beyond / n))
    return float(np.percentile(values, q)), q, n


def layer_metrics(tracer: Tracer, ea_phase: str, pool_phase: str | None) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of one traced run.

    ``ea_phase`` names the phase whose spans hold the ea.run calls (the
    1-worker replay when the workload uses the pool).  Counts and totals
    are per repetition.  Values are None for layers this run never called.
    Returns (metrics, notes).
    """
    spans = [s for s in tracer.spans if s.end is not None]
    own = self_times(spans)
    main = [s for s in spans if s.phase == "main"]
    m, notes = {}, {}

    def by_name(pool, name):
        return [s for s in pool if s.name == name]

    def reps_of(pool):
        return max(1, len({s.rep for s in pool}))

    lt = by_name(main, "fitness.level_table") or by_name(spans, "fitness.level_table")
    m["fitness.level_table_us"] = np.mean([own[s.id] for s in lt]) / 1e3 if lt else None
    calls, ns = tracer.hot["fitness.raw_from_bits"]
    m["fitness.raw_from_bits_ns"] = ns / calls if calls else None

    runs = [s for s in spans if s.name == "ea.run" and s.phase == ea_phase]
    if runs:
        reps = reps_of(runs)
        ms = [s.duration_ns / 1e6 for s in runs]
        evals = sum(s.attrs["evals"] for s in runs)
        gens = sum(s.attrs["gens"] for s in runs)
        m["ea.run.calls"] = len(runs) / reps
        m["ea.run.ms_p50"] = float(np.median(ms))
        m["ea.run.ms_p95"], q, count = tail_percentile(ms)
        notes["ea.run.ms_p95"] = {"percentile": q, "samples": count}
        m["ea.evals"] = evals / reps
        m["ea.gens"] = gens / reps
        m["ea.offspring_per_gen"] = evals / gens if gens else None
        for engine in ("level", "genotype"):
            sel = [s for s in runs if s.attrs["engine"] == engine]
            e = sum(s.attrs["evals"] for s in sel)
            g = sum(s.attrs["gens"] for s in sel)
            t = sum(own[s.id] for s in sel)
            m[f"ea.{engine}.ns_per_eval"] = t / e if e else None
            m[f"ea.{engine}.us_per_gen"] = t / g / 1e3 if g else None
        for cause in ea.StopCause:
            m[f"ea.stop.{cause.value}"] = sum(s.attrs["stop"] == cause.value for s in runs) / reps

    batches = by_name(main, "experiments.run_batch")
    if batches:
        m["experiments.run_batch_s"] = sum(s.duration_ns for s in batches) / 1e9 / reps_of(batches)
    if pool_phase is not None:
        pooled = sum(s.duration_ns for s in batches if s.rep == 0)
        single = sum(s.duration_ns for s in spans if s.name == "experiments.run_batch" and s.phase == pool_phase)
        if pooled and single:
            m["experiments.pool.speedup"] = single / pooled
            m["experiments.pool.efficiency"] = single / pooled / len(os.sched_getaffinity(0))
    agg = by_name(main, "experiments.aggregate")
    if agg:
        m["experiments.aggregate_s"] = sum(s.duration_ns for s in agg) / 1e9 / reps_of(agg)
    csv = by_name(main, "experiments.write_csv")
    if csv:
        reps = reps_of(csv)
        m["experiments.write_csv_s"] = sum(s.duration_ns for s in csv) / 1e9 / reps
        m["experiments.write_csv_rows"] = sum(s.attrs["rows"] for s in csv) / reps
        m["experiments.write_csv_mb"] = sum(s.attrs["bytes"] for s in csv) / 2**20 / reps

    for kind, name in (("drift", "oracle.drift"), ("bounds", "oracle.bounds")):
        sel = by_name(main, name)
        states = sum(s.attrs["states"] for s in sel)
        if states:
            reps = reps_of(sel)
            m[f"oracle.{kind}.states"] = states / reps
            m[f"oracle.{kind}.us_per_state"] = sum(own[s.id] for s in sel) / states / 1e3
            if kind == "bounds":
                m["oracle.bounds.checks"] = sum(s.attrs["checks"] for s in sel) / reps

    mains = by_name(main, "cli.main")
    if mains:
        reps = reps_of(mains)
        m["cli.main_s"] = sum(s.duration_ns for s in mains) / 1e9 / reps
        m["cli.self_s"] = sum(own[s.id] for s in mains) / 1e9 / reps
    return m, notes
