"""Batch runner, seeding, aggregations and CSV output."""

import csv
import dataclasses
import io
import math
import os
import random
import signal
import subprocess
import sys
import time
from collections import namedtuple
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onelambda import experiments as xp
from onelambda import oracle
from onelambda.experiments import (
    BatchConfig,
    bootstrap_mean_ci,
    child_seed,
    evals_per_fitness_histogram,
    fixed_target_table,
    lambda_per_fitness,
    normalized_runtime_stats,
    ratchet_monitor,
    run_batch,
    sweep_table,
    write_csv,
)
from onelambda.oracle import BOUND_COLUMNS, check_transition_bounds


def small_batch(trace="levels", runs=3, algo="comma", n=(30,), fs=((1.5, 1.0),), **kw):
    return run_batch(
        BatchConfig(
            algorithm=algo,
            fn_spec="onemax",
            n_values=n,
            fs_values=fs,
            runs=runs,
            master_seed=77,
            trace_level=trace,
            **kw,
        ),
        workers=1,
    )


def assert_same_records(a, b):
    """Every field of every record equal, traces and level arrays included."""
    for ca, cb in zip(a.cells, b.cells, strict=True):
        for ra, rb in zip(ca.records, cb.records, strict=True):
            for f in dataclasses.fields(ra):
                va, vb = getattr(ra, f.name), getattr(rb, f.name)
                if isinstance(va, dict):
                    assert va.keys() == vb.keys(), f.name
                    for key in va:
                        assert np.array_equal(va[key], vb[key]), (f.name, key)
                elif isinstance(va, np.ndarray):
                    assert np.array_equal(va, vb), f.name
                else:
                    assert va == vb, f.name


POOL_CONFIG = BatchConfig(algorithm="comma", fn_spec="onemax", n_values=(20, 30),
                          fs_values=((1.5, 1.0),), runs=4, master_seed=9, trace_level="levels")


class TestSeeding:
    def test_child_seeds_distinct(self):
        keys = {child_seed(1, c, r).spawn_key for c in range(2) for r in range(3)}
        assert len(keys) == 6

    def test_batch_records_carry_distinct_seed_keys(self):
        batch = small_batch(runs=3, n=(20, 30))
        keys = [rec.seed_key for cell in batch.cells for rec in cell.records]
        assert len(set(keys)) == 6

    def test_rerun_identical(self):
        a = small_batch(runs=4)
        b = small_batch(runs=4)
        for ca, cb in zip(a.cells, b.cells):
            for ra, rb in zip(ca.records, cb.records):
                assert ra.evaluations == rb.evaluations
                assert ra.generations == rb.generations
                assert np.array_equal(ra.first_hit_evals, rb.first_hit_evals)

    def test_worker_pool_matches_sequential(self):
        # two different batches in a row through the same pool
        first = dataclasses.replace(POOL_CONFIG, fs_values=((1.5, 1.0), (1.5, 3.0)),
                                    trace_level="full")
        second = dataclasses.replace(POOL_CONFIG, algorithm="plus", n_values=(20, 40),
                                     master_seed=5)
        pools = []
        for config in (first, second):
            assert_same_records(run_batch(config, workers=1), run_batch(config, workers=2))
            pools.append(xp._POOL[2])
        assert pools[0] is pools[1]


class StubPool:
    """Stands in for the process pool: records each ``map`` call and runs
    its tasks in this process.  ``submit`` runs its task at once, records
    its first argument, and counts the tasks submitted and not yet
    collected."""

    def __init__(self):
        self.calls = []
        self.submitted = []
        self.in_flight = self.most_in_flight = 0

    def map(self, fn, tasks, chunksize):
        self.calls.append((list(tasks), chunksize))
        return map(fn, tasks)

    def submit(self, fn, *args):
        self.submitted.append(args[0])
        self.in_flight += 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        value = fn(*args)

        def result():
            self.in_flight -= 1
            return value

        return SimpleNamespace(result=result)


class TestDispatch:
    CONFIG = BatchConfig(algorithm="comma", fn_spec="onemax", n_values=(20, 30),
                         fs_values=((1.5, 1.0), (1.5, 3.0)), runs=3, master_seed=4,
                         trace_level="levels")

    def test_runs_go_out_largest_first_in_four_chunks_per_worker(self, monkeypatch):
        stub = StubPool()
        monkeypatch.setattr(xp, "_pool", lambda workers: stub)
        batch = run_batch(self.CONFIG, workers=2)
        [(tasks, chunksize)] = stub.calls
        # (n, s) non-increasing; the runs of one cell keep their order
        assert [(n, s, run) for _, _, n, _, s, run in tasks] == [
            (n, s, run) for n in (30, 20) for s in (3.0, 1.0) for run in range(3)]
        assert chunksize == math.ceil(len(tasks) / (4 * 2)) == 2
        assert_same_records(run_batch(self.CONFIG, workers=1), batch)


@pytest.fixture
def no_pool():
    """Start and end the test without a pool in this process."""
    def drop():
        if xp._POOL is not None and xp._POOL[0] == os.getpid():
            xp._POOL[2].shutdown()
        xp._POOL = None
    drop()
    yield
    drop()


@pytest.mark.usefixtures("no_pool")
class TestSharedPool:
    def test_second_batch_reuses_pool_and_workers(self):
        run_batch(POOL_CONFIG, workers=2)
        pool = xp._POOL[2]
        pids = set(pool._processes)
        assert len(pids) == 2
        run_batch(dataclasses.replace(POOL_CONFIG, master_seed=10), workers=2)
        assert xp._POOL[2] is pool
        assert set(pool._processes) == pids

    def test_other_worker_count_replaces_pool(self):
        run_batch(POOL_CONFIG, workers=2)
        old = xp._POOL[2]
        old_workers = list(old._processes.values())
        one = xp._pool(1)
        assert one is not old and xp._POOL[1] == 1
        assert not any(p.is_alive() for p in old_workers)
        with pytest.raises(RuntimeError):
            old.submit(abs, 1)
        assert one.submit(abs, -3).result(timeout=60) == 3
        run_batch(POOL_CONFIG, workers=2)
        assert xp._POOL[2] not in (old, one)
        with pytest.raises(RuntimeError):
            one.submit(abs, 1)

    def test_pool_inherited_through_fork_is_left_alone(self):
        inherited = xp._pool(1)
        # the pool as a forked child sees it: owned by another pid
        xp._POOL = (os.getppid(), 1, inherited)
        own = xp._pool(1)
        assert own is not inherited and xp._POOL[0] == os.getpid()
        assert inherited.submit(abs, -2).result(timeout=60) == 2
        inherited.shutdown()

    def test_killed_worker_fails_one_batch_then_a_new_pool_runs(self):
        expected = run_batch(POOL_CONFIG, workers=1)
        run_batch(POOL_CONFIG, workers=2)
        pool = xp._POOL[2]
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._broken:  # the executor marks itself broken once it sees the death
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            run_batch(POOL_CONFIG, workers=2)
        assert xp._POOL is None
        assert_same_records(expected, run_batch(POOL_CONFIG, workers=2))
        assert xp._POOL[2] is not pool

    def test_no_worker_outlives_the_interpreter(self):
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from onelambda import experiments as xp\n"
            "sys.held = xp  # as a test runner holds it, past the modules' teardown\n"
            "assert xp._POOL is None\n"
            "config = xp.BatchConfig(algorithm='comma', fn_spec='onemax', n_values=(20,),\n"
            "                        fs_values=((1.5, 1.0),), runs=4, master_seed=1)\n"
            "xp.run_batch(config, workers=2)\n"
            "print(*xp._POOL[2]._processes)\n"
        )
        src = str(Path(xp.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script, src], capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stderr == ""  # the pool went down before the executor's module
        pids = [int(p) for p in done.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_default_worker_count_follows_cpu_affinity(self, monkeypatch):
        expected = run_batch(POOL_CONFIG, workers=1)

        def no_pool(workers):
            raise AssertionError(f"a pool of {workers} started on one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(xp, "_pool", no_pool)
        assert_same_records(expected, run_batch(POOL_CONFIG))


class TestProgress:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_progress_reports_every_run(self, n_workers):
        calls = []
        config = BatchConfig(algorithm="comma", fn_spec="onemax", n_values=(20, 30),
                             fs_values=((1.5, 1.0),), runs=5, master_seed=3)
        batch = run_batch(config, workers=n_workers, progress=lambda *a: calls.append(a))
        assert calls == [(done, 10) for done in range(1, 11)]
        assert sum(len(c.records) for c in batch.cells) == 10


class TestNormalizedRuntime:
    def test_excludes_censored_with_count(self):
        batch = small_batch(runs=3, gen_cap_multiplier=0.1)  # 3-generation cap
        stats = normalized_runtime_stats(batch.cells[0])
        assert stats["censored"] == 3
        assert stats["median"] is None

    def test_summary_values(self):
        batch = small_batch(runs=5)
        cell = batch.cells[0]
        stats = normalized_runtime_stats(cell)
        norm = 30 * math.log2(30)
        vals = sorted(r.evaluations / norm for r in cell.records)
        assert stats["min"] == pytest.approx(vals[0])
        assert stats["max"] == pytest.approx(vals[-1])
        assert stats["q1"] <= stats["median"] <= stats["q3"]


class TestBootstrap:
    def test_ci_contains_point_estimate(self):
        rng = np.random.default_rng(5)
        vals = rng.exponential(3.0, size=40)
        lo, hi = bootstrap_mean_ci(vals, np.random.default_rng(9))
        assert lo <= vals.mean() <= hi

    def test_seeded_reproducible(self):
        vals = np.arange(25, dtype=float)
        a = bootstrap_mean_ci(vals, np.random.default_rng(3))
        b = bootstrap_mean_ci(vals, np.random.default_rng(3))
        assert a == b


class TestSweep:
    def test_small_sweep_shape_and_cap(self):
        batch = small_batch(trace="summary", runs=6, n=(20,), fs=((1.5, 1.0), (1.5, 20.0)))
        rows = sweep_table(batch)
        assert len(rows) == 2
        easy = next(r for r in rows if r["s"] == 1.0)
        assert easy["reached_optimum"] == 6
        for r in rows:
            assert r["ci_low"] <= r["mean_generations_over_n"] <= r["ci_high"]
            assert r["mean_generations_over_n"] <= 500.0

    @pytest.mark.parametrize("mult", [None, 0.0])
    def test_without_generation_cap_means_are_uncapped(self, mult):
        batch = small_batch(trace="summary", runs=3, n=(20,), gen_cap_multiplier=mult)
        (row,) = sweep_table(batch)
        gens = [r.generations / 20 for r in batch.cells[0].records]
        assert row["reached_optimum"] == 3
        assert np.mean(gens) > 0
        assert row["mean_generations_over_n"] == pytest.approx(np.mean(gens))
        assert row["ci_low"] <= row["mean_generations_over_n"] <= row["ci_high"]


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError, match="algorithm"):
        BatchConfig(algorithm="elitist", fn_spec="onemax", n_values=(10,),
                    fs_values=((1.5, 1.0),), runs=1, master_seed=0)


class TestFixedTarget:
    def test_monotone_and_initial_zero(self):
        batch = small_batch(runs=6)
        rows = fixed_target_table(batch.cells[0])
        means = [r["mean_evaluations"] for r in rows if r["mean_evaluations"] is not None
                 and r["runs_reached"] == 6]
        assert all(b >= a for a, b in zip(means, means[1:]))
        assert rows[0]["mean_evaluations"] == 0.0  # target 0 is met at initialisation

    def test_unreached_targets_missing(self):
        batch = small_batch(runs=3, gen_cap_multiplier=0.2)
        rows = fixed_target_table(batch.cells[0])
        assert any(r["mean_evaluations"] is None and r["runs_reached"] == 0 for r in rows)


class TestLevelAggregations:
    def test_histogram_sums_to_100(self):
        batch = small_batch(runs=4)
        rows = evals_per_fitness_histogram(batch.cells[0])
        assert abs(sum(r["share_pct"] for r in rows) - 100.0) < 1e-9

    def test_permutation_invariance(self):
        batch = small_batch(runs=5)
        cell = batch.cells[0]
        before = lambda_per_fitness(cell)
        random.Random(0).shuffle(cell.records)
        after = lambda_per_fitness(cell)
        assert before == after

    def test_matches_full_trace_brute_force(self):
        batch = small_batch(trace="full", runs=3)
        cell = batch.cells[0]
        rows = lambda_per_fitness(cell)
        # brute force from the raw rows: pair row t's fitness with row t's
        # offspring count for t < T
        sums, counts = {}, {}
        for rec in cell.records:
            fit = rec.rows["fitness_raw"]
            lam = rec.rows["lambda_int"]
            for t in range(fit.size - 1):
                sums[fit[t]] = sums.get(fit[t], 0) + int(lam[t])
                counts[fit[t]] = counts.get(fit[t], 0) + 1
        got = {r["fitness"]: r["mean_lambda"] for r in rows}
        want = {int(v): sums[v] / counts[v] for v in sums}
        assert got == want

    def test_histogram_matches_full_trace_evaluations(self):
        cell = small_batch(trace="full", runs=3).cells[0]
        # generation t+1 ran from row t's fitness and spent the evaluations
        # between rows t and t+1 there
        spent = {}
        for rec in cell.records:
            fit, evals = rec.rows["fitness_raw"], rec.rows["evaluations"]
            for t in range(fit.size - 1):
                spent[int(fit[t])] = spent.get(int(fit[t]), 0) + int(evals[t + 1] - evals[t])
        rows = evals_per_fitness_histogram(cell)
        assert {r["fitness"]: r["evaluations"] for r in rows} == spent

    def test_requires_level_traces(self):
        batch = small_batch(trace="summary", runs=2)
        with pytest.raises(ValueError):
            evals_per_fitness_histogram(batch.cells[0])


class TestRatchet:
    def test_elitist_runs_have_zero_violations(self):
        batch = small_batch(trace="full", runs=4, algo="plus", n=(40,))
        rows = ratchet_monitor(batch.cells[0], r_values=(0.0, 5.0))
        assert [row["r"] for row in rows] == [0.0, 5.0]
        assert all(row["fitness_drops_at_large_lambda"] == 0 for row in rows)
        assert rows[0]["gap_violations"] == 0
        assert rows[1]["runs_without_gap_violation"] == 4

    def test_comma_runs_report_shape(self):
        batch = small_batch(trace="full", runs=3, n=(40,))
        cell = batch.cells[0]
        rows = ratchet_monitor(cell)
        assert [row["r"] for row in rows] == [2.0, 5.0, 10.0, 20.0]  # the CSV's r values
        for row in rows:
            assert list(row) == ["n", "s", "runs", "r", "gap_violations",
                                 "runs_without_gap_violation", "eligible_generations",
                                 "fitness_drops_at_large_lambda"]
            assert (row["n"], row["s"], row["runs"]) == (40, cell.s, 3)
            assert 0 <= row["fitness_drops_at_large_lambda"] <= row["eligible_generations"]
            assert row["eligible_generations"] <= sum(r.generations for r in cell.records)
            assert 0 <= row["runs_without_gap_violation"] <= 3
        # a wider gap flags fewer generations
        gaps = [row["gap_violations"] for row in rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_needs_full_traces(self):
        batch = small_batch(trace="levels", runs=2)
        with pytest.raises(ValueError):
            ratchet_monitor(batch.cells[0])


class TestCsv:
    def test_golden_bytes_without_timestamp(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 2, "b": None}]
        p1, p2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
        write_csv(p1, ["a", "b"], rows, meta={"k": 1}, timestamp=False)
        write_csv(p2, ["a", "b"], rows, meta={"k": 1}, timestamp=False)
        assert p1.read_bytes() == p2.read_bytes()

    def test_creates_missing_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.csv"
        write_csv(target, ["a"], [[1]], meta={}, timestamp=True)
        assert target.exists()

    def test_header_carries_config(self, tmp_path):
        target = tmp_path / "o.csv"
        write_csv(target, ["a"], [[1]], meta={"seed": 42}, timestamp=False)
        text = target.read_text()
        assert '"seed": 42' in text and "config_hash" in text

    def test_numpy_scalars_are_written_as_numbers(self, tmp_path):
        # repr(np.float64(0.5)) is "np.float64(0.5)" under numpy 2; the CSV
        # must carry the number, for sequence and dict rows alike
        sequences, dicts = tmp_path / "s.csv", tmp_path / "d.csv"
        write_csv(sequences, ["a", "b", "c"], [[np.float64(0.5), None, 0.1]], meta={},
                  timestamp=False)
        write_csv(dicts, ["a", "b", "c"], [{"a": np.float64(0.25), "c": np.int64(3)}], meta={},
                  timestamp=False)
        assert sequences.read_text().splitlines()[-1] == "0.5,,0.1"
        assert dicts.read_text().splitlines()[-1] == "0.25,,3"

    @pytest.mark.parametrize("rows, body", [([], []), (iter([(1, 2), (3, None)]), ["1,2", "3,"])])
    def test_empty_and_iterator_rows(self, tmp_path, rows, body):
        target = tmp_path / "o.csv"
        write_csv(target, ["a", "b"], rows, meta={}, timestamp=False)
        assert target.read_text().splitlines()[3:] == ["a,b"] + body


MISSING = object()  # a dict row without the key; None in the other row kinds
COLUMNS = ("c0", "c1", "c2", "c3", "c4")
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
NUMBERS = st.one_of(
    st.integers(),
    st.booleans(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    FLOATS,
    FLOATS.map(np.float64),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308]),
)
# each example's fields are numbers and strings csv.writer writes as they
# are, plus at most one kind of field it quotes or changes, so that each
# check on a block's text meets that kind alone
FIELDS = st.one_of(NUMBERS, st.text(st.sampled_from(list("aN e\t\x00\u00e9")), max_size=5))
HAZARDS = ["", "None", ",", '"', "\r", "\n", "\r\n", 'a,"b"\n', None, MISSING]
TABLES = st.sampled_from([[]] + [[hazard] for hazard in HAZARDS]).flatmap(
    lambda hazard: st.lists(
        st.lists(st.one_of(FIELDS, *map(st.just, hazard)), min_size=5, max_size=5), max_size=12))


def csv_writer_body(columns, rows):
    """The reference: csv.writer's excel dialect over the header and rows."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue().encode()


class TestCsvWriterEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        width=st.integers(1, 5),
        kind=st.sampled_from(["dict", "list", "tuple", "namedtuple"]),
        lazy=st.booleans(),
        values=TABLES,
    )
    # the second block alone holds a None: only it goes to csv.writer
    @example(width=2, kind="tuple", lazy=True, values=[[1.5, 2]] * 4096 + [[None, 2]])
    # a one-column file with an empty field, which csv.writer quotes: first, then last
    @example(width=1, kind="list", lazy=False, values=[[""], ["a"]])
    @example(width=1, kind="list", lazy=False, values=[["a"], [""]])
    # dict rows without some keys
    @example(width=3, kind="dict", lazy=False, values=[[1, MISSING, 2.5], [MISSING, "x", 3]])
    def test_body_bytes_are_csv_writers(self, tmp_path_factory, width, kind, lazy, values):
        columns = list(COLUMNS[:width])
        values = [v[:width] for v in values]
        if kind == "dict":
            rows = [{c: v for c, v in zip(columns, row) if v is not MISSING} for row in values]
            reference = [[row.get(c) for c in columns] for row in rows]
        else:
            reference = [[None if v is MISSING else v for v in row] for row in values]
            make = {"list": list, "tuple": tuple,
                    "namedtuple": lambda row, Row=namedtuple("Row", columns): Row(*row)}[kind]
            rows = [make(row) for row in reference]
        target = tmp_path_factory.mktemp("csv") / "o.csv"
        write_csv(target, columns, (row for row in rows) if lazy else rows, meta={},
                  timestamp=False)
        body = target.read_bytes().split(b"\n", 3)[3]  # after the three '#' lines
        assert body == csv_writer_body(columns, reference)

    def test_rows_of_another_width_are_written_as_given(self, tmp_path):
        rows = [(1, 2), (3,), (4, 5, 6), ()]
        target = tmp_path / "o.csv"
        write_csv(target, ["a", "b"], rows, meta={}, timestamp=False)
        assert target.read_bytes().split(b"\n", 3)[3] == csv_writer_body(["a", "b"], rows)


def array_of(values, dtype):
    return values.map(lambda v: np.array(v, dtype=dtype))


# one column of a pass as its pass function gives it: an array, or one
# scalar that repeats down the column; a size is drawn per block
COLUMN_OF = {
    "float64": lambda size: array_of(st.lists(
        st.one_of(FLOATS, st.sampled_from([0.0, -0.0, 0.1, math.nan])), min_size=size,
        max_size=size), np.float64),
    "int64": lambda size: array_of(st.lists(
        st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from([0, 7])), min_size=size,
        max_size=size), np.int64),
    "bool": lambda size: array_of(st.lists(st.booleans(), min_size=size, max_size=size), bool),
    "str": lambda size: array_of(st.lists(
        st.one_of(st.none(), st.text(st.sampled_from(list('aN e,"\r\n')), max_size=4)),
        min_size=size, max_size=size), object),
    "scalar": lambda size: st.one_of(st.integers(), FLOATS, st.booleans(),
                                     st.text(st.sampled_from(list("a ,")), max_size=3)),
}
COLUMN_BLOCKS = st.tuples(
    st.integers(0, 12),
    st.lists(st.sampled_from(sorted(COLUMN_OF)), min_size=1, max_size=5).filter(
        lambda kinds: set(kinds) != {"scalar"}),
).flatmap(lambda drawn: st.tuples(*(COLUMN_OF[kind](drawn[0]) for kind in drawn[1])))


class TestColumnFormatter:
    @settings(max_examples=300, deadline=None)
    @given(columns=COLUMN_BLOCKS)
    @example(columns=(np.array([-0.0, 0.0, -0.0, 0.0]),))
    @example(columns=(np.array([math.nan, -math.nan, math.inf, -math.inf, 5e-324]),))
    @example(columns=(np.array([-2**63, 2**63 - 1, -2**63], dtype=np.int64),))
    @example(columns=(np.full(3, 0.1), np.full(3, 7, dtype=np.int64), 0.5))
    @example(columns=(np.array(["a,b", 'say "hi"', "x\r\ny"], dtype=object), np.arange(3)))
    @example(columns=(np.array(["", "a"], dtype=object),))
    @example(columns=(np.array(["a"], dtype=object), np.array([""], dtype=object)))
    @example(columns=(7, np.array([], dtype=np.int64), np.array([]), np.array([], dtype=bool),
                      0.5))
    def test_pass_columns_are_written_as_csv_writer_writes_their_rows(self, tmp_path_factory,
                                                                        columns):
        size = min(len(c) for c in columns if isinstance(c, np.ndarray))
        rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else [c] * size
                          for c in columns)))
        names = [f"c{k}" for k in range(len(columns))]
        target = tmp_path_factory.mktemp("csv") / "o.csv"
        write_csv(target, names, xp.Passes([(xp._given, columns)], lambda tally: None), meta={},
                  timestamp=False)
        body = target.read_bytes().split(b"\n", 3)[3]
        assert body == csv_writer_body(names, rows)


class DiesInWorker:
    """A CSV field whose str() ends any process but the one that made it,
    so a pool worker that formats it dies."""

    def __init__(self):
        self.pid = os.getpid()

    def __str__(self):
        if os.getpid() != self.pid:
            os._exit(1)
        return "here"


@pytest.mark.usefixtures("no_pool")
class TestPooledWrite:
    @pytest.mark.parametrize("kind", ["dict", "namedtuple"])
    def test_pooled_bytes_are_the_in_process_bytes(self, tmp_path, kind):
        # 3 blocks and 1 row: a None and a quote in block 2 alone, and, for
        # sequence rows, a row of another width in block 3
        columns = ["k", "x", "tag"]
        size = xp._BLOCK_ROWS
        values = [[k, k / 7, f"r{k}"] for k in range(3 * size + 1)]
        values[size + 5][1] = None
        values[size + 9][2] = 'say "hi"'
        if kind == "dict":  # the None is a missing key
            rows = [{c: v for c, v in zip(columns, row) if v is not None} for row in values]
        else:  # a class local to the test cannot be pickled: workers get plain tuples
            Row, Short = namedtuple("Row", columns), namedtuple("Short", columns[:2])
            rows = [Row(*row) for row in values]
            rows[2 * size + 3] = Short(*values[2 * size + 3][:2])
            values[2 * size + 3] = values[2 * size + 3][:2]
        here, pooled = tmp_path / "here.csv", tmp_path / "pooled.csv"
        write_csv(here, columns, rows, meta={}, timestamp=False, workers=1)
        assert xp._POOL is None
        write_csv(pooled, columns, rows, meta={}, timestamp=False, workers=2)
        assert xp._POOL is not None
        assert pooled.read_bytes() == here.read_bytes()
        assert here.read_bytes().split(b"\n", 3)[3] == csv_writer_body(columns, values)

    def test_at_most_the_cap_of_pickled_blocks_is_in_flight(self, monkeypatch, tmp_path):
        stub = StubPool()
        monkeypatch.setattr(xp, "_pool", lambda workers: stub)
        blocks = xp._IN_FLIGHT + 4
        rows = [(k, k / 3) for k in range((blocks - 1) * xp._BLOCK_ROWS + 7)]
        target = tmp_path / "o.csv"
        write_csv(target, ["a", "b"], iter(rows), meta={}, timestamp=False, workers=2)
        assert len(stub.submitted) == blocks and all(type(p) is bytes for p in stub.submitted)
        assert stub.most_in_flight == xp._IN_FLIGHT and stub.in_flight == 0
        assert target.read_bytes().split(b"\n", 3)[3] == csv_writer_body(["a", "b"], rows)

    @pytest.mark.parametrize("rows, workers", [(xp._BLOCK_ROWS, 2), (xp._BLOCK_ROWS + 1, 1)],
                             ids=["one-block", "one-worker"])
    def test_one_block_or_one_worker_formats_here(self, monkeypatch, tmp_path, rows, workers):
        def no_pool(workers):
            raise AssertionError("a pool started")

        monkeypatch.setattr(xp, "_pool", no_pool)
        table = [(k,) for k in range(rows)]
        target = tmp_path / "o.csv"
        write_csv(target, ["a"], table, meta={}, timestamp=False, workers=workers)
        assert target.read_bytes().split(b"\n", 3)[3] == csv_writer_body(["a"], table)

    def test_dead_worker_fails_the_write_then_a_new_pool_writes(self, tmp_path):
        rows = [(k,) for k in range(2 * xp._BLOCK_ROWS)]
        first, last = tmp_path / "first.csv", tmp_path / "last.csv"
        write_csv(first, ["a"], rows, meta={}, workers=2, timestamp=False)
        pool = xp._POOL[2]
        with pytest.raises(BrokenProcessPool):
            write_csv(tmp_path / "dead.csv", ["a"], rows + [(DiesInWorker(),)], meta={},
                      workers=2)
        assert xp._POOL is None
        write_csv(last, ["a"], rows, meta={}, workers=2, timestamp=False)
        assert xp._POOL[2] is not pool
        assert last.read_bytes() == first.read_bytes()


def bounds_to(path, n=48, lambdas=(1, 2, 5)):
    """bounds-check at n levels, passes of ``oracle._BOUND_PASS`` of them,
    its rows written to ``path`` with two workers."""
    def write(report):
        write_csv(path, BOUND_COLUMNS, report.rows, meta={}, timestamp=False, workers=2)

    return check_transition_bounds(n, lambdas, write=write)


@pytest.mark.usefixtures("no_pool")
class TestPooledCheck:
    def test_killed_worker_fails_one_check_then_a_new_pool_runs(self, tmp_path):
        first, last = tmp_path / "first.csv", tmp_path / "last.csv"
        expected = bounds_to(first)
        pool = xp._POOL[2]
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._broken:  # the executor marks itself broken once it sees the death
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            bounds_to(tmp_path / "dead.csv")
        assert xp._POOL is None
        report = bounds_to(last)
        assert xp._POOL[2] is not pool
        assert last.read_bytes() == first.read_bytes()
        assert (report.checks_performed, report.violations) == (
            expected.checks_performed, expected.violations)

    def test_at_most_the_cap_of_pickled_passes_is_in_flight(self, monkeypatch, tmp_path):
        # each pass runs in the stub's submit; the tallies are taken as the
        # texts are written, so they match a check that writes here
        here = check_transition_bounds(150, (1, 3), write=lambda report: write_csv(
            tmp_path / "here.csv", BOUND_COLUMNS, report.rows, meta={}, timestamp=False,
            workers=1))
        stub = StubPool()
        monkeypatch.setattr(xp, "_pool", lambda workers: stub)
        pooled = bounds_to(tmp_path / "pooled.csv", n=150, lambdas=(1, 3))
        passes = -(-150 // oracle._BOUND_PASS)
        assert passes > xp._IN_FLIGHT + 2
        assert len(stub.submitted) == passes and all(type(p) is bytes for p in stub.submitted)
        assert stub.most_in_flight == xp._IN_FLIGHT and stub.in_flight == 0
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()
        assert (pooled.checks_performed, pooled.violations) == (
            here.checks_performed, here.violations)
