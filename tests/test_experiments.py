"""Batch runner, seeding, aggregations and CSV output."""

import math
import random

import numpy as np
import pytest

from conftest import workers
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
        if workers() < 2:
            pytest.skip("single-cpu environment")
        seq = small_batch(runs=4)
        par = run_batch(seq.config, workers=2)
        for ca, cb in zip(seq.cells, par.cells):
            for ra, rb in zip(ca.records, cb.records):
                assert ra.evaluations == rb.evaluations


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
        mon = ratchet_monitor(batch.cells[0], r_values=(0.0, 5.0))
        assert mon["fitness_drops_at_large_lambda"] == 0
        assert mon["gap_violations"][0.0] == 0
        assert mon["runs_without_gap_violation"][5.0] == 4

    def test_comma_runs_report_shape(self):
        batch = small_batch(trace="full", runs=3, n=(40,))
        mon = ratchet_monitor(batch.cells[0], r_values=(10.0,))
        assert mon["total_generations"] == sum(r.generations for r in batch.cells[0].records)
        assert 0 <= mon["drop_fraction"] <= 1

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
        target = tmp_path / "o.csv"
        rows = [[np.float64(0.5), None, 0.1], {"a": np.float64(0.25), "c": np.int64(3)}]
        write_csv(target, ["a", "b", "c"], rows, meta={}, timestamp=False)
        assert target.read_text().splitlines()[-2:] == ["0.5,,0.1", "0.25,,3"]
