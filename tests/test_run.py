"""End-to-end run semantics: stopping, determinism, traces, accounting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from onelambda.ea import (
    AlgorithmKind,
    ControllerParams,
    StopCause,
    StoppingCondition,
    round_lambda,
    run,
)
from onelambda.fitness import FitnessFunction
from onelambda.oracle import selected_child_law

P = ControllerParams(F=1.5, s=1.0)


def onemax(n):
    return FitnessFunction("onemax", n)


class TestStopCauses:
    def test_static_reaches_optimum(self):
        rec = run(
            AlgorithmKind.static_comma(4),
            onemax(10),
            P,
            StoppingCondition(max_generations=500 * 10),
            seed=3,
        )
        assert rec.stop_cause == StopCause.OPTIMUM
        assert rec.final_fitness == 10
        assert not rec.censored

    def test_generation_cap(self):
        rec = run(
            AlgorithmKind.self_adjusting_comma(),
            onemax(200),
            P,
            StoppingCondition(max_generations=5),
            seed=3,
        )
        assert rec.stop_cause == StopCause.GENERATION_CAP
        assert rec.generations == 5
        assert rec.censored

    def test_evaluation_cap_overshoots_at_generation_granularity(self):
        rec = run(
            AlgorithmKind.static_comma(7),
            onemax(500),
            P,
            StoppingCondition(max_evaluations=20, stop_on_optimum=False),
            seed=3,
        )
        assert rec.stop_cause == StopCause.EVALUATION_CAP
        assert rec.evaluations == 21  # 3 generations x 7
        assert rec.generations == 3

    def test_lambda_abort_is_censored_not_a_crash(self):
        # threshold just above 1: the first unsuccessful generation aborts
        rec = run(
            AlgorithmKind.self_adjusting_comma(),
            onemax(50),
            ControllerParams(F=1.5, s=10.0),
            StoppingCondition(max_generations=10**6, lambda_abort_threshold=1.01),
            seed=3,
        )
        assert rec.stop_cause == StopCause.LAMBDA_ABORT
        assert rec.censored
        assert rec.final_lambda > 1.01

    def test_optimum_wins_over_caps(self):
        rec = run(
            AlgorithmKind.static_comma(1),
            onemax(1),
            P,
            StoppingCondition(max_generations=1),
            seed=5,
        )
        assert rec.stop_cause == StopCause.OPTIMUM

    def test_needs_some_stop_cause(self):
        with pytest.raises(ValueError):
            StoppingCondition(stop_on_optimum=False)

    def test_default_abort_threshold_one_growth_step_past_guard(self):
        import math

        from onelambda.ea import default_lambda_abort_threshold

        params = ControllerParams(F=1.5, s=2.0)
        got = default_lambda_abort_threshold(10, params)
        assert got == pytest.approx(math.e * 1.5 ** (1 / 2.0) * 10**3 * 1.5 ** (1 / 2.0))


class TestDeterminism:
    def test_identical_seed_identical_record(self):
        kw = dict(trace_level="full")
        a = run(AlgorithmKind.self_adjusting_comma(), onemax(60), P,
                StoppingCondition(max_generations=500 * 60), 42, **kw)
        b = run(AlgorithmKind.self_adjusting_comma(), onemax(60), P,
                StoppingCondition(max_generations=500 * 60), 42, **kw)
        assert a.generations == b.generations
        assert a.evaluations == b.evaluations
        for key in a.rows:
            assert np.array_equal(a.rows[key], b.rows[key])

    def test_different_seeds_differ(self):
        a = run(AlgorithmKind.self_adjusting_comma(), onemax(60), P,
                StoppingCondition(max_generations=500 * 60), 1)
        b = run(AlgorithmKind.self_adjusting_comma(), onemax(60), P,
                StoppingCondition(max_generations=500 * 60), 2)
        assert (a.evaluations, a.generations) != (b.evaluations, b.generations)


class TestTraces:
    def trace_run(self, kind, n=40, s=1.0, seed=11, **stop_kw):
        return run(
            kind,
            onemax(n),
            ControllerParams(F=1.5, s=s),
            StoppingCondition(max_generations=500 * n, **stop_kw),
            seed,
            trace_level="full",
        )

    def test_static_lambda_constant(self):
        rec = self.trace_run(AlgorithmKind.static_comma(6))
        assert np.all(rec.rows["lambda_real"] == 6.0)
        assert np.all(rec.rows["lambda_int"] == 6)

    def test_evaluation_accounting(self):
        rec = self.trace_run(AlgorithmKind.self_adjusting_comma())
        lam_int = rec.rows["lambda_int"]
        evals = rec.rows["evaluations"]
        # generation t consumes row t-1's offspring count
        assert np.array_equal(np.diff(evals), lam_int[:-1])
        assert rec.evaluations == int(lam_int[:-1].sum())
        # lambda_int column is the rounding of lambda_real
        assert all(round_lambda(lr) == li for lr, li in
                   zip(rec.rows["lambda_real"], rec.rows["lambda_int"]))

    def test_plus_fitness_monotone(self):
        rec = self.trace_run(AlgorithmKind.self_adjusting_plus())
        fit = rec.rows["fitness_raw"]
        assert np.all(np.diff(fit) >= 0)

    def test_comma_can_fall_back_and_lambda_stays_above_one(self):
        rec = self.trace_run(AlgorithmKind.self_adjusting_comma(), n=100, seed=2)
        fit = rec.rows["fitness_raw"]
        assert np.any(np.diff(fit) < 0)  # non-elitism visible
        assert np.all(rec.rows["lambda_real"] >= 1.0)

    def test_best_so_far_is_running_max(self):
        rec = self.trace_run(AlgorithmKind.self_adjusting_comma(), n=80, seed=9)
        fit = rec.rows["fitness_raw"]
        assert np.array_equal(rec.rows["best_raw"], np.maximum.accumulate(fit))

    def test_levels_match_full_trace_recomputation(self):
        rec = self.trace_run(AlgorithmKind.self_adjusting_comma(), n=50, seed=13)
        fit = rec.rows["fitness_raw"]
        lam_int = rec.rows["lambda_int"]
        evals = rec.rows["evaluations"]
        best = rec.rows["best_raw"]
        size = rec.gens_at.size
        gens_at = np.zeros(size, dtype=np.int64)
        lam_at = np.zeros(size, dtype=np.int64)
        for t in range(fit.size - 1):  # generation t+1 ran from row t's state
            gens_at[fit[t]] += 1
            lam_at[fit[t]] += lam_int[t]
        assert np.array_equal(gens_at, rec.gens_at)
        assert np.array_equal(lam_at, rec.lambda_sum_at)
        first = np.full(size, -1, dtype=np.int64)
        for t in range(fit.size):
            head = first[: best[t] + 1]
            head[head < 0] = evals[t]
        assert np.array_equal(first, rec.first_hit_evals)

    def test_first_hit_zero_for_initial_fitness(self):
        rec = self.trace_run(AlgorithmKind.self_adjusting_comma(), n=64, seed=21)
        f0 = rec.rows["fitness_raw"][0]
        assert np.all(rec.first_hit_evals[: f0 + 1] == 0)
        hits = rec.first_hit_evals[rec.first_hit_evals >= 0]
        assert np.all(np.diff(hits) >= 0)  # monotone in the target


class TestOtherFunctions:
    @pytest.mark.parametrize("spec", ["zeromax", "twomax", "jump:2", "cliff:2", "cliff:6", "ridge"])
    def test_runs_reach_optimum_on_small_instances(self, spec):
        n = 8
        fn = FitnessFunction.parse(spec, n)
        rec = run(
            AlgorithmKind.self_adjusting_comma(),
            fn,
            ControllerParams(F=1.5, s=0.5),
            StoppingCondition(max_generations=200_000),
            seed=123,
        )
        assert rec.stop_cause == StopCause.OPTIMUM
        assert rec.final_fitness == fn.display(fn.optimum_raw)

    def test_cliff_trace_fitness_is_half_integer(self):
        fn = FitnessFunction.parse("cliff:2", 10)
        rec = run(
            AlgorithmKind.self_adjusting_comma(),
            fn,
            ControllerParams(F=1.5, s=0.5),
            StoppingCondition(max_generations=100_000),
            seed=5,
        )
        assert rec.final_fitness == 8.5


class TestSeedForms:
    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(7, spawn_key=(1, 2))
        rec = run(AlgorithmKind.static_comma(2), onemax(12), P,
                  StoppingCondition(max_generations=50000), ss)
        assert rec.seed_key == (7, 1, 2)


class TestEngines:
    def test_single_generation_improvement_rate_matches_oracle(self):
        # one-generation runs from random parents; condition on the modal
        # initial fitness and compare against the exact oracle
        import math

        from onelambda.oracle import level_quantities

        n, lam = 12, 3
        kind = AlgorithmKind.static_comma(lam)
        stop = StoppingCondition(max_generations=1, stop_on_optimum=False)
        counts = {}
        for seed in range(30_000):
            rec = run(kind, onemax(n), P, stop, seed)
            key = int(rec.initial_fitness)
            won = rec.final_fitness > rec.initial_fitness
            tot, good = counts.get(key, (0, 0))
            counts[key] = (tot + 1, good + won)
        tot, good = counts[6]  # modal initial fitness at n=12
        p = level_quantities(n, 6, lam).p_plus
        se = math.sqrt(p * (1 - p) / tot)
        assert abs(good / tot - p) <= 4 * se

    def test_engines_refuse_mismatched_function(self):
        # the exact law works through the level table; ridge, whose value
        # depends on the bit layout, has none and runs on bit mutation
        with pytest.raises(ValueError):
            FitnessFunction("ridge", 8).level_table()
        with pytest.raises(ValueError):
            selected_child_law(FitnessFunction("ridge", 8), 3, 2)

    @pytest.mark.parametrize("selection", ["comma", "plus"])
    def test_level_run_memory_is_bounded_at_large_n(self, selection):
        # the law is built for the blocks of levels a run visits: a table
        # over every level would be 61 * (n+1) float64, 49 MB per array
        tracemalloc.start()
        try:
            run(AlgorithmKind(selection), onemax(10**5), P,
                StoppingCondition(max_generations=5), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak

    def test_second_run_builds_no_level_table(self, monkeypatch):
        fn = FitnessFunction("jump", 137, 4)
        stop = StoppingCondition(max_generations=3)
        first = run(AlgorithmKind.self_adjusting_comma(), fn, P, stop, 1)
        table = fn.level_table()
        assert not table.flags.writeable
        # an equal function reads the same table; nothing scores a level again
        monkeypatch.setattr(FitnessFunction, "raw_from_ones", None)
        again = run(AlgorithmKind.self_adjusting_comma(), FitnessFunction("jump", 137, 4),
                    P, stop, 1)
        assert again == first
        assert FitnessFunction("jump", 137, 4).level_table() is table

    def test_genotype_engine_deterministic(self):
        # ridge children are scored on the genotype, flipped in place
        a = run(AlgorithmKind.self_adjusting_comma(), FitnessFunction("ridge", 40), P,
                StoppingCondition(max_generations=20000), 4, trace_level="full")
        b = run(AlgorithmKind.self_adjusting_comma(), FitnessFunction("ridge", 40), P,
                StoppingCondition(max_generations=20000), 4, trace_level="full")
        assert a.stop_cause == StopCause.OPTIMUM
        for key in a.rows:
            assert np.array_equal(a.rows[key], b.rows[key])


_CAUSES = (StopCause.OPTIMUM, StopCause.LAMBDA_ABORT, StopCause.EVALUATION_CAP,
           StopCause.GENERATION_CAP)


def causes_holding(rec, fn, stop, t):
    """The stop causes that hold at full-trace row t, in precedence order."""
    rows = rec.rows
    holds = {
        StopCause.OPTIMUM: stop.stop_on_optimum and rows["fitness_raw"][t] >= fn.optimum_raw,
        StopCause.LAMBDA_ABORT: t >= 1 and rows["lambda_real"][t] > stop.lambda_abort_threshold,
        StopCause.EVALUATION_CAP: (stop.max_evaluations is not None
                                   and rows["evaluations"][t] >= stop.max_evaluations),
        StopCause.GENERATION_CAP: stop.max_generations is not None and t >= stop.max_generations,
    }
    return [c for c in _CAUSES if holds[c]]


class TestStopCausePrecedence:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(3, 10),
        spec=st.sampled_from(["onemax", "zeromax", "twomax", "jump", "cliff", "ridge"]),
        selection=st.sampled_from(["comma", "plus", "static"]),
        s=st.sampled_from([0.5, 1.0, 3.0]),
        lambda0=st.floats(1.0, 40.0),
        abort=st.floats(1.0, 500.0),  # finite: bounds every generation's offspring count
        max_gens=st.none() | st.integers(0, 30),
        max_evals=st.none() | st.integers(0, 300),
        stop_on_optimum=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_first_holding_cause_in_precedence_order(
        self, n, spec, selection, s, lambda0, abort, max_gens, max_evals, stop_on_optimum, seed
    ):
        assume(stop_on_optimum or max_gens is not None or max_evals is not None)
        fn = FitnessFunction.parse(spec + {"jump": ":2", "cliff": ":1"}.get(spec, ""), n)
        kind = {"comma": AlgorithmKind.self_adjusting_comma(),
                "plus": AlgorithmKind.self_adjusting_plus(),
                "static": AlgorithmKind.static_comma(round_lambda(lambda0))}[selection]
        stop = StoppingCondition(max_generations=max_gens, max_evaluations=max_evals,
                                 stop_on_optimum=stop_on_optimum, lambda_abort_threshold=abort)
        rec = run(kind, fn, ControllerParams(F=1.5, s=s), stop, seed, trace_level="full",
                  lambda0=lambda0)
        last = rec.generations
        assert rec.rows["generation"][-1] == last
        for t in range(last):
            assert causes_holding(rec, fn, stop, t) == [], t
        held = causes_holding(rec, fn, stop, last)
        assert held and held[0] == rec.stop_cause
        if last == 0:
            assert rec.stop_cause != StopCause.LAMBDA_ABORT
