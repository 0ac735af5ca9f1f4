"""Rounding and lambda-update rules of the success-based controller."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onelambda.ea import (
    AlgorithmKind,
    ControllerParams,
    StoppingCondition,
    round_lambda,
    run,
    update_lambda,
)
from onelambda.fitness import FitnessFunction


class TestRounding:
    def test_half_up_cases(self):
        assert round_lambda(1.0) == 1
        assert round_lambda(1.49) == 1
        assert round_lambda(1.5) == 2
        assert round_lambda(2.49) == 2
        assert round_lambda(2.5) == 3

    @given(st.floats(min_value=1.0, max_value=1e9))
    def test_nearest_integer_half_up(self, x):
        r = round_lambda(x)
        assert abs(r - x) <= 0.5
        frac = x - math.floor(x)
        if frac >= 0.5:
            assert r == math.floor(x) + 1
        else:
            assert r == math.floor(x)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControllerParams(F=1.0, s=1.0)
        with pytest.raises(ValueError):
            ControllerParams(F=1.5, s=0.0)

    @given(
        st.floats(min_value=1.01, max_value=10.0),
        st.floats(min_value=0.05, max_value=50.0),
    )
    def test_equilibrium_identity(self, F, s):
        p = ControllerParams(F=F, s=s)
        assert abs(p.growth_factor ** s / p.F - 1.0) < 1e-12


class TestUpdate:
    def test_success_divides(self):
        assert update_lambda(4.0, True, ControllerParams(F=2.0, s=1.0)) == 2.0

    def test_lower_clamp(self):
        for F in (1.2, 2.0, 10.0):
            assert update_lambda(1.0, True, ControllerParams(F=F, s=1.0)) == 1.0

    def test_failure_grows_by_root(self):
        got = update_lambda(1.0, False, ControllerParams(F=1.5, s=4.0))
        assert abs(got - math.exp(math.log(1.5) / 4.0)) < 1e-15  # 1.10668...

    def test_sequence_equilibrium(self):
        # s failures and one success, shuffled, return lambda (no clamp active)
        rnd = random.Random(5)
        for _ in range(200):
            s = rnd.randint(1, 30)
            F = rnd.uniform(1.05, 5.0)
            p = ControllerParams(F=F, s=float(s))
            lam0 = rnd.uniform(F, 100.0 * F)
            steps = [False] * s + [True]
            rnd.shuffle(steps)
            lam = lam0
            for success in steps:
                lam = update_lambda(lam, success, p)
            assert abs(lam - lam0) / lam0 < 1e-9

    def test_never_below_one(self):
        rnd = random.Random(11)
        p = ControllerParams(F=3.0, s=2.0)
        lam = 1.0
        for _ in range(10_000):
            lam = update_lambda(lam, rnd.random() < 0.7, p)
            assert lam >= 1.0


class TestRunExecutesUpdate:
    """The run loop's lambda step is update_lambda, row by row, exactly
    (static runs keep lambda: TestTraces.test_static_lambda_constant)."""

    @pytest.mark.parametrize("selection", ["comma", "plus"])
    @pytest.mark.parametrize("spec", ["onemax", "twomax", "jump:3", "cliff:5", "ridge"])
    def test_adaptive_rows_follow_update_lambda(self, selection, spec):
        p = ControllerParams(F=1.7, s=2.5)
        for seed in range(3):
            rec = run(AlgorithmKind(selection), FitnessFunction.parse(spec, 16), p,
                      StoppingCondition(max_generations=3000), seed, trace_level="full",
                      lambda0=2.2)
            fit = rec.rows["fitness_raw"].tolist()
            lam = rec.rows["lambda_real"].tolist()
            assert lam[0] == 2.2 and len(lam) > 1
            for t in range(len(lam) - 1):
                assert lam[t + 1] == update_lambda(lam[t], fit[t + 1] > fit[t], p)
