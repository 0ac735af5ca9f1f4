"""Exact transition distributions, sandwich bounds, potentials and drifts."""

import itertools
import math

import numpy as np
import pytest

from onelambda import oracle
from onelambda.ea import ControllerParams, round_lambda
from onelambda.fitness import FitnessFunction
from onelambda.oracle import (
    CHILD_WINDOW,
    _power_pmf,
    _single_parts,
    best_of_lambda_pmf,
    check_transition_bounds,
    drift_claim,
    drift_grid_check,
    elitist_evaluations_bound,
    exact_potential_drift,
    g1_grid_lambdas,
    g2_band_states,
    level_quantities,
    level_row,
    make_potential,
    max_flip_gain_series,
    selected_child_law,
)

E = math.e


class TestSingleOffspringDistribution:
    def test_two_bit_enumeration(self):
        # all 4 mutation masks of 2 bits, parent 10: {} -> 1, {b1} -> 0,
        # {b2} -> 2, {b1,b2} -> 1, each with probability 1/4
        pmf = best_of_lambda_pmf(2, 1, 1)
        assert np.allclose(pmf, [0.25, 0.5, 0.25], atol=1e-15)

    def test_forced_flip_n1(self):
        assert np.allclose(best_of_lambda_pmf(1, 0, 1), [0.0, 1.0], atol=0)
        assert np.allclose(best_of_lambda_pmf(1, 1, 1), [1.0, 0.0], atol=0)

    def test_matches_direct_mask_enumeration(self):
        # independent oracle: enumerate all 2^n masks for a concrete parent
        for n, i in [(3, 1), (5, 2), (6, 6), (7, 0)]:
            parent = [1] * i + [0] * (n - i)
            pmf = np.zeros(n + 1)
            for mask in itertools.product((0, 1), repeat=n):
                k = sum(mask)
                child_ones = sum(b ^ m for b, m in zip(parent, mask))
                pmf[child_ones] += (1.0 / n) ** k * (1.0 - 1.0 / n) ** (n - k)
            got = best_of_lambda_pmf(n, i, 1)
            assert np.allclose(got, pmf, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_normalization(self, n):
        for i in range(n + 1):
            s = best_of_lambda_pmf(n, i, 1).sum()
            assert abs(s - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2000, 5000])
    def test_normalization_at_large_n(self, n):
        # C1's tolerance, every n/50-th level
        for i in range(0, n + 1, n // 50):
            s = best_of_lambda_pmf(n, i, 1).sum()
            assert abs(s - 1.0) < 1e-12, (n, i)


class TestBestOfLambda:
    def test_lambda_one_identity(self):
        # lam = 1 is the one-offspring convolution pmf itself
        for n, i in [(2, 1), (10, 4), (30, 29)]:
            a = _single_parts(n, i)[0]
            b = best_of_lambda_pmf(n, i, 1)
            assert np.allclose(a, b, atol=1e-12)

    def test_power_route_matches_convolution_at_lambda_one(self):
        # differencing of CDF^1 must reproduce the convolution pmf
        for n, i in [(10, 3), (50, 47), (163, 140)]:
            pmf, logcdf = _single_parts(n, i)
            assert np.allclose(_power_pmf(logcdf, 1), pmf, atol=1e-12)

    def test_two_bit_lambda_two(self):
        # P(best of 2 reaches fitness 2) = 1 - (3/4)^2 = 7/16
        pmf = best_of_lambda_pmf(2, 1, 2)
        assert abs(pmf[2] - 7.0 / 16.0) < 1e-14
        assert abs(pmf[0] - 1.0 / 16.0) < 1e-14

    def test_fallback_probability_is_single_power(self):
        # full grid n <= 50: the differencing route must reproduce the
        # closed-form power identity
        for n in (2, 10, 50):
            for i in range(1, n):
                p1 = best_of_lambda_pmf(n, i, 1)[:i].sum()
                for lam in range(1, 65):
                    pl = best_of_lambda_pmf(n, i, lam)[:i].sum()
                    assert abs(pl - p1**lam) < 1e-10

    def test_normalization_with_lambda(self):
        for n in (10, 50):
            for i in range(0, n, 7):
                for lam in (2, 16, 64):
                    s = best_of_lambda_pmf(n, i, lam).sum()
                    assert abs(s - 1.0) < 1e-12

    @pytest.mark.parametrize("lam", [0, -2])
    def test_lambda_below_one_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            best_of_lambda_pmf(10, 4, lam)
        with pytest.raises(ValueError, match="lam"):
            level_quantities(10, 4, lam)


def level_functions(n):
    """Every level function at size n, jump and cliff at every parameter."""
    fns = [FitnessFunction(kind, n) for kind in ("onemax", "zeromax", "twomax")]
    return fns + [FitnessFunction(kind, n, d) for kind in ("jump", "cliff") for d in range(1, n)]


class TestSelectedChildLaw:
    # the stated bound on the mass outside the window, plus the rounding of
    # the binomial masses (a few 1e-16 since the ratio recurrence; log-gamma
    # masses missed 1 by 6e-13 at n=1000, which only best_of_lambda_pmf kept)
    @staticmethod
    def tolerance(lam):
        return lam / math.factorial(CHILD_WINDOW + 1) + 1e-11

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
    def test_normalization_every_level_function(self, n):
        # n = 1 flips the only bit with probability 1
        for fn in level_functions(n):
            for i in range(n + 1):
                for lam in (1, 2, 7, 64, 10**4, 10**9):
                    for selection in ("comma", "plus"):
                        lo, pmf = selected_child_law(fn, i, lam, selection)
                        assert abs(pmf.sum() - 1.0) <= 1e-12, (fn, i, lam, selection)
                        assert pmf.min() >= 0.0
                        assert max(0, i - CHILD_WINDOW) == lo
                        assert lo + pmf.size - 1 == min(n, i + CHILD_WINDOW)

    def test_n1_forced_flip(self):
        for i in (0, 1):
            lo, pmf = selected_child_law(FitnessFunction("onemax", 1), i, 3, "comma")
            assert lo == 0 and list(pmf) == [float(i == 1), float(i == 0)]

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_onemax_agrees_with_best_of_lambda_pmf(self, n):
        fn = FitnessFunction("onemax", n)
        for i in sorted({0, 1, n // 3, n // 2, n - 2, n - 1}):
            for lam in (1, 3, 50, 10**5, 10**9):
                lo, pmf = selected_child_law(fn, i, lam)
                ref = best_of_lambda_pmf(n, i, lam)
                tol = self.tolerance(lam)
                assert np.abs(pmf - ref[lo : lo + pmf.size]).max() <= tol, (i, lam)
                assert ref[:lo].sum() + ref[lo + pmf.size :].sum() <= tol, (i, lam)

    def test_plus_keeps_the_parent_when_every_child_is_worse(self):
        # onemax at the optimum: every child ties or is worse
        fn = FitnessFunction("onemax", 30)
        lo, pmf = selected_child_law(fn, 30, 4, "plus")
        assert pmf[30 - lo] == pytest.approx(1.0, abs=1e-15)
        comma_lo, comma = selected_child_law(fn, 30, 4, "comma")
        assert comma[30 - comma_lo] == pytest.approx(best_of_lambda_pmf(30, 30, 4)[30], abs=1e-13)

    def test_rejects_ridge_lambda_below_one_and_unknown_selection(self):
        with pytest.raises(ValueError):
            selected_child_law(FitnessFunction("ridge", 8), 3, 2)
        with pytest.raises(ValueError):
            selected_child_law(FitnessFunction("onemax", 8), 3, 0)
        with pytest.raises(ValueError):
            selected_child_law(FitnessFunction("onemax", 8), 3, 2, "elitist")
        with pytest.raises(ValueError):
            selected_child_law(FitnessFunction("onemax", 8), 9, 2)


class TestLevelQuantities:
    def test_two_bit_values(self):
        q = level_quantities(2, 1, 1)
        assert abs(q.p_plus - 0.25) < 1e-14
        assert abs(q.p_zero - 0.5) < 1e-14
        assert abs(q.p_minus - 0.25) < 1e-14
        assert abs(q.delta_plus - 1.0) < 1e-12
        assert abs(q.delta_minus - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 17, 100])
    def test_last_level_single_flip_formula(self, n):
        # from i = n-1 an improvement needs exactly the one 0-bit to flip
        q = level_quantities(n, n - 1, 1)
        expected = (1.0 / n) * (1.0 - 1.0 / n) ** (n - 1)
        assert abs(q.p_plus - expected) < 1e-14

    def test_probabilities_sum_to_one(self):
        for n in (10, 163):
            for i in range(0, n, 13):
                for lam in (1, 3, 32):
                    q = level_quantities(n, i, lam)
                    assert abs(q.p_plus + q.p_zero + q.p_minus - 1.0) < 1e-12

    def test_moments_of_the_best_of_lambda_pmf(self):
        for n, i, lam in [(2, 1, 1), (20, 0, 3), (20, 15, 3), (100, 70, 8), (163, 140, 64)]:
            q = level_quantities(n, i, lam)
            pmf = best_of_lambda_pmf(n, i, lam)
            j = np.arange(n + 1)
            assert q.p_zero == pmf[i]
            assert abs(q.p_plus - pmf[i + 1 :].sum()) < 1e-12
            assert abs(q.p_minus - pmf[:i].sum()) < 1e-12
            assert abs(q.gain - ((j - i) * pmf)[i + 1 :].sum()) < 1e-12
            assert abs(q.loss - ((i - j) * pmf)[:i].sum()) < 1e-12
            assert q.delta_plus == q.gain / q.p_plus

    def test_drift_reads_the_cached_level_record(self):
        level_row.cache_clear()
        pot = make_potential("g2", F=1.5)
        exact_potential_drift(pot, 30, 20, 2.6, ControllerParams(F=1.5, s=1.0))
        assert level_row.cache_info().currsize == 1
        assert level_quantities(30, 20, 3) is level_quantities(30, 20, 3)

    def test_undefined_markers(self):
        q = level_quantities(10, 0, 4)
        assert q.p_minus == 0.0 and q.delta_minus is None
        assert q.delta_plus is not None

    def test_p_plus_monotone_in_i_and_lambda(self):
        n = 50
        lams = (1, 2, 5, 17, 64)
        vals = {lam: [level_quantities(n, i, lam).p_plus for i in range(n)] for lam in lams}
        for lam in lams:
            assert all(a >= b - 1e-14 for a, b in zip(vals[lam], vals[lam][1:]))
        for i in range(0, n, 5):
            seq = [vals[lam][i] for lam in lams]
            assert all(b >= a - 1e-14 for a, b in zip(seq, seq[1:]))


def reference_level_quantities(n, i, lam):
    """The per-lam level record: one 1-D CDF power and plain sums."""
    pmf, logcdf = _single_parts(n, i)
    if lam > 1:
        pmf = _power_pmf(logcdf, lam)
    lc_i = lam * logcdf[i]
    p_plus = -math.expm1(lc_i) if np.isfinite(lc_i) else 1.0
    lc_im1 = lam * logcdf[i - 1] if i > 0 else -np.inf
    p_minus = math.exp(lc_im1) if np.isfinite(lc_im1) else 0.0
    j = np.arange(n + 1)
    gain = float(((j[i + 1 :] - i) * pmf[i + 1 :]).sum())
    loss = float(((i - j[:i]) * pmf[:i]).sum())
    return (p_plus, float(pmf[i]), p_minus, gain, loss)


class TestLevelRow:
    LAMS = (1, 2, 3, 7, 64, 2446, 10**6, 10**9)

    @pytest.mark.parametrize("n", [1, 2, 10, 200, 1000])
    def test_row_is_the_per_lambda_record_bitwise(self, n):
        for lams in (self.LAMS, (64, 1, 10**9, 7, 1, 3, 64)):
            for i in range(n):
                row = level_row(n, i, lams)
                assert [q.lam for q in row] == list(lams)
                for q in row:
                    got = (q.p_plus, q.p_zero, q.p_minus, q.gain, q.loss)
                    assert got == reference_level_quantities(n, i, q.lam), (n, i, q.lam)

    def test_level_quantities_is_the_one_lambda_row(self):
        assert level_quantities(40, 30, 5) is level_row(40, 30, (5,))[0]

    @pytest.mark.parametrize("lams", [(3, 0, 2), (-1,), (1, 2, -5)])
    def test_lambda_below_one_rejected(self, lams):
        with pytest.raises(ValueError, match="lam"):
            level_row(10, 4, lams)


def test_every_oracle_memo_clears_and_refills():
    memos = [f for f in vars(oracle).values() if callable(getattr(f, "cache_clear", None))]
    names = {f.__name__ for f in memos}
    assert {"_single_parts", "_law_block", "level_row", "max_flip_gain_series"} <= names
    pot, states, threshold, direction = drift_claim("g1", 30, 1.5, 0.5)
    params = ControllerParams(F=1.5, s=0.5)

    def misses():
        drift_grid_check(pot, params, 30, states, threshold, direction)
        return level_row.cache_info().misses, _single_parts.cache_info().misses

    for f in memos:
        f.cache_clear()
    cold = misses()
    assert cold == (30, 30)  # one row and one single-child law per level
    assert misses() == cold  # warm: no new misses
    for f in memos:
        f.cache_clear()
    assert misses() == cold


class TestTransitionBounds:
    def test_series_value_at_lambda_one(self):
        assert abs(max_flip_gain_series(1) - (E - 1.0)) < 1e-12

    def test_no_violations_small_grid(self):
        report = check_transition_bounds(10)
        assert report.ok, report.violations[:5]
        assert report.checks_performed > 0

    def test_empty_grid_is_not_a_pass(self):
        for report in (check_transition_bounds(0), check_transition_bounds(10, lambdas=())):
            assert report.states_checked == 0 and not report.violations
            assert not report.ok

    def test_hard_band_cap_checked_at_163(self):
        report = check_transition_bounds(163, lambdas=(1,), collect_rows=True)
        assert report.ok
        rows = [c for c in report.rows if c.name == "p_plus_upper_hard_band"]
        assert sorted({c.i for c in rows}) == [137, 138]  # the 0.84n..0.85n levels
        assert all(c.exact <= 0.069 for c in rows)

    def test_log_cap_applies_from_lambda_five(self):
        report = check_transition_bounds(20, lambdas=(4, 5, 8), collect_rows=True)
        assert report.ok
        rows = [c for c in report.rows if c.name == "delta_plus_upper_log"]
        assert {c.lam for c in rows} == {5, 8}
        five = next(c for c in rows if c.lam == 5)
        assert abs(five.bound - (math.ceil(math.log2(5)) + 0.413)) < 1e-15  # 3.413

    def test_refined_upper_restricted_to_hard_levels(self):
        n = 50
        report = check_transition_bounds(n, lambdas=(1, 2), collect_rows=True)
        assert report.ok
        rows = [c for c in report.rows if c.name == "p_plus_upper_refined"]
        assert rows and all(c.i >= 0.87 * n for c in rows)

    def test_negative_base_lower_bound_skipped(self):
        # (i/n - 1/e)^lam is only meaningful once i/n >= 1/e
        report = check_transition_bounds(20, lambdas=(2,), collect_rows=True)
        rows = [c for c in report.rows if c.name == "p_minus_lower"]
        assert all(c.i / 20 >= 1 / E for c in rows)


def brute_force_drift(n, i, lam_real, potential, params, cap_gain_at_one=False):
    """Independent oracle: joint enumeration over all (2^n)^lam mask tuples."""
    from onelambda.ea import round_lambda

    lam_int = round_lambda(lam_real)
    parent = np.array([1] * i + [0] * (n - i), dtype=np.uint8)
    masks = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)
    kflips = masks.sum(axis=1)
    probs = (1.0 / n) ** kflips * (1.0 - 1.0 / n) ** (n - kflips)
    fits = (masks ^ parent).sum(axis=1).astype(np.int64)
    # joint outcome: best fitness over lam_int independent offspring
    shape = [1] * lam_int
    joint_f = np.zeros([len(masks)] * lam_int, dtype=np.int64)
    joint_p = np.ones([len(masks)] * lam_int)
    for axis in range(lam_int):
        sh = shape.copy()
        sh[axis] = len(masks)
        joint_f = np.maximum(joint_f, fits.reshape(sh))
        joint_p = joint_p * probs.reshape(sh)
    # capping affects improvements only; ties and losses keep their raw change
    gain = np.minimum(joint_f - i, 1) if cap_gain_at_one else (joint_f - i)
    lam_succ = max(1.0, lam_real / params.F)
    lam_fail = lam_real * params.growth_factor
    h_next = np.where(joint_f > i, potential.h(lam_succ), potential.h(lam_fail))
    return float((joint_p * (gain + h_next - potential.h(lam_real))).sum())


class TestExactPotentialDrift:
    def test_matches_brute_force_small(self):
        params = ControllerParams(F=1.5, s=0.5)
        g1 = make_potential("g1", F=1.5, s=0.5, n=4)
        g2 = make_potential("g2", F=1.5)
        for pot in (g1, g2):
            for i in range(4):
                for lam_real in (1.0, 1.5, 2.49):
                    want = brute_force_drift(4, i, lam_real, pot, params)
                    got = exact_potential_drift(pot, 4, i, lam_real, params)
                    assert abs(got - want) < 1e-9, (pot.kind, i, lam_real)

    def test_capped_variant_matches_brute_force(self):
        params = ControllerParams(F=1.5, s=0.5)
        pot = make_potential("g1", F=1.5, s=0.5, n=5)
        for i in (0, 2, 4):
            want = brute_force_drift(5, i, 2.0, pot, params, cap_gain_at_one=True)
            got = exact_potential_drift(pot, 5, i, 2.0, params, cap_gain_at_one=True)
            assert abs(got - want) < 1e-9

    def test_capped_never_exceeds_uncapped(self):
        params = ControllerParams(F=1.5, s=1.0)
        pot = make_potential("g1", F=1.5, s=1.0, n=60)
        for i in range(0, 60, 7):
            for lam in (1.0, 2.5, 7.0):
                full = exact_potential_drift(pot, 60, i, lam, params)
                capped = exact_potential_drift(pot, 60, i, lam, params, cap_gain_at_one=True)
                assert capped <= full + 1e-12

    def test_monte_carlo_agreement(self):
        # simulation oracle: vectorised flip-count + hypergeometric sampling
        n, i, lam_real, lam_int = 100, 70, 4.0, 4
        params = ControllerParams(F=1.5, s=1.0)
        pot = make_potential("g1", F=1.5, s=1.0, n=n)
        rng = np.random.default_rng(2024)
        trials = 1_000_000
        ks = rng.binomial(n, 1.0 / n, size=(trials, lam_int))
        a = np.zeros_like(ks)
        mask = ks > 0
        a[mask] = rng.hypergeometric(i, n - i, ks[mask])
        best = (i + ks - 2 * a).max(axis=1)
        h_succ = pot.h(max(1.0, lam_real / params.F))
        h_fail = pot.h(lam_real * params.growth_factor)
        deltas = (best - i) + np.where(best > i, h_succ, h_fail) - pot.h(lam_real)
        exact = exact_potential_drift(pot, n, i, lam_real, params)
        sem = deltas.std(ddof=1) / math.sqrt(trials)
        assert abs(deltas.mean() - exact) <= 3 * sem


class TestPotentials:
    def test_log_squared_fixed_points(self):
        pot = make_potential("g2", F=1.5)
        assert pot.value(12.0, 1.0) == 12.0
        assert abs(pot.value(12.0, 1.5) - 14.2) < 1e-12  # log_F F = 1 -> +2.2

    def test_penalty_cap(self):
        F, s, n = 1.5, 0.5, 100
        pot = make_potential("g1", F=F, s=s, n=n)
        cap = E * n * F ** (1.0 / s)
        assert pot.value(10.0, cap) == 10.0
        assert pot.value(10.0, 2 * cap) == 10.0
        # at lambda = 1 the full penalty applies
        expected = 10.0 - (2 * s / (s + 1)) * math.log(cap) / math.log(F)
        assert abs(pot.value(10.0, 1.0) - expected) < 1e-12

    def test_registry_errors(self):
        with pytest.raises(ValueError):
            make_potential("g3", F=1.5)
        with pytest.raises(ValueError):
            make_potential("g1", F=1.5)  # missing s, n


class TestDriftGridCheck:
    def test_band_empty_at_small_n(self):
        states = g2_band_states(100, 1.5)
        assert states == []
        params = ControllerParams(F=1.5, s=18.0)
        report = drift_grid_check(
            make_potential("g2", F=1.5), params, 100, states, -0.0008, "max_at_most"
        )
        assert report.empty and not report.ok  # no states in band is not a pass

    def test_band_states_at_n1000(self):
        states = g2_band_states(1000, 1.5)
        assert states
        i_vals = {i for i, _ in states}
        assert min(i_vals) >= 841 and max(i_vals) <= 849
        lam_vals = {lam for _, lam in states}
        assert min(lam_vals) >= 1.0 and max(lam_vals) <= 2.4

    def test_reports_violations_without_raising(self):
        params = ControllerParams(F=1.5, s=1.0)
        pot = make_potential("g1", F=1.5, s=1.0, n=30)
        report = drift_grid_check(
            pot, params, 30, [(10, 1.0), (20, 2.0)], 10.0, "min_at_least"
        )
        assert len(report.violations) == 2 and not report.ok

    @pytest.mark.parametrize("direction", ["min_at_least", "max_at_most"])
    def test_rows_carry_margin_and_verdict(self, direction):
        params = ControllerParams(F=1.5, s=0.5)
        pot = make_potential("g1", F=1.5, s=0.5, n=30)
        states = [(i, lam) for i in range(0, 30, 2) for lam in (1.0, 2.5, 7.0)]
        first = drift_grid_check(pot, params, 30, states, 0.0, direction, collect_rows=True)
        # an odd count, so one state sits exactly on the threshold and passes
        threshold = float(np.median([row[4] for row in first.rows]))
        report = drift_grid_check(pot, params, 30, states, threshold, direction,
                                  collect_rows=True)
        flagged = []
        for n, i, lam, lam_int, d, thr, margin, passed in report.rows:
            assert (n, thr, lam_int) == (30, threshold, round_lambda(lam))
            assert margin == (d - thr if direction == "min_at_least" else thr - d)
            assert passed == (d >= thr if direction == "min_at_least" else d <= thr)
            if not passed:
                flagged.append((i, lam, d))
        assert flagged == report.violations and len(flagged) == len(states) // 2


class TestDriftClaim:
    def test_g1_floor_over_the_full_grid(self):
        n, F, s = 30, 1.5, 0.5
        pot, states, threshold, direction = drift_claim("g1", n, F, s)
        assert pot.kind == "g1" and (pot.F, pot.s, pot.n) == (F, s, n)
        lams = g1_grid_lambdas(n, ControllerParams(F=F, s=s))
        assert states == [(i, lam) for i in range(n) for lam in lams]
        assert threshold == (1 - s) / (2 * E) and direction == "min_at_least"

    def test_g2_ceiling_over_the_band(self):
        pot, states, threshold, direction = drift_claim("g2", 1000, 1.5, 18.0)
        assert pot.kind == "g2" and pot.F == 1.5
        assert states == g2_band_states(1000, 1.5)
        assert (threshold, direction) == (-0.0008, "max_at_most")

    def test_unknown_potential(self):
        with pytest.raises(ValueError):
            drift_claim("g3", 30, 1.5, 1.0)


class TestElitistEvaluationsBound:
    def test_empty_interval(self):
        assert elitist_evaluations_bound(50, 7, 7, 2.0, 1.0, 3.0) == 3.0 * 2.0

    def test_two_bit_reference_value(self):
        # independent arithmetic: 2 + (1/e + (1/2)/ln 2) * 3 * 2e
        want = 2.0 + (1.0 / E + 0.5 / math.log(2.0)) * 3.0 * (2.0 * E)
        got = elitist_evaluations_bound(2, 1, 2, 2.0, 1.0, 1.0)
        assert abs(got - want) < 1e-12
        assert abs(got - 19.7650) < 1e-3

    def test_monotone_in_target(self):
        vals = [elitist_evaluations_bound(40, 5, b, 1.5, 1.0) for b in range(5, 41)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_n_log_n_scaling(self):
        cs = [
            elitist_evaluations_bound(n, 0, n, 1.5, 1.0) / (n * math.log(n))
            for n in (100, 1000, 10_000)
        ]
        assert max(cs) / min(cs) < 1.15
        assert cs[0] > cs[1] > cs[2]  # settles toward a constant from above

    def test_validation(self):
        with pytest.raises(ValueError):
            elitist_evaluations_bound(10, 5, 3, 1.5, 1.0)
        with pytest.raises(ValueError):
            elitist_evaluations_bound(10, 0, 10, 1.0, 1.0)


class TestUndefinedThreshold:
    def test_huge_lambda_fallback_underflows_to_undefined(self):
        # p_minus = (p1)^lam underflows for extreme lam; marker, not NaN
        q = level_quantities(50, 25, 64)
        assert q.p_minus > 0  # still representable here
        assert math.isfinite(q.gain) and math.isfinite(q.loss)
        assert q.p_minus < 1 and q.p_plus < 1
