"""Exact transition distributions, sandwich bounds, potentials and drifts."""

import decimal
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from onelambda import oracle
from onelambda.ea import ControllerParams, round_lambda, update_lambda
from onelambda.fitness import FitnessFunction
from onelambda.oracle import (
    BOUND_COLUMNS,
    CHILD_WINDOW,
    DRIFT_COLUMNS,
    LAMBDA_MAX,
    UNDEFINED_BELOW,
    LambdaLogSquaredPotential,
    _child_masses,
    _law_block,
    _level_law,
    _power_pmf,
    check_transition_bounds,
    drift_claim,
    drift_grid_check,
    elitist_evaluations_bound,
    g1_grid_lambdas,
    g2_band_states,
    make_potential,
    max_flip_gain_series,
    selected_child_law,
    state_quantities,
)

E = math.e


def keep(report):
    """A check's write that lists its rows in place of their stream, for a
    test that reads them once the check returns."""
    report.rows = list(report.rows)


def named(report, columns):
    """A check report's rows, kept by :func:`keep`, as dicts keyed by its
    CSV's columns."""
    return [dict(zip(columns, row)) for row in report.rows]


def onemax_pmf(n, i, lam):
    """:func:`selected_child_law` on onemax as a pmf over one-counts 0..n."""
    lo, law = selected_child_law(FitnessFunction("onemax", n), i, lam)
    pmf = np.zeros(n + 1)
    pmf[lo : lo + law.size] = law
    return pmf


class TestSingleOffspringDistribution:
    def test_two_bit_enumeration(self):
        # all 4 mutation masks of 2 bits, parent 10: {} -> 1, {b1} -> 0,
        # {b2} -> 2, {b1,b2} -> 1, each with probability 1/4
        pmf = onemax_pmf(2, 1, 1)
        assert np.allclose(pmf, [0.25, 0.5, 0.25], atol=1e-15)

    def test_forced_flip_n1(self):
        assert np.allclose(onemax_pmf(1, 0, 1), [0.0, 1.0], atol=0)
        assert np.allclose(onemax_pmf(1, 1, 1), [1.0, 0.0], atol=0)

    def test_matches_direct_mask_enumeration(self):
        # independent oracle: enumerate all 2^n masks for a concrete parent
        for n, i in [(3, 1), (5, 2), (6, 6), (7, 0)]:
            parent = [1] * i + [0] * (n - i)
            pmf = np.zeros(n + 1)
            for mask in itertools.product((0, 1), repeat=n):
                k = sum(mask)
                child_ones = sum(b ^ m for b, m in zip(parent, mask))
                pmf[child_ones] += (1.0 / n) ** k * (1.0 - 1.0 / n) ** (n - k)
            got = onemax_pmf(n, i, 1)
            assert np.allclose(got, pmf, atol=1e-14)

    # One child's masses, before the window's log CDF accumulates them from
    # the top and so puts any deficit on the lowest fitness.  The mass of a
    # jump past the window, at most 1/31!, is far below the tolerance.
    @pytest.mark.parametrize("n", [1, 2, 10, 50])
    def test_normalization(self, n):
        sums = _child_masses(n, np.arange(n + 1)).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", [2000, 5000])
    def test_normalization_at_large_n(self, n):
        # C1's tolerance at every level, which log-gamma masses missed by
        # 1.8e-12 at n = 2000 and 7.5e-12 at n = 5000
        sums = _child_masses(n, np.arange(n + 1)).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12, int(np.abs(sums - 1.0).argmax())


def full_support_law(n, i, lam):
    """Independent reference for the best of lam children on onemax: one
    child's pmf over 0..n as the full convolution of scipy's binomial
    masses (lost one-bits reversed, gained zero-bits), then the plain
    difference of the lam-th powers of its CDF.  The pmf is rescaled to
    sum to 1: a rounding deficit of a few 1e-16 would otherwise fall at
    one-count 0, where the loss weighs it by i (2.2e-12 at n = 5000)."""
    lost = binom.pmf(np.arange(i + 1), i, 1.0 / n)
    gained = binom.pmf(np.arange(n - i + 1), n - i, 1.0 / n)
    pmf = np.convolve(lost[::-1], gained)
    pmf /= pmf.sum()
    tail = np.concatenate([np.cumsum(pmf[::-1])[::-1][1:], [0.0]])
    with np.errstate(divide="ignore"):
        logcdf = np.log1p(-np.minimum(tail, 1.0))
    return np.diff(np.exp(lam * logcdf), prepend=0.0), logcdf


class TestBestOfLambda:
    LAMS = (1, 64, 10**6, 10**9)

    @staticmethod
    def levels(n):
        return sorted({*range(0, n + 1, max(1, n // 40)), n - 1, n})

    @pytest.mark.parametrize("n", [1, 10, 200, 1000, 2000, 5000])
    def test_window_matches_full_support_reference(self, n):
        fn = FitnessFunction("onemax", n)
        for i in self.levels(n):
            lo, rows = selected_child_law(fn, i, self.LAMS)
            assert rows.shape == (len(self.LAMS), min(n, i + CHILD_WINDOW) - lo + 1)
            for lam, law in zip(self.LAMS, rows):
                want, _ = full_support_law(n, i, lam)
                got = np.zeros(n + 1)
                got[lo : lo + law.size] = law
                assert np.abs(got - want).max() <= 1e-12, (i, lam)
                # the stated bound on the mass outside the window, plus rounding
                outside = want[:lo].sum() + want[lo + law.size :].sum()
                assert outside <= TestSelectedChildLaw.tolerance(lam), (i, lam)

    @pytest.mark.parametrize("n", [1, 10, 200, 1000, 2000, 5000])
    def test_level_row_matches_full_support_reference(self, n):
        j = np.arange(n + 1)
        states = list(itertools.product([i for i in self.levels(n) if i < n], self.LAMS))
        rows = state_quantities(n, *zip(*states))
        for t, (i, lam) in enumerate(states):
            pmf, logcdf = full_support_law(n, i, lam)
            p_plus = -math.expm1(lam * logcdf[i])
            p_minus = math.exp(lam * logcdf[i - 1]) if i else 0.0
            want = (p_plus, pmf[i], p_minus, ((j - i) * pmf)[i + 1 :].sum(),
                    ((i - j) * pmf)[:i].sum())
            got = tuple(field[t] for field in rows)
            assert np.abs(np.subtract(got, want)).max() <= 1e-12, (i, lam, got, want)

    def test_two_bit_lambda_two(self):
        # P(best of 2 reaches fitness 2) = 1 - (3/4)^2 = 7/16
        pmf = onemax_pmf(2, 1, 2)
        assert abs(pmf[2] - 7.0 / 16.0) < 1e-14
        assert abs(pmf[0] - 1.0 / 16.0) < 1e-14

    def test_fallback_probability_is_single_power(self):
        # full grid n <= 50: the differencing route must reproduce the
        # closed-form power identity
        for n in (2, 10, 50):
            for i in range(1, n):
                p1 = onemax_pmf(n, i, 1)[:i].sum()
                for lam in range(1, 65):
                    pl = onemax_pmf(n, i, lam)[:i].sum()
                    assert abs(pl - p1**lam) < 1e-10

    def test_normalization_with_lambda(self):
        for n in (10, 50):
            for i in range(0, n, 7):
                for lam in (2, 16, 64):
                    s = onemax_pmf(n, i, lam).sum()
                    assert abs(s - 1.0) < 1e-12

    @pytest.mark.parametrize("lam", [0, -2])
    def test_lambda_below_one_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            onemax_pmf(10, 4, lam)
        with pytest.raises(ValueError, match="lam"):
            state_quantities(10, [4], [lam])

    def test_lambda_past_the_window_bound_rejected(self):
        # above LAMBDA_MAX the mass outside the window, lam/31!, passes 2^-53
        assert LAMBDA_MAX * 2**53 <= math.factorial(CHILD_WINDOW + 1) < (LAMBDA_MAX + 1) * 2**53
        onemax_pmf(10, 4, LAMBDA_MAX)
        state_quantities(10, [4], [LAMBDA_MAX])
        selected_child_law(FitnessFunction("jump", 10, 2), 4, LAMBDA_MAX)
        for law in (lambda lam: onemax_pmf(10, 4, lam),
                    lambda lam: selected_child_law(FitnessFunction("onemax", 10), 4, (1, lam)),
                    lambda lam: state_quantities(10, [4, 4], [1, lam]),
                    lambda lam: selected_child_law(FitnessFunction("jump", 10, 2), 4, lam)):
            with pytest.raises(ValueError, match="lam"):
                law(LAMBDA_MAX + 1)


def decimal_power_pmf(logcdf, lam):
    """The pmf of :func:`_power_pmf` in 50-digit decimal arithmetic on the
    same float log CDF: adjacent differences of exp(lam * logcdf), with the
    product and the powers exact to 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        cdf = [(decimal.Decimal(lam) * decimal.Decimal(x)).exp() if np.isfinite(x)
               else decimal.Decimal(0) for x in logcdf.tolist()]
        return [cdf[0]] + [hi - lo for lo, hi in zip(cdf, cdf[1:])]


class TestPowerPmf:
    LAMS = (1, 3, 64, 1000, 10**6)

    @staticmethod
    def worst_relative_error(logcdf, lam):
        """Largest relative error of _power_pmf's masses above 1e-6."""
        got = _power_pmf(logcdf, lam)
        want = decimal_power_pmf(logcdf, lam)
        return max((abs(decimal.Decimal(g) - w) / w for g, w in zip(got.tolist(), want)
                    if w > decimal.Decimal("1e-6")), default=0)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_onemax_rows_match_decimal_differences(self, n):
        fn = FitnessFunction("onemax", n)
        for i in range(0, n + 1, n // 50):
            block, r = _level_law(fn, i)
            logcdf = block.level(r)[3]
            for lam in self.LAMS:
                assert self.worst_relative_error(logcdf, lam) <= 2e-15, (i, lam)

    def test_tied_row_matches_decimal_differences(self):
        # the jump:3 state whose masses the engine's 2^-52 grid test pins
        block, r = _level_law(FitnessFunction("jump", 40, 3), 37)
        assert self.worst_relative_error(block.level(r)[3], 1000) <= 2e-15


def level_functions(n):
    """Every level function at size n, jump and cliff at every parameter."""
    fns = [FitnessFunction(kind, n) for kind in ("onemax", "zeromax", "twomax")]
    return fns + [FitnessFunction(kind, n, d) for kind in ("jump", "cliff") for d in range(1, n)]


class TestSelectedChildLaw:
    # the stated bound on the mass outside the window, plus rounding
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

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_lambda_rows_are_the_one_lambda_laws_bitwise(self, n):
        lams = (64, 1, 10**9, 7, 1)  # unsorted, with a repeat
        for fn in level_functions(n):
            for i in range(n + 1):
                for selection in ("comma", "plus"):
                    lo, rows = selected_child_law(fn, i, lams, selection)
                    assert rows.shape[0] == len(lams)
                    for lam, row in zip(lams, rows):
                        one_lo, one = selected_child_law(fn, i, lam, selection)
                        assert one_lo == lo and one.shape == row.shape
                        assert one.tobytes() == row.tobytes(), (fn, i, lam, selection)

    def test_plus_keeps_the_parent_when_every_child_is_worse(self):
        # onemax at the optimum: every child ties or is worse
        fn = FitnessFunction("onemax", 30)
        lo, pmf = selected_child_law(fn, 30, 4, "plus")
        assert pmf[30 - lo] == pytest.approx(1.0, abs=1e-15)
        comma_lo, comma = selected_child_law(fn, 30, 4, "comma")
        assert comma[30 - comma_lo] == pytest.approx(full_support_law(30, 30, 4)[0][30], abs=1e-13)

    def test_rejects_ridge_lambda_below_one_and_unknown_selection(self):
        with pytest.raises(ValueError):
            selected_child_law(FitnessFunction("ridge", 8), 3, 2)
        with pytest.raises(ValueError):
            selected_child_law(FitnessFunction("onemax", 8), 3, 0)
        with pytest.raises(ValueError):
            selected_child_law(FitnessFunction("onemax", 8), 3, 2, "elitist")
        with pytest.raises(ValueError):
            selected_child_law(FitnessFunction("onemax", 8), 9, 2)


def one_lambda_row(n, i, lam):
    """:func:`state_quantities` at one state, as a dict of Python floats."""
    return {name: float(field[0])
            for name, field in state_quantities(n, [i], [lam])._asdict().items()}


class TestLevelQuantities:
    def test_two_bit_values(self):
        q = one_lambda_row(2, 1, 1)
        assert abs(q["p_plus"] - 0.25) < 1e-14
        assert abs(q["p_zero"] - 0.5) < 1e-14
        assert abs(q["p_minus"] - 0.25) < 1e-14
        assert abs(q["gain"] / q["p_plus"] - 1.0) < 1e-12
        assert abs(q["loss"] / q["p_minus"] - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 17, 100])
    def test_last_level_single_flip_formula(self, n):
        # from i = n-1 an improvement needs exactly the one 0-bit to flip
        p_plus = state_quantities(n, [n - 1], [1]).p_plus[0]
        expected = (1.0 / n) * (1.0 - 1.0 / n) ** (n - 1)
        assert abs(p_plus - expected) < 1e-14

    def test_probabilities_sum_to_one(self):
        for n in (10, 163):
            for i in range(0, n, 13):
                row = state_quantities(n, [i] * 3, [1, 3, 32])
                assert np.abs(row.p_plus + row.p_zero + row.p_minus - 1.0).max() < 1e-12

    def test_moments_of_the_best_of_lambda_pmf(self):
        for n, i, lam in [(2, 1, 1), (20, 0, 3), (20, 15, 3), (100, 70, 8), (163, 140, 64)]:
            q = one_lambda_row(n, i, lam)
            pmf = onemax_pmf(n, i, lam)
            j = np.arange(n + 1)
            assert q["p_zero"] == pmf[i]
            assert abs(q["p_plus"] - pmf[i + 1 :].sum()) < 1e-12
            assert abs(q["p_minus"] - pmf[:i].sum()) < 1e-12
            assert abs(q["gain"] - ((j - i) * pmf)[i + 1 :].sum()) < 1e-12
            assert abs(q["loss"] - ((i - j) * pmf)[:i].sum()) < 1e-12

    def test_undefined_markers(self):
        # at i = 0 nothing falls: the backward drift is undefined and unchecked
        assert state_quantities(10, [0], [4]).p_minus[0] == 0.0
        report = check_transition_bounds(10, lambdas=(4,), write=keep)
        at_zero = {c["quantity"] for c in named(report, BOUND_COLUMNS) if c["i"] == 0}
        assert "delta_plus" in at_zero and "delta_minus" not in at_zero

    def test_p_plus_monotone_in_i_and_lambda(self):
        n = 50
        lams = (1, 2, 5, 17, 64)
        rows = state_quantities(n, np.repeat(range(n), len(lams)), lams * n).p_plus
        vals = {lam: rows[c :: len(lams)].tolist() for c, lam in enumerate(lams)}
        for lam in lams:
            assert all(a >= b - 1e-14 for a, b in zip(vals[lam], vals[lam][1:]))
        for i in range(0, n, 5):
            seq = [vals[lam][i] for lam in lams]
            assert all(b >= a - 1e-14 for a, b in zip(seq, seq[1:]))


def reference_level_quantities(n, i, lam):
    """The per-lam level record from the same window row: the one-lam law
    and plain sums."""
    fn = FitnessFunction("onemax", n)
    lo, pmf = selected_child_law(fn, i, lam)
    block, r = _level_law(fn, i)
    ones, _, _, logcdf = block.level(r)
    k = i - lo
    lc_i = lam * logcdf[k]
    p_plus = -math.expm1(lc_i) if np.isfinite(lc_i) else 1.0
    lc_im1 = lam * logcdf[k - 1] if i > 0 else -np.inf
    p_minus = math.exp(lc_im1) if np.isfinite(lc_im1) else 0.0
    gain = float(((ones[k + 1 :] - i) * pmf[k + 1 :]).sum())
    loss = float(((i - ones[:k]) * pmf[:k]).sum())
    return (p_plus, float(pmf[k]), p_minus, gain, loss)


class TestLevelRow:
    LAMS = (1, 2, 3, 7, 64, 2446, 10**6, 10**9)

    @pytest.mark.parametrize("n", [1, 2, 10, 200, 1000])
    def test_row_is_the_per_lambda_record_bitwise(self, n):
        for lams in (self.LAMS, (64, 1, 10**9, 7, 1, 3, 64)):
            states = list(itertools.product(range(n), lams))
            rows = state_quantities(n, *zip(*states))
            for field in rows:
                assert field.shape == (len(states),)
            for t, (i, lam) in enumerate(states):
                got = tuple(field[t] for field in rows)
                assert got == reference_level_quantities(n, i, lam), (n, i, lam)

    @pytest.mark.parametrize("lams", [(3, 0, 2), (-1,), (1, 2, -5)])
    def test_lambda_below_one_rejected(self, lams):
        with pytest.raises(ValueError, match="lam"):
            state_quantities(10, [4] * len(lams), lams)

    def test_unequal_shapes_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            state_quantities(10, [4, 5], [1])

    def test_levels_outside_zero_to_n_rejected(self):
        for i in (-1, 10, 11):
            with pytest.raises(ValueError, match="i="):
                state_quantities(10, [4, i], [1, 1])
        empty = state_quantities(10, [], [])
        assert all(field.shape == (0,) for field in empty)

    # λ values of the batch test: small, large and the largest the window law takes
    BATCH_LAMS = (1, 2, 7, 10**6, LAMBDA_MAX)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 140), extra=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @example(n=1, extra=1, seed=0)
    @example(n=60, extra=1, seed=1)
    @example(n=140, extra=300, seed=2)
    def test_each_state_is_the_same_bits_alone_or_in_a_batch(self, n, extra, seed):
        # more states than one pass holds, on every window shape below n = 61
        rng = np.random.default_rng(seed)
        size = oracle._STATE_PASS + extra
        i = rng.integers(0, n, size=size)
        lam = np.array(self.BATCH_LAMS)[rng.integers(0, len(self.BATCH_LAMS), size=size)]
        batch = state_quantities(n, i, lam)
        alone = {}
        for t, state in enumerate(zip(i.tolist(), lam.tolist())):
            if state not in alone:
                alone[state] = state_quantities(n, [state[0]], [state[1]])
            for got, want in zip(batch, alone[state]):
                assert got[t : t + 1].tobytes() == want.tobytes(), (n, state)

    def test_memory_of_a_large_grid_is_bounded(self):
        # every level of n = 1000 at lam = 1..64: 64 000 states.  The
        # per-level loop it replaced peaked at 5.2 MB here.
        n, lams = 1000, np.arange(1, 65)
        i, lam = np.repeat(np.arange(n), lams.size), np.tile(lams, n)
        state_quantities(n, i[:1], lam[:1])  # the import-time work, outside the trace
        tracemalloc.start()
        try:
            state_quantities(n, i, lam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 5.2e6, peak


def test_every_oracle_memo_clears_and_refills():
    memos = [f for f in vars(oracle).values() if callable(getattr(f, "cache_clear", None))]
    names = {f.__name__ for f in memos}
    assert {"_law_block", "max_flip_gain_series"} <= names
    pot, states, threshold, direction = drift_claim("g1", 70, 1.5, 0.5)
    params = ControllerParams(F=1.5, s=0.5)

    def misses():
        drift_grid_check(pot, params, 70, states, threshold, direction, write=keep)
        return _law_block.cache_info().misses

    for f in memos:
        f.cache_clear()
    cold = misses()
    assert cold == 3  # one law block per 32 levels
    assert misses() == cold  # warm: no new misses
    for f in memos:
        f.cache_clear()
    assert misses() == cold


def reference_bound_checks(n, lams):
    """(n, i, lam, quantity, name, side, exact, bound) of every applicable
    check, one state and one bound at a time, with the exact quantities of
    one state's state_quantities and the bounds in scalar math."""
    stay = [math.exp(m * math.log1p(-1.0 / n)) for m in (n - 1, n)]

    def from_base(base, lam):
        return 1.0 if base >= 1.0 else -math.expm1(lam * math.log1p(-base))

    out = []
    for i in range(n):
        for lam in lams:
            q = one_lambda_row(n, i, lam)
            for delta, moment, p in (("delta_plus", "gain", "p_plus"),
                                     ("delta_minus", "loss", "p_minus")):
                q[delta] = q[moment] / q[p] if q[p] > UNDEFINED_BELOW else None
            bounds = [  # name, side, applies, value
                ("p_plus_lower_harmonic", "lower", True, 1.0 - E * n / (E * n + lam * (n - i))),
                ("p_plus_lower_single_flip", "lower", True, from_base((n - i) / (E * n), lam)),
                ("p_plus_upper_refined", "upper", i >= 0.87 * n,
                 from_base(1.14 * (((n - i) / n) * stay[0]), lam)),
                ("p_plus_upper_zero_flip", "upper", True, from_base((n - i) / n, lam)),
                ("p_plus_upper_hard_band", "upper",
                 lam == 1 and n >= 163 and 0.84 * n <= i <= 0.85 * n, 0.069),
                ("p_minus_lower", "lower", i / n >= 1.0 / E, (i / n - 1.0 / E) ** lam),
                ("p_minus_upper", "upper", True, (1.0 - (n - i) / (E * n) - stay[1]) ** lam),
                ("p_minus_upper_coarse", "upper", True, ((E - 1.0) / E) ** lam),
                ("delta_minus_lower", "lower", True, 1.0),
                ("delta_minus_upper", "upper", True, E / (E - 1.0)),
                ("delta_plus_lower", "lower", True, 1.0),
                ("delta_plus_upper_series", "upper", True, max_flip_gain_series(lam)),
                ("delta_plus_upper_log", "upper", lam >= 5, math.ceil(math.log2(lam)) + 0.413),
            ]
            for name, side, applies, bound in bounds:
                quantity = "_".join(name.split("_")[:2])
                exact = q[quantity]
                if applies and exact is not None:
                    out.append((n, i, lam, quantity, name, side, exact, bound))
    return out


class TestTransitionBounds:
    def test_series_value_at_lambda_one(self):
        assert abs(max_flip_gain_series(1) - (E - 1.0)) < 1e-12

    def test_no_violations_small_grid(self):
        report = check_transition_bounds(10, lambdas=range(1, 65), write=keep)
        assert report.ok, [row for row in report.rows if not row[-1]][:5]
        assert report.checks_performed == len(report.rows) > 0

    def test_empty_grid_is_not_a_pass(self):
        for report in (check_transition_bounds(0, lambdas=range(1, 65), write=keep),
                       check_transition_bounds(10, lambdas=(), write=keep)):
            assert report.rows == []
            assert report.states_checked == report.checks_performed == report.violations == 0
            assert not report.ok

    def test_hard_band_cap_checked_at_163(self):
        report = check_transition_bounds(163, lambdas=(1,), write=keep)
        assert report.ok
        rows = [c for c in named(report, BOUND_COLUMNS) if c["bound"] == "p_plus_upper_hard_band"]
        assert sorted({c["i"] for c in rows}) == [137, 138]  # the 0.84n..0.85n levels
        assert all(c["exact"] <= 0.069 for c in rows)

    def test_log_cap_applies_from_lambda_five(self):
        report = check_transition_bounds(20, lambdas=(4, 5, 8), write=keep)
        assert report.ok
        rows = [c for c in named(report, BOUND_COLUMNS) if c["bound"] == "delta_plus_upper_log"]
        assert {c["lambda"] for c in rows} == {5, 8}
        five = next(c for c in rows if c["lambda"] == 5)
        assert abs(five["bound_value"] - (math.ceil(math.log2(5)) + 0.413)) < 1e-15  # 3.413

    def test_refined_upper_restricted_to_hard_levels(self):
        n = 50
        report = check_transition_bounds(n, lambdas=(1, 2), write=keep)
        assert report.ok
        rows = [c for c in named(report, BOUND_COLUMNS) if c["bound"] == "p_plus_upper_refined"]
        assert rows and all(c["i"] >= 0.87 * n for c in rows)

    @pytest.mark.parametrize("n, lams", [(60, (1, 2, 5, 64)), (163, (1, 3, 8))])
    def test_rows_are_the_scalar_loop_bitwise(self, n, lams):
        report = check_transition_bounds(n, lambdas=lams, write=keep)
        want = reference_bound_checks(n, lams)
        assert len(report.rows) == report.checks_performed == len(want)
        assert [c[:6] for c in report.rows] == [w[:6] for w in want]
        got = np.array([c[6:8] for c in report.rows])
        assert np.array_equal(got.view(np.int64), np.array([w[6:] for w in want]).view(np.int64))
        for c in named(report, BOUND_COLUMNS):
            exact, bound = c["exact"], c["bound_value"]
            assert c["margin"] == (bound - exact if c["side"] == "upper" else exact - bound)
            assert c["pass"] is (c["margin"] >= -1e-10)
        assert {tuple(map(type, c)) for c in report.rows} == {
            (int, int, int, str, str, str, float, float, float, bool)}

    def test_violations_are_the_failing_rows(self, monkeypatch):
        # the refined cap fails on easy levels: checked everywhere, it is violated
        bounds = [b[:4] + (None,) if b[0] == "p_plus_upper_refined" else b
                  for b in oracle._BOUNDS]
        monkeypatch.setattr(oracle, "_BOUNDS", bounds)
        report = check_transition_bounds(60, lambdas=(1, 2, 5), write=keep)
        failing = [row for row in report.rows if not dict(zip(BOUND_COLUMNS, row))["pass"]]
        assert 0 < len(failing) < len(report.rows)
        assert report.violations == len(failing) and not report.ok
        assert {dict(zip(BOUND_COLUMNS, row))["bound"] for row in failing} == {
            "p_plus_upper_refined"}

    def test_one_bit(self):
        # the only bit always flips: (1 - 1/n)^n = 0, not a log1p(-1) domain error
        report = check_transition_bounds(1, lambdas=(1, 2), write=keep)
        assert report.ok and report.states_checked == 2
        rows = named(report, BOUND_COLUMNS)
        assert {c["exact"] for c in rows if c["quantity"] == "p_plus"} == {1.0}

    def test_negative_base_lower_bound_skipped(self):
        # (i/n - 1/e)^lam is only meaningful once i/n >= 1/e
        report = check_transition_bounds(20, lambdas=(2,), write=keep)
        rows = [c for c in named(report, BOUND_COLUMNS) if c["bound"] == "p_minus_lower"]
        assert all(c["i"] / 20 >= 1 / E for c in rows)


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


def reference_drift(pot, n, i, lam_real, params, cap_gain_at_one):
    """The drift at one state, in scalar math from the per-lam level record
    and the controller step, with the operands in _drift's order."""
    p_plus, _, _, gain, loss = reference_level_quantities(n, i, round_lambda(lam_real))
    h_succ = pot.h(update_lambda(lam_real, True, params))
    h_fail = pot.h(update_lambda(lam_real, False, params))
    fitness_part = (p_plus if cap_gain_at_one else gain) - loss
    return fitness_part + p_plus * h_succ + (1.0 - p_plus) * h_fail - pot.h(lam_real)


def grid_drifts(pot, params, n, states, cap_gain_at_one=False):
    """The drift of each (i, lambda_real) state, from one drift_grid_check."""
    report = drift_grid_check(pot, params, n, states, 0.0, "min_at_least",
                              cap_gain_at_one=cap_gain_at_one, write=keep)
    return [c["drift"] for c in named(report, DRIFT_COLUMNS)]


class TestExactPotentialDrift:
    def test_matches_brute_force_small(self):
        params = ControllerParams(F=1.5, s=0.5)
        g1 = make_potential("g1", F=1.5, s=0.5, n=4)
        g2 = make_potential("g2", F=1.5)
        states = [(i, lam_real) for i in range(4) for lam_real in (1.0, 1.5, 2.49)]
        for pot in (g1, g2):
            for (i, lam_real), got in zip(states, grid_drifts(pot, params, 4, states)):
                want = brute_force_drift(4, i, lam_real, pot, params)
                assert abs(got - want) < 1e-9, (pot.kind, i, lam_real)

    def test_capped_variant_matches_brute_force(self):
        params = ControllerParams(F=1.5, s=0.5)
        pot = make_potential("g1", F=1.5, s=0.5, n=5)
        states = [(i, 2.0) for i in (0, 2, 4)]
        for (i, _), got in zip(states, grid_drifts(pot, params, 5, states, cap_gain_at_one=True)):
            want = brute_force_drift(5, i, 2.0, pot, params, cap_gain_at_one=True)
            assert abs(got - want) < 1e-9

    def test_capped_never_exceeds_uncapped(self):
        params = ControllerParams(F=1.5, s=1.0)
        pot = make_potential("g1", F=1.5, s=1.0, n=60)
        states = [(i, lam) for i in range(0, 60, 7) for lam in (1.0, 2.5, 7.0)]
        full = grid_drifts(pot, params, 60, states)
        capped = grid_drifts(pot, params, 60, states, cap_gain_at_one=True)
        assert all(c <= f + 1e-12 for c, f in zip(capped, full))

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
        (exact,) = grid_drifts(pot, params, n, [(i, lam_real)])
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
        with pytest.raises(ValueError, match="F must be > 1"):
            LambdaLogSquaredPotential(F=1)
        with pytest.raises(ValueError, match="lambda cap"):
            make_potential("g1", F=1.5, s=1.0, n=1e308)


class TestDriftGridCheck:
    def test_band_empty_at_small_n(self):
        states = g2_band_states(100, 1.5)
        assert states == []
        params = ControllerParams(F=1.5, s=18.0)
        report = drift_grid_check(
            make_potential("g2", F=1.5), params, 100, states, -0.0008, "max_at_most", write=keep)
        assert report.states_checked == 0 and not report.ok  # no states in band is not a pass
        assert report.rows == [] and report.extreme is None

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
            pot, params, 30, [(10, 1.0), (20, 2.0)], 10.0, "min_at_least", write=keep)
        assert report.violations == 2 and not report.ok

    @pytest.mark.parametrize("direction", ["min_at_least", "max_at_most"])
    def test_rows_carry_margin_and_verdict(self, direction):
        params = ControllerParams(F=1.5, s=0.5)
        pot = make_potential("g1", F=1.5, s=0.5, n=30)
        states = [(i, lam) for i in range(0, 30, 2) for lam in (1.0, 2.5, 7.0)]
        first = drift_grid_check(pot, params, 30, states, 0.0, direction, write=keep)
        # an odd count, so one state sits exactly on the threshold and passes
        threshold = float(np.median([c["drift"] for c in named(first, DRIFT_COLUMNS)]))
        report = drift_grid_check(pot, params, 30, states, threshold, direction, write=keep)
        flagged = []
        for row, c in zip(report.rows, named(report, DRIFT_COLUMNS)):
            d, thr, margin = c["drift"], c["threshold"], c["margin"]
            assert (c["n"], thr, c["lambda_int"]) == (30, threshold, round_lambda(c["lambda_real"]))
            assert margin == (d - thr if direction == "min_at_least" else thr - d)
            assert c["pass"] == (d >= thr if direction == "min_at_least" else d <= thr)
            if not c["pass"]:
                flagged.append(row)
        assert len(flagged) == report.violations == len(states) // 2

    @pytest.mark.parametrize("direction", ["min_at_least", "max_at_most"])
    def test_nan_drift_is_flagged_by_count_and_column_alike(self, direction):
        class NanPotential:
            def h(self, lam):
                return math.nan

        states = [(i, lam) for i in (3, 7, 12) for lam in (1.0, 2.5)]
        report = drift_grid_check(NanPotential(), ControllerParams(F=1.5, s=1.0), 20, states,
                                  0.0, direction, write=keep)
        assert [c["pass"] for c in named(report, DRIFT_COLUMNS)] == [False] * len(states)
        assert report.violations == len(states) and not report.ok

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        pot = make_potential("g2", F=1.5)
        for states in ([(10, 2.0)], []):
            with pytest.raises(ValueError, match="threshold must be finite"):
                drift_grid_check(pot, ControllerParams(F=1.5, s=1.0), 30, states, threshold,
                                 "min_at_least", write=keep)

    def test_unknown_direction_rejected(self):
        pot = make_potential("g2", F=1.5)
        with pytest.raises(ValueError, match="direction"):
            drift_grid_check(pot, ControllerParams(F=1.5, s=1.0), 30, [(10, 2.0)], 0.0,
                             "at_least", write=keep)

    @pytest.mark.parametrize("lam", [0.999, 0.0, -2.0])
    def test_lambda_below_one_rejected(self, lam):
        pot = make_potential("g2", F=1.5)
        with pytest.raises(ValueError, match="lambda_real must be >= 1"):
            drift_grid_check(pot, ControllerParams(F=1.5, s=1.0), 30,
                             [(10, 2.0), (12, lam), (14, 1.0)], 0.0, "min_at_least", write=keep)

    @pytest.mark.parametrize("kind, n, cap", [("g1", 70, False), ("g1", 70, True),
                                              ("g2", 1000, False)])
    def test_rows_are_the_state_by_state_drift_bitwise(self, kind, n, cap):
        s = 0.5 if kind == "g1" else 18.0
        params = ControllerParams(F=1.5, s=s)
        pot, states, threshold, direction = drift_claim(kind, n, 1.5, s)
        report = drift_grid_check(pot, params, n, states, threshold, direction,
                                  cap_gain_at_one=cap, write=keep)
        states = [(int(i), lam) for i, lam in states.tolist()]
        rows = named(report, DRIFT_COLUMNS)
        assert [(c["i"], c["lambda_real"], c["lambda_int"]) for c in rows] == [
            (i, lam, round_lambda(lam)) for i, lam in states]
        got = np.array([c["drift"] for c in rows])
        want = np.array([reference_drift(pot, n, i, lam, params, cap) for i, lam in states])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        k = int(np.argmin(want) if direction == "min_at_least" else np.argmax(want))
        assert (report.extreme, report.extreme_state) == (want[k], states[k])
        assert [type(v) for v in (report.extreme, *report.extreme_state)] == [float, int, float]
        assert {tuple(map(type, row)) for row in report.rows} == {
            (int, int, float, int, float, float, float, bool)}


@pytest.mark.parametrize("check", ["bounds", "drift"])
def test_rows_are_plain_tuples_the_collector_untracks(check):
    # a tuple subclass (a namedtuple) stays tracked, and every full
    # collection would walk each row of a large grid
    if check == "bounds":
        report = check_transition_bounds(40, lambdas=(1, 5), write=keep)
    else:
        pot, states, threshold, direction = drift_claim("g1", 40, 1.5, 0.5)
        report = drift_grid_check(pot, ControllerParams(F=1.5, s=0.5), 40, states, threshold,
                                  direction, write=keep)
    gc.collect()
    assert report.rows and all(type(row) is tuple for row in report.rows)
    assert not any(gc.is_tracked(row) for row in report.rows)


def g1_check(n, write, states=None):
    pot, grid, threshold, direction = drift_claim("g1", n, 1.5, 0.5)
    return drift_grid_check(pot, ControllerParams(F=1.5, s=0.5), n,
                            grid if states is None else states, threshold, direction,
                            write=write)


@pytest.mark.parametrize("check", [
    lambda write: check_transition_bounds(100, lambdas=(1, 2, 7), write=write),
    lambda write: g1_check(40, write),  # 2680 states, over many blocks
], ids=["bounds", "drift"])
def test_write_reads_the_listed_rows_and_the_check_returns_final(check):
    seen = []

    def write(report):
        for row in report.rows:
            seen.append((row, report.checks_performed))

    streamed, listed = check(write), check(keep)
    assert [row for row, _ in seen] == listed.rows
    assert [count for _, count in seen][-1] == len(seen)  # tallied as they passed
    assert max(count for _, count in seen[:1]) < len(seen)
    fields = ("states_checked", "checks_performed", "violations", "extreme", "extreme_state")
    assert [getattr(streamed, f) for f in fields] == [getattr(listed, f) for f in fields]
    assert streamed.ok and listed.ok


def test_write_that_stops_early_is_refused():
    with pytest.raises(ValueError, match="to the end"):
        check_transition_bounds(40, lambdas=(1, 2), write=lambda report: next(report.rows))


def test_drift_level_out_of_range_raises_before_any_row():
    # the bad level sits in a later law block than the first states
    states = [(3, 1.0), (5, 2.0), (40, 1.0)]
    written = []
    with pytest.raises(ValueError, match="0 <= i < n"):
        g1_check(40, write=lambda report: written.extend(report.rows), states=states)
    assert written == []


class TestDriftClaim:
    def test_g1_floor_over_the_full_grid(self):
        n, F, s = 30, 1.5, 0.5
        pot, states, threshold, direction = drift_claim("g1", n, F, s)
        assert pot.kind == "g1" and (pot.F, pot.s, pot.n) == (F, s, n)
        lams = g1_grid_lambdas(n, ControllerParams(F=F, s=s))
        assert states.tolist() == [[i, lam] for i in range(n) for lam in lams]
        assert threshold == (1 - s) / (2 * E) and direction == "min_at_least"

    def test_g2_ceiling_over_the_band(self):
        pot, states, threshold, direction = drift_claim("g2", 1000, 1.5, 18.0)
        assert pot.kind == "g2" and pot.F == 1.5
        assert states.tolist() == [list(state) for state in g2_band_states(1000, 1.5)]
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

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            elitist_evaluations_bound(0, 0, 0, 1.5, 1.0)

    @pytest.mark.parametrize("lambda0", [0.5, math.inf, math.nan])
    def test_lambda0_must_be_finite_and_at_least_one(self, lambda0):
        with pytest.raises(ValueError, match="lambda0 must be finite and >= 1"):
            elitist_evaluations_bound(10, 0, 10, 1.5, 1.0, lambda0)


class TestUndefinedThreshold:
    def test_huge_lambda_fallback_underflows_to_undefined(self):
        # p_minus = (p1)^lam underflows to 0 for large lam near the bottom:
        # the backward drift is then undefined and unchecked, not NaN
        q = one_lambda_row(50, 1, 200)
        assert q["p_minus"] == 0.0
        assert math.isfinite(q["gain"]) and math.isfinite(q["loss"])
        report = check_transition_bounds(50, lambdas=(200,), write=keep)
        backward = {c["i"] for c in named(report, BOUND_COLUMNS) if c["quantity"] == "delta_minus"}
        assert 1 not in backward and 25 in backward
        assert report.ok
