"""Exact finite-n transition analysis for the one-bit-counting benchmark,
and the exact law of the selected child on every level function.

For a parent with fitness ``i`` on the ones-counting function, the number
of flipped one-bits ``A ~ Binomial(i, 1/n)`` and flipped zero-bits
``B ~ Binomial(n-i, 1/n)`` are independent, so the offspring fitness
``j = i - A + B`` has an exactly computable distribution (a cross
correlation of two binomial mass functions).  The best of ``lam``
independent offspring then has CDF ``C(j)^lam``.

Everything downstream is built on that:

* per-level transition quantities (improvement / stagnation / fallback
  probabilities and the conditional forward / backward drifts),
* a report checking the exact quantities against closed-form sandwich
  bounds,
* exact one-step drift of potential functions that combine fitness with
  a lambda-dependent term, mirroring the success-based controller
  branches (offspring counts use round(lambda) while the lambda term uses
  the real value),
* a closed-form upper bound on the expected evaluations of the elitist
  variant to climb between two fitness values.

On a level function (fitness a function of the one-count) the same
convolution gives one child's one-count law; the best of ``lam`` children
is then a maximum over fitness values, with ties split uniformly.
:func:`selected_child_law` gives that law on a window of one-counts
around the parent; ``ea.run`` samples it instead of mutating bits.

Numerics: binomial masses come from log-gamma and are exponentiated in
log space (target relative accuracy ~1e-10 for masses above 1e-250;
underflow flushes to zero).  CDF powers use lam * log1p(-tail) so that
fallback probabilities stay accurate for large lam, and adjacent CDF
powers are differenced through expm1 to keep small upper-tail masses at
full relative accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .ea import ControllerParams, round_lambda, update_lambda

__all__ = [
    "best_of_lambda_pmf",
    "CHILD_WINDOW",
    "selected_child_law",
    "LevelQuantities",
    "level_quantities",
    "max_flip_gain_series",
    "BoundCheck",
    "TransitionBoundReport",
    "check_transition_bounds",
    "LambdaPenaltyPotential",
    "LambdaLogSquaredPotential",
    "make_potential",
    "exact_potential_drift",
    "DriftReport",
    "drift_grid_check",
    "drift_claim",
    "g1_grid_lambdas",
    "g2_band_states",
    "G2_BAND_OFFSET",
    "elitist_evaluations_bound",
]

_E = math.e

# Smallest conditioning probability for which conditional drifts are reported.
UNDEFINED_BELOW = 1e-300

# The refined multiplicative upper bound on the one-offspring improvement
# probability (constant 1.14 over the single-flip term) only holds on hard
# fitness levels; the exact ratio crosses 1.14 near i/n ~ 0.857 and is
# decreasing in i.  0.87 keeps a safety margin at every n.
REFINED_UPPER_MIN_FRACTION = 0.87


def _binom_pmf(m: int, p: float, kmax: int | None = None) -> np.ndarray:
    """Binomial(m, p) masses for k = 0..m (or 0..min(m, kmax)) via
    log-gamma; underflow -> 0."""
    if m == 0:
        return np.ones(1)
    k = np.arange(m + 1 if kmax is None else min(m, kmax) + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log1mp = np.log1p(-p)  # -inf when p == 1 (n == 1 forces every bit to flip)
        tail_term = np.where(k < m, (m - k) * log1mp, 0.0)
    lp = gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1) + k * np.log(p) + tail_term
    return np.exp(lp)


@lru_cache(maxsize=4096)
def _single_parts(n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """(pmf, log CDF) of the one-offspring fitness at state (n, i).

    log CDF(j) is computed as log1p(-tail(j)) with tail(j) = P(X > j)
    accumulated from the top, so upper-tail information survives in the
    log domain.  Entries with CDF 0 are -inf.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    p = 1.0 / n
    pmf = np.convolve(_binom_pmf(i, p)[::-1], _binom_pmf(n - i, p))
    tail = np.concatenate([np.cumsum(pmf[::-1])[::-1][1:], [0.0]])
    with np.errstate(divide="ignore"):
        logcdf = np.log1p(-np.minimum(tail, 1.0))
    pmf.setflags(write=False)
    logcdf.setflags(write=False)
    return pmf, logcdf


def _power_pmf(logcdf: np.ndarray, lam: int) -> np.ndarray:
    """pmf of the max of lam i.i.d. draws, from the single-draw log CDF.

    Adjacent CDF powers are differenced as exp(lo) * expm1(hi - lo), which
    keeps relative accuracy where both are representable.  Where exp(lo)
    underflows (lo <= -700) or the gap would overflow expm1 (diff >= 500),
    the lower term is negligible against the upper and the plain
    difference exp(hi) - exp(lo) is exact enough.
    """
    powlog = lam * logcdf
    with np.errstate(invalid="ignore", over="ignore"):
        cdfl = np.exp(powlog)
        out = np.empty_like(cdfl)
        out[0] = cdfl[0]
        lo = powlog[:-1]
        diff = powlog[1:] - lo
        refine = np.isfinite(lo) & (lo > -700.0) & (diff < 500.0)
        head = np.exp(np.where(refine, lo, 0.0)) * np.expm1(np.where(refine, diff, 0.0))
        out[1:] = np.where(refine, head, cdfl[1:] - np.where(np.isfinite(lo), cdfl[:-1], 0.0))
    return out


def best_of_lambda_pmf(n: int, i: int, lam: int) -> np.ndarray:
    """Exact new-fitness pmf of the best of lam independent offspring from
    fitness i; at lam = 1 the one-offspring pmf (read-only)."""
    if lam < 1:
        raise ValueError(f"need lam >= 1, got lam={lam}")
    pmf, logcdf = _single_parts(n, i)
    return pmf if lam == 1 else _power_pmf(logcdf, lam)


# Half-width w of the one-count window of selected_child_law.  A child
# leaves [i - w, i + w] only by flipping more than w bits, with probability
# P(Binomial(n, 1/n) > w) <= 1/(w+1)!, so the law of the best of lam
# children puts at most lam/(w+1)! outside the window: lam * 1.2e-34 at
# w = 30, below 2^-53 (the resolution of one uniform draw) for lam < 9e17.
CHILD_WINDOW = 30


@lru_cache(maxsize=16)
def _level_table(fn) -> np.ndarray:
    return fn.level_table()


@lru_cache(maxsize=1024)
def _child_levels(fn, i: int):
    """The lam-free part of :func:`selected_child_law` at one-count i.

    Returns (lo, group, share, logcdf) over the window one-counts lo,
    lo+1, ...: the index of each one's fitness among the window's distinct
    fitness values in ascending order, and its share of one child's mass
    on that value; then one child's fitness log CDF over the distinct
    values, accumulated from the top as in ``_single_parts``.
    """
    n = fn.n
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    p = 1.0 / n
    lost = _binom_pmf(i, p, CHILD_WINDOW)  # flipped one-bits
    gained = _binom_pmf(n - i, p, CHILD_WINDOW)  # flipped zero-bits
    q = np.convolve(lost[::-1], gained)
    lo = i - (lost.size - 1)
    values = _level_table(fn)[lo : lo + q.size]
    distinct = np.unique(values)
    group = distinct.searchsorted(values).astype(np.int8)  # at most 2w+1 values
    mass = np.bincount(group, weights=q, minlength=distinct.size)
    tail = np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]])
    with np.errstate(divide="ignore", invalid="ignore"):
        logcdf = np.log1p(-np.minimum(tail, 1.0))
        share = np.where(mass[group] > 0, q / mass[group], 0.0)
    for a in (group, share, logcdf):
        a.setflags(write=False)
    return lo, group, share, logcdf


def selected_child_law(fn, i: int, lam: int, selection: str = "comma"):
    """Law of the next parent's one-count on a level function.

    The parent has i one-bits; lam children come from standard bit
    mutation and a uniformly random fitness-maximal one is selected.
    Under comma it is the next parent; under plus it is only when at least
    as fit as the parent, else the parent (one-count i) stays.  Returns
    (lo, pmf) with pmf[k] = P(next one-count = lo + k) on the window
    [max(0, i - w), min(n, i + w)], w = CHILD_WINDOW; the mass the window
    leaves out, at most lam/(w+1)!, falls to the window's lowest fitness.
    The fitness maximum's law is a plain difference of CDF powers, so the
    entries carry absolute, not relative, accuracy: about 1e-12 at n=1000,
    set by the log-gamma binomial masses (``best_of_lambda_pmf`` keeps
    relative accuracy in the tails).  Raises ValueError on ridge, which
    has no level table.
    """
    if lam < 1:
        raise ValueError(f"need lam >= 1, got lam={lam}")
    if selection not in ("comma", "plus"):
        raise ValueError(f"selection must be 'comma' or 'plus', got {selection!r}")
    lo, group, share, logcdf = _child_levels(fn, i)
    best = np.exp(lam * logcdf)  # P(best fitness <= each distinct value)
    best[1:] -= best[:-1].copy()
    pmf = best[group] * share  # ties split by one-child mass
    if selection == "plus":
        worse = group < group[i - lo]
        pmf[i - lo] += pmf[worse].sum()
        pmf[worse] = 0.0
    return lo, pmf


# slots: the level_quantities cache may hold 262144 of these
@dataclass(frozen=True, slots=True)
class LevelQuantities:
    """Per-level transition quantities of the best of lam offspring.

    gain = E[(f' - i)+] and loss = E[(i - f')+] are the unconditional
    forward / backward first moments; the conditional drifts are None when
    the conditioning probability is below UNDEFINED_BELOW."""

    n: int
    i: int
    lam: int
    p_plus: float
    p_zero: float
    p_minus: float
    gain: float
    loss: float

    @property
    def delta_plus(self) -> float | None:
        return self.gain / self.p_plus if self.p_plus > UNDEFINED_BELOW else None

    @property
    def delta_minus(self) -> float | None:
        return self.loss / self.p_minus if self.p_minus > UNDEFINED_BELOW else None


@lru_cache(maxsize=262144)
def level_quantities(n: int, i: int, lam: int) -> LevelQuantities:
    """The transition quantities at state (n, i, lam), 0 <= i < n."""
    if not 0 <= i < n:
        raise ValueError(f"need 0 <= i < n, got i={i}, n={n}")
    pmf = best_of_lambda_pmf(n, i, lam)
    _, logcdf = _single_parts(n, i)
    # p_plus and p_minus straight from the CDF power, accurate at large lam
    lc_i = lam * logcdf[i]
    p_plus = -math.expm1(lc_i) if np.isfinite(lc_i) else 1.0
    if i == 0:
        p_minus = 0.0
    else:
        lc_im1 = lam * logcdf[i - 1]
        p_minus = math.exp(lc_im1) if np.isfinite(lc_im1) else 0.0
    j = np.arange(n + 1)
    gain = float(((j[i + 1 :] - i) * pmf[i + 1 :]).sum())
    loss = float(((i - j[:i]) * pmf[:i]).sum())
    return LevelQuantities(n, i, lam, p_plus, float(pmf[i]), p_minus, gain, loss)


def max_flip_gain_series(lam: int) -> float:
    """sum_{j>=1} (1 - (1 - 1/j!)^lam): expected max flip count bound."""
    total = 0.0
    fact = 1
    j = 0
    while True:
        j += 1
        fact *= j
        term = 1.0 if fact == 1 else -math.expm1(lam * math.log1p(-1.0 / fact))
        total += term
        if j >= 5 and term < 1e-17:
            return total


# ---------------------------------------------------------------------------
# sandwich bounds on the per-level quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    n: int
    i: int
    lam: int
    name: str
    quantity: str
    side: str  # "lower" | "upper"
    exact: float
    bound: float
    margin: float  # >= 0 means the bound holds

    @property
    def ok(self) -> bool:
        return self.margin >= -1e-10


def _one_flip_term(n: int, i: int) -> float:
    return ((n - i) / n) * math.exp((n - 1) * math.log1p(-1.0 / n))


def _pow_from_base(base: float, lam: int) -> float:
    """(1 - base)^lam -> 1 - that, computed accurately."""
    if base >= 1.0:
        return 1.0
    return -math.expm1(lam * math.log1p(-base))


def _bound_definitions():
    e = _E
    return [
        # improvement probability, lower bounds (hold everywhere)
        (
            "p_plus_lower_harmonic",
            "p_plus",
            "lower",
            lambda n, i, lam: 1.0 - e * n / (e * n + lam * (n - i)),
            lambda n, i, lam: True,
        ),
        (
            "p_plus_lower_single_flip",
            "p_plus",
            "lower",
            lambda n, i, lam: _pow_from_base((n - i) / (e * n), lam),
            lambda n, i, lam: True,
        ),
        # improvement probability, upper bounds
        (
            "p_plus_upper_refined",
            "p_plus",
            "upper",
            lambda n, i, lam: _pow_from_base(1.14 * _one_flip_term(n, i), lam),
            lambda n, i, lam: i >= REFINED_UPPER_MIN_FRACTION * n,
        ),
        (
            "p_plus_upper_zero_flip",
            "p_plus",
            "upper",
            lambda n, i, lam: _pow_from_base((n - i) / n, lam),
            lambda n, i, lam: True,
        ),
        (
            "p_plus_upper_hard_band",
            "p_plus",
            "upper",
            lambda n, i, lam: 0.069,
            lambda n, i, lam: lam == 1 and n >= 163 and 0.84 * n <= i <= 0.85 * n,
        ),
        # fallback probability
        (
            "p_minus_lower",
            "p_minus",
            "lower",
            lambda n, i, lam: (i / n - 1.0 / e) ** lam,
            lambda n, i, lam: i / n >= 1.0 / e,
        ),
        (
            "p_minus_upper",
            "p_minus",
            "upper",
            lambda n, i, lam: (1.0 - (n - i) / (e * n) - math.exp(n * math.log1p(-1.0 / n)))
            ** lam,
            lambda n, i, lam: True,
        ),
        (
            "p_minus_upper_coarse",
            "p_minus",
            "upper",
            lambda n, i, lam: ((e - 1.0) / e) ** lam,
            lambda n, i, lam: True,
        ),
        # backward drift
        (
            "delta_minus_lower",
            "delta_minus",
            "lower",
            lambda n, i, lam: 1.0,
            lambda n, i, lam: True,
        ),
        (
            "delta_minus_upper",
            "delta_minus",
            "upper",
            lambda n, i, lam: e / (e - 1.0),
            lambda n, i, lam: True,
        ),
        # forward drift
        (
            "delta_plus_lower",
            "delta_plus",
            "lower",
            lambda n, i, lam: 1.0,
            lambda n, i, lam: True,
        ),
        (
            "delta_plus_upper_series",
            "delta_plus",
            "upper",
            lambda n, i, lam: max_flip_gain_series(lam),
            lambda n, i, lam: True,
        ),
        (
            "delta_plus_upper_log",
            "delta_plus",
            "upper",
            lambda n, i, lam: math.ceil(math.log2(lam)) + 0.413,
            lambda n, i, lam: lam >= 5,
        ),
    ]


_BOUNDS = _bound_definitions()


@dataclass
class TransitionBoundReport:
    n: int
    states_checked: int = 0
    checks_performed: int = 0
    violations: list = field(default_factory=list)
    worst: dict = field(default_factory=dict)  # bound name -> BoundCheck with min margin
    rows: list | None = None

    @property
    def ok(self) -> bool:
        # an empty grid proves nothing and is not a pass
        return self.states_checked > 0 and not self.violations


def check_transition_bounds(
    n: int,
    lambdas=None,
    i_values=None,
    collect_rows: bool = False,
) -> TransitionBoundReport:
    """Check every applicable sandwich bound at every grid state.

    A bound is checked only where its precondition holds and the exact
    quantity is defined; any violation is recorded with both sides.
    """
    if lambdas is None:
        lambdas = range(1, 65)
    if i_values is None:
        i_values = range(n)
    report = TransitionBoundReport(n=n, rows=[] if collect_rows else None)
    for i in i_values:
        for lam in lambdas:
            q = level_quantities(n, i, int(lam))
            report.states_checked += 1
            for name, quantity, side, value_fn, applies in _BOUNDS:
                if not applies(n, i, lam):
                    continue
                exact = getattr(q, quantity)
                if exact is None:
                    continue
                bound = value_fn(n, i, lam)
                margin = (bound - exact) if side == "upper" else (exact - bound)
                chk = BoundCheck(n, i, int(lam), name, quantity, side, exact, bound, margin)
                report.checks_performed += 1
                if not chk.ok:
                    report.violations.append(chk)
                prev = report.worst.get(name)
                if prev is None or margin < prev.margin:
                    report.worst[name] = chk
                if collect_rows:
                    report.rows.append(chk)
    return report


# ---------------------------------------------------------------------------
# potential functions and exact drift
# ---------------------------------------------------------------------------


class LambdaPenaltyPotential:
    """Fitness minus a penalty that decays linearly in log_F(lambda).

    h(lam) = -(2s/(s+1)) * log_F(max(e*n*F^(1/s) / lam, 1)): the penalty is
    largest at lam = 1 and vanishes once lam reaches e*n*F^(1/s).  Fitness
    losses in lean generations are compensated by the shrinking penalty.
    """

    kind = "g1"

    def __init__(self, F: float, s: float, n: int):
        if not F > 1:
            raise ValueError("F must be > 1")
        if not s > 0:
            raise ValueError("s must be > 0")
        self.F = float(F)
        self.s = float(s)
        self.n = int(n)
        self._coef = 2.0 * s / (s + 1.0)
        self._ln_f = math.log(F)
        self._cap = _E * n * F ** (1.0 / s)

    def h(self, lam: float) -> float:
        arg = max(self._cap / lam, 1.0)
        return -self._coef * math.log(arg) / self._ln_f

    def value(self, fitness: float, lam: float) -> float:
        return fitness + self.h(lam)


class LambdaLogSquaredPotential:
    """Fitness plus 2.2 * log_F(lambda)^2.

    Convex in log_F(lambda), so lambda changes dominate the one-step
    balance; used to certify stagnation regions for large success rates.
    """

    kind = "g2"

    def __init__(self, F: float):
        if not F > 1:
            raise ValueError("F must be > 1")
        self.F = float(F)
        self._ln_f = math.log(F)

    def h(self, lam: float) -> float:
        x = math.log(lam) / self._ln_f
        return 2.2 * x * x

    def value(self, fitness: float, lam: float) -> float:
        return fitness + self.h(lam)


def make_potential(kind: str, F: float, s: float | None = None, n: int | None = None):
    """Build a potential from its registry key ("g1" or "g2")."""
    if kind == "g1":
        if s is None or n is None:
            raise ValueError("g1 potential needs s and n")
        return LambdaPenaltyPotential(F, s, n)
    if kind == "g2":
        return LambdaLogSquaredPotential(F)
    raise ValueError(f"unknown potential kind: {kind!r}")


def exact_potential_drift(
    potential,
    n: int,
    i: int,
    lambda_real: float,
    params: ControllerParams,
    cap_gain_at_one: bool = False,
) -> float:
    """Exact E[g(X_next) - g(X_now)] at state (fitness i, lambda_real).

    The offspring count is round(lambda_real) while the lambda term is
    evaluated on the real value; the lambda branches are the controller
    step itself (``update_lambda``).
    With ``cap_gain_at_one`` fitness gains count as +1 (the conservative
    progress measure); this can only lower the drift.
    """
    if lambda_real < 1.0:
        raise ValueError("lambda_real must be >= 1")
    q = level_quantities(n, i, round_lambda(lambda_real))
    p_plus = q.p_plus
    fitness_part = (p_plus if cap_gain_at_one else q.gain) - q.loss
    lam_succ = update_lambda(lambda_real, True, params)
    lam_fail = update_lambda(lambda_real, False, params)
    h = potential.h
    return fitness_part + p_plus * h(lam_succ) + (1.0 - p_plus) * h(lam_fail) - h(lambda_real)


@dataclass
class DriftReport:
    """Outcome of a drift sign/threshold check over a state grid."""

    potential: str
    n: int
    threshold: float
    direction: str  # "min_at_least" | "max_at_most"
    states_checked: int
    extreme: float | None
    extreme_state: tuple | None
    violations: list
    # with collect_rows, one tuple per state:
    # (n, i, lambda_real, lambda_int, drift, threshold, margin, passed)
    rows: list | None = None

    @property
    def empty(self) -> bool:
        return self.states_checked == 0

    @property
    def ok(self) -> bool:
        # an empty grid proves nothing and is not a pass
        return not self.empty and not self.violations


def drift_grid_check(
    potential,
    params: ControllerParams,
    n: int,
    states,
    threshold: float,
    direction: str,
    cap_gain_at_one: bool = False,
    collect_rows: bool = False,
) -> DriftReport:
    """Evaluate the exact drift on every (i, lambda_real) state.

    direction "min_at_least": flag states with drift < threshold;
    direction "max_at_most": flag states with drift > threshold.  A
    state's margin is its distance from the threshold on the passing
    side, negative when it is flagged.  Violations are data (the claims
    are asymptotic), so they are returned, not raised.
    """
    if direction not in ("min_at_least", "max_at_most"):
        raise ValueError("direction must be 'min_at_least' or 'max_at_most'")
    extreme = None
    extreme_state = None
    violations = []
    rows = [] if collect_rows else None
    count = 0
    for i, lam_real in states:
        d = exact_potential_drift(potential, n, int(i), float(lam_real), params, cap_gain_at_one)
        count += 1
        if extreme is None or (d < extreme if direction == "min_at_least" else d > extreme):
            extreme, extreme_state = d, (int(i), float(lam_real))
        margin = d - threshold if direction == "min_at_least" else threshold - d
        if margin < 0:
            violations.append((int(i), float(lam_real), d))
        if collect_rows:
            rows.append((n, int(i), float(lam_real), round_lambda(float(lam_real)), d,
                         threshold, margin, margin >= 0))
    return DriftReport(
        potential=getattr(potential, "kind", "?"),
        n=n,
        threshold=threshold,
        direction=direction,
        states_checked=count,
        extreme=extreme,
        extreme_state=extreme_state,
        violations=violations,
        rows=rows,
    )


def g1_grid_lambdas(n: int, params: ControllerParams) -> np.ndarray:
    """Default lambda grid for positive-drift probes: 1..10 in steps of
    0.25 plus 30 log-spaced points up to e*n*F^(1/s)."""
    lin = np.arange(1.0, 10.0 + 1e-12, 0.25)
    cap = _E * n * params.growth_factor
    geo = np.geomspace(10.0, cap, 30)
    return np.concatenate([lin, geo])


# Offset of the stagnation band's lower edge above 0.84*n.  The band is
# 0.84*n + 2.2*ln(4.5)^2 < g2 < 0.85*n; with this (natural-log) constant the
# band is non-empty from n ~ 500 upward, while base-2 or base-F readings
# leave it empty until far larger n.
G2_BAND_OFFSET = 2.2 * math.log(4.5) ** 2


def g2_band_states(n: int, F: float, lambda_step: float = 0.05, lambda_max: float = 2.4):
    """States (i, lambda_real) of the negative-drift band for the
    log-squared potential: 0.84n < i < 0.85n, lambda in [1, lambda_max],
    filtered to 0.84n + 2.2*ln(4.5)^2 < g2 < 0.85n."""
    pot = LambdaLogSquaredPotential(F)
    lo = 0.84 * n + G2_BAND_OFFSET
    hi = 0.85 * n
    states = []
    i_lo = math.floor(0.84 * n) + 1
    i_hi = math.ceil(0.85 * n) - 1
    for i in range(i_lo, i_hi + 1):
        for lam in np.arange(1.0, lambda_max + 1e-9, lambda_step):
            g2 = pot.value(i, float(lam))
            if lo < g2 < hi:
                states.append((i, round(float(lam), 10)))
    return states


def drift_claim(kind: str, n: int, F: float, s: float):
    """The drift claim for potential ``kind`` at size n, as
    (potential, states, threshold, direction) for :func:`drift_grid_check`.

    g1: drift at least (1 - s)/(2e) at every level i < n and every lambda
    of :func:`g1_grid_lambdas`.  g2: drift at most -0.0008 across the
    stagnation band of :func:`g2_band_states`.
    """
    potential = make_potential(kind, F=F, s=s, n=n)
    if kind == "g1":
        lambdas = g1_grid_lambdas(n, ControllerParams(F=F, s=s))
        states = [(i, lam) for i in range(n) for lam in lambdas]
        return potential, states, (1 - s) / (2 * _E), "min_at_least"
    return potential, g2_band_states(n, F), -0.0008, "max_at_most"


# ---------------------------------------------------------------------------
# closed-form evaluation bound for the elitist variant
# ---------------------------------------------------------------------------


def elitist_evaluations_bound(
    n: int, a: int, b: int, F: float, s: float, lambda0: float = 1.0
) -> float:
    """Upper bound on the expected evaluations for the elitist variant to
    raise the fitness from at least ``a`` to at least ``b``:

        lambda0 * F/(F-1)
        + (1/e + (1 - F^(-1/s)) / ln(F^(1/s)))
          * (F^((s+1)/s) - 1)/(F-1) * sum_{i=a}^{b-1} e*n/(n-i)
    """
    if not 0 <= a <= b <= n:
        raise ValueError(f"need 0 <= a <= b <= n, got a={a}, b={b}, n={n}")
    if not F > 1:
        raise ValueError("F must be > 1")
    if not s > 0:
        raise ValueError("s must be > 0")
    if lambda0 < 1:
        raise ValueError("lambda0 must be >= 1")
    lead = lambda0 * F / (F - 1.0)
    if a == b:
        return lead
    growth = F ** (1.0 / s)
    unsuccessful = 1.0 / _E + (1.0 - 1.0 / growth) / math.log(growth)
    amortize = (F ** ((s + 1.0) / s) - 1.0) / (F - 1.0)
    levels = np.arange(a, b)
    return lead + unsuccessful * amortize * float((_E * n / (n - levels)).sum())
