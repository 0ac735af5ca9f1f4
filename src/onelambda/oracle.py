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
around the parent.  It reads lambda-free rows (one child's log CDF per
fitness value of the window, and tie shares) built by one numpy pass per
block of levels; ``ea.run`` samples the same rows instead of mutating
bits.

Numerics: binomial masses come from the ratio recurrence
pmf[k+1] = pmf[k] * (m-k)/(k+1) * p/(1-p) from pmf[0] = (1-p)^m, so each
gains a rounding error of an ulp or two per step and one child's pmf sums
to 1 within 5e-16 up to n = 5000; underflow flushes to zero.  CDF powers
use lam * log1p(-tail) so that fallback probabilities stay accurate for
large lam, and adjacent CDF powers are differenced through expm1 to keep
small upper-tail masses at full relative accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _binom_pmf(m: int, p: float) -> np.ndarray:
    """Binomial(m, p) masses for k = 0..m by the ratio recurrence from
    (1-p)^m; underflow -> 0."""
    k = np.arange(m + 1)
    if p == 1.0:  # n == 1 flips every bit
        return (k == m).astype(float)
    ratios = (m - k[:-1]) / (k[:-1] + 1) * (p / (1.0 - p))
    return np.cumprod(np.concatenate([[math.exp(m * math.log1p(-p))], ratios]))


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


def _power_pmf(logcdf: np.ndarray, lam) -> np.ndarray:
    """pmf of the max of lam i.i.d. draws, from the single-draw log CDF.

    ``lam`` is a scalar, or a column of shape (L, 1) for one pmf row per
    lam.  Adjacent CDF powers are differenced as exp(lo) * expm1(hi - lo),
    which keeps relative accuracy where both are representable.  Where
    exp(lo) underflows (lo <= -700) or the gap would overflow expm1
    (diff >= 500), the lower term is negligible against the upper and the
    plain difference exp(hi) - exp(lo) is exact enough.
    """
    powlog = lam * logcdf
    with np.errstate(invalid="ignore", over="ignore"):
        cdfl = np.exp(powlog)
        out = np.empty_like(cdfl)
        out[..., 0] = cdfl[..., 0]
        lo = powlog[..., :-1]
        diff = powlog[..., 1:] - lo
        refine = np.isfinite(lo) & (lo > -700.0) & (diff < 500.0)
        head = np.exp(np.where(refine, lo, 0.0)) * np.expm1(np.where(refine, diff, 0.0))
        below = np.where(np.isfinite(lo), cdfl[..., :-1], 0.0)
        out[..., 1:] = np.where(refine, head, cdfl[..., 1:] - below)
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


# Levels per numpy pass of the selected-child law, and the passes kept.
_LAW_BLOCK = 32
_LAW_BLOCKS = 64


def _binom_rows(m: np.ndarray, p: float, kmax: int) -> np.ndarray:
    """Binomial(m[r], p) masses for k = 0..kmax, one row per entry of m, by
    the ratio recurrence of :func:`_binom_pmf`; masses past m[r] are 0."""
    k = np.arange(kmax)
    if p == 1.0:  # n == 1 flips every bit
        return (np.arange(kmax + 1) == m[:, None]).astype(float)
    ratios = np.maximum(m[:, None] - k, 0) / (k + 1) * (p / (1.0 - p))
    first = np.exp(m * math.log1p(-p))[:, None]
    return np.cumprod(np.concatenate([first, ratios], axis=1), axis=1)


class _LawBlock:
    """The lam-free law of the selected child at levels first, first+1, ...
    (up to _LAW_BLOCK of them) of one level function, from one numpy pass.

    Row r holds level first+r's window one-counts i-w..i+w, w =
    CHILD_WINDOW, sorted by (fitness, one-count); the ``skip[r]`` leading
    entries are pads outside [0, n], with no mass.  Per entry: ``group``,
    the index of its fitness among the row's distinct fitness values
    (pads -1); ``share``, its part of one child's mass on that value (a
    group with no mass puts its share on its first member); ``logcdf``,
    one child's fitness log CDF at its value, accumulated from the top so
    that the mass the window leaves out falls on the lowest fitness.
    ``rows`` holds the engine's rows (:meth:`row`), built on first use.
    """

    __slots__ = ("first", "skip", "ones", "group", "share", "logcdf", "last", "parent", "rows")

    def __init__(self, fn, first: int):
        n, w = fn.n, CHILD_WINDOW
        levels = np.arange(first, min(n + 1, first + _LAW_BLOCK))
        p = 1.0 / n
        lost = _binom_rows(levels, p, w)  # flipped one-bits
        gained = _binom_rows(n - levels, p, w)  # flipped zero-bits
        # one child's mass at offsets d = -w..w: sum over a of lost[a] * gained[d + a]
        padded = np.zeros((levels.size, 3 * w + 1))
        padded[:, w : 2 * w + 1] = gained
        q = np.einsum("rda,ra->rd", sliding_window_view(padded, w + 1, axis=1), lost)
        ones = levels[:, None] + np.arange(-w, w + 1)
        inside = (ones >= 0) & (ones <= n)
        # raw fitness is never negative, so the pads sort first
        fit = np.where(inside, fn.level_table()[np.clip(ones, 0, n)], -1)
        order = np.argsort(fit, axis=1, kind="stable")
        fit, ones, q = (np.take_along_axis(a, order, axis=1) for a in (fit, ones, q))
        start = np.ones(fit.shape, dtype=bool)
        start[:, 1:] = fit[:, 1:] != fit[:, :-1]
        flat = start.ravel()  # the mass of each entry's group, summed within the group
        mass = np.add.reduceat(q.ravel(), np.flatnonzero(flat))[np.cumsum(flat) - 1]
        mass = mass.reshape(q.shape)
        tail = np.zeros_like(q)  # one child's mass above each entry
        tail[:, :-1] = np.cumsum(q[:, :0:-1], axis=1)[:, ::-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.share = np.where(mass > 0, q / mass, start)
            self.logcdf = np.log1p(-np.minimum(tail, 1.0))
        self.first = first
        self.skip = (2 * w + 1 - inside.sum(axis=1)).tolist()
        self.ones = ones
        self.group = np.cumsum(start, axis=1) - 1 - (~inside).any(axis=1)[:, None]
        self.last = np.ones(fit.shape, dtype=bool)  # an entry ends its group
        self.last[:, :-1] = start[:, 1:]
        at_parent = (ones == levels[:, None]).argmax(axis=1)
        self.parent = self.group[np.arange(levels.size), at_parent].tolist()
        self.rows = [None] * levels.size
        for a in (self.share, self.logcdf, self.ones, self.group, self.last):
            a.setflags(write=False)

    def level(self, r: int):
        """Row r without its pads: (ones, group, share, group log CDFs,
        parent's group)."""
        k = self.skip[r]
        return (self.ones[r, k:], self.group[r, k:], self.share[r, k:],
                self.logcdf[r, k:][self.last[r, k:]], self.parent[r])

    def row(self, r: int):
        """The engine's row of level first+r, as Python lists: (logcdf,
        pick, parent, ties), built on first use and kept in ``rows``.

        ``logcdf[g]`` is one child's log CDF at the window's g-th lowest
        fitness, ``parent`` the parent's g.  ``pick[g]`` is the one-count
        with that fitness, or None for a tie: then ``ties[g]`` is (cum,
        members), the members with positive share in one-count order and
        their cumulative shares.
        """
        row = self.rows[r]
        if row is None:
            ones, group, share, logcdf, parent = self.level(r)
            pick = ones.tolist()
            ties = {}
            if len(pick) > logcdf.size:
                members = [[] for _ in range(logcdf.size)]
                for j, g, s in zip(pick, group.tolist(), share.tolist()):
                    if s > 0.0:
                        members[g].append((j, s))
                pick = [m[0][0] if len(m) == 1 else None for m in members]
                ties = {g: (list(accumulate(s for _, s in m)), [j for j, _ in m])
                        for g, m in enumerate(members) if len(m) > 1}
            row = self.rows[r] = (logcdf.tolist(), pick, parent, ties)
        return row


@lru_cache(maxsize=_LAW_BLOCKS)
def _law_block(fn, b: int) -> _LawBlock:
    return _LawBlock(fn, b * _LAW_BLOCK)


def _level_law(fn, i: int):
    """The block holding level i (see :class:`_LawBlock`) and i's row in it."""
    if not 0 <= i <= fn.n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={fn.n}")
    return _law_block(fn, i // _LAW_BLOCK), i % _LAW_BLOCK


def selected_child_law(fn, i: int, lam: int, selection: str = "comma"):
    """Law of the next parent's one-count on a level function.

    The parent has i one-bits; lam children come from standard bit
    mutation and a uniformly random fitness-maximal one is selected.
    Under comma it is the next parent; under plus it is only when at least
    as fit as the parent, else the parent (one-count i) stays.  Returns
    (lo, pmf) with pmf[k] = P(next one-count = lo + k) on the window
    [max(0, i - w), min(n, i + w)], w = CHILD_WINDOW; the mass the window
    leaves out, at most lam/(w+1)!, falls to the window's lowest fitness.
    The law is read from the same lam-free rows (one child's log CDF per
    fitness value, tie shares) as the engine's sampler, built for a block
    of levels at a time: the best fitness is at most a value with
    probability exp(lam * logcdf).  That maximum's law is a plain
    difference of CDF powers, so the entries carry absolute, not
    relative, accuracy: on onemax they lie within 2e-15 of
    ``best_of_lambda_pmf``, which keeps relative accuracy in the tails,
    for n <= 5000 and lam <= 10**6.  Raises ValueError on ridge, which
    has no level table.
    """
    if lam < 1:
        raise ValueError(f"need lam >= 1, got lam={lam}")
    if selection not in ("comma", "plus"):
        raise ValueError(f"selection must be 'comma' or 'plus', got {selection!r}")
    block, r = _level_law(fn, i)
    ones, group, share, logcdf, parent = block.level(r)
    best = np.exp(lam * logcdf)  # P(best fitness <= each distinct value)
    best[1:] -= best[:-1].copy()
    law = best[group] * share  # ties split by one-child mass
    lo = max(0, i - CHILD_WINDOW)
    pmf = np.empty(ones.size)
    pmf[ones - lo] = law
    if selection == "plus":
        worse = group < parent
        pmf[i - lo] += law[worse].sum()
        pmf[ones[worse] - lo] = 0.0
    return lo, pmf


# slots: the level_row cache may hold a few hundred thousand of these
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


@lru_cache(maxsize=4096)
def level_row(n: int, i: int, lams: tuple) -> tuple[LevelQuantities, ...]:
    """The transition quantities at (n, i, lam) for each lam of ``lams``,
    in order, from one numpy pass over the level; 0 <= i < n."""
    if not 0 <= i < n:
        raise ValueError(f"need 0 <= i < n, got i={i}, n={n}")
    for lam in lams:
        if lam < 1:
            raise ValueError(f"need lam >= 1, got lam={lam}")
    pmf, logcdf = _single_parts(n, i)
    col = np.array(lams, dtype=float).reshape(-1, 1)
    pmfs = _power_pmf(logcdf, col)
    pmfs[col[:, 0] == 1] = pmf  # lam = 1 is the convolution pmf, as in best_of_lambda_pmf
    j = np.arange(n + 1)
    gains = ((j[i + 1 :] - i) * pmfs[:, i + 1 :]).sum(axis=-1)
    losses = ((i - j[:i]) * pmfs[:, :i]).sum(axis=-1)
    row = []
    for lam, p_zero, gain, loss in zip(lams, pmfs[:, i], gains, losses):
        # p_plus and p_minus straight from the CDF power, accurate at large lam
        lc_i = lam * logcdf[i]
        p_plus = -math.expm1(lc_i) if math.isfinite(lc_i) else 1.0
        if i == 0:
            p_minus = 0.0
        else:
            lc_im1 = lam * logcdf[i - 1]
            p_minus = math.exp(lc_im1) if math.isfinite(lc_im1) else 0.0
        row.append(LevelQuantities(n, i, lam, p_plus, float(p_zero), p_minus,
                                   float(gain), float(loss)))
    return tuple(row)


def level_quantities(n: int, i: int, lam: int) -> LevelQuantities:
    """The transition quantities at state (n, i, lam), 0 <= i < n."""
    return level_row(n, i, (lam,))[0]


@lru_cache(maxsize=4096)
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
    lams = tuple(int(lam) for lam in lambdas)
    report = TransitionBoundReport(n=n, rows=[] if collect_rows else None)
    for i in i_values:
        for lam, q in zip(lams, level_row(n, i, lams)):
            report.states_checked += 1
            for name, quantity, side, value_fn, applies in _BOUNDS:
                if not applies(n, i, lam):
                    continue
                exact = getattr(q, quantity)
                if exact is None:
                    continue
                bound = value_fn(n, i, lam)
                margin = (bound - exact) if side == "upper" else (exact - bound)
                chk = BoundCheck(n, i, lam, name, quantity, side, exact, bound, margin)
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
    q = level_quantities(n, i, _offspring_count(lambda_real))
    return _drift(potential, q, lambda_real, params, cap_gain_at_one)


def _offspring_count(lambda_real: float) -> int:
    if lambda_real < 1.0:
        raise ValueError("lambda_real must be >= 1")
    return round_lambda(lambda_real)


def _drift(potential, q: LevelQuantities, lambda_real: float, params, cap_gain_at_one) -> float:
    """The drift of :func:`exact_potential_drift` from the level record q
    at round(lambda_real) offspring."""
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
    states = [(int(i), float(lam_real)) for i, lam_real in states]
    levels = {}  # fitness level -> its distinct offspring counts, in grid order
    for i, lam_real in states:
        levels.setdefault(i, {})[_offspring_count(lam_real)] = None
    records = {}  # (i, offspring count) -> level record, one level row per level
    for i, lams in levels.items():
        lams = tuple(lams)
        records.update(((i, lam), q) for lam, q in zip(lams, level_row(n, i, lams)))
    extreme = None
    extreme_state = None
    violations = []
    rows = [] if collect_rows else None
    for i, lam_real in states:
        lam = round_lambda(lam_real)
        d = _drift(potential, records[i, lam], lam_real, params, cap_gain_at_one)
        if extreme is None or (d < extreme if direction == "min_at_least" else d > extreme):
            extreme, extreme_state = d, (i, lam_real)
        margin = d - threshold if direction == "min_at_least" else threshold - d
        if margin < 0:
            violations.append((i, lam_real, d))
        if collect_rows:
            rows.append((n, i, lam_real, lam, d, threshold, margin, margin >= 0))
    return DriftReport(
        potential=getattr(potential, "kind", "?"),
        n=n,
        threshold=threshold,
        direction=direction,
        states_checked=len(states),
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
