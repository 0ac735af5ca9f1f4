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
  probabilities and the forward / backward first moments),
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
bits, and the onemax quantities above read onemax's rows.  Ridge has
such rows too, for a parent on the ridge 1^j 0^(n-j), with two entries
per one-count (the ridge string and every other child): ``ea.run`` draws
its generations of many children there from them, and off the ridge
from zeromax's.

The onemax checks run over arrays.  :func:`state_quantities` gives the
quantities of a list of states (i, lam) as arrays, from one numpy pass
per group of at most 256 states that share a block of levels and a
window shape.  :func:`drift_grid_check` calls it once per pass of 2048
states, on their distinct (i, round(lambda)) pairs, and gathers each
state's into one drift expression, and :func:`check_transition_bounds`
calls it once per pass of 16 levels x lams and evaluates each bound over
that pass.  Each check returns one :class:`CheckReport`.  A pass is one
call of a module-level function that gives the columns of the pass's
rows in the CLI command's CSV, numpy arrays and scalars, and its tally:
the rows, the violations in their ``pass`` column and, for drift, the
pass's extreme state.  The writer the check is given reads the rows a
pass at a time, so the rows held do not grow with the grid; a reader
that iterates them gets plain tuples of Python scalars.  The CLI's
writer (:func:`~onelambda.experiments.write_csv`) formats the columns
themselves, and runs each pass as one task of the process pool when
there are several passes and CPUs, so a worker computes the pass,
tallies it and formats its CSV text, and this process only adds up the
tallies and writes the texts in order.
Entries that pass through exp, log1p, expm1, log2 or a power (p_plus,
p_minus and eight of the bounds) stay ``math`` scalars, one call per (i,
lam) or per lam: numpy's SIMD versions differ from ``math`` in the last
place on some inputs (exp on 4.7%, log1p 7.3%, expm1 0.7% and power 5.4%
of random inputs, on an AVX-512 build of numpy 2.4), and the check CSVs
keep the scalar values.  Sums, products and quotients are correctly
rounded either way.

Numerics: one child's law lives on the window of one-counts within
CHILD_WINDOW = 30 of the parent.  A child leaves it only by flipping more
than 30 bits, so the best of lam children puts at most lam/31! (lam *
1.2e-34) outside; that mass falls on the window's lowest fitness.  It
stays below 2^-53 up to lam = LAMBDA_MAX (9.1e17), and the window laws
refuse larger lam.
Binomial masses come from the ratio recurrence
pmf[k+1] = pmf[k] * (m-k)/(k+1) * p/(1-p) from pmf[0] = (1-p)^m, so each
gains a rounding error of an ulp or two per step; underflow flushes to
zero.  CDF powers use lam * log1p(-tail) so that fallback probabilities
stay accurate for large lam.  Adjacent CDF powers exp(lo) <= exp(hi) are
differenced as exp(lo) * expm1(hi - lo) only where hi - lo < 1, where the
plain difference would cancel; elsewhere exp(hi) - exp(lo) loses nothing
to cancellation.  A wider rule costs accuracy: lo = lam * logcdf is
rounded to its own ulp (5.7e-14 at lo = -494), and exp(lo) carries that
error in full into a mass that, at a large gap, is nearly all exp(hi),
whose smaller argument is rounded far finer.  Against 50-digit
differences of the same float rows, the largest relative error of masses
above 1e-6 is 1.0e-15 with the rule and was 2.2e-14 (onemax n = 1000)
when expm1 took every gap below 500.
Measured: one child's window masses, before the log CDF accumulates
them from the top (which puts any deficit on the lowest fitness), sum to
1 within 4.5e-16 at every level for each n of 1, 2, 3, 10, 50, 163, 200,
500, 1000, 2000, 3000 and 5000.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ea import CHILD_WINDOW, LAMBDA_MAX, ControllerParams, round_lambda, update_lambda
from .experiments import Passes
from .fitness import FitnessFunction

__all__ = [
    "selected_child_law",
    "LevelRow",
    "state_quantities",
    "max_flip_gain_series",
    "CheckReport",
    "BOUND_COLUMNS",
    "check_transition_bounds",
    "LambdaPenaltyPotential",
    "LambdaLogSquaredPotential",
    "make_potential",
    "DRIFT_COLUMNS",
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


def _power_pmf(logcdf: np.ndarray, lam) -> np.ndarray:
    """pmf of the max of lam i.i.d. draws, from the single-draw log CDF.

    ``lam`` is a scalar, or a column of shape (L, 1) for one pmf row per
    lam.  Adjacent CDF powers exp(lo) <= exp(hi) are differenced as
    exp(lo) * expm1(hi - lo) where the gap hi - lo is below 1, which keeps
    relative accuracy where the plain difference would cancel.  At wider
    gaps, and where exp(lo) underflows (lo <= -700), the plain difference
    exp(hi) - exp(lo) does not cancel, and it keeps the rounding of lo out
    of a mass that is mostly exp(hi) (see the module's Numerics paragraph).
    """
    powlog = lam * logcdf
    with np.errstate(invalid="ignore", over="ignore"):
        cdfl = np.exp(powlog)
        out = np.empty_like(cdfl)
        out[..., 0] = cdfl[..., 0]
        lo = powlog[..., :-1]
        diff = powlog[..., 1:] - lo
        refine = (lo > -700.0) & (diff < 1.0)  # false at lo = -inf, where exp(lo) = 0
        head = np.exp(np.where(refine, lo, 0.0)) * np.expm1(np.where(refine, diff, 0.0))
        out[..., 1:] = np.where(refine, head, cdfl[..., 1:] - cdfl[..., :-1])
    return out


def _check_lam(lam) -> None:
    if not 1 <= lam <= LAMBDA_MAX:
        raise ValueError(f"need 1 <= lam <= {LAMBDA_MAX}, got lam={lam}")


# Levels per numpy pass of the selected-child law (and of the bound checks),
# and the passes kept.
_LAW_BLOCK = 32
_LAW_BLOCKS = 64


def _binom_rows(m: np.ndarray, p: float, kmax: int) -> np.ndarray:
    """Binomial(m[r], p) masses for k = 0..kmax, one row per entry of m, by
    the ratio recurrence from (1-p)^m[r]; masses past m[r] are 0."""
    k = np.arange(kmax)
    if p == 1.0:  # n == 1 flips every bit
        return (np.arange(kmax + 1) == m[:, None]).astype(float)
    ratios = np.maximum(m[:, None] - k, 0) / (k + 1) * (p / (1.0 - p))
    first = np.exp(m * math.log1p(-p))[:, None]
    return np.cumprod(np.concatenate([first, ratios], axis=1), axis=1)


def _child_masses(n: int, levels: np.ndarray) -> np.ndarray:
    """One child's one-count masses on an n-bit string, one row per parent
    level i of ``levels``, at one-counts i-w..i+w, w = CHILD_WINDOW; those
    outside [0, n] get 0.  A row misses 1 by the mass of a jump past w
    flips, at most 1/(w+1)!, plus rounding."""
    w = CHILD_WINDOW
    p = 1.0 / n
    lost = _binom_rows(levels, p, w)  # flipped one-bits
    gained = _binom_rows(n - levels, p, w)  # flipped zero-bits
    # mass at offsets d = -w..w: sum over a of lost[a] * gained[d + a]
    padded = np.zeros((levels.size, 3 * w + 1))
    padded[:, w : 2 * w + 1] = gained
    return np.einsum("rda,ra->rd", sliding_window_view(padded, w + 1, axis=1), lost)


def _window_entries(fn, levels: np.ndarray):
    """The entries of one child's law at each parent level of ``levels``:
    one-count, raw value and mass, one row per level.  A level function
    has one entry per one-count of the window i-w..i+w, w = CHILD_WINDOW.
    Ridge's parent at level j is the ridge string 1^j 0^(n-j), and it has
    two entries per one-count co: the ridge string 1^co 0^(n-co), value
    n + co, which the child is exactly when it flips the |co - j| bits
    between co and j, mass p^|co-j| (1-p)^(n-|co-j|), p = 1/n; and every
    other child with co one-bits, value n - co, with onemax's one-child
    mass less that term.  Only the ridge strings have the one-counts 0 and
    n, so those two off-ridge entries are pads, as are one-counts outside
    [0, n]: value -1 and no mass."""
    n, w = fn.n, CHILD_WINDOW
    q = _child_masses(n, levels)
    ones = levels[:, None] + np.arange(-w, w + 1)
    inside = (ones >= 0) & (ones <= n)
    clipped = np.clip(ones, 0, n)
    if fn.level_based:  # raw fitness is never negative, so the pads sort first
        return ones, np.where(inside, fn.level_table()[clipped], -1), q
    d = np.minimum(np.abs(ones - levels[:, None]), n)
    p = 1.0 / n
    on = np.where(inside, p**d * (1.0 - p) ** (n - d), 0.0)
    off_ridge = inside & (ones > 0) & (ones < n)
    return (np.concatenate([ones, ones], axis=1),
            np.concatenate([np.where(off_ridge, n - clipped, -1),
                            np.where(inside, n + clipped, -1)], axis=1),
            np.concatenate([np.where(off_ridge, q - on, 0.0), on], axis=1))


class _LawBlock:
    """The lam-free law of the selected child at levels first, first+1, ...
    (up to _LAW_BLOCK of them) of one function, from one numpy pass over
    its window entries (:func:`_window_entries`).

    Row r holds level first+r's entries sorted by (value, entry order);
    the ``skip[r]`` leading entries are pads, with no mass.  Per entry:
    ``ones``, its one-count; ``fit``, its raw value; ``group``, the index
    of its value among the row's distinct values (pads -1); ``share``, its
    part of one child's mass on that value (a group with no mass puts its
    share on its first member); ``logcdf``, one child's value log CDF at
    its value, accumulated from the top so that the mass the window leaves
    out falls on the lowest value.  ``rows`` holds the engine's rows
    (:meth:`row`), built on first use.
    """

    __slots__ = ("first", "skip", "ones", "fit", "group", "share", "logcdf", "last", "rows")

    def __init__(self, first: int, ones: np.ndarray, fit: np.ndarray, q: np.ndarray):
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
        pads = fit < 0
        self.first = first
        self.skip = pads.sum(axis=1).tolist()
        self.ones = ones
        self.fit = fit
        self.group = np.cumsum(start, axis=1) - 1 - pads[:, :1]
        self.last = np.ones(fit.shape, dtype=bool)  # an entry ends its group
        self.last[:, :-1] = start[:, 1:]
        self.rows = [None] * fit.shape[0]
        for a in (self.share, self.logcdf, self.ones, self.fit, self.group, self.last):
            a.setflags(write=False)

    def level(self, r: int):
        """Row r without its pads: (ones, group, share, group log CDFs)."""
        k = self.skip[r]
        return (self.ones[r, k:], self.group[r, k:], self.share[r, k:],
                self.logcdf[r, k:][self.last[r, k:]])

    def row(self, r: int):
        """The engine's row of level first+r, as Python lists: (logcdf,
        pick, ties, values), built on first use and kept in ``rows``.

        ``logcdf[g]`` is one child's log CDF at the row's g-th lowest
        value, ``values[g]``.  ``pick[g]`` is the one-count with that
        value, or None for a tie: then ``ties[g]`` is (cum, members), the
        members with positive share in one-count order and their
        cumulative shares.
        """
        row = self.rows[r]
        if row is None:
            ones, group, share, logcdf = self.level(r)
            values = self.fit[r, self.skip[r]:].tolist()
            pick = ones.tolist()
            ties = {}
            if len(pick) > logcdf.size:
                values = list(dict.fromkeys(values))  # sorted: one per group
                members = [[] for _ in range(logcdf.size)]
                for j, g, s in zip(pick, group.tolist(), share.tolist()):
                    if s > 0.0:
                        members[g].append((j, s))
                pick = [m[0][0] if len(m) == 1 else None for m in members]
                ties = {g: (list(accumulate(s for _, s in m)), [j for j, _ in m])
                        for g, m in enumerate(members) if len(m) > 1}
            row = self.rows[r] = (logcdf.tolist(), pick, ties, values)
        return row


@lru_cache(maxsize=_LAW_BLOCKS)
def _law_block(fn, b: int) -> _LawBlock:
    first = b * _LAW_BLOCK
    levels = np.arange(first, min(fn.n + 1, first + _LAW_BLOCK))
    return _LawBlock(first, *_window_entries(fn, levels))


def _level_law(fn, i: int):
    """The block holding level i (see :class:`_LawBlock`) and i's row in it;
    on ridge, level i is the ridge string 1^i 0^(n-i)."""
    if not 0 <= i <= fn.n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={fn.n}")
    return _law_block(fn, i // _LAW_BLOCK), i % _LAW_BLOCK


def selected_child_law(fn, i: int, lams, selection: str = "comma"):
    """Law of the next parent's one-count on a level function.

    The parent has i one-bits; lam children come from standard bit
    mutation and a uniformly random fitness-maximal one is selected.
    Under comma it is the next parent; under plus it is only when at least
    as fit as the parent, else the parent (one-count i) stays.  ``lams``
    is one lam or a sequence of them.  Returns (lo, pmf) with pmf[..., k]
    = P(next one-count = lo + k) on the window [max(0, i - w), min(n, i +
    w)], w = CHILD_WINDOW: 1-D for one lam, else one row per lam of
    ``lams`` in order, each bit for bit the one-lam law.  The mass the
    window leaves out, at most lam/(w+1)!, falls to the window's lowest
    fitness.  The law is read from the same lam-free rows (one child's log
    CDF per fitness value, tie shares) as the engine's sampler, built for
    a block of levels at a time: the best fitness is at most a value with
    probability exp(lam * logcdf), differenced by :func:`_power_pmf`.
    Needs 1 <= lam <= LAMBDA_MAX; raises ValueError on ridge, whose value
    depends on the bit layout.
    """
    if not fn.level_based:
        raise ValueError("selected_child_law needs a level function; ridge has no level table")
    for lam in lams if np.ndim(lams) else (lams,):
        _check_lam(lam)
    if selection not in ("comma", "plus"):
        raise ValueError(f"selection must be 'comma' or 'plus', got {selection!r}")
    block, r = _level_law(fn, i)
    ones, group, share, logcdf = block.level(r)
    lam_vals = np.array(lams, dtype=float)
    best = _power_pmf(logcdf, lam_vals[..., None])  # P(best fitness = each distinct value)
    law = best[..., group] * share  # ties split by one-child mass
    lo = max(0, i - CHILD_WINDOW)
    pmf = np.empty(law.shape)
    pmf[..., ones - lo] = law
    if selection == "plus":
        (parent,) = group[ones == i]
        pmf[..., ones[group < parent] - lo] = 0.0
        if parent:  # every child worse than the parent: it stays
            pmf[..., i - lo] += np.exp(lam_vals * logcdf[parent - 1])
    return lo, pmf


class LevelRow(NamedTuple):
    """Transition quantities of the best of lam offspring, one entry per
    state (i, lam): P(f' > i), P(f' = i), P(f' < i) for its fitness f', and
    the unconditional forward / backward moments gain = E[(f' - i)+] and
    loss = E[(i - f')+]."""

    p_plus: np.ndarray
    p_zero: np.ndarray
    p_minus: np.ndarray
    gain: np.ndarray
    loss: np.ndarray


def _each(f, *args) -> np.ndarray:
    """f, a scalar function such as ``math.exp``, at every entry of the
    broadcast arrays ``args``: one call per entry, on Python numbers."""
    return np.frompyfunc(f, len(args), 1)(*args).astype(float)


# States per numpy pass of state_quantities.
_STATE_PASS = 256


def state_quantities(n: int, i, lam) -> LevelRow:
    """The transition quantities of onemax at the states (i[t], lam[t]),
    0 <= i < n, 1 <= lam <= LAMBDA_MAX, one entry per state in order.

    The pmf of a state is :func:`selected_child_law` of onemax at (i,
    lam): a jump out of the window [i - w, i + w], w = CHILD_WINDOW, at
    most lam/(w+1)! of the mass, counts as a fall to the window's lowest
    fitness.  States that share a law block and a window shape go through
    one :func:`_power_pmf` pass, at most _STATE_PASS at a time; a state's
    entries are the same bits alone or in any batch.  p_plus and p_minus
    come straight from the CDF power at the parent's and the next lower
    one-count, accurate at large lam, through ``math.expm1`` and
    ``math.exp`` one entry at a time: numpy's SIMD exp and expm1 may
    differ from ``math`` in the last place, and the check CSVs are pinned
    to the scalar values.  lam is checked on its integer values, before
    any float conversion.
    """
    i, lam = np.asarray(i, dtype=np.int64), np.asarray(lam)
    if i.ndim != 1 or i.shape != lam.shape:
        raise ValueError(f"need equal-length 1-D i and lam, got shapes {i.shape} and {lam.shape}")
    out = np.zeros((len(LevelRow._fields), i.size))
    if not i.size:
        return LevelRow(*out)
    if i.min() < 0 or i.max() >= n:
        raise ValueError(f"need 0 <= i < n, got i={i[(i < 0) | (i >= n)][0]}, n={n}")
    for x in lam[[lam.argmin(), lam.argmax()]].tolist():
        _check_lam(x)
    w = CHILD_WINDOW
    below, above = np.minimum(i, w), np.minimum(n - i, w)  # the window's extent around i
    key = ((i // _LAW_BLOCK) * (w + 1) + below) * (w + 1) + above
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    onemax = FitnessFunction("onemax", n)
    for group in np.split(order, cuts):
        first = group[0]
        block = _law_block(onemax, i[first] // _LAW_BLOCK)
        k, m = int(below[first]), int(below[first] + above[first]) + 1  # parent's column, width
        for at in range(0, group.size, _STATE_PASS):
            t = group[at : at + _STATE_PASS]
            logcdf = block.logcdf[i[t] - block.first, 2 * w + 1 - m :]  # onemax: no ties
            lam_t = lam[t].astype(float)
            pmf = _power_pmf(logcdf, lam_t[:, None])
            out[0, t] = -_each(math.expm1, lam_t * logcdf[:, k])
            out[1, t] = pmf[:, k]
            if k:
                out[2, t] = _each(math.exp, lam_t * logcdf[:, k - 1])
            out[3, t] = (np.arange(1, m - k) * pmf[:, k + 1 :]).sum(axis=-1)
            out[4, t] = (np.arange(k, 0, -1) * pmf[:, :k]).sum(axis=-1)
    return LevelRow(*out)


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


class CheckReport:
    """Outcome of a check over a grid of states.  The rows its CLI command
    writes (in :data:`BOUND_COLUMNS` or :data:`DRIFT_COLUMNS` order,
    ending in the verdict ``pass``) come a pass of states at a time as
    ``report.rows``, a :class:`~onelambda.experiments.Passes` handed to
    ``write(report)``, which must read them to the end.  Each pass gives
    its rows as columns; iterated, ``report.rows`` runs each pass in this
    process and gives the rows as plain tuples of Python scalars, while
    :func:`~onelambda.experiments.write_csv` formats the columns, and may
    run each pass in its pool, with that pass's verdicts tallied in the
    worker.  Either way each pass's tally is taken before
    its rows are read or written: ``checks_performed`` counts the rows and
    ``violations`` those that fail, so every field is final once the
    check returns.  ``states_checked`` is the grid's size; the drift check
    also gives its extreme drift and that state (i, lambda_real), else
    None: ``pick`` (np.argmin or np.argmax) chooses it among the passes'
    extremes, in pass order."""

    def __init__(self, states_checked: int, passes: list, write, pick=None):
        self.states_checked = states_checked
        self.extreme = self.extreme_state = None
        self.checks_performed = self.violations = 0
        self._pick = pick
        rows = self.rows = Passes(passes, self._take)
        write(self)
        if next(rows, None) is not None:
            raise ValueError("write must read the check's rows to the end")

    def _take(self, tally) -> None:
        checks, violations, extreme = tally
        self.checks_performed += checks
        self.violations += violations
        # pick of the two is pick over every pass so far: its first extreme, a NaN first
        if extreme is not None and (self.extreme is None
                                    or self._pick([self.extreme, extreme[0]])):
            self.extreme, self.extreme_state = extreme[0], extreme[1:]

    @property
    def ok(self) -> bool:
        # an empty grid proves nothing and is not a pass
        return self.states_checked > 0 and not self.violations


def _tally(passed: np.ndarray, extreme=None) -> tuple:
    """A pass's tally from its pass column: (checks, violations, extreme)."""
    return passed.size, passed.size - int(np.count_nonzero(passed)), extreme


# The bounds-check CSV's columns: "bound" names the bound and "bound_value"
# is its value; margin >= 0 means the bound holds, and pass is margin >= -1e-10.
BOUND_COLUMNS = ("n", "i", "lambda", "quantity", "bound", "side", "exact", "bound_value",
                 "margin", "pass")


def _no_flip(n: int, m: int) -> float:
    """(1 - 1/n)^m: the chance that m given bits of n all stay unflipped."""
    return math.exp(m * math.log1p(-1.0 / n)) if n > 1 else float(m == 0)


def _one_flip_term(n: int, i: np.ndarray) -> np.ndarray:
    return ((n - i) / n) * _no_flip(n, n - 1)


def _pow_from_base(base: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """1 - (1 - base)^lam, computed accurately; 1 where base >= 1."""
    below = base < 1.0
    log_stay = _each(math.log1p, -np.where(below, base, 0.0))
    return np.where(below, -_each(math.expm1, lam * log_stay), 1.0)


def _bound_definitions():
    """(name, quantity, side, value, applies) per bound; value and applies
    take n, a column of levels i and a row of lams, and broadcast."""
    e = _E
    return [
        # improvement probability, lower bounds (hold everywhere)
        (
            "p_plus_lower_harmonic",
            "p_plus",
            "lower",
            lambda n, i, lam: 1.0 - e * n / (e * n + lam * (n - i)),
            None,
        ),
        (
            "p_plus_lower_single_flip",
            "p_plus",
            "lower",
            lambda n, i, lam: _pow_from_base((n - i) / (e * n), lam),
            None,
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
            None,
        ),
        (
            "p_plus_upper_hard_band",
            "p_plus",
            "upper",
            lambda n, i, lam: 0.069,
            lambda n, i, lam: (lam == 1) & (n >= 163) & (0.84 * n <= i) & (i <= 0.85 * n),
        ),
        # fallback probability
        (
            "p_minus_lower",
            "p_minus",
            "lower",
            lambda n, i, lam: _each(pow, i / n - 1.0 / e, lam),
            lambda n, i, lam: i / n >= 1.0 / e,
        ),
        (
            "p_minus_upper",
            "p_minus",
            "upper",
            lambda n, i, lam: _each(pow, 1.0 - (n - i) / (e * n) - _no_flip(n, n), lam),
            None,
        ),
        (
            "p_minus_upper_coarse",
            "p_minus",
            "upper",
            lambda n, i, lam: _each(pow, (e - 1.0) / e, lam),
            None,
        ),
        # backward drift
        (
            "delta_minus_lower",
            "delta_minus",
            "lower",
            lambda n, i, lam: 1.0,
            None,
        ),
        (
            "delta_minus_upper",
            "delta_minus",
            "upper",
            lambda n, i, lam: e / (e - 1.0),
            None,
        ),
        # forward drift
        (
            "delta_plus_lower",
            "delta_plus",
            "lower",
            lambda n, i, lam: 1.0,
            None,
        ),
        (
            "delta_plus_upper_series",
            "delta_plus",
            "upper",
            lambda n, i, lam: _each(max_flip_gain_series, lam),
            None,
        ),
        (
            "delta_plus_upper_log",
            "delta_plus",
            "upper",
            lambda n, i, lam: _each(lambda m: math.ceil(math.log2(m)) + 0.413, lam),
            lambda n, i, lam: lam >= 5,
        ),
    ]


_BOUNDS = _bound_definitions()


# Levels per pass of check_transition_bounds: half a law block, so that
# the passes of a few hundred levels keep two pool workers busy to the end.
_BOUND_PASS = 16


def _bound_pass(n: int, levels: range, lams: tuple) -> tuple:
    """Every applicable check at the states (i, lam) of ``levels`` x
    ``lams``, sorted by (i, lam, bound), as the columns of their
    :data:`BOUND_COLUMNS` rows, and their :func:`_tally`: ``n`` as one
    scalar, i and lam int64 arrays, the quantity, bound and side names
    object arrays, exact, bound_value and margin float64 arrays and pass
    a bool array."""
    i = np.array(levels).reshape(-1, 1)
    lam = np.array(lams).reshape(1, -1)
    q = state_quantities(n, np.repeat(i, lam.size), np.tile(lam[0], i.size))
    p_plus, _, p_minus, gain, loss = (a.reshape(i.size, lam.size) for a in q)  # (level, lam) each
    with np.errstate(divide="ignore", invalid="ignore"):
        values = {  # quantity -> (exact value, where it is defined)
            "p_plus": (p_plus, True),
            "p_minus": (p_minus, True),
            "delta_plus": (gain / p_plus, p_plus > UNDEFINED_BELOW),
            "delta_minus": (loss / p_minus, p_minus > UNDEFINED_BELOW),
        }
    exact, bound, margin, checked = [], [], [], []
    for _, quantity, side, value, applies in _BOUNDS:
        q, defined = values[quantity]
        b = value(n, i, lam)
        exact.append(q)
        bound.append(np.broadcast_to(np.asarray(b, dtype=float), q.shape))
        margin.append(b - q if side == "upper" else q - b)
        checked.append(defined if applies is None else applies(n, i, lam) & defined)
    checked = np.stack(np.broadcast_arrays(*checked), axis=-1)
    li, mi, bi = np.nonzero(checked)
    names, quantities, sides = (np.array(col, dtype=object) for col in list(zip(*_BOUNDS))[:3])
    exact, bound, margin = (np.stack(a, axis=-1)[checked] for a in (exact, bound, margin))
    passed = margin >= -1e-10
    columns = (n, i[li, 0], lam[0, mi], quantities[bi], names[bi], sides[bi], exact, bound,
               margin, passed)
    return columns, _tally(passed)


def check_transition_bounds(n: int, lambdas, write) -> CheckReport:
    """Check every applicable sandwich bound at every state (i, lam), i < n,
    lam in ``lambdas``; the rows go to ``write`` as :class:`CheckReport`
    says.

    A bound is checked only where its precondition holds and the exact
    quantity is defined; each check is one row of :data:`BOUND_COLUMNS`
    with both sides.
    Each bound is one array expression, with an array precondition mask,
    over one pass of _BOUND_PASS levels x lams read from one
    :func:`state_quantities` call; the rows come in (i, lam, bound)
    order, one pass at a time, so a pass's rows are all that is held.
    The lams are checked before any row.  The (1 - base)^lam bounds and
    the plain powers stay ``math`` scalars, one call per state, as p_plus
    and p_minus do: numpy's SIMD exp, log1p, expm1 and power may differ
    from ``math`` in the last place.
    """
    lams = tuple(int(lam) for lam in lambdas)
    if n < 1 or not lams:
        return CheckReport(0, [], write)
    for lam in (min(lams), max(lams)):
        _check_lam(lam)
    passes = [(_bound_pass, n, range(lo, min(n, lo + _BOUND_PASS)), lams)
              for lo in range(0, n, _BOUND_PASS)]
    return CheckReport(n * len(lams), passes, write)


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
        cap = _E * n * ControllerParams(F=F, s=s).growth_factor  # checks F and s
        if not math.isfinite(cap):
            raise ValueError(f"the lambda cap e*n*F^(1/s) overflows for n={n}, F={F}, s={s}")
        self.F = float(F)
        self.s = float(s)
        self.n = int(n)
        self._coef = 2.0 * s / (s + 1.0)
        self._ln_f = math.log(F)
        self._cap = cap

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


def _lambda_terms(potential, lambda_real: float, params) -> tuple:
    """h after a success, h after a failure and h now, at lambda_real."""
    grown = update_lambda(lambda_real, False, params)
    if not math.isfinite(grown):
        raise ValueError(f"lambda * F^(1/s) overflows at lambda={lambda_real} "
                         f"for F={params.F}, s={params.s}")
    h = potential.h
    return h(update_lambda(lambda_real, True, params)), h(grown), h(lambda_real)


def _drift(p_plus, gain, loss, terms, cap_gain_at_one):
    """The drift g(X_next) - g(X_now) in expectation, from the level
    quantities at round(lambda_real) offspring and the
    :func:`_lambda_terms` of lambda_real, one entry per state."""
    h_succ, h_fail, h_now = terms
    fitness_part = (p_plus if cap_gain_at_one else gain) - loss
    return fitness_part + p_plus * h_succ + (1.0 - p_plus) * h_fail - h_now


# States per pass of drift_grid_check: enough that a pass's pairs fill
# state_quantities' passes, few enough that its rows are a small block.
_DRIFT_PASS = 2048

# The drift-check CSV's columns, one row per state; pass is margin >= 0.
DRIFT_COLUMNS = ("n", "i", "lambda_real", "lambda_int", "drift", "threshold", "margin", "pass")


def drift_grid_check(
    potential,
    params: ControllerParams,
    n: int,
    states,
    threshold: float,
    direction: str,
    write,
    cap_gain_at_one: bool = False,
) -> CheckReport:
    """Evaluate the exact drift E[g(X_next) - g(X_now)] on every
    (i, lambda_real) state, lambda_real >= 1.  round(lambda_real) children
    are drawn while the lambda term reads the real value, through the
    controller step itself (``update_lambda``); an infinite step raises.
    With ``cap_gain_at_one`` fitness gains count as +1 (the conservative
    progress measure); this can only lower the drift.

    direction "min_at_least": flag states with drift < threshold;
    direction "max_at_most": flag states with drift > threshold.  A
    state's margin is its distance from the threshold on the passing
    side; a state passes when its margin is >= 0, so a NaN drift is
    flagged.  The threshold must be finite.  Violations are data (the
    claims are asymptotic), so they are returned, not raised: the report
    gives the extreme drift (the least for "min_at_least", else the
    greatest) with its state, and one :data:`DRIFT_COLUMNS` row per
    state, in order, to ``write`` as :class:`CheckReport` says.

    The controller's scalar code runs once per distinct lambda_real, before
    any row.  Then the states go _DRIFT_PASS at a time through
    :func:`_drift_pass`, so what the check holds while the rows stream
    does not grow with the grid beyond ``states`` itself.  Each pass
    gives its extreme state, and the report's extreme is the extreme of
    those: np.argmin's (or np.argmax's) state over the whole grid.
    """
    if direction not in ("min_at_least", "max_at_most"):
        raise ValueError("direction must be 'min_at_least' or 'max_at_most'")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    grid = np.asarray(states, dtype=float).reshape(-1, 2)
    if not len(grid):
        return CheckReport(0, [], write)
    outside = ~((grid[:, 0] >= 0) & (grid[:, 0] < n))  # a NaN level too
    if outside.any():
        raise ValueError(f"need 0 <= i < n, got i={grid[outside, 0][0]:g}, n={n}")
    lam_values = np.unique(grid[:, 1])  # sorted
    if lam_values[0] < 1.0:
        raise ValueError(f"lambda_real must be >= 1, got {lam_values[0]}")
    per_lam = [(round_lambda(x), *_lambda_terms(potential, x, params))
               for x in lam_values.tolist()]
    _check_lam(per_lam[-1][0])  # round_lambda does not decrease
    lam, *terms = (np.array(col) for col in zip(*per_lam))  # per distinct lambda_real
    passes = [(_drift_pass, n, grid[lo : lo + _DRIFT_PASS], lam_values, lam, terms, threshold,
               direction, cap_gain_at_one) for lo in range(0, len(grid), _DRIFT_PASS)]
    pick = np.argmin if direction == "min_at_least" else np.argmax
    return CheckReport(len(grid), passes, write, pick)


def _drift_pass(n, states, lam_values, lam, terms, threshold, direction, cap_gain_at_one):
    """The columns of the :data:`DRIFT_COLUMNS` rows of the (i,
    lambda_real) rows of ``states`` and their :func:`_tally` with the
    pass's extreme (drift, i, lambda_real), from ``lam`` (the offspring
    count) and ``terms`` (of :func:`_lambda_terms`) per distinct
    lambda_real of the grid, ``lam_values``: one :func:`state_quantities`
    call over the states' distinct (i, round(lambda_real)) pairs and one
    array expression (:func:`_drift`) for their drifts.  ``n`` and
    ``threshold`` are scalar columns; i and lambda_int are int64 arrays,
    lambda_real, drift and margin float64 and pass bool."""
    i, lam_real = states[:, 0].astype(int), states[:, 1]
    x = np.searchsorted(lam_values, lam_real)  # lambda_real's index in lam_values
    counts, count_of = np.unique(lam, return_inverse=True)  # the distinct offspring counts
    # one entry per distinct (i, lam) pair, keyed by i and lam's index in counts
    pairs, pair_of = np.unique(i * counts.size + count_of[x], return_inverse=True)
    q = state_quantities(n, pairs // counts.size, counts[pairs % counts.size])
    drift = _drift(q.p_plus[pair_of], q.gain[pair_of], q.loss[pair_of],
                   [t[x] for t in terms], cap_gain_at_one)
    if direction == "min_at_least":
        k, margin = np.argmin(drift), drift - threshold
    else:
        k, margin = np.argmax(drift), threshold - drift
    passed = margin >= 0
    columns = (n, i, lam_real, lam[x], drift, threshold, margin, passed)
    return columns, _tally(passed, (float(drift[k]), int(i[k]), float(lam_real[k])))


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


def g2_band_states(n: int, F: float):
    """States (i, lambda_real) of the negative-drift band for the
    log-squared potential: 0.84n < i < 0.85n, lambda in [1, 2.4] in steps
    of 0.05, filtered to 0.84n + 2.2*ln(4.5)^2 < g2 < 0.85n."""
    pot = LambdaLogSquaredPotential(F)
    lo = 0.84 * n + G2_BAND_OFFSET
    hi = 0.85 * n
    states = []
    i_lo = math.floor(0.84 * n) + 1
    i_hi = math.ceil(0.85 * n) - 1
    for i in range(i_lo, i_hi + 1):
        for lam in np.arange(1.0, 2.4 + 1e-9, 0.05):
            g2 = pot.value(i, float(lam))
            if lo < g2 < hi:
                states.append((i, round(float(lam), 10)))
    return states


def drift_claim(kind: str, n: int, F: float, s: float):
    """The drift claim for potential ``kind`` at size n, as
    (potential, states, threshold, direction) for :func:`drift_grid_check`;
    ``states`` is a float array of (i, lambda_real) rows.

    g1: drift at least (1 - s)/(2e) at every level i < n and every lambda
    of :func:`g1_grid_lambdas`, levels outer.  g2: drift at most -0.0008
    across the stagnation band of :func:`g2_band_states`.
    """
    potential = make_potential(kind, F=F, s=s, n=n)
    if kind == "g1":
        lambdas = g1_grid_lambdas(n, ControllerParams(F=F, s=s))
        states = np.column_stack([np.repeat(np.arange(n, dtype=float), lambdas.size),
                                  np.tile(lambdas, n)])
        return potential, states, (1 - s) / (2 * _E), "min_at_least"
    states = np.array(g2_band_states(n, F), dtype=float).reshape(-1, 2)
    return potential, states, -0.0008, "max_at_most"


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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= a <= b <= n:
        raise ValueError(f"need 0 <= a <= b <= n, got a={a}, b={b}, n={n}")
    growth = ControllerParams(F=F, s=s).growth_factor  # checks F and s
    if not 1 <= lambda0 < math.inf:
        raise ValueError(f"lambda0 must be finite and >= 1, got {lambda0}")
    lead = lambda0 * F / (F - 1.0)
    if a == b:
        return lead
    unsuccessful = 1.0 / _E + (1.0 - 1.0 / growth) / math.log(growth)
    try:
        amortize = (F ** ((s + 1.0) / s) - 1.0) / (F - 1.0)
    except OverflowError:
        raise ValueError(f"F^((s+1)/s) overflows for F={F}, s={s}") from None
    levels = np.arange(a, b)
    return lead + unsuccessful * amortize * float((_E * n / (n - levels)).sum())
