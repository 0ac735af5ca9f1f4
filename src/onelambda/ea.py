"""Mutation-only EA engine with success-based offspring population control.

The core algorithm keeps a single parent and, each generation, creates
``round(lambda)`` offspring by standard bit mutation (each bit flips
independently with probability 1/n).  A uniformly random fitness-maximal
offspring is selected.  Under comma selection it always replaces the
parent; under plus selection it replaces the parent only if at least as
fit.  A generation counts as a *success* only on strict improvement.

The offspring population size lambda is a real number.  After a success
it is divided by the update strength F (clamped to >= 1); otherwise it is
multiplied by F^(1/s), where s is the success rate.  One success every
s+1 generations keeps lambda constant.  Only the rounded value is used to
create offspring.

One loop (``_evolve``) runs the generations of both engines:

* Level functions (fitness a function of the one-count: onemax, zeromax,
  twomax, jump, cliff) run as a Markov chain on the one-count.  The loop
  itself draws each generation's selected child's one-count with one
  uniform u from its exact law (``oracle.selected_child_law`` under
  comma), with no sampler call: the best of lambda children has fitness
  CDF C^lambda, where C, one child's CDF over the one-counts within 30
  of the parent, does not depend on lambda, so one bisection of
  log(u)/lambda into log C picks the fitness.  A generation costs the
  same at any lambda.  The lambda-free rows are built for blocks of
  levels at a time and shared with the oracle.  The initial one-count is
  drawn from Binomial(n, 1/2); no bit string exists.
* Ridge, whose value depends on the bit layout, keeps a bit-list parent
  and a sampler the loop calls each generation.  A generation of
  RIDGE_LAW_FROM = 16 children or more off the ridge, or
  RIDGE_ON_LAW_FROM = 3 on it, draws the selected child's value and
  one-count as a level generation does, with one uniform, then its
  layout, at a cost that does not grow with lambda.  A parent on the
  ridge (raw >= n) is 1^j 0^(n-j), whose children's law depends on j
  alone: the sampler hands the draw back to the loop, which reads
  ridge's law rows (the ridge string and the other children of each
  one-count), and the sampler then lays the child out.  A parent off the
  ridge has zeromax's law but for the ridge strings within reach of it,
  which its mismatch profile against the ridge strings 1^j 0^(n-j) finds
  near its one-count: it reads zeromax's row and, near the ridge, moves
  those strings' mass to the top.  Fewer children cost less by bit
  mutation, which also runs the reference the law engines are tested
  against: each child's flip count comes from Binomial(n, 1/n), then
  that many distinct positions from a stream of uniform positions
  (repeats skipped), which is distributionally identical to per-bit
  flips.  No child is built: its value comes from the parent's mismatch
  profile, read at the child's one-count after one count over the parent
  per generation, so a child costs O(its flips).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial
from itertools import accumulate, chain, compress, islice

import numpy as np

from .fitness import FitnessFunction

__all__ = [
    "CHILD_WINDOW",
    "LAMBDA_MAX",
    "RIDGE_LAW_FROM",
    "RIDGE_ON_LAW_FROM",
    "ControllerParams",
    "AlgorithmKind",
    "StoppingCondition",
    "StopCause",
    "RunRecord",
    "round_lambda",
    "update_lambda",
    "default_static_lambda",
    "default_lambda_abort_threshold",
    "run",
]


# Half-width w of the one-count window of one child's law.  A child
# leaves [i - w, i + w] only by flipping more than w bits, with probability
# P(Binomial(n, 1/n) > w) <= 1/(w+1)!, so the law of the best of lam
# children puts at most lam/(w+1)! outside the window: lam * 1.2e-34 at
# w = 30, below 2^-53 (the resolution of one uniform draw) for lam < 9e17.
CHILD_WINDOW = 30

# That largest lam, 9.1e17: the engine refuses a lambda0, static lambda or
# abort threshold above it, and the oracle's window laws a larger lam.
LAMBDA_MAX = math.factorial(CHILD_WINDOW + 1) >> 53


def round_lambda(lambda_real: float) -> int:
    """Round to the nearest integer, with .5 rounding up."""
    return int(math.floor(lambda_real + 0.5))


@dataclass(frozen=True)
class ControllerParams:
    """Success-based controller hyperparameters.

    F is the update strength (> 1), s the success rate (> 0).  A success
    divides lambda by F and a failure multiplies it by growth_factor, and
    growth_factor**s == F, so one success per s+1 generations leaves lambda
    unchanged.  F^(2/s), the square the runaway guard reads, must be finite.
    """

    F: float = 1.5
    s: float = 1.0

    def __post_init__(self) -> None:
        if not self.F > 1.0:
            raise ValueError(f"update strength F must be > 1, got {self.F}")
        if not self.s > 0.0:
            raise ValueError(f"success rate s must be > 0, got {self.s}")
        try:  # float ** raises OverflowError rather than return inf
            finite = math.isfinite(self.growth_factor ** 2)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"F^(2/s) overflows for F={self.F}, s={self.s}")

    @property
    def growth_factor(self) -> float:
        """Multiplier applied to lambda after an unsuccessful generation."""
        return self.F ** (1.0 / self.s)


def update_lambda(lambda_real: float, success: bool, params: ControllerParams) -> float:
    """One controller step: divide by F on success (clamped at 1), else grow."""
    if success:
        return max(1.0, lambda_real / params.F)
    return lambda_real * params.growth_factor


def default_static_lambda(n: int) -> int:
    """Baseline fixed offspring population size, ceil(log_{e/(e-1)} n)."""
    if n < 2:
        return 1
    return max(1, math.ceil(math.log(n) / math.log(math.e / (math.e - 1.0))))


def default_lambda_abort_threshold(n: int, params: ControllerParams) -> float:
    """Runaway guard: one growth step past e * F^(1/s) * n^3, at most
    LAMBDA_MAX (reached once n passes about 5.3e5 at F = 1.5, s = 1).  It
    stops self-adjusting runs only: a static lambda never grows."""
    return min(math.e * params.growth_factor ** 2 * float(n) ** 3, LAMBDA_MAX)


@dataclass(frozen=True)
class AlgorithmKind:
    """Selection scheme plus optional fixed offspring population size."""

    selection: str  # "comma" | "plus"
    static_lambda: int | None = None

    def __post_init__(self) -> None:
        if self.selection not in ("comma", "plus"):
            raise ValueError(f"selection must be 'comma' or 'plus', got {self.selection!r}")
        if self.static_lambda is not None:
            if self.selection != "comma":
                raise ValueError("a fixed lambda is only supported with comma selection")
            if self.static_lambda < 1:
                raise ValueError("static lambda must be >= 1")

    @classmethod
    def self_adjusting_comma(cls) -> "AlgorithmKind":
        return cls("comma")

    @classmethod
    def self_adjusting_plus(cls) -> "AlgorithmKind":
        return cls("plus")

    @classmethod
    def static_comma(cls, lam: int) -> "AlgorithmKind":
        return cls("comma", static_lambda=int(lam))

    @property
    def adaptive(self) -> bool:
        return self.static_lambda is None

    @property
    def label(self) -> str:
        if self.static_lambda is not None:
            return f"static-comma({self.static_lambda})"
        return f"sa-{self.selection}"


@dataclass(frozen=True)
class StoppingCondition:
    """When a run ends.  At least one stop cause must be enabled.

    A lambda above ``lambda_abort_threshold`` after a generation stops the
    run.  The threshold applies to every algorithm; None means the default
    guard (:func:`default_lambda_abort_threshold`) for a self-adjusting
    lambda, and none for a static lambda, which never grows.
    """

    max_generations: int | None = None
    max_evaluations: int | None = None
    stop_on_optimum: bool = True
    lambda_abort_threshold: float | None = None  # None -> default guard

    def __post_init__(self) -> None:
        if (
            self.max_generations is None
            and self.max_evaluations is None
            and not self.stop_on_optimum
        ):
            raise ValueError("at least one stop cause must be enabled")
        if self.lambda_abort_threshold is not None and not self.lambda_abort_threshold <= LAMBDA_MAX:
            raise ValueError(f"lambda_abort_threshold must be <= LAMBDA_MAX = {LAMBDA_MAX}, "
                             f"got {self.lambda_abort_threshold}")


class StopCause(str, Enum):
    OPTIMUM = "optimum"
    GENERATION_CAP = "generation_cap"
    EVALUATION_CAP = "evaluation_cap"
    LAMBDA_ABORT = "lambda_abort"


_BLOCK = 4096  # the most random numbers drawn at once
_FIRST_BLOCK = 64  # first draw of a stream or of a level run; draws double up to _BLOCK


def _stream(draw):
    """The values of ``draw(size)`` one at a time, in blocks of
    _FIRST_BLOCK doubling up to _BLOCK; each block is drawn only when the
    previous one is used up, and none before the first value is taken."""

    def blocks():
        size = _FIRST_BLOCK
        while True:
            yield draw(size).tolist()
            size = min(2 * size, _BLOCK)

    return chain.from_iterable(blocks())


def _uniforms(rng: np.random.Generator, size: int):
    """size uniforms, and their logs (log 0 = -inf) as a list.  The stream
    does not depend on the block sizes: PCG64 gives the same doubles drawn
    64 + 128 + ... at a time as in one draw."""
    u = rng.random(size)
    with np.errstate(divide="ignore"):
        return u, np.log(u).tolist()


# The offspring counts from which a ridge generation draws its selected
# child from the exact law, off the ridge and on it; below them, it mutates
# bits.  At n = 100 (BENCH_ridge_off_law.json, "crossover") bit mutation
# costs about 0.45 us a child.  Off the ridge a law generation costs 2 to
# 7 us at 16 children, the most a flip or two off a ridge string, so 16 is
# the smallest power of two at which the law costs no more than bit
# mutation from every kind of parent off the ridge: far from it, near 0^n
# or a flip or two off a ridge string.  On the ridge the law first wins at
# 3 children (1.2 us against 1.7).
RIDGE_LAW_FROM = 16
RIDGE_ON_LAW_FROM = 3


@lru_cache(maxsize=16)
def _ridge_reach(n: int) -> tuple:
    """(limits, tails, mass) of ridge at n.  tails[D] bounds one child's
    mass on the ridge strings more than D flips from a parent: at most
    2m+1 of them lie m flips away, since d[j] >= |j - i| for a parent with
    i one-bits, so tails[D] = (1-p)^n * sum_(m>D) (2m+1) t^m, t =
    p/(1-p) (for n <= 2, t = 1 and the bound is 1).  lam children meet
    one of those strings with probability at most lam * tails[D], so below
    limits[D] = 2^-53 / tails[D] children they change the law of the best
    by less than the resolution of one uniform draw.  The lists end at the
    first limit above LAMBDA_MAX, or at D = n, with tail 0, since no ridge
    string lies more than n flips away.  A D found by bisection is at most
    30 = CHILD_WINDOW once n > 31, so those ridge strings lie in the
    window.  mass[d] = p^d (1-p)^(n-d), one child's mass on a string d
    flips away, for each D with a limit."""
    p = 1.0 / n
    t = 1.0 / (n - 1) if n > 2 else 1.0  # p/(1-p)
    tails, limits = [], []
    for k in range(1, n + 1):  # k = D + 1, the nearest distance left out
        if t < 1.0:
            tails.append((1.0 - p) ** n * t**k * ((2 * k + 1) / (1.0 - t) + 2 * t / (1.0 - t) ** 2))
        else:
            tails.append(1.0)
        limits.append(2.0**-53 / tails[-1] if tails[-1] > 0.0 else math.inf)
        if limits[-1] > LAMBDA_MAX:
            break
    else:
        tails.append(0.0)
        limits.append(math.inf)
    return limits, tails, [p**d * (1.0 - p) ** (n - d) for d in range(len(limits))]


def _near_ridge(bits, i: int, lam_int: int) -> tuple:
    """(js, above) for the ridge parent ``bits``, off the ridge with i
    one-bits, at lam_int children: the j >= 1, in increasing order, whose
    ridge string R_j lies within D flips of the parent
    (:func:`_ridge_reach`), and above[k - 1], one child's mass on the top k
    of those R_j.  Both are empty when more than D zeros lie among the
    parent's first i bits, since every d[j] is at least that many;
    otherwise d[j] is read for |j - i| <= D."""
    n = len(bits)
    limits, _, mass = _ridge_reach(n)
    cut = bisect_right(limits, lam_int)
    zb = bits[:i].count(0)  # d[i] = 2 zb, and every d[j] >= zb
    if zb > cut:
        return (), ()
    first = max(1, i - cut)
    d = 2 * zb - (i - first) + 2 * sum(bits[first:i])  # d[first]
    js, masses = [], []
    for j in range(first, min(n, i + cut) + 1):
        if d <= cut:
            js.append(j)
            masses.append(mass[d])
        if j < n:
            d += 1 - 2 * bits[j]
    masses.reverse()
    return js, list(accumulate(masses))


def _off_ridge_logcdf(row, js, above, g: int) -> float:
    """One child's log CDF at entry g of the law of a ridge parent off the
    ridge (see :func:`_ridge_sampler`): zeromax's ``row`` for the parent's
    level (``oracle._LawBlock.row``), entries g < len(row[0]) with
    one-count row[1][g] and value n - row[1][g], then the ridge strings of
    :func:`_near_ridge` (js, above), entry len(row[0]) + m for js[m], value
    n + js[m].  Each ridge string R_j leaves value n - j for n + j, so its
    mass joins the tail of every one-count c <= j."""
    logcdf, pick = row[0], row[1]
    if g >= len(logcdf):  # the ridge strings above js[g - len(logcdf)]
        k = len(logcdf) + len(js) - 1 - g
        return math.log1p(-above[k - 1]) if k else 0.0
    k = len(js) - bisect_left(js, pick[g])  # the ridge strings at or above its one-count
    if not k:
        return logcdf[g]
    x = math.expm1(logcdf[g]) - above[k - 1]
    return math.log1p(x) if x > -1.0 else -math.inf


@lru_cache(maxsize=4096)
def _layout_weights(n: int, i: int, co: int, ax: int) -> tuple:
    """(lo, cum): the cumulative weights of a = lo, lo+1, ... flipped
    one-bits for a child with one-count co, 0 < co < n, of a parent with i
    one-bits: C(i, a) * C(n-i, a+co-i) * (p/(1-p))^(2a), p = 1/n, relative
    to a = lo = max(0, i - co).  The child is not the ridge string
    1^co 0^(n-co), whose flip set has ax flipped one-bits: the weight at
    ax leaves that one set out.  The weights stop where they fall below
    the float resolution of their sum: they shrink by a factor of at most
    n^2/(4(n-1)^2) per step."""
    lo, top = max(0, i - co), min(i, n - co)
    r2 = 1.0 / (n - 1) ** 2  # (p/(1-p))^2
    weights, total, term = [], 0.0, 1.0
    for a in range(lo, top + 1):
        if a > lo:
            b = a - 1 + co - i
            term *= (i - a + 1) * (n - i - b) / (a * (b + 1)) * r2
            if total + term == total:
                break
        w = term - term / (math.comb(i, a) * math.comb(n - i, a + co - i)) if a == ax else term
        weights.append(w)
        total += w
    return lo, list(accumulate(weights))


def _ridge_sampler(fn: FitnessFunction, bits, rng: np.random.Generator):
    """The ridge engine: ``(sample, place)`` for the parent ``bits``,
    which the caller updates in place.  ``sample(lam_int, ones, cur_f)``
    (one-count ``ones``, raw value ``cur_f``) gives ``(f, child_ones,
    flips)`` as :func:`_offspring_sampler` does, or None where the run
    loop draws the child itself.  Below RIDGE_LAW_FROM children off the
    ridge, RIDGE_ON_LAW_FROM on it, it is that sampler's bit mutation.
    From there on the selected child's value and one-count co come from
    their exact law with one uniform u, then the child's layout, at a
    cost that does not grow with lam:

    * a parent on the ridge (raw >= n) is 1^j 0^(n-j), j = ``ones``, whose
      children's law depends on j alone: ``sample`` gives None, the run
      loop (:func:`_evolve`) draws (f, co) from ridge's own law rows, which
      hold the ridge string and the other children of each one-count, as
      it draws a level generation, and ``place(ones, f, co)`` gives the
      flips;
    * a parent x off the ridge, with mismatch profile d[j] = H(x, 1^j
      0^(n-j)), has a child that is the ridge string R_j with mass
      p^d[j] (1-p)^(n-d[j]), value n + j, and every other child of
      one-count c has zeromax's value n - c.  R_0 = 0^n has zeromax's
      value n as well, so the law is zeromax's at level ``ones`` (its
      cached row) but for the R_j, j >= 1, within reach of x
      (:func:`_near_ridge`); the others change it by less than 2^-53.
      ``off_ridge`` bisects zeromax's log CDF for log(u)/lam.  Every R_j
      lies at least zb flips from x, zb the zeros among its first
      ``ones`` bits, so their mass is at most tails[zb - 1]
      (:func:`_ridge_reach`); unless that much could lower zeromax's CDF
      at the entry found to u^(1/lam), the draw stands.  Else it bisects
      :func:`_off_ridge_logcdf` from that entry on: O(n) to find the R_j
      in reach and O(log n) to draw.

    A child that is a ridge string flips the bits where the parent
    differs from it.  A child off it is uniform among the children with
    one-count co that are not the ridge string R_co, since they all tie:
    its number a of flipped one-bits is drawn from
    :func:`_layout_weights` (kept in a bounded LRU), which leaves R_co's
    flip set out of its weight, and its positions are uniform among the
    parent's one-bits and zero-bits, drawn again if they are that set, so
    a layout costs O(n) at most.  Layout uniforms, and u off the ridge,
    come from a ``_stream`` of their own.
    """
    from .oracle import _level_law  # oracle imports this module

    n = fn.n
    per_bit = _offspring_sampler(fn, bits, rng)
    uniforms = _stream(rng.random)
    zeromax = FitnessFunction("zeromax", n)
    tails = _ridge_reach(n)[1]
    block, first, width = None, 0, 0  # zeromax's block of the last level off the ridge

    def distinct(k, seq):
        """k distinct uniform members of the sequence seq."""
        chosen = []
        size = len(seq)
        while len(chosen) < k:
            q = seq[int(next(uniforms) * size)]
            if q not in chosen:
                chosen.append(q)
        return chosen

    def among(b, k):
        """k distinct uniform positions of the parent's b-bits."""
        if not k:
            return []
        return distinct(k, list(compress(range(n), bits)) if b else [q for q in range(n) if not bits[q]])

    def positions(b, start, count):
        """The first count positions of the parent's b-bits from start on."""
        at, q = [], start - 1
        for _ in range(count):
            q = bits.index(b, q + 1)
            at.append(q)
        return at

    def layout(i, co, ax, draw):
        """The flips to a child with one-count co, not the ridge string,
        of a parent with i one-bits; ``draw(b, k)`` gives k distinct
        positions of its b-bits, and the ridge string's flip set has ax
        flipped one-bits."""
        lo, cum = _layout_weights(n, i, co, ax)
        a = lo + bisect_right(cum, next(uniforms) * cum[-1])
        while True:
            lost, gained = draw(1, a), draw(0, a + co - i)
            # the ridge string's set: every lost one-bit at or past co,
            # every gained zero-bit before it
            if a != ax or not all(q >= co for q in lost) or not all(q < co for q in gained):
                return lost + gained or None

    def off_ridge(lam_int, ones):
        """The value and one-count of the selected child of the parent
        ``bits``, off the ridge, from one uniform u: the first entry g with
        log(u)/lam_int < :func:`_off_ridge_logcdf`.  That log CDF is at
        most zeromax's, so g is at or past zeromax's bisection, and the
        second bisection starts there."""
        nonlocal block, first, width
        r = ones - first
        if not 0 <= r < width:
            block, r = _level_law(zeromax, ones)
            first, width = block.first, len(block.rows)
        row = block.row(r)
        logcdf, pick, _, values = row
        u = next(uniforms)
        t = math.log(u) / lam_int if u else -math.inf
        g = bisect_right(logcdf, t)
        # every ridge string lies at least zb flips away: unless their mass
        # could lower the log CDF at g to t, the draw stays at g
        zb = bits[:ones].count(0)
        x = math.expm1(logcdf[g]) - (tails[zb - 1] if zb <= len(tails) else 0.0)
        if x > -1.0 and t < math.log1p(x):
            return values[g], pick[g]
        js, above = _near_ridge(bits, ones, lam_int)
        if js:
            size = len(logcdf)
            g = bisect_right(range(size + len(js)), t, lo=g,
                             key=partial(_off_ridge_logcdf, row, js, above))
            if g >= size:
                return n + js[g - size], js[g - size]
        return values[g], pick[g]

    def sample(lam_int, ones, cur_f):
        if cur_f >= n:  # on the ridge: the parent is 1^ones 0^(n-ones)
            return per_bit(lam_int, ones, cur_f) if lam_int < RIDGE_ON_LAW_FROM else None
        if lam_int < RIDGE_LAW_FROM:
            return per_bit(lam_int, ones, cur_f)
        f, co = off_ridge(lam_int, ones)
        if f >= n or co == n:  # the ridge string R_co (all n ones: only R_n)
            return n + co, co, positions(0, 0, bits[:co].count(0)) + positions(1, co, sum(bits[co:]))
        return f, co, layout(ones, co, bits[:co].count(0) + ones - co, among)

    def place(ones, f, co):
        """The flips from the ridge string 1^ones 0^(n-ones) to its
        law-drawn child of value f and one-count co."""
        if f >= n:
            return list(range(co, ones) if co < ones else range(ones, co)) or None
        return layout(ones, co, max(0, ones - co),
                      lambda b, k: distinct(k, range(ones) if b else range(ones, n)))

    return sample, place


def _offspring_sampler(fn: FitnessFunction, bits, rng: np.random.Generator):
    """The bit-mutation engine: best of lam_int standard-bit mutants.  It
    runs ridge's generations below the law's crossovers
    (:func:`_ridge_sampler`), and on any function it is the per-bit
    reference the exact-law engines are tested against.

    ``bits`` is the parent as a sequence of ints, which the caller updates
    in place between calls; the sampler only reads it.  Returns
    ``sample(lam_int, ones, cur_f)``, where ``ones`` and ``cur_f`` are the
    parent's one-count and raw fitness; it gives ``(f, child_ones, flips)``
    for a uniformly random fitness-maximal child (reservoir tie-breaking),
    with ``flips`` None (no bit flipped), one position, or a list of
    positions.  A child's flip count k comes from Binomial(n, 1/n) and its
    positions are the first k distinct values of the uniform position
    stream, a uniform k-subset.  Flip counts, positions and tie-break
    uniforms come from three ``_stream``s, so memory stays bounded at any
    lam_int and a short run draws little.

    A child is scored in O(k) without being built, from the parent's
    mismatch profile d[j] = H(parent, 1^j 0^(n-j)).  A child with flips P
    and one-count co is the ridge string 1^co 0^(n-co) exactly when the
    parent mismatches that string at every p in P, ``(p < co) != bits[p]``,
    and nowhere else, d[co] == k.  Only such candidates read the profile:
    d[ones] is counted once per call (one O(n) list count) at the first
    candidate, and d[co] follows from the bits between ones and co.  The
    child's raw fitness is ``on[co]`` on the ridge, else ``off[co]``, from
    ``fn.shape_tables()`` (the level table twice on a level function).
    """
    n = fn.n
    inv_n = 1.0 / n
    off, on = fn.shape_tables()
    d1 = -1  # d[ones] for the current call's parent; -1 until counted

    def on_ridge(ones, co, k):
        """d[co] == k for a candidate with k flips and one-count co."""
        nonlocal d1
        if d1 < 0:
            d1 = 2 * bits[:ones].count(0)  # zeros before ones, as many ones after
        if d1 > 2 * k:  # |d[co] - d[ones]| <= |co - ones| <= k
            return False
        between = sum(bits[ones:co]) - sum(bits[co:ones])  # one slice is empty
        return d1 + co - ones - 2 * between == k

    counts = _stream(lambda size: rng.binomial(n, inv_n, size=size))
    positions = _stream(lambda size: rng.integers(0, n, size=size))
    uniforms = _stream(rng.random)

    def sample(lam_int, ones, cur_f):
        nonlocal d1
        d1 = -1
        bf = -1
        best_ones = ones
        best_flips = None
        ties = 0
        for k in islice(counts, lam_int):
            if k == 0:
                co = ones
                f = cur_f
                flips = None
            elif k == 1:
                flips = next(positions)
                b = bits[flips]
                co = ones + 1 - 2 * b
                f = on[co] if (flips < co) != b and on_ridge(ones, co, 1) else off[co]
            else:
                flips = []
                while len(flips) < k:
                    p = next(positions)
                    if p not in flips:
                        flips.append(p)
                co = ones + k - 2 * sum([bits[p] for p in flips])
                if all([(p < co) != bits[p] for p in flips]) and on_ridge(ones, co, k):
                    f = on[co]
                else:
                    f = off[co]
            if f > bf:
                bf, best_ones, best_flips, ties = f, co, flips, 1
            elif f == bf:
                ties += 1
                if next(uniforms) < 1.0 / ties:
                    best_ones, best_flips = co, flips
        return bf, best_ones, best_flips

    return sample


@dataclass
class RunRecord:
    """Outcome of a single run, plus optional traces.

    ``rows`` (trace level "full") holds one state snapshot per generation
    t = 0..T as columns (generation, fitness_raw, lambda_real, lambda_int,
    evaluations, best_raw): the state *after* generation t, where
    lambda_int = round_lambda(lambda_real) (a static lambda's exact int) is
    the offspring count the next generation would use.  Level accumulators
    (trace levels "levels" and "full") aggregate over generations: for each
    raw fitness value v,
    ``gens_at[v]`` counts generations entered at fitness v,
    ``lambda_sum_at[v]`` adds up their offspring counts (the evaluations
    spent at v), and ``first_hit_evals[v]`` is the evaluations counter when
    fitness >= v was first reached (-1 if never).
    """

    algorithm: str
    fn_spec: str
    n: int
    F: float
    s: float
    lambda0: float
    seed_key: tuple
    stop_cause: StopCause
    generations: int
    evaluations: int
    initial_fitness: float
    final_fitness: float
    best_fitness: float
    final_lambda: float
    trace_level: str = "summary"
    first_hit_evals: np.ndarray | None = None
    gens_at: np.ndarray | None = None
    lambda_sum_at: np.ndarray | None = None
    rows: dict[str, np.ndarray] | None = field(default=None, repr=False)

    @property
    def censored(self) -> bool:
        return self.stop_cause != StopCause.OPTIMUM


_TRACE_LEVELS = ("summary", "levels", "full")


class _Trace:
    """Mutable run-trace state, updated by the run loop."""

    def __init__(self, trace_level: str, size: int, cur_f: int):
        self.want_levels = trace_level in ("levels", "full")
        self.want_rows = trace_level == "full"
        if self.want_levels:
            self.first_hit = [-1] * size
            for v in range(cur_f + 1):
                self.first_hit[v] = 0
            self.gens_at = [0] * size
            self.lambda_sum_at = [0] * size
        if self.want_rows:
            self.rows = []  # (fitness, lambda, lambda_int, evaluations, best) per generation

    # the run loop calls this only when the trace level wants it

    def new_best(self, prev_best: int, best_f: int, evals: int) -> None:
        fh = self.first_hit
        for v in range(prev_best + 1, best_f + 1):
            if fh[v] < 0:
                fh[v] = evals
        # lower targets were filled when first reached

    def attach(self, rec: "RunRecord") -> None:
        if self.want_levels:
            rec.first_hit_evals = _ints(self.first_hit)
            rec.gens_at = _ints(self.gens_at)
            rec.lambda_sum_at = _ints(self.lambda_sum_at)
        if self.want_rows:
            fit, lam, lam_int, evals, best = zip(*self.rows)
            rec.rows = {
                "generation": np.arange(len(fit), dtype=np.int64),
                "fitness_raw": np.array(fit, dtype=np.int64),
                "lambda_real": np.array(lam, dtype=np.float64),
                "lambda_int": _ints(lam_int),
                "evaluations": _ints(evals),
                "best_raw": np.array(best, dtype=np.int64),
            }


def _ints(values) -> np.ndarray:
    """Trace counts as int64, or as exact Python ints (dtype object) past
    int64: the lambda that aborts a run, or a huge static lambda's evaluations."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


# The evaluation and generation cap of a run without one: 2**256
# evaluations take over 2**196 generations of LAMBDA_MAX children.
_NO_CAP = 2**256


def _stop_cause(cur_f, lam, gens, evals, f_stop, abort_at, e_stop, g_stop):
    """The stop cause that holds, in precedence order, or None; a lambda
    abort needs a generation."""
    if cur_f >= f_stop:
        return StopCause.OPTIMUM
    if lam > abort_at and gens:
        return StopCause.LAMBDA_ABORT
    if evals >= e_stop:
        return StopCause.EVALUATION_CAP
    if gens >= g_stop:
        return StopCause.GENERATION_CAP
    return None


def _evolve(rng, sample, place, bits, ones, cur_f, lam, fn, kind, params, stop, trace):
    """The run loop: generations from the parent (one-count ``ones``, raw
    fitness ``cur_f``; bit list ``bits``, updated in place, or None on a
    level function) with real-valued lambda ``lam`` until a stop cause
    holds.  Returns (cause, generations, evaluations, final one-count,
    final raw fitness, best raw fitness, final lambda).

    With ``sample`` None, each generation draws the selected child's
    value and one-count from ``fn``'s law rows (``oracle._LawBlock.row``)
    with one uniform u: the best of lam children has a value at most the
    row's g-th lowest with probability C_g^lam, C_g = exp(logcdf[g]), so u
    selects the first g with log(u)/lam < logcdf[g], and the row gives
    that group's value.  A tie group picks a member by u's position in
    (C_(g-1)^lam, C_g^lam] against the members' cumulative shares.  The
    uniforms come from ``rng`` in blocks, from _FIRST_BLOCK doubling up
    to _BLOCK, the first at the first draw, so a short run draws few; the
    rows live in the oracle's bounded LRU of law blocks, and the loop
    keeps the block of its last level.  Otherwise ``sample(lam_int, ones,
    cur_f)`` gives the generation's ``(f, child_ones, flips)``, or None to
    leave the draw from ``fn``'s rows to the loop, which then takes the
    child's flips from ``place(ones, f, child_ones)`` (ridge on the ridge,
    :func:`_ridge_sampler`).
    """
    from .oracle import _level_law  # oracle imports this module

    elitist = kind.selection == "plus"
    adapt = kind.adaptive
    abort_at = stop.lambda_abort_threshold
    if abort_at is None:  # a static lambda never grows
        abort_at = default_lambda_abort_threshold(fn.n, params) if adapt else math.inf
    # each stop cause as one threshold of its counter's type (an int
    # compares faster with an int than with a float), unreachable when
    # the cause is off: no value exceeds the optimum
    f_stop = fn.optimum_raw if stop.stop_on_optimum else fn.optimum_raw + 1
    e_stop = _NO_CAP if stop.max_evaluations is None else stop.max_evaluations
    g_stop = _NO_CAP if stop.max_generations is None else stop.max_generations
    F = params.F
    growth = params.growth_factor
    levels = trace.want_levels
    if levels:
        gens_at, lambda_sum_at = trace.gens_at, trace.lambda_sum_at
    add_row = trace.rows.append if trace.want_rows else None
    block, rows, first, width = None, None, 0, 0  # the law block of the last level
    usize = uidx = _FIRST_BLOCK // 2  # used up: the first draw takes _FIRST_BLOCK
    ublock = lblock = None
    best_f = cur_f
    gens = 0
    evals = 0
    # round_lambda is floor(lam + 0.5); a static lambda runs as its exact
    # int, which the float lam may not hold above 2**53
    lam_int = int(lam + 0.5) if adapt else kind.static_lambda
    if add_row:
        add_row((cur_f, lam, lam_int, evals, best_f))

    while True:
        if cur_f >= f_stop or lam > abort_at or evals >= e_stop or gens >= g_stop:
            cause = _stop_cause(cur_f, lam, gens, evals, f_stop, abort_at, e_stop, g_stop)
            if cause is not None:
                break

        if levels:
            gens_at[cur_f] += 1
            lambda_sum_at[cur_f] += lam_int
        if sample is None or (drawn := sample(lam_int, ones, cur_f)) is None:
            r = ones - first
            if not 0 <= r < width:
                block, r = _level_law(fn, ones)
                rows, first, width = block.rows, block.first, len(block.rows)
            row = rows[r]
            if row is None:
                row = block.row(r)
            if uidx == usize:
                usize = min(2 * usize, _BLOCK)
                ublock, lblock = _uniforms(rng, usize)
                uidx = 0
            logcdf, pick, ties, values = row
            g = bisect_right(logcdf, lblock[uidx] / lam_int)
            best_ones = pick[g]
            if best_ones is None:
                cum, members = ties[g]
                low = math.exp(lam_int * logcdf[g - 1]) if g else 0.0
                span = math.exp(lam_int * logcdf[g]) - low
                t = (ublock.item(uidx) - low) / span if span > 0.0 else 0.0
                best_ones = members[min(bisect_right(cum, t), len(members) - 1)]
            uidx += 1
            bf = values[g]
            best_flips = None if place is None else place(ones, bf, best_ones)
        else:
            bf, best_ones, best_flips = drawn
        if not elitist or bf >= cur_f:
            if best_flips is not None:
                if type(best_flips) is int:
                    bits[best_flips] ^= 1
                else:
                    for p in best_flips:
                        bits[p] ^= 1
            ones = best_ones
            success = bf > cur_f
            cur_f = bf
        else:
            success = False
        gens += 1
        evals += lam_int
        if adapt:
            if success:
                lam = lam / F
                if lam < 1.0:
                    lam = 1.0
            else:
                lam = lam * growth
            lam_int = int(lam + 0.5)
        if bf > best_f:
            if levels:
                trace.new_best(best_f, bf, evals)
            best_f = bf
        if add_row:
            add_row((cur_f, lam, lam_int, evals, best_f))
    return cause, gens, evals, ones, cur_f, best_f, lam


def run(
    kind: AlgorithmKind,
    fn: FitnessFunction,
    params: ControllerParams,
    stop: StoppingCondition,
    seed,
    trace_level: str = "summary",
    lambda0: float = 1.0,
) -> RunRecord:
    """Run the configured algorithm from a fresh uniform random parent
    (its one-count alone on level functions, see the module docstring).

    ``seed`` may be an int or a numpy SeedSequence.  Output is
    bit-identical for identical (configuration, seed).
    """
    if trace_level not in _TRACE_LEVELS:
        raise ValueError(f"trace_level must be one of {_TRACE_LEVELS}")
    rng = np.random.default_rng(seed)
    if isinstance(seed, np.random.SeedSequence):
        seed_key = (seed.entropy,) + tuple(seed.spawn_key)
    else:
        seed_key = (seed,)
    setting = "lambda0"
    if kind.static_lambda is not None:
        lambda0, setting = kind.static_lambda, "static_lambda"
    if not 1 <= lambda0 <= LAMBDA_MAX:  # exact on an int, before any float conversion
        raise ValueError(f"{setting} must be finite, >= 1 and <= LAMBDA_MAX = {LAMBDA_MAX}, "
                         f"got {lambda0}")
    lambda0 = float(lambda0)

    if fn.level_based:
        bits = None
        ones = int(rng.binomial(fn.n, 0.5))
        init_raw = int(fn.level_table()[ones])
        sample = place = None
    else:
        bits = rng.integers(0, 2, size=fn.n, dtype=np.uint8).tolist()
        ones = sum(bits)
        init_raw = fn.raw_from_bits(bits, ones)
        sample, place = _ridge_sampler(fn, bits, rng)
    trace = _Trace(trace_level, fn.optimum_raw + 1, init_raw)
    cause, gens, evals, _, cur_f, best_f, lam = _evolve(
        rng, sample, place, bits, ones, init_raw, lambda0, fn, kind, params, stop, trace,
    )

    rec = RunRecord(
        algorithm=kind.label,
        fn_spec=fn.spec_string,
        n=fn.n,
        F=params.F,
        s=params.s,
        lambda0=lambda0,
        seed_key=seed_key,
        stop_cause=cause,
        generations=gens,
        evaluations=evals,
        initial_fitness=fn.display(init_raw),
        final_fitness=fn.display(cur_f),
        best_fitness=fn.display(best_f),
        final_lambda=lam,
        trace_level=trace_level,
    )
    trace.attach(rec)
    return rec
