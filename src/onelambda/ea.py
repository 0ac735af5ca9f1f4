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

Two engines run the generations of one loop:

* Level functions (fitness a function of the one-count: onemax, zeromax,
  twomax, jump, cliff) run as a Markov chain on the one-count.  Each
  generation draws the next parent's one-count with one uniform u from
  the exact law of the selected child (``oracle.selected_child_law``):
  the best of lambda children has fitness CDF C^lambda, where C, one
  child's CDF over the one-counts within 30 of the parent, does not
  depend on lambda, so one bisection of log(u)/lambda into log C picks
  the fitness.  A generation costs the same at any lambda.  The
  lambda-free rows are built for blocks of levels at a time and shared
  with the oracle.  The initial one-count is drawn from Binomial(n, 1/2);
  no bit string exists.
* Ridge, whose value depends on the bit layout, mutates a bit-list parent:
  each child's flip count comes from Binomial(n, 1/n), then that many
  distinct positions are picked uniformly, which is distributionally
  identical to per-bit flips but independent of n in cost.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .fitness import FitnessFunction

__all__ = [
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


def round_lambda(lambda_real: float) -> int:
    """Round to the nearest integer, with .5 rounding up."""
    return int(math.floor(lambda_real + 0.5))


@dataclass(frozen=True)
class ControllerParams:
    """Success-based controller hyperparameters.

    F is the update strength (> 1), s the success rate (> 0).  A success
    divides lambda by F and a failure multiplies it by growth_factor, and
    growth_factor**s == F, so one success per s+1 generations leaves lambda
    unchanged.
    """

    F: float = 1.5
    s: float = 1.0

    def __post_init__(self) -> None:
        if not self.F > 1.0:
            raise ValueError(f"update strength F must be > 1, got {self.F}")
        if not self.s > 0.0:
            raise ValueError(f"success rate s must be > 0, got {self.s}")
        if not math.isfinite(self.F ** (1.0 / self.s)):
            raise ValueError(f"F^(1/s) overflows for F={self.F}, s={self.s}")

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
    """Runaway guard: one growth step past e * F^(1/s) * n^3."""
    return math.e * params.growth_factor ** 2 * float(n) ** 3


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
    """When a run ends.  At least one stop cause must be enabled."""

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


class StopCause(str, Enum):
    OPTIMUM = "optimum"
    GENERATION_CAP = "generation_cap"
    EVALUATION_CAP = "evaluation_cap"
    LAMBDA_ABORT = "lambda_abort"


_BLOCK = 4096  # pre-sampled uniforms / flip counts / single-flip positions per refill


def _uniforms(rng: np.random.Generator):
    """_BLOCK uniforms, and their logs (log 0 = -inf) as a list."""
    u = rng.random(_BLOCK)
    with np.errstate(divide="ignore"):
        return u, np.log(u).tolist()


def _law_sampler(fn: FitnessFunction, table: list, plus: bool, rng: np.random.Generator):
    """The level-function engine: returns ``sample(lam_int, ones, cur_f)``,
    which gives ``(f, child_ones, None)`` for the next parent (the parent
    itself when plus selection keeps it), drawn from the selected child's
    exact one-count law with one uniform u; ``f`` is ``table[child_ones]``.

    The best of lam children has a fitness at most the window's g-th
    lowest value with probability C_g^lam, C_g = exp(logcdf[g]) from the
    level's lam-free row (``oracle._LawBlock.row``), so u selects the first g
    with log(u)/lam < logcdf[g].  A tie group picks a member by u's
    position in (C_(g-1)^lam, C_g^lam] against the members' cumulative
    shares; under plus a group below the parent's keeps the parent.
    Uniforms are drawn in blocks; the rows live in the oracle's bounded
    LRU of level blocks, and the sampler keeps the block of its last level.
    """
    from .oracle import _level_law  # oracle imports this module

    block, rows, first, width = None, None, 0, 0  # the block of the last level
    ublock, lblock = _uniforms(rng)
    uidx = 0

    def sample(lam_int, ones, cur_f):
        nonlocal block, rows, first, width, ublock, lblock, uidx
        r = ones - first
        if not 0 <= r < width:
            block, r = _level_law(fn, ones)
            rows, first, width = block.rows, block.first, len(block.rows)
        row = rows[r]
        if row is None:
            row = block.row(r)
        if uidx == _BLOCK:
            ublock, lblock = _uniforms(rng)
            uidx = 0
        logcdf, pick, parent, ties = row
        g = bisect_right(logcdf, lblock[uidx] / lam_int)
        if plus and g < parent:
            child = ones
        else:
            child = pick[g]
            if child is None:
                cum, members = ties[g]
                low = math.exp(lam_int * logcdf[g - 1]) if g else 0.0
                span = math.exp(lam_int * logcdf[g]) - low
                t = (float(ublock[uidx]) - low) / span if span > 0.0 else 0.0
                child = members[min(bisect_right(cum, t), len(members) - 1)]
        uidx += 1
        return table[child], child, None

    return sample


def _distinct_positions(rng: np.random.Generator, n: int, k: int) -> list:
    """k >= 2 distinct indices in [0, n), uniform over k-subsets."""
    if k * k <= n:
        # rejection on duplicates; collision probability < k^2/(2n)
        while True:
            idx = rng.integers(0, n, size=k).tolist()
            if len(set(idx)) == k:
                return idx
    return rng.permutation(n)[:k].tolist()


def _offspring_sampler(fn: FitnessFunction, bits: list, rng: np.random.Generator):
    """The bit-mutation engine (ridge): best of lam_int standard-bit mutants.

    ``bits`` is the parent as a list of ints, which the caller updates in
    place between calls.  Returns ``sample(lam_int, ones, cur_f)``, where
    ``ones`` and ``cur_f`` are the parent's one-count and raw fitness; it
    gives ``(f, child_ones, flips)`` for a uniformly random fitness-maximal
    child (reservoir tie-breaking), with ``flips`` None (no bit flipped),
    one position, or a list of positions.  Each child's flip count comes
    from Binomial(n, 1/n); flip counts and single-flip positions are drawn
    in blocks of _BLOCK, so memory stays bounded at any lam_int.  A child
    is scored by flipping the parent in place, calling
    ``fn.raw_from_bits`` and flipping back.
    """
    n = fn.n
    inv_n = 1.0 / n
    raw_from_bits = fn.raw_from_bits
    rand = rng.random
    kblock = rng.binomial(n, inv_n, size=_BLOCK).tolist()
    kidx = 0
    pblock = rng.integers(0, n, size=_BLOCK).tolist()
    pidx = 0

    def sample(lam_int, ones, cur_f):
        nonlocal kblock, kidx, pblock, pidx
        if kidx + lam_int > _BLOCK:  # a generation that fits one block starts in one
            kblock = rng.binomial(n, inv_n, size=_BLOCK).tolist()
            kidx = 0
        bf = -1
        best_ones = ones
        best_flips = None
        ties = 0
        left = lam_int
        while left:
            if kidx == _BLOCK:
                kblock = rng.binomial(n, inv_n, size=_BLOCK).tolist()
                kidx = 0
            take = min(left, _BLOCK - kidx)
            chunk = kblock[kidx : kidx + take]
            kidx += take
            left -= take
            for k in chunk:
                if k == 0:
                    co = ones
                    f = cur_f
                    flips = None
                elif k == 1:
                    if pidx == _BLOCK:
                        pblock = rng.integers(0, n, size=_BLOCK).tolist()
                        pidx = 0
                    flips = pblock[pidx]
                    pidx += 1
                    co = ones + 1 - 2 * bits[flips]
                    bits[flips] ^= 1
                    f = raw_from_bits(bits, co)
                    bits[flips] ^= 1
                else:
                    flips = _distinct_positions(rng, n, k)
                    co = ones + k - 2 * sum([bits[p] for p in flips])
                    for p in flips:
                        bits[p] ^= 1
                    f = raw_from_bits(bits, co)
                    for p in flips:
                        bits[p] ^= 1
                if f > bf:
                    bf, best_ones, best_flips, ties = f, co, flips, 1
                elif f == bf:
                    ties += 1
                    if rand() < 1.0 / ties:
                        best_ones, best_flips = co, flips
        return bf, best_ones, best_flips

    return sample


@dataclass
class RunRecord:
    """Outcome of a single run, plus optional traces.

    ``rows`` (trace level "full") holds one state snapshot per generation
    t = 0..T as columns (generation, fitness_raw, lambda_real, lambda_int,
    evaluations, best_raw): the state *after* generation t, where
    lambda_int = round_lambda(lambda_real) is the offspring count the next
    generation would use.  Level accumulators (trace levels "levels" and
    "full") aggregate over generations: for each raw fitness value v,
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

    def __init__(self, trace_level: str, size: int, cur_f: int, lam: float):
        self.want_levels = trace_level in ("levels", "full")
        self.want_rows = trace_level == "full"
        if self.want_levels:
            self.first_hit = [-1] * size
            for v in range(cur_f + 1):
                self.first_hit[v] = 0
            self.gens_at = [0] * size
            self.lambda_sum_at = [0] * size
        if self.want_rows:
            self.r_fit = [cur_f]
            self.r_lam = [lam]
            self.r_lint = [round_lambda(lam)]
            self.r_evals = [0]
            self.r_best = [cur_f]

    # the run loop calls these only when the trace level wants them

    def before_generation(self, cur_f: int, lam_int: int) -> None:
        self.gens_at[cur_f] += 1
        self.lambda_sum_at[cur_f] += lam_int

    def new_best(self, prev_best: int, best_f: int, evals: int) -> None:
        fh = self.first_hit
        for v in range(prev_best + 1, best_f + 1):
            if fh[v] < 0:
                fh[v] = evals
        # lower targets were filled when first reached

    def after_generation(self, cur_f: int, lam: float, evals: int, best_f: int) -> None:
        self.r_fit.append(cur_f)
        self.r_lam.append(lam)
        self.r_lint.append(round_lambda(lam))
        self.r_evals.append(evals)
        self.r_best.append(best_f)

    def attach(self, rec: "RunRecord") -> None:
        if self.want_levels:
            rec.first_hit_evals = np.array(self.first_hit, dtype=np.int64)
            rec.gens_at = np.array(self.gens_at, dtype=np.int64)
            rec.lambda_sum_at = np.array(self.lambda_sum_at, dtype=np.int64)
        if self.want_rows:
            rec.rows = {
                "generation": np.arange(len(self.r_fit), dtype=np.int64),
                "fitness_raw": np.array(self.r_fit, dtype=np.int64),
                "lambda_real": np.array(self.r_lam, dtype=np.float64),
                "lambda_int": np.array(self.r_lint, dtype=np.int64),
                "evaluations": np.array(self.r_evals, dtype=np.int64),
                "best_raw": np.array(self.r_best, dtype=np.int64),
            }


def _evolve(sample, bits, ones, cur_f, lam, fn, kind, params, stop, trace):
    """The run loop: generations from the parent (one-count ``ones``, raw
    fitness ``cur_f``; bit list ``bits``, updated in place, or None on the
    level engine) with real-valued lambda ``lam`` until a stop cause
    holds, one ``sample`` call per generation.  Returns (cause, generations, evaluations, final raw
    fitness, best raw fitness, final lambda)."""
    opt_raw = fn.optimum_raw
    abort_at = stop.lambda_abort_threshold
    if abort_at is None:
        abort_at = default_lambda_abort_threshold(fn.n, params)
    elitist = kind.selection == "plus"
    adapt = kind.adaptive
    F = params.F
    growth = params.growth_factor
    max_evals = stop.max_evaluations
    max_gens = stop.max_generations
    stop_opt = stop.stop_on_optimum
    levels, rows = trace.want_levels, trace.want_rows
    best_f = cur_f
    gens = 0
    evals = 0

    while True:
        # the stop causes in precedence order; a lambda abort needs a generation
        if stop_opt and cur_f >= opt_raw:
            cause = StopCause.OPTIMUM
            break
        if lam > abort_at and gens:
            cause = StopCause.LAMBDA_ABORT
            break
        if max_evals is not None and evals >= max_evals:
            cause = StopCause.EVALUATION_CAP
            break
        if max_gens is not None and gens >= max_gens:
            cause = StopCause.GENERATION_CAP
            break

        lam_int = int(lam + 0.5)  # round_lambda: floor(lam + 0.5)
        if levels:
            trace.before_generation(cur_f, lam_int)
        bf, best_ones, best_flips = sample(lam_int, ones, cur_f)
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
        if adapt:
            if success:
                lam = lam / F
                if lam < 1.0:
                    lam = 1.0
            else:
                lam = lam * growth
        gens += 1
        evals += lam_int
        if bf > best_f:
            if levels:
                trace.new_best(best_f, bf, evals)
            best_f = bf
        if rows:
            trace.after_generation(cur_f, lam, evals, best_f)
    return cause, gens, evals, cur_f, best_f, lam


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

    ``seed`` may be an int, a numpy SeedSequence, or a Generator.  Output
    is bit-identical for identical (configuration, seed).
    """
    if trace_level not in _TRACE_LEVELS:
        raise ValueError(f"trace_level must be one of {_TRACE_LEVELS}")
    if isinstance(seed, np.random.Generator):
        rng = seed
        seed_key = ("generator",)
    elif isinstance(seed, np.random.SeedSequence):
        rng = np.random.default_rng(seed)
        seed_key = (seed.entropy,) + tuple(seed.spawn_key)
    else:
        rng = np.random.default_rng(seed)
        seed_key = (seed,)
    if kind.static_lambda is not None:
        lambda0 = float(kind.static_lambda)
    if lambda0 < 1.0:
        raise ValueError("initial lambda must be >= 1")

    if fn.level_based:
        bits = None
        ones = int(rng.binomial(fn.n, 0.5))
        table = fn.level_table().tolist()
        init_raw = table[ones]
        sample = _law_sampler(fn, table, kind.selection == "plus", rng)
    else:
        bits = rng.integers(0, 2, size=fn.n, dtype=np.uint8).tolist()
        ones = sum(bits)
        init_raw = fn.raw_from_bits(bits, ones)
        sample = _offspring_sampler(fn, bits, rng)
    trace = _Trace(trace_level, fn.optimum_raw + 1, init_raw, float(lambda0))
    cause, gens, evals, cur_f, best_f, lam = _evolve(
        sample, bits, ones, init_raw, float(lambda0), fn, kind, params, stop, trace,
    )

    rec = RunRecord(
        algorithm=kind.label,
        fn_spec=fn.spec_string,
        n=fn.n,
        F=params.F,
        s=params.s,
        lambda0=float(lambda0),
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
