"""Two-sample equivalence of the law engines and the bit-mutation reference.

``run()`` draws each generation on a level function, and each ridge
generation of at least RIDGE_LAW_FROM children, on the ridge or off it,
from the exact law of the selected child.  The
reference runs the same loop (``_evolve``) on a uniform random bit string
with the per-bit engine, ``_offspring_sampler``, which draws every
child's flips and scores it as ``raw_from_bits`` would (from the level
table, or on ridge from the ridge shape) at every parent.  At n = 16 the
ridge runs below spend a median 75-89% of their evaluations on the ridge,
depending on the case; one comma run from lambda0 = 100 of the 200 spends
none there.  The self-adjusting ridge runs from lambda0 = 1 draw
generations on both sides of RIDGE_LAW_FROM on the ridge and off it, and
the comma runs from lambda0 = 100 off it; the static ones, at 7 and 100
children, draw from the law on both sides of the ridge.  For each
function, selection scheme
and a small and a large lambda, RUNS runs per side from disjoint seeds
must agree in distribution (two-sample Kolmogorov-Smirnov) on the
evaluations at the stop and on two summaries of the level accumulators:
the mean fitness weighted by the evaluations spent at each fitness
(``lambda_sum_at``) and by the generations entered there (``gens_at``).
The threshold ALPHA is Bonferroni's 1% over all the comparisons in this
file."""

import numpy as np
import pytest
from scipy.stats import ks_2samp

from onelambda.ea import (
    RIDGE_LAW_FROM,
    AlgorithmKind,
    ControllerParams,
    StoppingCondition,
    _evolve,
    _offspring_sampler,
    _Trace,
    default_static_lambda,
    run,
)
from onelambda.fitness import FitnessFunction

RUNS = 200
P = ControllerParams(F=1.5, s=1.0)
# (fn spec, n); cliff's drop at 8 lies above 25% of the random starts
FUNCTIONS = [("onemax", 20), ("zeromax", 20), ("twomax", 20), ("jump:2", 12), ("cliff:8", 20),
             ("ridge", 16)]
SELECTIONS = ["comma", "plus", "static"]
LAMBDAS = {"small": 1.0, "large": 100.0}  # lambda0; static runs keep it
# runs stuck at cliff's drop stop by the cap (static) or the abort (adaptive)
STOP = StoppingCondition(max_evaluations=10_000, lambda_abort_threshold=2000.0)
CASES = [(f, n, sel, size) for f, n in FUNCTIONS for sel in SELECTIONS for size in LAMBDAS]
ALPHA = 0.01 / (3 * len(CASES))


def kind_for(selection, lam0, n):
    if selection == "static":
        lam = default_static_lambda(n) if lam0 == 1.0 else int(lam0)
        return AlgorithmKind.static_comma(lam)
    return AlgorithmKind(selection)


def reference_run(kind, fn, stop, seed, lambda0):
    """``run()`` at trace level "levels" with bit mutation in place of the
    exact law, the start scored by ``raw_from_bits``: (evaluations,
    gens_at, lambda_sum_at)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=fn.n, dtype=np.uint8).tolist()
    ones = sum(bits)
    f = fn.raw_from_bits(bits, ones)
    if kind.static_lambda is not None:
        lambda0 = float(kind.static_lambda)
    trace = _Trace("levels", fn.optimum_raw + 1, f)
    sample = _offspring_sampler(fn, bits, rng)
    evals = _evolve(rng, sample, None, bits, ones, f, lambda0, fn, kind, P, stop, trace)[2]
    return evals, np.array(trace.gens_at), np.array(trace.lambda_sum_at)


def summaries(rows):
    """Per-run evaluations and the two accumulator-weighted mean fitnesses."""
    evals, gens_at, lam_at = (np.array(col) for col in zip(*rows))
    levels = np.arange(gens_at.shape[1])
    by_gens = (gens_at @ levels) / np.maximum(gens_at.sum(axis=1), 1)
    by_evals = (lam_at @ levels) / np.maximum(lam_at.sum(axis=1), 1)
    return {"evaluations": evals, "mean fitness by generations": by_gens,
            "mean fitness by evaluations": by_evals}


@pytest.mark.parametrize("spec, n, selection, size", CASES,
                         ids=[f"{f}-{sel}-{size}" for f, _, sel, size in CASES])
def test_engine_matches_bit_mutation_reference(spec, n, selection, size):
    fn = FitnessFunction.parse(spec, n)
    lam0 = LAMBDAS[size]
    kind = kind_for(selection, lam0, n)
    root = np.random.SeedSequence((n, sum(map(ord, spec + selection + size))))
    engine_seeds, reference_seeds = root.spawn(RUNS), root.spawn(RUNS)
    engine = summaries([
        (rec.evaluations, rec.gens_at, rec.lambda_sum_at)
        for rec in (run(kind, fn, P, STOP, seed, trace_level="levels", lambda0=lam0)
                    for seed in engine_seeds)
    ])
    reference = summaries([reference_run(kind, fn, STOP, seed, lam0) for seed in reference_seeds])
    for name in engine:
        p = ks_2samp(engine[name], reference[name]).pvalue
        assert p > ALPHA, (name, p, engine[name].mean(), reference[name].mean())


RIDGE_CASES = [case for case in CASES if case[0] == "ridge"]


@pytest.mark.parametrize("spec, n, selection, size", RIDGE_CASES,
                         ids=[f"{sel}-{size}" for _, _, sel, size in RIDGE_CASES])
def test_ridge_cases_draw_on_both_sides_of_the_law(spec, n, selection, size):
    # the (on the ridge, drawn from the law) pairs of the generations of
    # the engine runs of each ridge case above
    fn = FitnessFunction.parse(spec, n)
    lam0 = LAMBDAS[size]
    kind = kind_for(selection, lam0, n)
    root = np.random.SeedSequence((n, sum(map(ord, spec + selection + size))))
    seen = set()
    for seed in root.spawn(RUNS):
        rec = run(kind, fn, P, STOP, seed, trace_level="full", lambda0=lam0)
        fitness, lam = rec.rows["fitness_raw"][:-1], rec.rows["lambda_int"][:-1]
        on = fitness >= n
        seen |= set(zip(on.tolist(), (lam >= RIDGE_LAW_FROM).tolist()))
    law_both_sides = {(True, True), (False, True)}
    if not kind.adaptive:  # 7 and 100 children: the law on both sides
        assert seen == law_both_sides and kind.static_lambda >= RIDGE_LAW_FROM
    elif size == "small":
        # bit mutation on the ridge (fewer than RIDGE_LAW_FROM children)
        # is rare: about 0.15% of the generations from lambda0 = 1, first
        # met in the 25th (plus) and 54th (comma) run
        assert seen == law_both_sides | {(False, False), (True, False)}
    else:
        # from lambda0 = 100 no run mutates bits on the ridge, and no plus
        # run falls below RIDGE_LAW_FROM children off it either
        assert seen == law_both_sides | ({(False, False)} if selection == "comma" else set())
