"""The offspring samplers and single generations of the run loop.

Everything here drives the engines and the loop that ``run()`` executes:
``_law_sampler`` (the exact selected-child law, level functions) and
``_offspring_sampler`` (bit mutation, ridge) for offspring, ``_evolve``
capped at one generation for the comma/plus step from a chosen parent.
``reference_block_sampler`` is the bit-mutation sampler the level
functions ran on before the exact law; it stays here as the independent
reference that ``TestSelectionLaw`` checks against the enumerated law and
``test_exact_law.py`` compares whole runs with.
"""

import itertools
import math
import tracemalloc
from collections import Counter, defaultdict, namedtuple

import numpy as np
import pytest

from onelambda.ea import (
    _BLOCK,
    AlgorithmKind,
    ControllerParams,
    StoppingCondition,
    _distinct_positions,
    _evolve,
    _law_sampler,
    _offspring_sampler,
    _Trace,
)
from onelambda.fitness import FitnessFunction
from onelambda.oracle import (
    CHILD_WINDOW,
    best_of_lambda_pmf,
    level_quantities,
    selected_child_law,
)

P = ControllerParams(F=1.5, s=1.0)
COMMA = AlgorithmKind.self_adjusting_comma()
PLUS = AlgorithmKind.self_adjusting_plus()


def reference_per_bit_mutate(bits, rng: np.random.Generator) -> list:
    """Independent reference: every bit flips with probability 1/n."""
    flips = rng.random(len(bits)) < 1.0 / len(bits)
    return [b ^ int(f) for b, f in zip(bits, flips)]


def reference_block_sampler(fn, table: list, bits: list, rng: np.random.Generator):
    """Independent reference for the level engine: best of lam_int
    standard-bit mutants of the parent list ``bits``, each scored
    ``table[child_ones]``, with the interface of ``_offspring_sampler``
    (``sample(lam_int, ones, cur_f)`` gives ``(f, child_ones, flips)``).
    Flip counts come from Binomial(n, 1/n) and single-flip positions in
    blocks, k >= 2 positions from ``_distinct_positions``; ties are broken
    uniformly by reservoir sampling."""
    n = fn.n
    inv_n = 1.0 / n
    rand = rng.random
    kblock = rng.binomial(n, inv_n, size=_BLOCK).tolist()
    kidx = 0
    pblock = rng.integers(0, n, size=_BLOCK).tolist()
    pidx = 0

    def sample(lam_int, ones, cur_f):
        nonlocal kblock, kidx, pblock, pidx
        if kidx + lam_int > _BLOCK:
            kblock = rng.binomial(n, inv_n, size=max(_BLOCK, lam_int)).tolist()
            kidx = 0
        bf = -1
        best_ones = ones
        best_flips = None
        ties = 0
        for _ in range(lam_int):
            k = kblock[kidx]
            kidx += 1
            if k == 0:
                co, flips = ones, None
            elif k == 1:
                if pidx == _BLOCK:
                    pblock = rng.integers(0, n, size=_BLOCK).tolist()
                    pidx = 0
                flips = pblock[pidx]
                pidx += 1
                co = ones + 1 - 2 * bits[flips]
            else:
                flips = _distinct_positions(rng, n, k)
                co = ones + k - 2 * sum([bits[p] for p in flips])
            f = table[co]
            if f > bf:
                bf, best_ones, best_flips, ties = f, co, flips, 1
            elif f == bf:
                ties += 1
                if rand() < 1.0 / ties:
                    best_ones, best_flips = co, flips
        return bf, best_ones, best_flips

    return sample


def raw(fn, bits) -> int:
    return fn.raw_from_bits(bits, sum(bits))


def sampler(fn, bits, rng):
    """A bit-mutation sampler over the parent list ``bits``: the shipped
    one for ridge, the reference for level functions."""
    if fn.level_based:
        return reference_block_sampler(fn, fn.level_table().tolist(), bits, rng)
    return _offspring_sampler(fn, bits, rng)


def child_of(bits, flips) -> list:
    child = list(bits)
    for p in () if flips is None else [flips] if type(flips) is int else flips:
        child[p] ^= 1
    return child


def mutant(sample, bits) -> list:
    """One standard-bit mutant: the sampler's only child at lambda 1."""
    _, _, flips = sample(1, sum(bits), 0)
    return child_of(bits, flips)


Step = namedtuple("Step", "fitness lam evaluations generations best bits")


class Generation:
    """Single generations of the run loop from chosen parents, all drawing
    from one engine as ``run()`` builds it: the exact law for level
    functions (no bit string: ``bits`` is None in the result), bit mutation
    for ridge."""

    def __init__(self, fn, kind, seed, params=P):
        self.fn, self.kind, self.params = fn, kind, params
        rng = np.random.default_rng(seed)
        if fn.level_based:
            self.parent = None
            self.sample = _law_sampler(fn, fn.level_table().tolist(),
                                       kind.selection == "plus", rng)
        else:
            self.parent = [0] * fn.n
            self.sample = _offspring_sampler(fn, self.parent, rng)
        self.stop = StoppingCondition(max_generations=1, stop_on_optimum=False)

    def step(self, bits, lam) -> Step:
        if self.parent is not None:
            self.parent[:] = bits
        f = raw(self.fn, bits)
        trace = _Trace("summary", 0, f, float(lam))
        _, gens, evals, cur_f, best_f, lam = _evolve(
            self.sample, self.parent, sum(bits), f, float(lam),
            self.fn, self.kind, self.params, self.stop, trace,
        )
        return Step(cur_f, lam, evals, gens, best_f,
                    None if self.parent is None else list(self.parent))


def with_ones(n, ones):
    return [1] * ones + [0] * (n - ones)


class TestMutate:
    """Standard bit mutation as it ships: ridge's sampler."""

    def test_n1_forced_flip(self):
        sample = sampler(FitnessFunction("ridge", 1), [0], np.random.default_rng(0))
        for _ in range(50):
            assert mutant(sample, [0]) == [1]

    def test_parent_unmodified(self):
        # ridge scores a child by flipping the parent in place and back
        parent = [0, 1] * 8
        sample = sampler(FitnessFunction("ridge", 16), parent, np.random.default_rng(1))
        f = raw(FitnessFunction("ridge", 16), parent)
        for t in range(100):
            sample(1 + t % 4, 8, f)
            assert parent == [0, 1] * 8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_per_bit_reference_distribution(self, n):
        # both implementations must match the exact per-pattern probabilities
        parent = [0, 1] * (n // 2) + [0] * (n % 2)
        patterns = list(itertools.product((0, 1), repeat=n))
        exact = {}
        for pat in patterns:
            h = sum(a != b for a, b in zip(pat, parent))
            exact[pat] = (1.0 / n) ** h * (1.0 - 1.0 / n) ** (n - h)
        trials = 120_000
        tol = 5.0 * math.sqrt(0.25 / trials) + 0.002
        fn = FitnessFunction("ridge", n)
        shipped = sampler(fn, list(parent), np.random.default_rng(99))
        impls = {
            "sampler": lambda rng: mutant(shipped, parent),
            "reference": lambda rng: reference_per_bit_mutate(parent, rng),
        }
        for name, impl in impls.items():
            rng = np.random.default_rng(99)
            counts = {pat: 0 for pat in patterns}
            for _ in range(trials):
                counts[tuple(impl(rng))] += 1
            for pat in patterns:
                assert abs(counts[pat] / trials - exact[pat]) < tol, (name, pat)

    def test_mean_flip_count_near_one(self):
        parent = [0] * 50
        sample = sampler(FitnessFunction("ridge", 50), parent, np.random.default_rng(12))
        total = sum(sum(mutant(sample, parent)) for _ in range(20_000))
        assert abs(total / 20_000 - 1.0) < 0.05

    def test_generation_memory_is_bounded_at_large_lambda(self):
        # flip counts are drawn _BLOCK at a time, so one generation of
        # 2e5 children allocates no O(lambda) block (drawing them all at
        # once peaked above 3 MB)
        n = 20
        fn = FitnessFunction("ridge", n)
        parent = [1, 0] * (n // 2)
        sample = sampler(fn, parent, np.random.default_rng(5))
        tracemalloc.start()
        try:
            sample(200_000, n // 2, raw(fn, parent))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def exact_selection_law(fn, parent, lam) -> dict:
    """Exact law of the selected child's genotype: lam independent
    standard-bit mutants (every flip mask enumerated, per-bit probability
    1/n), the selected one uniform among the fitness-maximal children."""
    n = len(parent)
    masks = list(itertools.product((0, 1), repeat=n))
    prob = [(1.0 / n) ** sum(m) * (1.0 - 1.0 / n) ** (n - sum(m)) for m in masks]
    children = [tuple(b ^ m for b, m in zip(parent, mask)) for mask in masks]
    fit = [raw(fn, list(c)) for c in children]
    law = defaultdict(float)
    for idx in itertools.product(range(len(masks)), repeat=lam):
        p = math.prod(prob[i] for i in idx)
        best = max(fit[i] for i in idx)
        winners = [i for i in idx if fit[i] == best]
        for i in winners:
            law[children[i]] += p / len(winners)
    return law


LAW_CASES = [
    ("onemax", [1, 0, 1, 0, 0]),
    ("zeromax", [1, 1, 0, 1]),
    ("twomax", [1, 0, 1, 0, 0]),
    ("jump:2", [1, 1, 1, 0, 0]),
    ("cliff:2", [1, 1, 0, 0, 0]),
]


def exact_one_count_law(fn, parent, lam, selection) -> dict:
    """The next parent's one-count law from the enumerated genotype law;
    under plus a worse selected child leaves the parent in place."""
    f, law = raw(fn, parent), defaultdict(float)
    for child, p in exact_selection_law(fn, parent, lam).items():
        kept = selection == "plus" and raw(fn, list(child)) < f
        law[sum(parent) if kept else sum(child)] += p
    return law


# (fn spec, n, parent one-count, lambda): one-bit, twomax mirror ties, a
# jump coincidence at large lambda, cliff's drop, large n and lambda, and
# a window cut at 0 on a decreasing function
ENGINE_STATES = [("onemax", 1, 0, 1), ("twomax", 9, 4, 2), ("jump:3", 40, 37, 1000),
                 ("cliff:13", 40, 13, 7), ("onemax", 1000, 990, 10**6), ("zeromax", 200, 3, 5)]


class StubGenerator:
    """Stands in for the engine's generator: ``random(size)`` returns the
    next of the given uniforms, padded with 0.5."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, size):
        head, self.uniforms = self.uniforms[:size], self.uniforms[size:]
        return np.array(head + [0.5] * (size - len(head)))


def selections(fn, i, lam, plus, uniforms) -> list:
    """The one-count the level engine selects from parent one-count i at
    lam for each of the uniforms."""
    uniforms = list(uniforms)
    sample = _law_sampler(fn, fn.level_table().tolist(), plus, StubGenerator(uniforms))
    return [sample(lam, i, None)[1] for _ in uniforms]


def engine_order(fn, i):
    """The window one-counts in the order the engine's uniform runs
    through them, (fitness, one-count), and the plus map: a child worse
    than the parent leaves the parent in place."""
    n, table = fn.n, fn.level_table()
    window = range(max(0, i - CHILD_WINDOW), min(n, i + CHILD_WINDOW) + 1)
    order = sorted(window, key=lambda j: (table[j], j))
    return order, lambda j: i if table[j] < table[i] else j


class TestSelectionLaw:
    @pytest.mark.parametrize("lam", [1, 2, 3])
    @pytest.mark.parametrize("spec, parent", LAW_CASES)
    def test_selected_child_law_matches_exact_law(self, spec, parent, lam):
        n = len(parent)
        fn = FitnessFunction.parse(spec, n)
        for selection in ("comma", "plus"):
            want = exact_one_count_law(fn, parent, lam, selection)
            lo, pmf = selected_child_law(fn, sum(parent), lam, selection)
            got = dict(zip(range(lo, lo + pmf.size), pmf))
            for j in range(n + 1):
                assert abs(got.get(j, 0.0) - want.get(j, 0.0)) < 1e-12, (selection, j)

    @pytest.mark.parametrize("spec, n, i, lam", ENGINE_STATES)
    def test_engine_window_is_the_law_on_the_uniform_grid(self, spec, n, i, lam):
        # bisect, on the 2^-53 grid of rng.random(), the first uniform past
        # each one-count of the comma order; plus maps comma's choice
        fn = FitnessFunction.parse(spec, n)
        order, target = engine_order(fn, i)
        rank = {j: r for r, j in enumerate(order)}
        lo_k = np.full(len(order), -1, dtype=np.int64)
        hi_k = np.full(len(order), 2**53, dtype=np.int64)
        probes = []
        while (open_ := hi_k - lo_k > 1).any():
            mid = np.where(open_, (lo_k + hi_k) // 2, 0)
            sel = selections(fn, i, lam, False, mid / 2.0**53)
            past = np.array([rank[j] for j in sel]) > np.arange(len(order))
            hi_k = np.where(open_ & past, mid, hi_k)
            lo_k = np.where(open_ & ~past, mid, lo_k)
            probes.extend(mid[open_].tolist())
        ticks = np.diff(hi_k, prepend=0)  # grid points that select order[r]
        for plus in (False, True):
            lo, pmf = selected_child_law(fn, i, lam, "plus" if plus else "comma")
            got = np.zeros(pmf.size)
            for r, j in enumerate(order):
                got[(target(j) if plus else j) - lo] += ticks[r] / 2.0**53
            assert np.abs(got - pmf).max() <= 2.0**-52, plus
        edges = set(probes) | {k for e in hi_k.tolist() for k in (e - 1, e)}
        edges = sorted(k for k in edges if 0 <= k < 2**53)
        u = np.array(edges) / 2.0**53
        comma = selections(fn, i, lam, False, u)
        assert selections(fn, i, lam, True, u) == [target(j) for j in comma]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec, n, i, lam", ENGINE_STATES)
    def test_zero_uniform_selects_the_lowest_one_count_with_mass(self, spec, n, i, lam):
        # log(0) = -inf: the first one-count of the engine's order that a
        # child can have (its best-of-lam mass may underflow), never a pad
        # outside [0, n]; plus keeps a better parent
        fn = FitnessFunction.parse(spec, n)
        order, target = engine_order(fn, i)
        lo, pmf = selected_child_law(fn, i, 1, "comma")
        first = next(j for j in order if pmf[j - lo] > 0.0)
        for plus in (False, True):
            (child,) = selections(fn, i, lam, plus, [0.0])
            assert child == (target(first) if plus else first), plus
            assert 0 <= child <= n

    @pytest.mark.parametrize("lam", [1, 2, 3])
    @pytest.mark.parametrize(
        "spec, parent",
        [
            ("twomax", [1, 0, 1, 0, 0]),
            ("jump:2", [1, 1, 1, 0, 0]),
            ("cliff:2", [1, 1, 0, 0, 0]),
            ("ridge", [1, 1, 0, 0, 0]),
            ("ridge", [0, 1, 0, 0]),
        ],
    )
    def test_selected_genotype_matches_exact_law(self, spec, parent, lam):
        n = len(parent)
        fn = FitnessFunction.parse(spec, n)
        law = exact_selection_law(fn, parent, lam)
        assert abs(sum(law.values()) - 1.0) < 1e-12
        bits = list(parent)
        ones, f = sum(parent), raw(fn, parent)
        sample = sampler(fn, bits, np.random.default_rng((n, lam, sum(map(ord, spec)))))
        trials = 50_000
        counts = Counter()
        for _ in range(trials):
            bf, child_ones, flips = sample(lam, ones, f)
            child = child_of(parent, flips)
            assert bits == parent
            assert child_ones == sum(child) and bf == raw(fn, child)
            counts[tuple(child)] += 1
        assert set(counts) <= set(law)
        for geno, p in law.items():
            se = math.sqrt(p * (1.0 - p) / trials)
            assert abs(counts[geno] / trials - p) <= 5 * se + 1e-4, (geno, counts[geno], p)


class TestGenerationComma:
    def test_n1_forced_success(self):
        gen = Generation(FitnessFunction("onemax", 1), COMMA, 0)
        nxt = gen.step([0], 1.0)
        assert nxt.fitness == 1 and nxt.evaluations == 1 and nxt.generations == 1

    def test_counters_and_offspring_count(self):
        fn = FitnessFunction("onemax", 30)
        gen = Generation(fn, COMMA, 5, ControllerParams(F=1.5, s=2.0))
        nxt = gen.step(with_ones(30, 15), 3.49)  # rounds to 3
        assert nxt.evaluations == 3
        assert nxt.generations == 1
        assert nxt.best >= 15

    def test_lambda_coupling_success_iff_strict_improvement(self):
        gen = Generation(FitnessFunction("onemax", 25), COMMA, 7)
        shrunk = grew = accepted_worse = 0
        for _ in range(3000):
            nxt = gen.step(with_ones(25, 18), 4.0)
            if nxt.fitness > 18:
                assert nxt.lam == max(1.0, 4.0 / P.F)
                shrunk += 1
            else:
                assert nxt.lam == 4.0 * P.growth_factor
                grew += 1
            if nxt.fitness < 18:
                accepted_worse += 1
        assert shrunk and grew and accepted_worse  # ties/falls both grow lambda

    def test_next_fitness_distribution_matches_oracle(self):
        # empirical P(new fitness > 15) at (n=20, i=15, lambda=3) vs exact
        n, i, lam = 20, 15, 3
        gen = Generation(FitnessFunction("onemax", n), COMMA, 123)
        trials = 100_000
        improved = sum(gen.step(with_ones(n, i), lam).fitness > i for _ in range(trials))
        q = level_quantities(n, i, lam)
        se = math.sqrt(q.p_plus * (1 - q.p_plus) / trials)
        assert abs(improved / trials - q.p_plus) <= 3 * se

    def test_full_next_fitness_pmf_matches_oracle(self):
        n, i, lam = 12, 8, 2
        gen = Generation(FitnessFunction("onemax", n), COMMA, 321)
        trials = 60_000
        counts = np.zeros(n + 1)
        for _ in range(trials):
            counts[gen.step(with_ones(n, i), lam).fitness] += 1
        pmf = best_of_lambda_pmf(n, i, lam)
        for j in range(n + 1):
            se = math.sqrt(max(pmf[j] * (1 - pmf[j]), 1e-12) / trials)
            assert abs(counts[j] / trials - pmf[j]) <= 4 * se + 1e-4


class TestGenerationPlus:
    def test_never_decreases_fitness(self):
        fn = FitnessFunction("onemax", 50)
        gen = Generation(fn, PLUS, 9)
        bits = np.random.default_rng(9).integers(0, 2, size=50).tolist()
        fit, lam = raw(fn, bits), 1.0
        for _ in range(5000):
            nxt = gen.step(bits, lam)
            assert nxt.fitness >= fit
            bits, fit, lam = with_ones(50, nxt.fitness), nxt.fitness, nxt.lam
            if fit == 50:  # past the optimum every step fails and lambda diverges
                break
        assert fit == 50

    def test_all_worse_keeps_parent_but_grows_lambda(self):
        gen = Generation(FitnessFunction("onemax", 30), PLUS, 17)
        for _ in range(500):  # at the optimum: offspring tie or are worse
            nxt = gen.step([1] * 30, 1.0)
            assert nxt.fitness == 30
            assert nxt.lam == 1.0 * P.growth_factor

    def test_tie_replaces_genotype(self):
        # at a tie the offspring becomes the new parent (genotype may
        # change); ridge off its path scores n - ones, so swaps tie
        gen = Generation(FitnessFunction("ridge", 6), PLUS, 23)
        parent = [1, 0, 1, 0, 0, 0]
        changed = False
        for _ in range(2000):
            nxt = gen.step(parent, 1.0)
            if nxt.fitness == 4 and nxt.bits != parent:
                changed = True
                break
        assert changed

    def test_static_adapt_flag_keeps_lambda(self):
        gen = Generation(FitnessFunction("onemax", 15), AlgorithmKind.static_comma(5), 31)
        bits, lam = with_ones(15, 7), 5.0
        for _ in range(50):
            nxt = gen.step(bits, lam)
            assert nxt.lam == 5.0
            bits, lam = with_ones(15, nxt.fitness), nxt.lam
