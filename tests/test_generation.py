"""The offspring samplers and single generations of the run loop.

Everything here drives the engines and the loop that ``run()`` executes:
``_evolve``, capped at one generation for the comma/plus step from a
chosen parent, which draws level generations and ridge's on-ridge law
generations from the exact selected-child law itself, and
``_ridge_sampler`` (from RIDGE_LAW_FROM children on, the exact law off
the ridge and the layout of the loop's law draws on it; below, bit
mutation by ``_offspring_sampler``).  The law draws the loop makes are
asserted through it, one generation per call.  ``TestRidgeLaw`` checks
ridge's law rows and its on-ridge draws against enumeration,
``TestOffRidgeLaw`` the law and draws from parents off the ridge, and
``TestAmong`` the law-drawn layouts' uniform position sets.  Bit
mutation draws a child's flip positions from a position stream and
scores it from the parent's mismatch profile and
``fn.shape_tables()`` without building it; ``TestScoring`` checks that
score against ``fn.raw_from_bits`` of the built child.  On a level
function both tables are the level table, so the shipped
``_offspring_sampler`` also runs there: it is the independent per-bit
reference that ``TestSelectionLaw`` checks against the enumerated law
and ``test_exact_law.py`` compares whole runs with.
"""

import itertools
import math
import tracemalloc
from bisect import bisect_right
from collections import Counter, defaultdict, namedtuple

import numpy as np
import pytest

from onelambda.ea import (
    LAMBDA_MAX,
    RIDGE_LAW_FROM,
    AlgorithmKind,
    ControllerParams,
    StoppingCondition,
    _among,
    _evolve,
    _near_ridge,
    _off_ridge_logcdf,
    _offspring_sampler,
    _ridge_sampler,
    _stream,
    _Trace,
)
from onelambda.fitness import FitnessFunction
from onelambda.oracle import (
    CHILD_WINDOW,
    _child_masses,
    _LawBlock,
    _level_law,
    _power_pmf,
    selected_child_law,
    state_quantities,
)

P = ControllerParams(F=1.5, s=1.0)
COMMA = AlgorithmKind.self_adjusting_comma()
PLUS = AlgorithmKind.self_adjusting_plus()


def reference_per_bit_mutate(bits, rng: np.random.Generator) -> list:
    """Independent reference: every bit flips with probability 1/n."""
    flips = rng.random(len(bits)) < 1.0 / len(bits)
    return [b ^ int(f) for b, f in zip(bits, flips)]


def raw(fn, bits) -> int:
    return fn.raw_from_bits(bits, sum(bits))


def child_of(bits, flips) -> list:
    child = list(bits)
    for p in () if flips is None else [flips] if type(flips) is int else flips:
        child[p] ^= 1
    return child


def mutant(sample, bits) -> list:
    """One standard-bit mutant: the sampler's only child at lambda 1."""
    _, _, flips = sample(1, sum(bits), 0)
    return child_of(bits, flips)


Step = namedtuple("Step", "fitness ones lam evaluations generations best bits")


class CarriedUniforms:
    """The generator the run loop draws from in ``Generation``'s steps:
    each block ``random(size)`` is the next uniform of one stream of
    ``rng``'s, blocks of 64 doubling up to 4096 drawn as needed, carried
    over from step to step.  A one-generation step uses the first uniform
    of its block alone, so consecutive steps draw the uniforms a run's
    consecutive generations would."""

    def __init__(self, rng):
        self.uniforms = _stream(rng.random)

    def random(self, size):
        return np.array([next(self.uniforms)])


class Generation:
    """Single generations of the run loop from chosen parents, all drawing
    from one engine as ``run()`` builds it: the loop's own law draw for
    level functions (no bit string: ``bits`` is None in the result),
    ridge's sampler for ridge.  Each step is one ``_evolve`` call; the
    loop's uniforms and ridge's sampler carry over from step to step.
    ``seed`` may also be a generator."""

    def __init__(self, fn, kind, seed, params=P):
        self.fn, self.kind, self.params = fn, kind, params
        rng = seed if hasattr(seed, "random") else np.random.default_rng(seed)
        self.uniforms = CarriedUniforms(rng)
        if fn.level_based:
            self.parent, self.sample, self.place = None, None, None
        else:
            self.parent = bytearray(fn.n)
            self.sample, self.place = _ridge_sampler(fn, self.parent, rng)
        self.stop = StoppingCondition(max_generations=1, stop_on_optimum=False)

    def step(self, bits, lam) -> Step:
        if self.parent is not None:
            self.parent[:] = bits
        f = raw(self.fn, bits)
        _, gens, evals, ones, cur_f, best_f, lam = _evolve(
            self.uniforms, self.sample, self.place, self.parent, sum(bits), f, float(lam),
            self.fn, self.kind, self.params, self.stop, _Trace("summary", 0, f),
        )
        return Step(cur_f, ones, lam, evals, gens, best_f,
                    None if self.parent is None else list(self.parent))


def with_ones(n, ones):
    return [1] * ones + [0] * (n - ones)


class TestMutate:
    """Standard bit mutation as it ships: ridge's sampler off the ridge."""

    def test_n1_forced_flip(self):
        sample = _offspring_sampler(FitnessFunction("ridge", 1), [0], np.random.default_rng(0))
        for _ in range(50):
            assert mutant(sample, [0]) == [1]

    def test_parent_unmodified(self):
        # the sampler only reads the parent: a write to the tuple would raise
        parent = (0, 1) * 8
        sample = _offspring_sampler(FitnessFunction("ridge", 16), parent, np.random.default_rng(1))
        f = raw(FitnessFunction("ridge", 16), parent)
        for t in range(100):
            sample(1 + t % 4, 8, f)

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
        shipped = _offspring_sampler(fn, list(parent), np.random.default_rng(99))
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
        sample = _offspring_sampler(FitnessFunction("ridge", 50), parent, np.random.default_rng(12))
        total = sum(sum(mutant(sample, parent)) for _ in range(20_000))
        assert abs(total / 20_000 - 1.0) < 0.05

    def test_generation_memory_is_bounded_at_large_lambda(self):
        # the flip-count stream holds at most _BLOCK counts at a time, so
        # one generation of 2e5 children allocates no O(lambda) block
        # (drawing them all at once peaked above 3 MB)
        n = 20
        fn = FitnessFunction("ridge", n)
        parent = [1, 0] * (n // 2)
        sample = _offspring_sampler(fn, parent, np.random.default_rng(5))
        tracemalloc.start()
        try:
            sample(200_000, n // 2, raw(fn, parent))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_stream_draws_doubling_blocks_on_demand(self):
        sizes = []

        def draw(size):
            sizes.append(size)
            return np.arange(size)

        values = _stream(draw)
        assert sizes == []
        taken = list(itertools.islice(values, 64 + 128 + 256 + 512 + 1024 + 2048 + 4096 + 1))
        assert sizes == [64, 128, 256, 512, 1024, 2048, 4096, 4096]
        assert taken == [v for size in sizes for v in range(size)][:len(taken)]

    def test_one_generation_draws_one_first_block_per_stream(self):
        # a short ridge run pays for no full block of flip counts,
        # positions or tie-break uniforms below RIDGE_LAW_FROM children,
        # and from there on for one first block of uniforms: the law's on
        # the ridge, the layout stream's (which draws u too) off it, with
        # one first block of the layout's uniform positions
        rng = RecordingGenerator(3)
        gen = Generation(FitnessFunction("ridge", 100), COMMA, rng)
        gen.step([1, 0] * 50, RIDGE_LAW_FROM - 1)
        assert rng.drawn["binomial"] == 64 and max(rng.drawn.values()) == 64, rng.drawn
        rng = RecordingGenerator(3)
        Generation(FitnessFunction("ridge", 100), COMMA, rng).step(with_ones(100, 40), 100.0)
        assert rng.drawn == {"random": 64}, rng.drawn
        rng = RecordingGenerator(3)
        Generation(FitnessFunction("ridge", 100), COMMA, rng).step([1, 0] * 50, 100.0)
        assert rng.drawn == {"random": 64, "integers": 64}, rng.drawn


class RecordingGenerator:
    """A numpy generator that counts the values each draw method returns,
    in the call forms the bit-mutation sampler uses."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = Counter()

    def binomial(self, n, p, size):
        self.drawn["binomial"] += size
        return self.rng.binomial(n, p, size=size)

    def integers(self, low, high, size):
        self.drawn["integers"] += size
        return self.rng.integers(low, high, size=size)

    def random(self, size):
        self.drawn["random"] += size
        return self.rng.random(size)


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


def selections(fn, i, lam, uniforms) -> list:
    """The child one-count one comma generation of the run loop selects
    from parent one-count i at lam, for each of the uniforms."""
    uniforms = list(uniforms)
    gen = Generation(fn, COMMA, StubGenerator(uniforms))
    return [gen.step(with_ones(fn.n, i), lam).ones for _ in uniforms]


def plus_fitnesses(fn, i, lam, uniforms) -> list:
    """The parent's raw fitness after one plus generation of the run loop
    from parent one-count i at lam, for each of the uniforms."""
    uniforms = list(uniforms)
    gen = Generation(fn, PLUS, StubGenerator(uniforms))
    return [gen.step(with_ones(fn.n, i), lam).fitness for _ in uniforms]


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
            sel = selections(fn, i, lam, mid / 2.0**53)
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
        table = fn.level_table()
        comma = selections(fn, i, lam, u)
        assert plus_fitnesses(fn, i, lam, u) == [table[target(j)] for j in comma]

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
        assert selections(fn, i, lam, [0.0]) == [first]
        assert plus_fitnesses(fn, i, lam, [0.0]) == [fn.level_table()[target(first)]]

    @pytest.mark.parametrize("lam", [1, 2, 3])
    @pytest.mark.parametrize(
        "spec, parent",
        [
            ("twomax", [1, 0, 1, 0, 0]),
            ("jump:2", [1, 1, 1, 0, 0]),
            ("cliff:2", [1, 1, 0, 0, 0]),
            ("ridge", [1, 1, 0, 0, 0]),
            ("ridge", [0, 1, 0, 0]),
            ("ridge", [1, 0, 1, 0, 0]),  # two flips off the ridge: k=2 rejection can land on it
            ("ridge", [0, 0, 0, 0, 0]),  # on the ridge, as [1, 1, 0, 0, 0] is: the exact law
            ("ridge", [1, 1, 1, 1, 0]),
        ],
    )
    def test_selected_genotype_matches_exact_law(self, spec, parent, lam):
        # level functions through the per-bit reference, ridge through the
        # run loop with the sampler run() ships for it
        n = len(parent)
        fn = FitnessFunction.parse(spec, n)
        law = exact_selection_law(fn, parent, lam)
        assert abs(sum(law.values()) - 1.0) < 1e-12
        bits = list(parent)
        ones, f = sum(parent), raw(fn, parent)
        rng = np.random.default_rng((n, lam, sum(map(ord, spec))))
        if fn.level_based:
            sample = _offspring_sampler(fn, bits, rng)
        else:
            gen = Generation(fn, COMMA, rng)
        trials = 50_000
        counts = Counter()
        for _ in range(trials):
            if fn.level_based:
                bf, child_ones, flips = sample(lam, ones, f)
                child = child_of(parent, flips)
                assert bits == parent
            else:
                bf, child_ones, *_, child = gen.step(parent, lam)
            assert child_ones == sum(child) and bf == raw(fn, child)
            counts[tuple(child)] += 1
        assert set(counts) <= set(law)
        for geno, p in law.items():
            se = math.sqrt(p * (1.0 - p) / trials)
            assert abs(counts[geno] / trials - p) <= 5 * se + 1e-4, (geno, counts[geno], p)


def one_child_law(fn, parent) -> dict:
    """One standard-bit mutant's genotype law, every flip mask enumerated."""
    n, law = len(parent), defaultdict(float)
    for mask in itertools.product((0, 1), repeat=n):
        law[tuple(b ^ m for b, m in zip(parent, mask))] += (
            (1.0 / n) ** sum(mask) * (1.0 - 1.0 / n) ** (n - sum(mask)))
    return law


def value_level_law(fn, parent, lam) -> dict:
    """The selected child's genotype law at any lam: the best value V of
    lam children has P(V <= v) = C(v)^lam, C one child's value CDF, and
    given V = v the child follows one child's genotype law given its
    value.  C(v)^lam is exp(lam * log1p(-tail)), tail the mass above v."""
    one = one_child_law(fn, parent)
    mass = defaultdict(float)
    for child, p in one.items():
        mass[raw(fn, list(child))] += p
    values = sorted(mass)
    power = {v: math.exp(lam * math.log1p(-math.fsum(mass[w] for w in values[k + 1:])))
             for k, v in enumerate(values)}
    below = dict(zip(values, [0.0] + [power[v] for v in values[:-1]]))
    return {child: (power[v] - below[v]) * p / mass[v]
            for child, p in one.items() for v in [raw(fn, list(child))]}


class CountingGenerator:
    """A numpy generator that counts every value it hands out, and the
    flip counts among them."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = self.flip_counts = 0

    def binomial(self, n, p, size):
        self.drawn += size
        self.flip_counts += size
        return self.rng.binomial(n, p, size=size)

    def integers(self, low, high, size):
        self.drawn += size
        return self.rng.integers(low, high, size=size)

    def random(self, size):
        self.drawn += size
        return self.rng.random(size)


class TestRidgeLaw:
    """The on-ridge path of ridge's sampler: parents 1^j 0^(n-j) draw the
    selected child from the exact law's rows from RIDGE_LAW_FROM children
    on."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_match_enumeration(self, n):
        # each entry's one-child mass (the row's lam = 1 law), keyed by
        # (one-count, value); pads are left out, as mass 0
        fn = FitnessFunction("ridge", n)
        for j in range(n + 1):
            want = defaultdict(float)
            for child, p in one_child_law(fn, with_ones(n, j)).items():
                want[sum(child), raw(fn, list(child))] += p
            block, r = _level_law(fn, j)
            ones, group, share, logcdf = block.level(r)
            masses = _power_pmf(logcdf, 1.0)[group] * share
            got = dict(zip(zip(ones.tolist(), block.fit[r, block.skip[r]:].tolist()),
                           masses.tolist()))
            assert len(got) == ones.size and abs(sum(got.values()) - 1.0) <= 1e-15, j
            for key in set(want) | set(got):
                assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= 1e-15, (j, key)
                assert (got.get(key, 0.0) == 0.0) == (want.get(key, 0.0) == 0.0), (j, key)

    @pytest.mark.parametrize("lam", [2, 4, 50, 10**4, LAMBDA_MAX])
    @pytest.mark.parametrize("n", [3, 8])
    def test_selected_genotype_matches_value_level_law(self, n, lam):
        fn = FitnessFunction("ridge", n)
        trials = 10_000
        for j in range(n + 1):
            parent = with_ones(n, j)
            law = value_level_law(fn, parent, lam)
            assert abs(sum(law.values()) - 1.0) < 1e-12
            gen = Generation(fn, COMMA, np.random.default_rng((n, j, lam % 2**32)))
            counts = Counter()
            for _ in range(trials):
                bf, child_ones, *_, child = gen.step(parent, lam)
                assert child_ones == sum(child) and bf == raw(fn, child)
                counts[tuple(child)] += 1
            assert {c for c in counts if law[c] == 0.0} == set(), j
            for geno, p in law.items():
                se = math.sqrt(p * (1.0 - p) / trials)
                assert abs(counts[geno] / trials - p) <= 5 * se + 1e-4, (j, geno, counts[geno], p)

    @pytest.mark.parametrize("lam", [1, RIDGE_LAW_FROM - 1, RIDGE_LAW_FROM, LAMBDA_MAX])
    def test_on_ridge_generation_does_not_grow_with_lambda(self, lam):
        # one generation from each parent on the ridge returns, draws flip
        # counts only below RIDGE_LAW_FROM (bit mutation), and draws at
        # most a bound set by n: one first block of each stream it uses
        n = 64
        fn = FitnessFunction("ridge", n)
        for j in range(n):
            rng = CountingGenerator(j)
            step = Generation(fn, COMMA, rng).step(with_ones(n, j), lam)
            assert step.fitness == raw(fn, step.bits), j
            assert (rng.flip_counts > 0) == (lam < RIDGE_LAW_FROM), (j, rng.flip_counts)
            assert rng.drawn <= 8 * n, (j, rng.drawn)


def off_ridge_law(fn, parent, lam) -> dict:
    """The engine's law of the selected child's (one-count, value) from
    a parent off the ridge at lam: every entry's log CDF from
    ``_off_ridge_logcdf``, differenced by ``_power_pmf``."""
    n, i = fn.n, sum(parent)
    block, r = _level_law(FitnessFunction("zeromax", n), i)
    row = block.row(r)
    js, above = _near_ridge(bytearray(parent), i, parent[:i].count(0), lam)
    logcdf = [_off_ridge_logcdf(row, js, above, g) for g in range(len(row[0]) + len(js))]
    law = defaultdict(float)
    for key, p in zip(zip(row[1] + list(js), row[3] + [n + j for j in js]),
                      _power_pmf(np.array(logcdf), float(lam)).tolist()):
        law[key] += p
    return law


def full_profile_law(fn, parent, lam) -> dict:
    """The reference: the (one-count, value) law of the selected child
    from a parent off the ridge with every ridge string of the window kept,
    from one child's masses (onemax's, less each ridge string's, and the
    ridge strings' own) through the oracle's ``_LawBlock``."""
    n, i, p = fn.n, sum(parent), 1.0 / fn.n
    ones = np.arange(i - CHILD_WINDOW, i + CHILD_WINDOW + 1)
    inside = (ones >= 0) & (ones <= n)
    q = _child_masses(n, np.array([i]))[0]
    d = np.array([sum((k < j) != b for k, b in enumerate(parent)) for j in np.clip(ones, 0, n)])
    on = np.where(inside, p**d * (1.0 - p) ** (n - d), 0.0)
    off = inside & (ones > 0) & (ones < n)
    block = _LawBlock(i, np.concatenate([ones, ones])[None],
                      np.concatenate([np.where(off, n - ones, -1), np.where(inside, n + ones, -1)])[None],
                      np.concatenate([np.where(off, q - on, 0.0), on])[None])
    at, group, share, logcdf = block.level(0)
    law = defaultdict(float)
    for key, m in zip(zip(at.tolist(), block.fit[0, block.skip[0]:].tolist()),
                      (_power_pmf(logcdf, float(lam))[group] * share).tolist()):
        law[key] += m
    return law


class FirstUniform:
    """A numpy generator whose first uniform is u and the rest random."""

    def __init__(self, u):
        self.u, self.rng = u, np.random.default_rng(0)

    def random(self, size):
        out = self.rng.random(size)
        if self.u is not None:
            out[0], self.u = self.u, None
        return out

    def integers(self, low, high, size):
        return self.rng.integers(low, high, size=size)


def off_ridge_parents(n, rng) -> list:
    """Parents off the ridge: a uniform string, a few one-bits (zeromax's
    climb ends at 0^n, a ridge string), and ridge strings 1^j 0^(n-j), j
    = 1 and n - 1, with one and two bits flipped."""
    uniform = rng.integers(0, 2, size=n).tolist()
    few = [0] * n
    for k in rng.choice(n, size=3, replace=False).tolist():
        few[k] = 1
    parents = [uniform, few]
    for j, flips in ((1, [n // 2]), (1, [n // 4, n - 2]), (n - 1, [n // 2]), (n - 1, [1, n - 1])):
        parent = with_ones(n, j)
        for k in flips:
            parent[k] ^= 1
        parents.append(parent)
    return [x for x in parents if raw(FitnessFunction("ridge", n), x) < n]


class TestOffRidgeLaw:
    """The off-ridge path of ridge's sampler: from RIDGE_LAW_FROM children
    on, a parent off the ridge draws the selected child from zeromax's row
    and the ridge strings within reach."""

    @pytest.mark.parametrize("lam", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rows_match_enumeration(self, n, lam):
        # every parent off the ridge; at n <= 5 every ridge string is in reach
        fn = FitnessFunction("ridge", n)
        for parent in map(list, itertools.product((0, 1), repeat=n)):
            if raw(fn, parent) >= n:
                continue
            want = defaultdict(float)
            for child, p in value_level_law(fn, parent, lam).items():
                want[sum(child), raw(fn, list(child))] += p
            got = off_ridge_law(fn, parent, lam)
            assert abs(sum(got.values()) - 1.0) <= 1e-15, parent
            for key in set(want) | set(got):
                assert abs(got[key] - want[key]) <= 1e-15, (parent, key, got[key], want[key])

    @pytest.mark.parametrize("lam", [RIDGE_LAW_FROM, 10**4, LAMBDA_MAX])
    def test_rows_match_the_full_window_law(self, lam):
        # at n = 100 the ridge strings out of reach move the law by less
        # than the resolution of one uniform: a uniform parent reads
        # zeromax's row alone, parents near the ridge some ridge strings
        fn = FitnessFunction("ridge", 100)
        for parent in off_ridge_parents(100, np.random.default_rng(lam % 2**32)):
            got, want = off_ridge_law(fn, parent, lam), full_profile_law(fn, parent, lam)
            for key in set(want) | set(got):
                assert abs(got[key] - want[key]) <= 1e-15, (parent, key, got[key], want[key])

    @pytest.mark.parametrize("lam", [RIDGE_LAW_FROM, 15, 50, 10**4, LAMBDA_MAX])
    @pytest.mark.parametrize("n", [3, 8])
    def test_selected_genotype_matches_value_level_law(self, n, lam):
        fn = FitnessFunction("ridge", n)
        trials = 10_000
        if n == 3:
            parents = [list(x) for x in itertools.product((0, 1), repeat=n) if raw(fn, list(x)) < n]
        else:
            parents = off_ridge_parents(n, np.random.default_rng(n))
        for parent in parents:
            law = value_level_law(fn, parent, lam)
            ones, f = sum(parent), raw(fn, parent)
            sample, _ = _ridge_sampler(fn, bytearray(parent), np.random.default_rng((n, f, lam % 2**32)))
            counts = Counter()
            for _ in range(trials):
                bf, child_ones, flips = sample(lam, ones, f)
                child = child_of(parent, flips)
                assert child_ones == sum(child) and bf == raw(fn, child)
                counts[tuple(child)] += 1
            assert {c for c in counts if law[c] == 0.0} == set(), parent
            for geno, p in law.items():
                se = math.sqrt(p * (1.0 - p) / trials)
                assert abs(counts[geno] / trials - p) <= 5 * se + 1e-4, (parent, geno, counts[geno], p)

    @pytest.mark.parametrize("lam", [RIDGE_LAW_FROM, 10**4, LAMBDA_MAX])
    def test_draw_is_the_first_entry_above_log_u(self, lam):
        # the sampler reads the ridge strings only when their mass may move
        # the draw off zeromax's entry; it still selects the first entry of
        # the full log CDF above log(u)/lam, at every entry's CDF^lam, next
        # to it, and at random u
        n = 100
        fn = FitnessFunction("ridge", n)
        rng = np.random.default_rng(lam % 2**32)
        for parent in off_ridge_parents(n, rng):
            i = sum(parent)
            block, r = _level_law(FitnessFunction("zeromax", n), i)
            row = block.row(r)
            js, above = _near_ridge(bytearray(parent), i, parent[:i].count(0), lam)
            logcdf = [_off_ridge_logcdf(row, js, above, g) for g in range(len(row[0]) + len(js))]
            keys = list(zip(row[3], row[1])) + [(n + j, j) for j in js]
            edges = [math.exp(lam * x) for x in logcdf[:-1]]
            us = {u for e in edges for u in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0)) if u < 1.0}
            for u in sorted(us | set(rng.random(200).tolist())):
                f, co = keys[bisect_right(logcdf, math.log(u) / lam if u else -math.inf)]
                got = _ridge_sampler(fn, bytearray(parent), FirstUniform(u))[0](lam, i, raw(fn, parent))[:2]
                # 1^n is the ridge string R_n even where R_n is out of reach
                assert got == (f, co) or (got, f, co) == ((2 * n, n), 0, n), (parent, u, got, f, co)

    def test_off_ridge_generation_does_not_grow_with_lambda(self):
        # at LAMBDA_MAX one generation from a parent off the ridge returns,
        # draws no flip count, and draws at most a bound set by n: one
        # first block of the stream that gives u and the layout
        n = 64
        fn = FitnessFunction("ridge", n)
        for seed in range(20):
            for parent in off_ridge_parents(n, np.random.default_rng(seed)):
                rng = CountingGenerator(seed)
                bf, child_ones, flips = _ridge_sampler(fn, bytearray(parent), rng)[0](
                    LAMBDA_MAX, sum(parent), raw(fn, parent))
                assert bf == raw(fn, child_of(parent, flips)), parent
                assert rng.flip_counts == 0 and rng.drawn <= 8 * n, (parent, rng.drawn)


class TestAmong:
    """The positions of a law-drawn layout: ``_among`` gives k distinct
    uniform positions of a parent's m b-bits by rejection from uniform
    positions while few tries are expected, else from the list of the
    b-bits (found one at a time when they are few), through a partial
    Fisher-Yates shuffle of its first k places, or of its first m - k
    places, the rest then being the draw."""

    @pytest.mark.parametrize("n, b, m, k", [
        (64, 1, 48, 2),  # many one-bits: rejection
        (64, 0, 16, 1),  # zero-bits: rejection
        (64, 0, 5, 2),  # few zero-bits, found one at a time; shuffle k places
        (64, 1, 4, 3),  # few one-bits; shuffle m - k places
        (64, 1, 30, 14),  # many one-bits, listed; shuffle k places
        (64, 0, 40, 30),  # many zero-bits, listed; shuffle m - k places
    ])
    def test_position_sets_are_uniform_k_subsets(self, n, b, m, k):
        # each b-bit lies in the set with probability k/m, and each pair of
        # them with k(k-1)/(m(m-1)); no position repeats or is not a b-bit
        rng = np.random.default_rng((n, b, m, k))
        ones = rng.permutation(n)[:m if b else n - m].tolist()
        bits = bytearray(n)
        for q in ones:
            bits[q] = 1
        at = [q for q in range(n) if bits[q] == b]
        assert len(at) == m
        uniforms = _stream(rng.random)
        spots = _stream(lambda size: rng.integers(0, n, size=size))
        trials = 20_000
        singles, pairs = Counter(), Counter()
        for _ in range(trials):
            got = _among(bits, spots, uniforms, b, k, m)
            assert len(set(got)) == k and all(bits[q] == b for q in got), got
            singles.update(got)
            pairs.update(itertools.combinations(sorted(got), 2))
        for counts, keys, p in ((singles, at, k / m),
                                (pairs, itertools.combinations(at, 2), k * (k - 1) / (m * (m - 1)))):
            se = math.sqrt(p * (1.0 - p) / trials)
            for key in keys:
                assert abs(counts[key] / trials - p) <= 5 * se + 1e-9, (key, counts[key], p)


class ScriptedGenerator:
    """Stands in for the bit-mutation sampler's generator: the flip counts
    and positions of the given flip sets, in order, padded with zero flips
    (and zero positions, which no padded count takes)."""

    def __init__(self, flip_sets):
        self.counts = [len(P) for P in flip_sets]
        self.positions = [p for P in flip_sets for p in P]

    def binomial(self, n, p, size):
        head, self.counts = self.counts[:size], self.counts[size:]
        return np.array(head + [0] * (size - len(head)))

    def integers(self, low, high, size):
        head, self.positions = self.positions[:size], self.positions[size:]
        return np.array(head + [0] * (size - len(head)))

    def random(self, size):
        return np.full(size, 0.5)


class TestScoring:
    @pytest.mark.parametrize("spec", ["ridge", "twomax"])
    def test_score_is_raw_from_bits_of_the_flipped_child(self, spec):
        # every parent of n <= 8 bits and every set of at most 4 flips
        # (59 380 children on each function)
        for n in range(1, 9):
            fn = FitnessFunction.parse(spec, n)
            flip_sets = [P for k in range(5) for P in itertools.combinations(range(n), k)]
            for parent in itertools.product((0, 1), repeat=n):
                sample = _offspring_sampler(fn, parent, ScriptedGenerator(flip_sets))
                ones, f = sum(parent), raw(fn, parent)
                for P in flip_sets:
                    bf, child_ones, flips = sample(1, ones, f)
                    assert (() if flips is None else (flips,) if type(flips) is int
                            else tuple(flips)) == P
                    child = child_of(parent, flips)
                    assert (bf, child_ones) == (raw(fn, child), sum(child)), (parent, P)


class TestGenerationComma:
    def test_level_generation_draws_one_first_block(self):
        # the run loop draws a level run's uniforms in blocks from 64 on,
        # each only when the last is used up: none before the first
        # generation, 64 for one, 64 + 128 for 65.  The digests cannot see
        # an eager _BLOCK: PCG64's stream does not depend on the block sizes
        fn = FitnessFunction("onemax", 100)
        for generations, drawn in ((0, {}), (1, {"random": 64}), (65, {"random": 64 + 128})):
            rng = RecordingGenerator(3)
            stop = StoppingCondition(max_generations=generations, stop_on_optimum=False)
            gens = _evolve(rng, None, None, None, 50, 50, 1.0, fn, COMMA, P, stop,
                           _Trace("summary", 0, 50))[1]
            assert gens == generations and rng.drawn == drawn, (generations, rng.drawn)

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
        p_plus = state_quantities(n, [i], [lam]).p_plus[0]
        se = math.sqrt(p_plus * (1 - p_plus) / trials)
        assert abs(improved / trials - p_plus) <= 3 * se

    def test_full_next_fitness_pmf_matches_oracle(self):
        n, i, lam = 12, 8, 2
        gen = Generation(FitnessFunction("onemax", n), COMMA, 321)
        trials = 60_000
        counts = np.zeros(n + 1)
        for _ in range(trials):
            counts[gen.step(with_ones(n, i), lam).fitness] += 1
        lo, law = selected_child_law(FitnessFunction("onemax", n), i, lam)
        pmf = np.zeros(n + 1)
        pmf[lo : lo + law.size] = law
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
