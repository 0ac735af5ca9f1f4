"""Benchmark function definitions, invariants and the selector interface.

Every value is scored the way ``run()`` scores it (see ``raw`` below).
"""

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from onelambda.fitness import FitnessFunction

bitlists = st.lists(st.integers(0, 1), min_size=1, max_size=40)


def bits_of(s: str) -> list:
    return [int(c) for c in s]


def all_points(n):
    for bits in itertools.product((0, 1), repeat=n):
        yield list(bits)


def raw(fn, bits) -> int:
    """Raw fitness of a bit list, scored as run() scores it: by the level
    table for level functions, by ``raw_from_bits`` for ridge."""
    ones = sum(bits)
    if fn.level_based:
        return int(fn.level_table()[ones])
    return fn.raw_from_bits(bits, ones)


def value(kind, bits, param=None):
    fn = FitnessFunction(kind, len(bits), param)
    return fn.display(raw(fn, bits))


# run()'s scoring of each benchmark, under the benchmark's name
one_max, zero_max, two_max, jump, cliff, ridge = (
    partial(value, kind) for kind in ("onemax", "zeromax", "twomax", "jump", "cliff", "ridge")
)


def reference_value(kind, bits, param=None):
    """Independent reference, written from the definitions in the
    ``onelambda.fitness`` docstring."""
    n, ones = len(bits), sum(bits)
    if kind == "onemax":
        return ones
    if kind == "zeromax":
        return n - ones
    if kind == "twomax":
        return max(ones, n - ones)
    if kind == "jump":
        return n - ones if n - param < ones < n else param + ones
    if kind == "cliff":
        return ones if ones <= param else ones - param + 0.5
    shape = "".join(map(str, bits)) == "1" * ones + "0" * (n - ones)
    return n + ones if shape else n - ones


class TestDefinitions:
    def test_one_max_examples(self):
        assert one_max([0] * 7) == 0
        assert one_max([1] * 5) == 5
        assert one_max(bits_of("10110")) == 3

    def test_zero_max_examples(self):
        assert zero_max([0] * 4) == 4
        assert zero_max([1] * 4) == 0
        assert zero_max(bits_of("1010")) == 2

    def test_two_max_examples(self):
        assert two_max(bits_of("1100")) == 2
        assert two_max(bits_of("1110")) == 3
        assert two_max([0] * 6) == 6

    def test_jump_examples(self):
        assert jump([1] * 8 + [0] * 2, 3) == 2   # inside the gap
        assert jump([1] * 10, 3) == 13           # optimum
        assert jump([1] * 5 + [0] * 5, 3) == 8   # slope

    def test_cliff_examples(self):
        assert cliff([1] * 3 + [0] * 7, 3) == 3
        assert cliff([1] * 4 + [0] * 6, 3) == 1.5
        assert cliff([1] * 10, 3) == 7.5

    def test_ridge_examples(self):
        assert ridge(bits_of("11000")) == 7
        assert ridge(bits_of("10100")) == 3
        assert ridge(bits_of("00000")) == 5  # 1^0 0^5 is on the ridge

    @given(bitlists)
    def test_one_plus_zero_is_n(self, bits):
        assert one_max(bits) + zero_max(bits) == len(bits)

    @given(bitlists)
    def test_two_max_is_max(self, bits):
        assert two_max(bits) == max(one_max(bits), zero_max(bits))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_ridge_exhaustive_against_shape_test(self, n):
        # brute-force shape test: value n+ones iff the string is 1^i 0^(n-i)
        for x in all_points(n):
            ones = sum(x)
            s = "".join(map(str, x))
            expected = n + ones if s == "1" * ones + "0" * (n - ones) else n - ones
            assert ridge(x) == expected

    @pytest.mark.parametrize("n", range(3, 13))
    def test_jump_cliff_agree_with_one_max_below_gap(self, n):
        k = max(1, n // 3)
        d = max(1, n // 3)
        for x in all_points(n):
            if sum(x) <= n - k:
                assert jump(x, k) == k + one_max(x)
            if sum(x) <= d:
                assert cliff(x, d) == one_max(x)

    def test_ridge_prefix_values(self):
        for n in range(2, 13):
            for i in range(n + 1):
                x = [1] * i + [0] * (n - i)
                assert ridge(x) == n + i


class TestFitnessFunctionInterface:
    def test_parse_round_trip(self):
        for spec in ("onemax", "zeromax", "twomax", "jump:3", "cliff:2", "ridge"):
            fn = FitnessFunction.parse(spec, 10)
            assert fn.spec_string == spec

    @pytest.mark.parametrize("spec", ["jump", "cliff", "jump:x", "nosuch", "onemax:3", "jump:0", "cliff:10"])
    def test_parse_rejects_invalid(self, spec):
        with pytest.raises(ValueError):
            FitnessFunction.parse(spec, 10)

    def test_evaluate_matches_module_functions(self):
        # run()'s scoring against this module's reference definitions
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 16))
            x = rng.integers(0, 2, size=n).tolist()
            k = int(rng.integers(1, n))
            for kind in ("onemax", "zeromax", "twomax", "ridge"):
                assert value(kind, x) == reference_value(kind, x)
            for kind in ("jump", "cliff"):
                assert value(kind, x, k) == reference_value(kind, x, k)

    def test_cliff_raw_scale_keeps_order_exact(self):
        fn = FitnessFunction("cliff", 10, 3)
        raws = [raw(fn, [1] * v + [0] * (10 - v)) for v in range(11)]
        vals = [reference_value("cliff", [1] * v + [0] * (10 - v), 3) for v in range(11)]
        assert all(isinstance(r, int) for r in raws)
        for a in range(11):
            for b in range(11):
                assert (raws[a] < raws[b]) == (vals[a] < vals[b])

    def test_optimum_values(self):
        def optimum(*args):
            fn = FitnessFunction(*args)
            return fn.display(fn.optimum_raw)

        assert optimum("onemax", 10) == 10
        assert optimum("zeromax", 10) == 10
        assert optimum("twomax", 10) == 10
        assert optimum("jump", 10, 3) == 13
        assert optimum("cliff", 10, 3) == 7.5
        assert optimum("ridge", 10) == 20

    def test_optimum_is_the_level_table_maximum(self):
        # the closed forms; cliff:d with d > n/2 peaks at the top of its first slope
        closed = {"onemax": lambda n, p: n, "zeromax": lambda n, p: n, "twomax": lambda n, p: n,
                  "jump": lambda n, k: n + k, "cliff": lambda n, d: max(2 * d, 2 * (n - d) + 1)}
        for n in range(1, 31):
            for kind in closed:
                for param in range(1, n) if kind in ("jump", "cliff") else (None,):
                    fn = FitnessFunction(kind, n, param)
                    assert fn.optimum_raw == max(fn.level_table()) == closed[kind](n, param), fn

    def test_is_optimum_by_value_not_pattern(self):
        # run() stops on raw fitness >= optimum_raw
        fn = FitnessFunction("twomax", 8)
        assert raw(fn, [1] * 8) >= fn.optimum_raw
        assert raw(fn, [0] * 8) >= fn.optimum_raw
        assert not raw(fn, [1, 0] * 4) >= fn.optimum_raw

    def test_zeromax_optimum_at_all_zeros(self):
        fn = FitnessFunction("zeromax", 6)
        assert raw(fn, [0] * 6) >= fn.optimum_raw
        assert not raw(fn, [1] * 6) >= fn.optimum_raw
