"""Pseudo-Boolean benchmark functions on fixed-length bit strings.

Six classic benchmarks behind one interface:

``onemax``
    Number of one-bits.
``zeromax``
    Number of zero-bits.
``twomax``
    max(one-bits, zero-bits); has two global optima (all-ones, all-zeros).
``jump:k``
    Slope ``k + |x|_1`` everywhere except a deceptive gap of width ``k - 1``
    just below the all-ones string, where the value drops to ``n - |x|_1``.
``cliff:d``
    Identity slope up to ``d`` one-bits, then a drop by ``d - 1/2`` followed
    by a second slope.  Values are half-integers above the cliff.
``ridge``
    ``n + |x|_1`` on strings of the form ``1^i 0^(n-i)``, else ``|x|_0``.

Cliff values live on a half-integer scale.  To keep fitness comparisons
exact, :class:`FitnessFunction` stores cliff values as doubled integers
(raw scale) and converts back for display.  All runs stop on reaching the
optimum *value* (``optimum_raw``), never on a hard-coded bit pattern, so
multi-optimum functions like twomax behave correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = ["FitnessFunction", "FUNCTION_KINDS"]

FUNCTION_KINDS = ("onemax", "zeromax", "twomax", "jump", "cliff", "ridge")


@dataclass(frozen=True)
class FitnessFunction:
    """One of the six benchmarks, with size metadata and an exact raw scale.

    Raw values are plain integers for five functions and doubled
    integers (2*f) for cliff, so strict-improvement comparisons never hit
    floating-point ties.  Use :meth:`display` to convert a raw value back
    to the conventional scale.
    """

    kind: str
    n: int
    param: int | None = None  # k for jump, d for cliff

    def __post_init__(self) -> None:
        if self.kind not in FUNCTION_KINDS:
            raise ValueError(f"unknown fitness function kind: {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind in ("jump", "cliff"):
            if self.param is None:
                raise ValueError(f"{self.kind} requires a parameter")
            if not 1 <= self.param < self.n:
                raise ValueError(
                    f"{self.kind} parameter must satisfy 1 <= p < n, "
                    f"got {self.param} with n={self.n}"
                )
        elif self.param is not None:
            raise ValueError(f"{self.kind} takes no parameter")

    # -- parsing ---------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, n: int) -> "FitnessFunction":
        """Parse a selector like ``\"onemax\"``, ``\"jump:3\"`` or ``\"cliff:5\"``;
        the constructor checks the kind and its parameter."""
        name, _, arg = spec.strip().lower().partition(":")
        try:
            param = int(arg) if arg else None
        except ValueError:
            raise ValueError(f"invalid {name} parameter: {arg!r}") from None
        return cls(name, n, param)

    @property
    def spec_string(self) -> str:
        if self.param is not None:
            return f"{self.kind}:{self.param}"
        return self.kind

    # -- evaluation ------------------------------------------------------

    @property
    def level_based(self) -> bool:
        """True when fitness depends on the one-bit count alone."""
        return self.kind != "ridge"

    def raw_from_ones(self, ones: int) -> int:
        """Raw fitness of any point with the given one-bit count.

        Undefined for ridge, whose value depends on the bit layout.
        """
        n, k = self.n, self.kind
        if k == "onemax":
            return ones
        if k == "zeromax":
            return n - ones
        if k == "twomax":
            return max(ones, n - ones)
        if k == "jump":
            if n - self.param < ones < n:
                return n - ones
            return self.param + ones
        if k == "cliff":
            if ones <= self.param:
                return 2 * ones
            return 2 * (ones - self.param) + 1
        raise ValueError("ridge fitness depends on the full bit string")

    def level_table(self) -> np.ndarray:
        """Raw fitness per one-bit count, as a read-only int64 array of
        size n+1, built once per function."""
        return _level_table(self)

    def shape_tables(self) -> tuple[list, list]:
        """Raw fitness per one-bit count of a string off and on the ridge
        shape 1^i 0^(n-i), as two lists of size n+1: ridge's n - i and
        n + i; both the level table for a level function."""
        if self.level_based:
            table = self.level_table().tolist()
            return table, table
        n = self.n
        return list(range(n, -1, -1)), list(range(n, 2 * n + 1))

    def raw_from_bits(self, bits, ones: int) -> int:
        """Raw fitness of a bit sequence (list or 1-d array) with ``ones`` one-bits."""
        if self.level_based:
            return self.raw_from_ones(ones)
        n = self.n
        if all(bits[:ones]) and not any(bits[ones:]):  # the ridge shape 1^ones 0^(n-ones)
            return n + ones
        return n - ones

    def display(self, raw: int | float) -> float | int:
        """Convert a raw value to the conventional scale."""
        if self.kind == "cliff":
            r = raw / 2.0
            return int(r) if r == int(r) else r
        return int(raw)

    # -- optimum ---------------------------------------------------------

    @cached_property
    def optimum_raw(self) -> int:
        """The largest raw value: the level table's maximum, or ridge's 2n
        at the all-ones string; computed on the first read and kept."""
        return int(_level_table(self).max()) if self.level_based else 2 * self.n


@lru_cache(maxsize=16)
def _level_table(fn: FitnessFunction) -> np.ndarray:
    table = np.array([fn.raw_from_ones(v) for v in range(fn.n + 1)], dtype=np.int64)
    table.setflags(write=False)
    return table
