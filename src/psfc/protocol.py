"""Composition orders, protocol records, and the ground-truth oracle.

A composition order is a permutation of the function indices [1..K].
Display convention everywhere (CLI, reports, demo tables): the order is
written right to left as (s_K ... s_1), i.e. the function applied FIRST
appears LAST in the displayed tuple.  Internally a Permutation stores
the map k -> s_k as a tuple indexed from position 1, which avoids
off-by-one churn when translating between the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .field import FieldMatrix, FieldVector, PrimeModulus, mat_vec_mul
from .rand import Rng

__all__ = [
    "InvalidPermutation",
    "KTooLarge",
    "MAX_ENUMERABLE_K",
    "Permutation",
    "enumerate_permutations",
    "random_permutation",
    "compose_reference",
    "MarginalQueryList",
    "RunConfig",
    "json_array",
]

MAX_ENUMERABLE_K = 8


class InvalidPermutation(ValueError):
    """Sequence is not a bijection on [1..K]."""


class KTooLarge(ValueError):
    """K exceeds the factorial enumeration guard."""


@dataclass(frozen=True)
class Permutation:
    """The map k -> s_k; mapping[k-1] is the function applied at step k."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        k = len(self.mapping)
        if k == 0 or sorted(self.mapping) != list(range(1, k + 1)):
            raise InvalidPermutation(f"not a bijection on [1..{k}]: {self.mapping}")

    @property
    def size(self) -> int:
        return len(self.mapping)

    def inverse(self) -> "Permutation":
        """The unique pi with pi[s_k] = k for all k."""
        inv = [0] * len(self.mapping)
        for step, func in enumerate(self.mapping, start=1):
            inv[func - 1] = step
        return Permutation(tuple(inv))

    def to_paper_order(self) -> tuple[int, ...]:
        """Right-to-left display order (s_K, ..., s_1)."""
        return tuple(reversed(self.mapping))

    @classmethod
    def from_paper_order(cls, values) -> "Permutation":
        return cls(tuple(reversed(tuple(values))))

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(1, k + 1)))

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse a comma-separated display-order string, e.g. "4,3,2,1"."""
        try:
            values = tuple(int(x) for x in text.split(","))
        except ValueError as exc:
            raise InvalidPermutation(f"cannot parse order string {text!r}") from exc
        return cls.from_paper_order(values)

    def __str__(self) -> str:
        return "(" + " ".join(str(v) for v in self.to_paper_order()) + ")"


@lru_cache(maxsize=MAX_ENUMERABLE_K)
def enumerate_permutations(k: int) -> tuple[Permutation, ...]:
    """All K! orders, lexicographic in the internal map sequence.

    The enumeration order is fixed and independent of everything else;
    the fallback scheme relies on that to stay order-blind.  Built once
    per K and shared: a tuple of frozen Permutations, so no caller can
    change what later calls see.
    """
    if not 1 <= k <= MAX_ENUMERABLE_K:
        raise KTooLarge(f"permutation enumeration supports 1 <= K <= {MAX_ENUMERABLE_K}, got {k}")
    return tuple(Permutation(m) for m in itertools.permutations(range(1, k + 1)))


def random_permutation(k: int, rng: Rng) -> Permutation:
    values = list(range(1, k + 1))
    rng.shuffle(values)
    return Permutation(tuple(values))


def compose_reference(
    functions: list[FieldMatrix], sigma: Permutation, w: FieldVector, p: int
) -> FieldVector:
    """Brute-force sequential application F_{s_K}(...(F_{s_1} w)).

    This is the ground-truth oracle for every correctness check: it
    multiplies matrices directly, which the protocol client never does.
    """
    out = w
    for func in sigma.mapping:
        out = mat_vec_mul(functions[func - 1], out, p)
    return out


# -- protocol records ---------------------------------------------------------


class MarginalQueryList:
    """One server's entire view, in arrival order, as two columns;
    `entries` is the (function, input) list built from them."""

    __slots__ = ("server", "functions", "inputs")

    def __init__(self, server: int, entries=()):
        self.server = server
        self.functions: list[int] = [function for function, _ in entries]
        self.inputs: list[FieldVector] = [w for _, w in entries]

    @property
    def entries(self) -> list[tuple[int, FieldVector]]:
        return list(zip(self.functions, self.inputs))

    def __len__(self) -> int:
        return len(self.functions)


def json_array(values) -> str:
    """`values` as the JSON array json.dumps writes with no whitespace."""
    return "[" + ",".join(map(str, values)) + "]"


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one protocol run; the seed fixes all randomness."""

    k: int
    n: int
    m: int
    l: int
    p: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.n < 1 or self.m < 1 or self.l < 1:
            raise ValueError("k, n, m, l must all be >= 1")
        PrimeModulus(self.p)
