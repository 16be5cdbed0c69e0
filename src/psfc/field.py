"""Prime-field arithmetic and small dense linear algebra over GF(p).

Values are Python ints in canonical form (reduced into [0, p) at every
operation boundary), vectors are tuples of ints and matrices tuples of
row tuples: overflow-free for any supported modulus, and safe to share
across threads.  `check_vectors` is the one rule for a vector taken in:
length L, and elements that are ints (not bools or floats) in [0, p).

Servers multiply through one of two kernels, and `prepare_matrix` is the
one place that picks between them from (L, p).  When p < 2^31 and
L >= KERNEL_MIN_DIM it makes a float64 array of the transposed matrix's
b-bit limbs, and `mat_vec_mul` multiplies a vector, or a stack of them,
by every limb in one BLAS product, then reduces mod p once per limb,
after whole-row sums (delayed reduction: Dumas, Giorgi and Pernet, ACM
TOMS 35(3), 2008).  b is the widest limb with L (2^31 - 1)(2^b - 1)
< 2^53, so every partial sum is an integer a double holds exactly,
whatever order the BLAS sums in.  Everywhere else the matrix stays a
tuple, and `row_kernel(L)` answers a batch in one loop of L unrolled
sums a row, compiled once per L, which admits just what `check_vectors`
admits.  Either way `prepare_matrix` refuses, by it, a bad matrix.

The client's pad draw, pad add and unmask are `vec_ops(L)`, unrolled
expressions compiled once per L.

`echelon` is the one row reduction; `rank` is its basis's length.  It
works on int64 arrays (products of residues stay below 2^62) when
p < 2^31 and the input has at least KERNEL_MIN_DIM^2 entries, as every
square matrix the kernel prepares has; short wide inputs stay Python
ints.  numpy loads with the first array, so tuple runs never load it.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING, Sequence, TypeAlias

if TYPE_CHECKING:  # annotations only: numpy loads where an array is made
    import numpy as np
    from .rand import Rng

__all__ = [
    "DEFAULT_MODULUS",
    "MAX_MODULUS",
    "InversionOfZero",
    "DimensionMismatch",
    "NonCanonicalElement",
    "SamplingExhausted",
    "is_prime",
    "ff_inv",
    "check_vectors",
    "prepare_matrix",
    "mat_vec_mul",
    "row_kernel",
    "rank",
    "echelon",
    "sample_uniform_vector",
    "sample_invertible_matrix",
]

FieldVector = tuple[int, ...]
FieldMatrix = tuple[tuple[int, ...], ...]
PreparedMatrix: TypeAlias = "FieldMatrix | np.ndarray"

DEFAULT_MODULUS = 2**31 - 1
MAX_MODULUS = 2**61  # exclusive upper bound for a supported modulus

# Witness set proven sufficient for deterministic Miller-Rabin below 3.3e24,
# comfortably covering the 2^61 bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

INVERTIBLE_REDRAW_CAP = 10_000

# The exact kernels run for p < KERNEL_MAX_MODULUS and KERNEL_MIN_DIM <= L
# < KERNEL_MAX_DIM, bounds that keep every partial sum exact; KERNEL_MIN_DIM
# is the measured L from which numpy's per-call overhead is repaid.
KERNEL_MAX_MODULUS = 2**31
KERNEL_MAX_DIM = 2**16
KERNEL_MIN_DIM = 9


class InversionOfZero(ZeroDivisionError):
    """Multiplicative inverse of 0 requested."""


class DimensionMismatch(ValueError):
    """Operands do not have compatible dimensions."""


class NonCanonicalElement(ValueError):
    """A vector or matrix holds an element outside [0, p)."""


class SamplingExhausted(RuntimeError):
    """Rejection sampling hit its redraw cap; indicates an internal bug."""


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n below 2^61.

    Results are cached per modulus, since every run config re-validates
    the same few moduli.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- scalar operations -------------------------------------------------------


def ff_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a mod a prime p, by pow(a, -1, p)."""
    if a % p == 0:
        raise InversionOfZero(f"0 has no inverse in GF({p})")
    return pow(a, -1, p)


# -- vector / matrix operations ----------------------------------------------


@lru_cache(maxsize=64)
def vec_ops(l: int):
    """`ops(p, randrange)`: (draw, add, sub) on GF(p)^L, one unrolled expression
    each.  `draw(_)` is L randrange(p) draws, left to right; `add` and `sub` are
    (x_j + z_j) mod p and (x_j - z_j) mod p for each j, and operands of another
    length raise DimensionMismatch.  Its source depends on L alone."""
    x, z = (", ".join(f"{v}{j}" for j in range(l)) + "," for v in "xz")
    namespace = {"DimensionMismatch": DimensionMismatch}
    exec("def ops(p, randrange):" + "".join(f"""
    def {name}(x, z):
        try:
            ({x}), ({z}) = x, z
        except ValueError:
            raise DimensionMismatch(f"operands of lengths {{len(x)}} and {{len(z)}}, not {l}") from None
        return ({"".join(f"(x{j} {op} z{j}) % p, " for j in range(l))})"""
        for name, op in (("add", "+"), ("sub", "-"))) + f"""
    return (lambda _: ({"randrange(p), " * l})), add, sub""", namespace)
    return namespace["ops"]


def _limb_split(l: int, p: int) -> tuple[int, int]:
    """(b, n): the widest b with l (2^31 - 1)(2^b - 1) < 2^53, and n b-bit limbs < p."""
    b = 53 - 31 - (l - 1).bit_length()
    return b, -(-(p - 1).bit_length() // b)


def check_vectors(vectors, l: int, p: int) -> None:
    """The one admission rule for field values: every vector has length `l`
    (else DimensionMismatch), and every element is an int, not a bool or a
    float, in [0, p) (else NonCanonicalElement).  The first bad vector raises."""
    for w in vectors:
        if len(w) != l:
            raise DimensionMismatch(f"vector of length {len(w)}, expected {l}")
        for x in w:
            if type(x) is not int or not 0 <= x < p:
                raise NonCanonicalElement(f"element {x!r} is not an int in [0, {p})")


def prepare_matrix(a: FieldMatrix, p: int) -> PreparedMatrix:
    """`a` in the form a server multiplies it by: where the float64 kernel
    applies, an (L x nL) float64 array whose j-th L columns are limb j of
    `a`'s transpose, most significant first; else `a`, for `row_kernel(L)`.

    Refuses a matrix that is not L x L for some L >= 1 (DimensionMismatch) or
    has an entry that is not an int in [0, p) (NonCanonicalElement).
    """
    l = len(a)
    if not l:
        raise DimensionMismatch("matrix of no rows")
    check_vectors(a, l, p)  # its rows, each of length L: square
    if p < KERNEL_MAX_MODULUS and KERNEL_MIN_DIM <= l < KERNEL_MAX_DIM:
        import numpy as np
        t = np.array(a, dtype=np.uint64).T
        b, n = _limb_split(l, p)
        limbs = [(t >> (b * j)) & ((1 << b) - 1) for j in reversed(range(n))]
        return np.concatenate(limbs, axis=1).astype(np.float64)
    return a


def mat_vec_mul(a: PreparedMatrix, w, p: int) -> FieldVector | np.ndarray:
    """Matrix-vector product over GF(p), of a tuple or prepared matrix.

    On a prepared array, `w` must be canonical and may be a 2-D stack of
    vectors; then so is the result.  No array exists before numpy loads."""
    if type(a) is not tuple and (np := sys.modules.get("numpy")) and isinstance(a, np.ndarray):
        x = np.asarray(w, dtype=np.float64)
        if x.shape[-1] != len(a):
            raise DimensionMismatch(f"matrix takes length {len(a)}, not {x.shape[-1]}")
        b, n = _limb_split(len(a), p)
        r = np.dot(x, a).astype(np.int64)  # np.dot dispatches faster than @
        rows = r.shape[-1] // n
        out = r[..., :rows] % p
        for j in range(rows, r.shape[-1], rows):
            out = ((out << b) + r[..., j : j + rows]) % p
        return out if x.ndim > 1 else tuple(out.tolist())
    if len(a[0]) != len(w):
        raise DimensionMismatch(f"matrix is {len(a)}x{len(a[0])}, vector has length {len(w)}")
    # A loop, not a comprehension: on CPython 3.11 a comprehension builds a
    # function and a frame per call, which costs more than L <= 3 products.
    out = []
    for row in a:
        out.append(sum(map(mul, row, w)) % p)
    return tuple(out)


@lru_cache(maxsize=64)
def row_kernel(l: int):
    """`kernel(matrices, functions, ws, p)`: [matrices[f] w mod p for each row
    (f, w)] in one loop with no call a row, or None at a row whose f is not an
    int key of `matrices` or that `check_vectors` refuses; its source depends on L alone."""
    w = [f"w{j}" for j in range(l)]
    a = [[f"a{i}_{j}" for j in range(l)] for i in range(l)]
    namespace: dict = {}
    exec(f"""def kernel(matrices, functions, ws, p):
    out, type_, int_ = [], type, int
    try:  # a KeyError is an unknown function, a ValueError a row of another length
        for f, ({', '.join(w)},) in zip(functions, ws):
            if not (type_(f) is int_ and {' and '.join(f'type_({x}) is int_ and 0 <= {x} < p' for x in w)}):
                return None
            ({''.join(f"({', '.join(r)},), " for r in a)}) = matrices[f]
            out.append(({''.join(f"({' + '.join(map('{} * {}'.format, r, w))}) % p, " for r in a)}))
    except (KeyError, ValueError):
        return None
    return out""", namespace)
    return namespace["kernel"]


def rank(vectors: Sequence[FieldVector], p: int) -> int:
    """Rank of the span of `vectors` over GF(p): the length of its echelon basis."""
    return len(echelon(vectors, p))


def echelon(vectors: Sequence[FieldVector], p: int) -> FieldMatrix:
    """Reduced row-echelon basis of the span of `vectors` over GF(p), by Gauss-Jordan:
    per column, the first unused row nonzero there is scaled to a leading 1 and
    clears the column in every other row.  Equal spans have equal bases."""
    if len(set(map(len, vectors))) > 1:
        raise DimensionMismatch("vectors have mixed dimensions")
    if p < KERNEL_MAX_MODULUS and sum(map(len, vectors)) >= KERNEL_MIN_DIM**2:
        return _echelon_int64(vectors, p)
    return _echelon_python(vectors, p) if vectors else ()


def _echelon_python(vectors, p: int) -> FieldMatrix:
    rows = list(vectors)
    r = 0
    for col in range(len(rows[0])):
        for i in range(r, len(rows)):
            if rows[i][col] % p:
                break
        else:
            continue
        inv = ff_inv(rows[i][col], p)
        rows[i], rows[r] = rows[r], tuple([x * inv % p for x in rows[i]])
        for j, other in enumerate(rows):
            if j != r and (f := other[col] % p):
                rows[j] = tuple([(x - f * y) % p for x, y in zip(other, rows[r])])
        r += 1
        if r == len(rows):
            break
    return tuple(rows[:r])


def _echelon_int64(vectors, p: int) -> FieldMatrix:
    import numpy as np
    a = np.array(vectors, dtype=np.int64) % p
    r = 0
    for col in range(a.shape[1]):
        nonzero = np.flatnonzero(a[r:, col])
        if not nonzero.size:
            continue
        a[[r, r + nonzero[0]]] = a[[r + nonzero[0], r]]
        row = a[r, col:] * ff_inv(int(a[r, col]), p) % p
        # Rows from r on are zero left of col, so only columns from col change.
        a[:, col:] = (a[:, col:] - a[:, col : col + 1] * row) % p
        a[r, col:] = row
        r += 1
    return tuple(map(tuple, a[:r].tolist()))


# -- sampling ----------------------------------------------------------------


def sample_uniform_vector(l: int, p: int, rng: Rng) -> FieldVector:
    """Uniform in GF(p)^l: getrandbits(p.bit_length()) redrawn while >= p, as randrange(p)
    on CPython 3.10-3.11; a round draws only what is missing, so the stream is the same."""
    elements: list[int] = []
    while len(elements) < l:
        elements += filter(p.__gt__, map(rng.getrandbits, [p.bit_length()] * (l - len(elements))))
    return tuple(elements)


def sample_invertible_matrix(l: int, p: int, rng: Rng) -> FieldMatrix:
    """Uniform draw from GL(l, p) by rejection from uniform matrices.

    Rejection preserves uniformity on the invertible subset.  The redraw
    cap is unreachable in practice (the singular fraction is at most
    ~71% even at p=2), so hitting it is an internal error.
    """
    for _ in range(INVERTIBLE_REDRAW_CAP):
        entries = sample_uniform_vector(l * l, p, rng)  # row-major
        m = tuple(entries[i : i + l] for i in range(0, l * l, l))
        if rank(m, p) == l:
            return m
    raise SamplingExhausted(
        f"no invertible {l}x{l} matrix over GF({p}) in {INVERTIBLE_REDRAW_CAP} draws"
    )
