"""Prime-field arithmetic and small dense linear algebra over GF(p).

Values are Python ints in canonical form (reduced into [0, p) at every
operation boundary), vectors are tuples of ints and matrices tuples of
row tuples: overflow-free for any supported modulus, and safe to share
across threads.

A server converts each matrix once with `prepare_matrix`.  When p < 2^31
and L >= KERNEL_MIN_DIM, that is a float64 array of the transposed
matrix's b-bit limbs, and `mat_vec_mul` multiplies a vector, or a stack
of them, by every limb in one BLAS product, then reduces mod p once per
limb, after whole-row sums (delayed reduction, after Dumas, Giorgi and
Pernet, "Dense linear algebra over word-size prime fields: the FFLAS and
FFPACK packages", ACM TOMS 35(3), 2008).  b is the widest limb with
L (2^31 - 1)(2^b - 1) < 2^53 (16 bits up to L = 64), so every partial
sum is an integer a double holds exactly, whatever order or fused
multiply-adds the BLAS uses.  Smaller L, where numpy's per-call cost
outweighs the gain, and p >= 2^31 keep tuples; one vector's product is a
tuple of ints on either path.

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
    "SamplingExhausted",
    "is_prime",
    "ff_inv",
    "vec_add",
    "vec_sub",
    "prepare_matrix",
    "mat_vec_mul",
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
    """Multiplicative inverse via Fermat: a^(p-2) mod p, p prime."""
    if a % p == 0:
        raise InversionOfZero(f"0 has no inverse in GF({p})")
    return pow(a, p - 2, p)


# -- vector / matrix operations ----------------------------------------------


def vec_add(u: FieldVector, v: FieldVector, p: int) -> FieldVector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple([(a + b) % p for a, b in zip(u, v)])


def vec_sub(u: FieldVector, v: FieldVector, p: int) -> FieldVector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple([(a - b) % p for a, b in zip(u, v)])


def _kernel_applies(l: int, p: int) -> bool:
    return p < KERNEL_MAX_MODULUS and KERNEL_MIN_DIM <= l < KERNEL_MAX_DIM


def _limb_split(l: int, p: int) -> tuple[int, int]:
    """(b, n): the widest b with l (2^31 - 1)(2^b - 1) < 2^53, and n b-bit limbs < p."""
    b = 53 - 31 - (l - 1).bit_length()
    return b, -(-(p - 1).bit_length() // b)


def prepare_matrix(a: FieldMatrix, p: int) -> PreparedMatrix:
    """`a` in the form `mat_vec_mul` multiplies fastest by.

    Where the exact kernel applies, an (L x nL) float64 array whose j-th L
    columns are limb j of `a`'s transpose, most significant first.
    """
    if _kernel_applies(len(a), p):
        import numpy as np
        b, n = _limb_split(len(a), p)
        t = np.array(a, dtype=np.int64).T
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
