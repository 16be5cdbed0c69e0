"""Field arithmetic and linear algebra tests.

Derived expectations are computed by independent oracles kept inside
this file: a minor-expansion rank, an exhaustive GL(1, p) enumeration,
and direct axiom checks over random samples.  The float64 mat-vec
kernel is checked against the pure-Python path, which is its reference.
`echelon` has two representations of one Gauss-Jordan elimination,
Python ints and int64 arrays (for p < 2^31 and inputs of at least
KERNEL_MIN_DIM^2 entries); the tests force each in turn, check both
against the minor oracle, and require byte-identical bases.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psfc import field
from psfc.field import (
    DEFAULT_MODULUS,
    KERNEL_MAX_DIM,
    KERNEL_MIN_DIM,
    DimensionMismatch,
    InversionOfZero,
    PrimeModulus,
    _echelon_int64,
    _echelon_python,
    _limb_split,
    echelon,
    ff_inv,
    is_prime,
    mat_vec_mul,
    prepare_matrix,
    rank,
    sample_invertible_matrix,
    sample_uniform_vector,
    vec_add,
    vec_sub,
)
from psfc.rand import Rng

PRIMES = [2, 3, 5, 7, DEFAULT_MODULUS]
# Fixed seed and bounded example counts keep these tests deterministic and fast.
PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)
KERNEL_PRIMES = (2, 3, 2**31 - 1)
ECHELON_PRIMES = (2, 3, 5, 2**31 - 1)


# -- primality and modulus validation -----------------------------------------


def test_is_prime_small():
    primes_below_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes_below_50)


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**31)
    assert not is_prime((2**31 - 1) * 3)


def test_prime_modulus_accepts_primes():
    for p in PRIMES:
        assert int(PrimeModulus(p)) == p


def test_prime_modulus_rejects_bad_values():
    for bad in (0, 1, 4, 9, 2**61, 2**62 + 1, -7):
        with pytest.raises(ValueError):
            PrimeModulus(bad)


# -- scalar ops -----------------------------------------------------------------


def test_ff_inv_examples():
    assert ff_inv(1, 7) == 1
    assert ff_inv(2, 5) == 3
    assert ff_inv(4, 7) == 2


def test_ff_inv_zero_raises():
    with pytest.raises(InversionOfZero):
        ff_inv(0, 5)


def test_field_axioms_random_sampling():
    # Multiplicative inverses over the audit primes and the production
    # modulus, on random samples.
    rng = Rng(101)
    for p in PRIMES:
        for _ in range(50):
            a = rng.randrange(1, p)
            assert a * ff_inv(a, p) % p == 1
            assert ff_inv(ff_inv(a, p), p) == a


# -- vectors and matrices ---------------------------------------------------------


def test_mat_vec_mul_examples():
    assert mat_vec_mul(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 2, 3), 5) == (1, 2, 3)
    assert mat_vec_mul(((1, 2), (3, 4)), (0, 0), 5) == (0, 0)
    assert mat_vec_mul(((1, 2), (3, 4)), (1, 1), 5) == (3, 2)


def test_mat_vec_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mat_vec_mul(((1, 2), (3, 4)), (1, 2, 3), 5)
    with pytest.raises(DimensionMismatch):
        mat_vec_mul(np.ones((16, 16), dtype=np.int64), (1,) * 15, 5)


def test_mat_vec_linearity():
    # The property the whole decoding strategy leans on.
    rng = Rng(7)
    for p in (5, DEFAULT_MODULUS):
        for _ in range(30):
            a = sample_invertible_matrix(3, p, rng)
            u = sample_uniform_vector(3, p, rng)
            v = sample_uniform_vector(3, p, rng)
            left = mat_vec_mul(a, vec_add(u, v, p), p)
            right = vec_add(mat_vec_mul(a, u, p), mat_vec_mul(a, v, p), p)
            assert left == right


def test_vec_add_sub_roundtrip():
    rng = Rng(8)
    for p in (3, 11):
        u = sample_uniform_vector(4, p, rng)
        v = sample_uniform_vector(4, p, rng)
        assert vec_sub(vec_add(u, v, p), v, p) == u
    with pytest.raises(DimensionMismatch):
        vec_add((1, 2), (1, 2, 3), 5)


# -- rank: independent minor-expansion oracle --------------------------------------


def _det_minor_expansion(mat, p):
    n = len(mat)
    if n == 1:
        return mat[0][0] % p
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * mat[0][j] * _det_minor_expansion(minor, p)
    return total % p


def _rank_by_minors(vectors, p):
    """Largest r with a nonzero r x r minor; independent of elimination."""
    rows = [list(v) for v in vectors]
    n, dim = len(rows), len(rows[0])
    for r in range(min(n, dim), 0, -1):
        for row_idx in itertools.combinations(range(n), r):
            for col_idx in itertools.combinations(range(dim), r):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                if _det_minor_expansion(sub, p) != 0:
                    return r
    return 0


def test_rank_examples():
    assert rank(tuple(tuple(int(i == j) for j in range(4)) for i in range(4)), 5) == 4
    assert rank(((0, 0), (0, 0)), 3) == 0
    assert rank(((1, 2), (1, 2)), 5) == 1
    assert rank((), 5) == 0


def test_rank_agrees_with_minor_oracle_exhaustive_l2_p2():
    for entries in itertools.product(range(2), repeat=4):
        vectors = (entries[:2], entries[2:])
        expected = _rank_by_minors(vectors, 2)
        assert rank(vectors, 2) == expected
        assert len(_echelon_python(vectors, 2)) == len(_echelon_int64(vectors, 2)) == expected


def test_rank_agrees_with_minor_oracle_sampled():
    rng = Rng(55)
    for p in (2, 3, 5):
        for l in (2, 3):
            for _ in range(40):
                vectors = [sample_uniform_vector(l, p, rng) for _ in range(l)]
                expected = _rank_by_minors(vectors, p)
                assert rank(vectors, p) == expected
                assert len(_echelon_python(vectors, p)) == expected
                assert len(_echelon_int64(vectors, p)) == expected


def test_rank_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        rank(((1, 2), (1, 2, 3)), 5)
    with pytest.raises(DimensionMismatch):
        echelon([(1,) * 81, (1,) * 80], 5)


def test_echelon_examples():
    assert echelon(((2, 4, 1), (1, 2, 0)), 5) == ((1, 2, 0), (0, 0, 1))
    assert echelon(((0, 0), (0, 3)), 7) == ((0, 1),)
    assert echelon(((6, 8), (-1, 5)), 5) == ((1, 0), (0, 1))  # residues of any int
    assert echelon((), 5) == () and echelon(((), ()), 5) == ()


@pytest.mark.parametrize(
    "rows, dim, p, int64",
    [
        (3, 10, 2, False),  # the rank-decay shapes are short and wide
        (2, 8, 5, False),
        (8, 10, 2**31 - 1, False),  # 80 entries, one short of KERNEL_MIN_DIM^2
        (9, 9, 2**31 - 1, True),  # every square matrix the mat-vec kernel prepares
        (64, 64, 2, True),
        (1, 81, 3, True),
        (64, 64, 2**61 - 1, False),  # products of residues would pass 2^63
    ],
)
def test_echelon_size_rule(monkeypatch, rows, dim, p, int64):
    calls = []
    monkeypatch.setattr(field, "_echelon_int64", lambda v, p: calls.append(p) or ())
    echelon([(1,) * dim] * rows, p)
    assert bool(calls) == int64


# -- the exact kernels against the pure-Python path -------------------------------------


def _matrix(rows, cols, p, seed, fill):
    """A seeded uniform matrix, or one with every entry equal to `fill`."""
    if fill is not None:
        return tuple((fill,) * cols for _ in range(rows))
    rng = Rng(seed)
    return tuple(tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows))


@PROPERTY
@given(
    p=st.sampled_from(KERNEL_PRIMES),
    l=st.integers(1, 100),
    seed=st.integers(0, 2**32),
    worst=st.booleans(),
)
def test_kernel_mat_vec_matches_python_path(p, l, seed, worst):
    # L up to 100 covers the 16-bit limbs (L <= 64) and narrower ones.
    a = _matrix(l, l, p, seed, p - 1 if worst else None)
    w = _matrix(1, l, p, seed + 1, p - 1 if worst else None)[0]
    prepared = prepare_matrix(a, p)
    assert isinstance(prepared, np.ndarray) == (l >= KERNEL_MIN_DIM)
    got = mat_vec_mul(prepared, w, p)
    assert got == mat_vec_mul(a, w, p)
    assert all(type(x) is int for x in got)
    if l >= KERNEL_MIN_DIM:
        stack = np.array([w, (p - 1,) * l, (0,) * l], dtype=np.int64)
        expected = [list(mat_vec_mul(a, v, p)) for v in stack.tolist()]
        assert mat_vec_mul(prepared, stack, p).tolist() == expected


def test_kernel_row_sum_bound_at_largest_dimension():
    # One row of the widest supported matrix in prepared form (a column
    # per limb, most significant first), every limb at its largest, times
    # the largest canonical vector, alone and stacked: the largest partial
    # sums the limb split can produce.  The limb width is the widest that
    # keeps them below 2^53.
    p = 2**31 - 19
    l = KERNEL_MAX_DIM - 1
    b, n = _limb_split(l, p)
    assert l * (2**31 - 1) * (2**b - 1) < 2**53 <= l * (2**31 - 1) * (2 ** (b + 1) - 1)
    top = (p - 1).bit_length() - b * (n - 1)
    a = np.array([[2**top - 1] + [2**b - 1] * (n - 1)] * l, dtype=np.float64)
    expected = (2**31 - 1) * (p - 1) * l % p
    assert mat_vec_mul(a, (p - 1,) * l, p) == (expected,)
    stack = np.full((3, l), p - 1, dtype=np.int64)
    assert mat_vec_mul(a, stack, p).tolist() == [[expected]] * 3


@pytest.mark.parametrize("p", [2**32 - 5, 2**61 - 1])
@pytest.mark.parametrize("l", [1, KERNEL_MIN_DIM, 64])
def test_prepare_matrix_keeps_tuples_above_int64_bound(p, l):
    a = _matrix(l, l, p, 9, None)
    assert prepare_matrix(a, p) is a


def _deficient(p, rows, dim, deficit, seed, worst):
    """Rows past `rows - deficit` are combinations of earlier ones, so
    singular inputs are common, not only at p = 2."""
    vectors = [list(v) for v in _matrix(rows, dim, p, seed, p - 1 if worst else None)]
    rng = Rng(seed + 1)
    for i in range(max(1, rows - deficit), rows):
        c = [rng.randrange(p) for _ in range(i)]
        vectors[i] = [sum(c[j] * vectors[j][col] for j in range(i)) % p for col in range(dim)]
    return vectors


DEFICIENT = dict(
    p=st.sampled_from(ECHELON_PRIMES),
    rows=st.integers(1, 64),
    dim=st.integers(1, 64),
    deficit=st.integers(0, 8),
    seed=st.integers(0, 2**32),
    worst=st.booleans(),
)


@PROPERTY
@given(**DEFICIENT)
def test_echelon_int64_matches_python_path(p, rows, dim, deficit, seed, worst):
    vectors = _deficient(p, rows, dim, deficit, seed, worst)
    basis = _echelon_python(vectors, p)
    assert _echelon_int64(vectors, p) == basis
    assert echelon(vectors, p) == basis
    assert rank(vectors, p) == len(basis)
    assert all(type(x) is int for row in basis for x in row)


@PROPERTY
@given(**DEFICIENT)
def test_echelon_is_a_canonical_basis(p, rows, dim, deficit, seed, worst):
    vectors = _deficient(p, rows, dim, deficit, seed, worst)
    basis = echelon(vectors, p)
    assert echelon(basis, p) == basis  # idempotent
    assert rank(vectors + [list(b) for b in basis], p) == len(basis)  # inside the span
    # Another basis of the same span, from an invertible recombination of the rows.
    g = sample_invertible_matrix(rows, p, Rng(seed + 2))
    mixed = [[sum(c * v[col] for c, v in zip(gi, vectors)) % p for col in range(dim)] for gi in g]
    assert echelon(mixed, p) == basis


# -- sampling ---------------------------------------------------------------------


def test_sample_uniform_vector_shape_and_determinism():
    v = sample_uniform_vector(3, 5, Rng(1))
    assert len(v) == 3 and all(0 <= x < 5 for x in v)
    assert sample_uniform_vector(3, 5, Rng(1)) == v


def test_sample_uniform_vector_frequency():
    rng = Rng(2)
    draws = [sample_uniform_vector(1, 2, rng)[0] for _ in range(20_000)]
    freq = sum(draws) / len(draws)
    assert abs(freq - 0.5) < 0.02


@PROPERTY
@given(
    p=st.sampled_from([2, 3, 5, 2**31 - 1, 2**32 - 5, 2**61 - 1]),
    count=st.integers(0, 70),
    seed=st.integers(0, 2**64 - 1),
)
def test_sample_uniform_vector_is_the_randrange_stream(p, count, seed):
    # The sampler's definition: randrange(p)'s stream on CPython 3.10 and 3.11,
    # drawn in rounds, so it must end in the same generator state too.
    rng, reference = Rng(seed), random.Random(seed)
    expected = tuple(reference.randrange(p) for _ in range(count))
    assert sample_uniform_vector(count, p, rng) == expected
    assert rng._r.getstate() == reference.getstate()


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("l", [1, 2, 9, 64])
def test_sample_invertible_matrix_equals_per_element_draws(l, p):
    # The reference draws each candidate's entries one randrange at a time.
    rng, reference = Rng(l * p), random.Random(l * p)
    while True:
        m = tuple(tuple(reference.randrange(p) for _ in range(l)) for _ in range(l))
        if len(_echelon_python(m, p)) == l:
            break
    assert sample_invertible_matrix(l, p, rng) == m
    assert rng._r.getstate() == reference.getstate()


def test_sample_invertible_always_full_rank():
    rng = Rng(3)
    for p in (2, 3, DEFAULT_MODULUS):
        for l in (1, 2, 3):
            m = sample_invertible_matrix(l, p, rng)
            assert rank(m, p) == l


def test_sample_invertible_gl_1_2_is_forced():
    rng = Rng(4)
    for _ in range(20):
        assert sample_invertible_matrix(1, 2, rng) == ((1,),)


def test_sample_invertible_gl_1_3_uniform():
    # GL(1, 3) = {1, 2}; chi-square against the uniform split at 1e5 draws.
    rng = Rng(5)
    trials = 100_000
    ones = sum(1 for _ in range(trials) if sample_invertible_matrix(1, 3, rng) == ((1,),))
    counts = [ones, trials - ones]
    expected = trials / 2
    stat = sum((c - expected) ** 2 / expected for c in counts)
    # 1 dof; 10.83 is the 0.001 critical value.
    assert stat < 10.83, f"chi-square {stat:.2f} over GL(1,3)"
