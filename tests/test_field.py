"""Field arithmetic and linear algebra tests.

Derived expectations are computed by independent oracles kept inside
this file: a minor-expansion rank, an exhaustive GL(1, p) enumeration,
and direct axiom checks over random samples.
"""

import itertools

import pytest

from psfc.field import (
    DEFAULT_MODULUS,
    DimensionMismatch,
    InversionOfZero,
    PrimeModulus,
    ff_inv,
    is_prime,
    mat_vec_mul,
    rank,
    sample_invertible_matrix,
    sample_uniform_vector,
    vec_add,
    vec_sub,
)
from psfc.rand import Rng

PRIMES = [2, 3, 5, 7, DEFAULT_MODULUS]


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
        assert rank(vectors, 2) == _rank_by_minors(vectors, 2)


def test_rank_agrees_with_minor_oracle_sampled():
    rng = Rng(55)
    for p in (2, 3, 5):
        for l in (2, 3):
            for _ in range(40):
                vectors = [sample_uniform_vector(l, p, rng) for _ in range(l)]
                assert rank(vectors, p) == _rank_by_minors(vectors, p)


def test_rank_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        rank(((1, 2), (1, 2, 3)), 5)


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
