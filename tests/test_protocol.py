"""Permutations, parsing conventions, and the composition oracle."""

import sys

import pytest

from psfc.field import (
    is_prime,
    mat_vec_mul,
    sample_invertible_matrix,
    sample_uniform_vector,
    vec_ops,
)
from psfc.protocol import (
    InvalidPermutation,
    KTooLarge,
    Permutation,
    RunConfig,
    compose_reference,
    enumerate_permutations,
    random_permutation,
)
from psfc.rand import Rng


def test_permutation_validation():
    Permutation((1, 2, 3))
    with pytest.raises(InvalidPermutation):
        Permutation((1, 1, 3))
    with pytest.raises(InvalidPermutation):
        Permutation((0, 1, 2))
    with pytest.raises(InvalidPermutation):
        Permutation(())


def test_inverse_examples():
    assert Permutation((1, 2, 3, 4)).inverse() == Permutation((1, 2, 3, 4))
    # step->function map 1->2, 2->3, 3->1 inverts to 1->3, 2->1, 3->2
    assert Permutation((2, 3, 1)).inverse() == Permutation((3, 1, 2))
    # transpositions are involutions
    assert Permutation((2, 1, 3)).inverse() == Permutation((2, 1, 3))


def test_inverse_is_involution_exhaustive():
    for k in range(1, 7):
        for sigma in enumerate_permutations(k):
            assert sigma.inverse().inverse() == sigma


def test_inverse_composes_to_identity():
    for sigma in enumerate_permutations(4):
        pi = sigma.inverse()
        for k in range(1, 5):
            assert pi.mapping[sigma.mapping[k - 1] - 1] == k


def test_enumerate_permutations_order():
    assert [p.mapping for p in enumerate_permutations(1)] == [(1,)]
    assert [p.mapping for p in enumerate_permutations(2)] == [(1, 2), (2, 1)]
    assert len(enumerate_permutations(4)) == 24


def test_enumerate_permutations_is_one_shared_immutable_tuple():
    orders = enumerate_permutations(4)
    assert orders is enumerate_permutations(4)
    with pytest.raises(TypeError):
        orders[0] = Permutation((1, 2, 3, 4))


def test_enumerate_permutations_guard():
    with pytest.raises(KTooLarge):
        enumerate_permutations(9)
    with pytest.raises(KTooLarge):
        enumerate_permutations(0)


def test_paper_order_roundtrip():
    sigma = Permutation.from_paper_order((4, 3, 2, 1))
    # display "4,3,2,1" means step k applies function k
    assert sigma.mapping == (1, 2, 3, 4)
    assert sigma.to_paper_order() == (4, 3, 2, 1)
    assert Permutation.parse("4,3,2,1") == sigma
    assert str(sigma) == "(4 3 2 1)"


def test_parse_rejects_garbage():
    with pytest.raises(InvalidPermutation):
        Permutation.parse("1,x,3")
    with pytest.raises(InvalidPermutation):
        Permutation.parse("1,1,2")


def test_random_permutation_covers_group():
    rng = Rng(0)
    seen = {random_permutation(3, rng).mapping for _ in range(500)}
    assert len(seen) == 6


# -- compose_reference ------------------------------------------------------------


def test_compose_single_function():
    f = [((3,),)]
    assert compose_reference(f, Permutation((1,)), (2,), 5) == ((3 * 2) % 5,)


def test_compose_identity_order_applies_first_to_last():
    p = 7
    f1 = ((2,),)
    f2 = ((3,),)
    sigma = Permutation((1, 2))  # apply F1 then F2
    assert compose_reference([f1, f2], sigma, (1,), p) == ((2 * 3) % p,)


def test_compose_hand_example():
    # L=1, p=5, F1=[2], F2=[3], order (2 1): F2(F1 w) with w=4 gives 4
    f = [((2,),), ((3,),)]
    sigma = Permutation.from_paper_order((2, 1))
    assert compose_reference(f, sigma, (4,), 5) == (4,)


def test_compose_all_identity_returns_input():
    for k in range(1, 6):
        f = [((1, 0), (0, 1)) for _ in range(k)]
        for sigma in enumerate_permutations(k):
            assert compose_reference(f, sigma, (3, 1), 5) == (3, 1)


def test_compose_linearity():
    rng = Rng(9)
    p = 11
    f = [sample_invertible_matrix(2, p, rng) for _ in range(3)]
    add = vec_ops(2)(p, None)[1]
    for sigma in enumerate_permutations(3):
        u = sample_uniform_vector(2, p, rng)
        v = sample_uniform_vector(2, p, rng)
        left = compose_reference(f, sigma, add(u, v), p)
        right = add(compose_reference(f, sigma, u, p), compose_reference(f, sigma, v, p))
        assert left == right


def test_compose_matches_direct_matrix_chain():
    rng = Rng(10)
    p = 13
    f = [sample_invertible_matrix(3, p, rng) for _ in range(4)]
    w = sample_uniform_vector(3, p, rng)
    for sigma in enumerate_permutations(4):
        expected = w
        for func in sigma.mapping:
            expected = mat_vec_mul(f[func - 1], expected, p)
        assert compose_reference(f, sigma, w, p) == expected


def test_compose_reference_stays_pure_python(monkeypatch):
    # The oracle must not share the servers' float64 kernel: at a size where
    # servers use it, compose_reference runs with numpy unreachable, since
    # every `import numpy` and sys.modules lookup finds this stub instead.
    class NoNumpy:
        ndarray = type("NotAnArray", (), {})

        def __getattr__(self, name):
            raise AssertionError(f"compose_reference reached numpy.{name}")

    p, l = 2**31 - 1, 16
    rng = Rng(12)
    functions = [sample_invertible_matrix(l, p, rng) for _ in range(3)]
    w = sample_uniform_vector(l, p, rng)
    sigma = Permutation((2, 3, 1))
    expected = compose_reference(functions, sigma, w, p)
    monkeypatch.setitem(sys.modules, "numpy", NoNumpy())
    assert compose_reference(functions, sigma, w, p) == expected


# -- RunConfig ---------------------------------------------------------------------


def test_run_config_validation():
    good = dict(k=2, n=2, m=1, l=1, p=5, seed=0)
    RunConfig(**good)
    with pytest.raises(ValueError):
        RunConfig(k=0, n=2, m=1, l=1, p=5)
    with pytest.raises(ValueError):
        RunConfig(k=2, n=2, m=1, l=1, p=6)
    # A bool or float equal to a good value is refused too: unrefused,
    # m=True was written into the report JSON as the non-JSON token True,
    # and seed=1.5 was reported as 1.5 while the pads came from seed 1.
    for field, value in good.items():
        for bad in (bool(value), float(value)):
            with pytest.raises(ValueError, match="must be ints"):
                RunConfig(**{**good, field: bad})


def test_run_config_rejects_bad_moduli_after_a_prime_is_cached():
    p = 2**31 - 1
    RunConfig(k=2, n=2, m=1, l=1, p=p)
    hits = is_prime.cache_info().hits
    RunConfig(k=2, n=2, m=1, l=1, p=p)
    assert is_prime.cache_info().hits == hits + 1  # Miller-Rabin ran once for p
    for bad in (p * 3, 2**31 + 1, 2**61):
        with pytest.raises(ValueError):
            RunConfig(k=2, n=2, m=1, l=1, p=bad)
    assert not is_prime(p * 3) and not is_prime(2**31 + 1)
