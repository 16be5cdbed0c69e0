"""Audit machinery tests at development scale.

The full-scale statistical runs (1e6 trials, 1e4 attack trials) live in
the acceptance suite; here each auditor is exercised at a size that
still has discriminating power, plus the structural corner cases.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from psfc.audit import (
    GuardExceeded,
    _batch_eval,
    _det_batch,
    _orders,
    _sample_invertible_batch,
    attack_campaign,
    converse_counts,
    fingerprint_invariance,
    naive_chain_run,
    rank_decay_experiment,
    rate_report,
    sigma_attack,
    uniformity_test,
)
from psfc.client import run_protocol
from psfc.field import DEFAULT_MODULUS
from psfc.protocol import MarginalQueryList, Permutation, RunConfig, enumerate_permutations
from psfc.rand import Rng
from psfc.runtime import Server, SimTransport, generate_functions, generate_inputs
from psfc.scheduler import build_plan


# -- fingerprint invariance -----------------------------------------------------


def test_fingerprint_invariance_k3_n2():
    res = fingerprint_invariance(3, 2, 2, seed=1)
    assert res.ok and res.exhaustive and res.n_sigmas == 6
    blocks = 2 + 3 - 1
    assert res.fingerprints[1] == (1, 3) * blocks
    assert res.fingerprints[2] == (2, 3) * blocks


def test_fingerprint_invariance_k4_n3():
    res = fingerprint_invariance(4, 3, 2, seed=2)
    assert res.ok
    blocks = 1 + 4 - 1
    for server in (1, 2, 3):
        assert res.fingerprints[server] == (server, server, 4) * blocks
    # One exchange per block, K-1 queries of it at each server.
    assert res.exchanges == {server: (3,) * blocks for server in (1, 2, 3)}


def test_exchange_sizes_invariant_across_orders():
    # A server sees how its queries arrive in exchanges, so the sizes, in
    # arrival order, must be the same for every order.
    for k in range(1, 5):
        for n in range(1, 5):
            for m in range(1, 6):
                res = fingerprint_invariance(k, n, m, seed=k * n * m)
                assert res.ok, (k, n, m, res.mismatches)
                plan = build_plan(k, n, m, Permutation.identity(k))
                assert sum(map(sum, res.exchanges.values())) == len(plan)


def test_exchange_size_check_fires_on_order_dependent_exchanges(monkeypatch):
    import psfc.audit as audit

    class Split:
        """Sends every query alone, except under the identity order."""

        def __init__(self, inner):
            self.inner = inner

        def query(self, rows):
            return [a for row in rows for a in self.inner.query([row])]

    def leaky_run(config, sigma, w, transport):
        if sigma != Permutation.identity(config.k):
            transport = Split(transport)
        return run_protocol(config, sigma, w, transport)

    monkeypatch.setattr(audit, "run_protocol", leaky_run)
    for k, n, m in ((3, 2, 2), (3, 1, 1)):  # blocks, and the fallback's levels
        res = fingerprint_invariance(k, n, m, seed=1)
        assert not res.ok
        assert all("exchange sizes" in line for line in res.mismatches)


def test_fingerprint_invariance_chain():
    res = fingerprint_invariance(2, 2, 3, seed=3)
    assert res.ok
    assert res.fingerprints[1] == (1, 1, 1)
    assert res.fingerprints[2] == (2, 2, 2)


def test_fingerprint_large_k_samples():
    res = fingerprint_invariance(7, 6, 1, seed=4)
    assert res.ok and not res.exhaustive


# -- uniformity -------------------------------------------------------------------


def test_uniformity_guard():
    with pytest.raises(GuardExceeded):
        uniformity_test(3, 2, 1, 7, 3, trials=100)  # 343 cells per slot


def test_uniformity_joint_cell_guard():
    with pytest.raises(GuardExceeded):
        uniformity_test(5, 2, 8, 3, 1, trials=100)  # 3^48 joint cells


def test_uniformity_samples_orders_beyond_budget():
    res = uniformity_test(5, 5, 1, 3, 1, trials=4_000, seed=40)
    assert res.sigmas_sampled and res.n_sigmas == 24
    assert res.chi2_all_pass(0.01)


def test_uniformity_small_scale():
    res = uniformity_test(3, 2, 1, 3, 1, trials=40_000, seed=6)
    assert res.slots_per_server == [6, 6]
    assert len(res.tv_cross) == 15 * 2  # sigma pairs x servers
    # At 4e4 trials the sampling noise floor is about 0.08; anything
    # near 1 would indicate an order-dependent view.
    assert res.max_tv_cross < 0.3
    assert res.chi2_all_pass(0.01)


def test_uniformity_fixed_functions_mode():
    res = uniformity_test(3, 2, 1, 3, 1, trials=40_000, seed=7, resample_f=False)
    assert not res.resample_f
    assert res.max_tv_cross < 0.3
    assert res.chi2_all_pass(0.01)


def test_uniformity_self_vs_cross_same_scale():
    # Identical-order TV (split halves) and cross-order TV estimate the
    # same zero; the halves carry sqrt(2) more noise.
    res = uniformity_test(3, 2, 1, 3, 1, trials=60_000, seed=8)
    assert res.max_tv_cross <= res.max_tv_self * 2.0


def _sample_invertible_whole_stack(k, l, p, t, nprng):
    """The reference sampler: every round re-tests the whole stack."""
    mats = nprng.integers(0, p, size=(k, t, l, l), dtype=np.int64)
    while True:
        bad = _det_batch(mats, p) == 0
        count = int(bad.sum())
        if not count:
            return mats
        mats[bad] = nprng.integers(0, p, size=(count, l, l), dtype=np.int64)


@pytest.mark.parametrize("k, l, p", [(3, 1, 3), (3, 2, 2), (2, 3, 2), (4, 2, 5)])
def test_invertible_sampler_matches_whole_stack_loop(k, l, p):
    t = 5_000
    for seed in range(3):
        ref_rng, nprng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _sample_invertible_whole_stack(k, l, p, t, ref_rng)
        mats = _sample_invertible_batch(k, l, p, t, nprng)
        assert mats.shape == (k, t, l, l) and mats.dtype == np.int64
        assert np.array_equal(mats, expected)
        # Both consumed the same draws, so the streams go on alike.
        assert nprng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
        # Entries below 5 and L <= 3 keep float determinants exact.
        dets = np.rint(np.linalg.det(mats.astype(np.float64))).astype(np.int64)
        assert np.all(dets % p != 0)


def test_batch_eval_matches_real_protocol():
    # Feeds the client's own pad stream to the numpy backend, one trial
    # wide; the per-server views must equal the real client/server run.
    for seed in range(12):
        k, n, m, p, l = (3, 2, 1, 3, 1) if seed % 2 else (4, 3, 2, 5, 2)
        sigma = enumerate_permutations(k)[seed % 6]
        config = RunConfig(k=k, n=n, m=m, l=l, p=p, seed=seed)
        functions = generate_functions(k, l, p, Rng(seed).child("functions"))
        w = generate_inputs(m, l, p, Rng(seed).child("inputs"))
        servers = [Server(i + 1, functions, p) for i in range(n)]
        run_protocol(config, sigma, w, SimTransport(servers))
        real_view = [[vec for _, vec in s.marginal.entries] for s in servers]

        randrange = Rng(seed).child("client").randrange
        per_server = _batch_eval(
            build_plan(k, n, m, sigma),
            [np.array(mat, dtype=np.int64) for mat in functions],
            np.array(w, dtype=np.int64)[:, None, :],
            lambda _mid: np.array([[randrange(p) for _ in range(l)]], dtype=np.int64),
            p,
            per_trial_f=False,
        )
        batch_view = [[tuple(int(x) for x in arr[0]) for arr in srv] for srv in per_server]
        assert batch_view == real_view, f"seed {seed}"


# -- attacker -----------------------------------------------------------------------


def test_attacker_decodes_planted_consecutive_pair():
    p = DEFAULT_MODULUS
    functions = generate_functions(3, 1, p, Rng(20).child("functions"))
    w = (1234567,)
    # A server that computed F1 on w and later received F2(F1 w) to run F3:
    # it can infer the order (3 2 1) exactly.
    from psfc.field import mat_vec_mul

    out1 = mat_vec_mul(functions[0], w, p)
    hidden = mat_vec_mul(functions[1], out1, p)
    marginal = MarginalQueryList(server=1, entries=[(1, w), (3, hidden)])
    guess = sigma_attack(marginal, functions, p, Rng(21))
    assert guess == Permutation((1, 2, 3))


def test_attacker_uninformed_guesses_uniformly():
    p = DEFAULT_MODULUS
    functions = generate_functions(3, 1, p, Rng(22).child("functions"))
    marginal = MarginalQueryList(server=1, entries=[(1, (5,)), (3, (99,))])
    rng = Rng(23)
    guesses = {sigma_attack(marginal, functions, p, rng).mapping for _ in range(200)}
    assert len(guesses) == 6


def test_attacker_guesses_from_one_shared_immutable_order_tuple():
    p = DEFAULT_MODULUS
    functions = generate_functions(3, 1, p, Rng(22).child("functions"))
    marginal = MarginalQueryList(server=1, entries=[(1, (5,)), (3, (99,))])
    orders = _orders(3)
    assert orders is _orders(3)
    guess = sigma_attack(marginal, functions, p, Rng(23))
    assert any(guess is order for order in orders)
    with pytest.raises(TypeError):
        orders[0] = Permutation((3, 2, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        guess.mapping = (3, 2, 1)
    assert _orders(3) == tuple(enumerate_permutations(3))
    assert sigma_attack(marginal, functions, p, Rng(23)) == guess


def test_attacker_k1_trivial():
    functions = generate_functions(1, 1, 5, Rng(24).child("functions"))
    marginal = MarginalQueryList(server=1, entries=[(1, (2,))])
    assert sigma_attack(marginal, functions, 5, Rng(25)) == Permutation((1,))


def test_naive_schedule_leaks_to_server_one():
    res = attack_campaign(3, 2, trials=300, seed=26, scheme="naive")
    assert res.per_server_rate[0] > 0.95
    assert res.best_rate > 0.9


def test_naive_schedule_leaks_across_two_hidden_steps():
    # K=4, N=3: server 1 holds steps 1 and 4 of the chain, two hidden
    # steps apart.  L=2, since 1x1 matrices commute and hide their order.
    res = attack_campaign(4, 3, trials=300, l=2, seed=0, scheme="naive")
    assert res.per_server_rate[0] == 1.0


def test_real_scheme_resists_attack():
    res = attack_campaign(3, 2, trials=1500, seed=27, scheme="real")
    assert res.within_uniform_band(), res.per_server_rate


def test_naive_run_computes_correct_composition():
    from psfc.protocol import compose_reference

    p = 101
    functions = generate_functions(3, 2, p, Rng(28).child("functions"))
    servers = [Server(i + 1, functions, p) for i in range(2)]
    sigma = Permutation.from_paper_order((3, 2, 1))
    w = (7, 13)
    result = naive_chain_run(sigma, servers, w, p)
    assert result == compose_reference(functions, sigma, w, p)


# -- rate and converse ------------------------------------------------------------------


def _report_for(k, n, m, seed=30, l=1, p=5):
    config = RunConfig(k=k, n=n, m=m, l=l, p=p, seed=seed)
    functions = generate_functions(k, l, p, Rng(seed).child("functions"))
    w = generate_inputs(m, l, p, Rng(seed).child("inputs"))
    servers = [Server(i + 1, functions, p) for i in range(n)]
    _, report = run_protocol(config, Permutation.identity(k), w, SimTransport(servers))
    return report


def test_rate_verdict_k4_n3():
    report = _report_for(4, 3, 2)  # M'=1: D = 36
    verdict = rate_report(report)
    assert verdict.measured == Fraction(8, 36)
    assert verdict.asymptotic_limit == Fraction(8, 9)
    assert verdict.lower_bound == Fraction(8, 9)
    assert verdict.upper_bound == 1 and verdict.ok


def test_rate_chain_is_one():
    report = _report_for(3, 3, 4)
    verdict = rate_report(report)
    assert verdict.measured == 1
    assert verdict.asymptotic_limit == 1
    assert verdict.gap == 0 and verdict.ok


def test_rate_k3_n2_limit():
    verdict = rate_report(_report_for(3, 2, 4))
    assert verdict.asymptotic_limit == Fraction(3, 4)
    assert verdict.measured == Fraction(3 * 4, 24)
    assert verdict.ok


def test_rate_single_function_single_server():
    verdict = rate_report(_report_for(1, 1, 3))
    assert verdict.measured == 1 and verdict.ok


def test_converse_counts_block_regime():
    report = _report_for(4, 3, 4)  # M'=2, blocks 5
    res = converse_counts(report)
    assert res.ok
    assert [d for _, d, _ in res.counts] == [10, 10, 10, 15]
    assert all(slack == d - 4 for _, d, slack in res.counts)


def test_converse_counts_chain_exact():
    res = converse_counts(_report_for(3, 5, 4))
    assert res.ok
    assert all(d == 4 for _, d, _ in res.counts)


def test_converse_counts_fallback():
    res = converse_counts(_report_for(3, 1, 2))
    assert res.ok
    assert all(d == 2 * 6 for _, d, _ in res.counts)


# -- rank decay -----------------------------------------------------------------------


def test_rank_decay_exact_tiny_case():
    # p=2, L=1, M=1: deficiency iff the single bit is zero, so the true
    # probability and the bound are both exactly 1/2.
    res = rank_decay_experiment(1, 1, 2, trials=20_000, seed=31)
    assert res.bound == 0.5
    assert abs(res.empirical - 0.5) < 0.02
    assert res.ok


def test_rank_decay_bound_configs():
    res = rank_decay_experiment(10, 3, 2, trials=20_000, seed=32)
    assert res.bound == 7 / 1024
    assert res.ok
    res = rank_decay_experiment(8, 2, 5, trials=20_000, seed=33)
    assert res.bound == 24 / (5**8 * 4)
    assert res.ok


def test_rank_decay_m_exceeds_l():
    res = rank_decay_experiment(2, 3, 5, trials=10, seed=34)
    assert res.certain and res.empirical == 1.0 and res.ok
