"""Audit machinery tests at development scale.

The full-scale statistical runs (1e6 trials, 1e4 attack trials) live in
the acceptance suite; here each auditor is exercised at a size that
still has discriminating power, plus the structural corner cases.
"""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from psfc.audit import (
    GuardExceeded,
    _batch_eval,
    _residues,
    _sample_invertible_batch,
    _singular,
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
from psfc.field import DEFAULT_MODULUS, mat_vec_mul, sample_uniform_vector
from psfc.protocol import (
    MarginalQueryList, Permutation, RunConfig, enumerate_permutations, random_permutation,
)
from psfc.rand import Rng
from psfc.runtime import Server, SimTransport, generate_functions, generate_inputs
from psfc.scheduler import build_plan, run_plan


def _identity(k):
    """The order that applies F_1 first and F_K last."""
    return Permutation(tuple(range(1, k + 1)))


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
                plan = build_plan(k, n, m, _identity(k))
                assert sum(map(sum, res.exchanges.values())) == len(plan)


def test_exchange_size_check_fires_on_order_dependent_exchanges(monkeypatch):
    import psfc.audit as audit

    class Split:
        """Sends every query alone, except under the identity order."""

        def __init__(self, inner):
            self.inner = inner

        def query(self, servers, functions, xs):
            return [a for i in range(len(xs))
                    for a in self.inner.query(servers[i:i + 1], functions[i:i + 1], xs[i:i + 1])]

    def leaky_run(config, sigma, w, transport):
        if sigma != _identity(config.k):
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


def test_uniformity_guard_refuses_a_count_too_long_to_print():
    # 3^35280 joint cells at server 1: far past int-to-str's digit limit,
    # so the refusal states its reason in words, not the count.
    with pytest.raises(GuardExceeded, match="slots per server"):
        uniformity_test(7, 3, 1, 3, 1, trials=10)


def test_uniformity_guard_counts_allocated_entries():
    # 11^6 joint cells per server, but 6 orders x 2 halves x 2 servers of
    # them: 42.5 M int64 counts (340 MB).  The guard refuses the shape
    # before it allocates any count array.
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match="entries"):
            uniformity_test(3, 2, 1, 11, 1, trials=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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


def _det_mod_p(mats, p):
    """The reference determinant mod p of a (..., L, L) stack, L <= 3."""
    l = mats.shape[-1]
    if l == 1:
        return mats[..., 0, 0] % p
    if l == 2:
        return (mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]) % p
    a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 0, 2]
    d, e, f = mats[..., 1, 0], mats[..., 1, 1], mats[..., 1, 2]
    g, h, i = mats[..., 2, 0], mats[..., 2, 1], mats[..., 2, 2]
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def _sample_invertible_whole_stack(k, l, p, t, nprng):
    """The reference sampler: every round re-tests the whole stack."""
    mats = nprng.integers(0, p, size=(k, t, l, l), dtype=np.int64)
    while True:
        bad = _det_mod_p(mats, p) == 0
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
        )
        batch_view = [[tuple(int(x) for x in arr[0]) for arr in srv] for srv in per_server]
        assert batch_view == real_view, f"seed {seed}"


@pytest.mark.parametrize("k, n, m, p, l", [(3, 2, 1, 3, 1), (4, 3, 2, 5, 2), (3, 1, 1, 2, 3)])
def test_batch_eval_one_matrix_equals_broadcast_stack(k, n, m, p, l):
    # One (L x L) matrix per function, shared by every trial, must give
    # the views of that matrix broadcast to a (T x L x L) stack.
    t = 500
    plan = build_plan(k, n, m, enumerate_permutations(k)[-1])
    shared = np.array(generate_functions(k, l, p, Rng(k).child("functions")), dtype=np.int64)
    stacked = [np.broadcast_to(f, (t, l, l)) for f in shared]
    views = []
    for f_batch in (shared, stacked):
        nprng = np.random.default_rng(11)
        w_batch = nprng.integers(0, p, size=(m, t, l), dtype=np.int64)
        draw = lambda _mid: nprng.integers(0, p, size=(t, l), dtype=np.int64)
        views.append(_batch_eval(plan, f_batch, w_batch, draw, p))
    assert [len(srv) for srv in views[0]] == [plan.server.count(s) for s in range(1, n + 1)]
    for one, many in zip(*views):
        assert all(np.array_equal(a, b) and a.shape == (t, l) for a, b in zip(one, many))


# Every (p, L) the uniformity guard p^L <= 32 lets through, p prime.
SMALL_FIELDS = [
    (p, l) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for l in range(1, 6) if p**l <= 32
]


def _batch_eval_mod_p(plan, f_batch, w_batch, draw, p):
    """The reference evaluator: every value reduced by `% p`."""
    per_server = [[] for _ in range(plan.n)]

    def query(servers, functions, xs):
        for server, function, w in zip(servers, functions, xs):
            per_server[server - 1].append(w)
            yield np.einsum("...ij,...j->...i", f_batch[function - 1], w) % p

    run_plan(plan, w_batch, draw, lambda x, z: (x + z) % p, lambda a, b: (a - b) % p, query)
    return per_server


@pytest.mark.parametrize("p, l", SMALL_FIELDS)
def test_residue_table_matches_mod_p(p, l):
    # Products sum L terms below p^2, pad adds two residues and unmasks
    # subtract two: at p = 2, L = 1 a pad add reaches 2 > L(p-1)^2.
    lo, hi = -(p - 1), max(l * (p - 1) ** 2, 2 * (p - 1))
    values = np.arange(lo, hi + 1)
    table = _residues(p, l)
    assert len(table) == hi - lo + 1
    assert np.array_equal(table[values], values % p)


@pytest.mark.parametrize("p, l", [(p, l) for p, l in SMALL_FIELDS if l <= 3])
def test_singular_matches_det_mod_p(p, l):
    # Every L x L matrix over GF(p), exhaustively.
    mats = np.array(list(itertools.product(range(p), repeat=l * l)), dtype=np.int64)
    mats = mats.reshape(-1, l, l)
    assert np.array_equal(_singular(mats, p), _det_mod_p(mats, p) == 0)


@pytest.mark.parametrize("resample_f", [True, False])
@pytest.mark.parametrize(
    "k, n, m, p, l",
    [(3, 2, 1, 3, 1), (3, 2, 1, 2, 1), (3, 2, 1, 2, 2), (3, 2, 1, 2, 3), (3, 2, 1, 3, 2),
     (3, 2, 1, 5, 1), (3, 2, 1, 7, 1), (2, 3, 1, 3, 1), (2, 1, 1, 2, 3)],
)
def test_uniformity_figures_equal_the_mod_p_reference(monkeypatch, k, n, m, p, l, resample_f):
    # The lookup path must give bit-identical figures to the `% p`
    # evaluator and the whole-stack sampler it replaced.
    import psfc.audit as audit

    def run():
        return uniformity_test(k, n, m, p, l, trials=3_001, seed=9, resample_f=resample_f)

    res = run()
    monkeypatch.setattr(audit, "_batch_eval", _batch_eval_mod_p)
    monkeypatch.setattr(audit, "_sample_invertible_batch", _sample_invertible_whole_stack)
    ref = run()
    assert res.tv_cross == ref.tv_cross
    assert res.tv_self == ref.tv_self
    assert res.chi2_pvalues == ref.chi2_pvalues


@pytest.mark.parametrize("k, n, m, p, l", [(3, 2, 1, 3, 1), (3, 2, 1, 2, 2), (2, 3, 1, 3, 1)])
def test_uniformity_slot_pvalues_match_per_slot_histograms(monkeypatch, k, n, m, p, l):
    # The per-slot chi-square counts are read off the joint counts; they
    # must equal histograms taken slot by slot from the inputs.
    from scipy.stats import chi2

    import psfc.audit as audit

    cells = p**l
    powers = np.array([p**i for i in range(l)], dtype=np.int64)
    histograms = []  # per order (one chunk each), per (server, slot)

    def recording(*args):
        per_server = _batch_eval(*args)
        histograms.append({
            (srv + 1, s): np.bincount(x @ powers, minlength=cells)
            for srv, inputs in enumerate(per_server)
            for s, x in enumerate(inputs)
        })
        return per_server

    monkeypatch.setattr(audit, "_batch_eval", recording)
    res = uniformity_test(k, n, m, p, l, trials=3_001, seed=9)
    labels = list(dict.fromkeys(label for label, _ in res.tv_self))
    expected = {}
    for label, counts in zip(labels, histograms, strict=True):
        for (srv, s), hist in counts.items():
            mean = hist.sum() / cells
            expected[(label, srv, s)] = chi2.sf(((hist - mean) ** 2 / mean).sum(), cells - 1)
    assert res.chi2_pvalues == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p, l", [(3, 1), (2, 2)])
def test_uniformity_fires_on_an_order_dependent_view(monkeypatch, p, l):
    # Under the second order only, server 1's first input has its last
    # element forced to 0.  At L = 2 that element is weighted by a slot
    # power above 1, so the joint index must fold it in to see the leak.
    import psfc.audit as audit

    calls = []
    honest = audit._batch_eval

    def leaky(*args, **kwargs):
        per_server = honest(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            first = per_server[0][0].copy()
            first[:, -1] = 0
            per_server[0][0] = first
        return per_server

    monkeypatch.setattr(audit, "_batch_eval", leaky)
    trials = 20_000
    res = uniformity_test(3, 2, 1, p, l, trials=trials, seed=5)
    assert len(calls) == 6  # one chunk per order
    assert res.max_tv_cross > 0.02 * math.sqrt(1_000_000 / trials)
    assert not res.chi2_all_pass(0.01)


def test_uniformity_limits_are_the_fixed_rule():
    # TV 0.02 at 10^6 trials, scaled as 1/sqrt(trials); sqrt(2) times
    # that for split halves; chi-square at alpha 0.01, Bonferroni.
    res = uniformity_test(3, 2, 1, 3, 1, trials=30_000, seed=7)
    assert res.tv_limit == 0.02 * math.sqrt(1_000_000 / 30_000)
    assert res.tv_self_limit == res.tv_limit * math.sqrt(2)
    assert dataclasses.replace(res, trials=1_000_000).tv_limit == 0.02
    ones = dict.fromkeys(res.chi2_pvalues, 1.0)
    key, edge = next(iter(ones)), 0.01 / len(ones)
    assert dataclasses.replace(res, chi2_pvalues={**ones, key: edge}).chi2_all_pass()
    assert not dataclasses.replace(res, chi2_pvalues={**ones, key: edge * 0.99}).chi2_all_pass()


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
    orders = enumerate_permutations(3)
    assert orders is enumerate_permutations(3)
    guess = sigma_attack(marginal, functions, p, Rng(23))
    assert any(guess is order for order in orders)
    with pytest.raises(TypeError):
        orders[0] = Permutation((3, 2, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        guess.mapping = (3, 2, 1)
    assert sigma_attack(marginal, functions, p, Rng(23)) == guess


def _reference_hidden_run(functions, start, target, ends, p):
    """The per-pair search: a fresh breadth-first search for each pair."""
    frontier = [((), start)]
    while frontier:
        for hidden, value in frontier:
            if value == target:
                return hidden
        frontier = [
            (hidden + (h,), mat_vec_mul(functions[h - 1], value, p))
            for hidden, value in frontier
            for h in range(1, len(functions) + 1)
            if h not in ends and h not in hidden
        ]
    return None


def _reference_sigma_attack(marginal, functions, p, rng):
    """The attacker with one hidden-run search per pair of queries."""
    entries = marginal.entries
    outputs = [mat_vec_mul(functions[f - 1], w, p) for f, w in entries]
    runs = set()
    for a in range(len(entries)):
        f_a = entries[a][0]
        for b in range(a + 1, len(entries)):
            f_b, w_b = entries[b]
            if f_a == f_b:
                continue
            hidden = _reference_hidden_run(functions, outputs[a], w_b, (f_a, f_b), p)
            if hidden is not None:
                runs.add((f_a, *hidden, f_b))
    orders = enumerate_permutations(len(functions))
    candidates = []
    for perm in orders:
        pos = {v: i for i, v in enumerate(perm.mapping)}
        if all(pos[f] == pos[run[0]] + i for run in runs for i, f in enumerate(run)):
            candidates.append(perm)
    if not candidates:
        candidates = orders
    if len(candidates) == 1:
        return candidates[0]
    return rng.choice(candidates)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sigma_attack_matches_per_pair_reference(k, n):
    # p = 3 makes chance collisions common, so several hidden runs often
    # fit one pair and the first one listed must be the one kept; the
    # large prime links only true runs.
    l = 2
    for p in (3, DEFAULT_MODULUS):
        for trial in range(3):
            trng = Rng(900 + trial).child(f"{k}:{n}:{p}")
            sigma = random_permutation(k, trng)
            functions = generate_functions(k, l, p, trng)
            naive = [Server(i + 1, functions, p) for i in range(n)]
            naive_chain_run(sigma, naive, sample_uniform_vector(l, p, trng), p)
            views = [s.marginal for s in naive]
            if k <= 4 or n > 1:  # K=5, N=1 is 600 queries: too slow for the reference
                m = n - 1 if (k > n and n >= 2) else 1
                real = [Server(i + 1, functions, p) for i in range(n)]
                config = RunConfig(k=k, n=n, m=m, l=l, p=p, seed=trng.seed)
                run_protocol(config, sigma, generate_inputs(m, l, p, trng), SimTransport(real))
                views += [s.marginal for s in real]
            for marginal in views:
                for seed in range(3):
                    assert sigma_attack(marginal, functions, p, Rng(seed)) == (
                        _reference_sigma_attack(marginal, functions, p, Rng(seed))
                    ), (k, n, p, trial, marginal.server)


def test_attacker_k1_trivial():
    functions = generate_functions(1, 1, 5, Rng(24).child("functions"))
    marginal = MarginalQueryList(server=1, entries=[(1, (2,))])
    assert sigma_attack(marginal, functions, 5, Rng(25)) == Permutation((1,))


@pytest.mark.parametrize("scheme", ["real", "naive"])
@pytest.mark.parametrize("trials", [0, -1])
def test_attack_campaign_refuses_fewer_than_one_trial(trials, scheme):
    with pytest.raises(ValueError, match="at least 1 trial"):
        attack_campaign(3, 2, trials=trials, scheme=scheme)


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
    _, report = run_protocol(config, _identity(k), w, SimTransport(servers))
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


def test_rate_verdict_fails_above_the_scheme_limit():
    # A rate of 1 is within the capacity window but above K=4, N=3's
    # own limit of 8/9, so the verdict must fail.
    verdict = rate_report(dataclasses.replace(_report_for(4, 3, 2), rate=(1, 1)))
    assert verdict.measured == 1 and verdict.asymptotic_limit == Fraction(8, 9)
    assert not verdict.ok


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


@pytest.mark.parametrize("l, m", [(10, 3), (2, 3)])  # M > L too, where the result is certain
@pytest.mark.parametrize("trials", [0, -1])
def test_rank_decay_refuses_fewer_than_one_trial(trials, l, m):
    with pytest.raises(ValueError, match="at least 1 trial"):
        rank_decay_experiment(l, m, 2, trials=trials)
