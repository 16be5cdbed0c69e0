"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
All expectations are exact (integer counts, bitwise output equality,
exact rational rates) except the statistical criteria, whose tolerances
are pinned here: TV <= 0.02 at 1e6 trials per order, chi-square at
alpha = 0.01 Bonferroni-corrected, attacker within three binomial
standard deviations of a uniform guess, rank decay within three
standard errors of the analytic bound.
"""

import time
from fractions import Fraction

from psfc.audit import (
    attack_campaign,
    fingerprint_invariance,
    rank_decay_experiment,
    uniformity_test,
)
from psfc.client import run_protocol
from psfc.field import DEFAULT_MODULUS
from psfc.protocol import Permutation, RunConfig, compose_reference, enumerate_permutations
from psfc.rand import Rng
from psfc.runtime import Server, SimTransport, TcpServerHost, TcpTransport, generate_functions, generate_inputs
from psfc.scheduler import query_count

P31 = DEFAULT_MODULUS  # 2^31 - 1


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def _run_once(k, n, m, l, p, seed, sigma, transport_servers=None):
    config = RunConfig(k=k, n=n, m=m, l=l, p=p, seed=seed)
    functions = generate_functions(k, l, p, Rng(seed).child("functions"))
    w = generate_inputs(m, l, p, Rng(seed).child("inputs"))
    servers = [Server(i + 1, functions, p) for i in range(n)]
    outputs, report = run_protocol(config, sigma, w, SimTransport(servers))
    expected = [compose_reference(functions, sigma, vec, p) for vec in w]
    return outputs, expected, report


def test_criterion_1_zero_error_correctness():
    """Outputs equal the brute-force oracle bitwise, across the whole grid."""
    start = time.time()
    runs = 0
    queries = 0
    failures = []
    for k in range(1, 6):
        if k <= 4:
            sigmas = enumerate_permutations(k)
        else:
            pool = list(enumerate_permutations(5))
            Rng(1234).child("accept-sigmas").shuffle(pool)
            sigmas = pool[:50]
        for n in range(1, 6):
            for m in range(1, 7):
                for p in (3, 5, P31):
                    for l in (1, 2, 3):
                        seed = 81000 + k * 1000 + n * 100 + m * 10 + l
                        config = RunConfig(k=k, n=n, m=m, l=l, p=p, seed=seed)
                        functions = generate_functions(k, l, p, Rng(seed).child("functions"))
                        w = generate_inputs(m, l, p, Rng(seed).child("inputs"))
                        expected_by_sigma = {}
                        for sigma in sigmas:
                            servers = [Server(i + 1, functions, p) for i in range(n)]
                            outputs, report = run_protocol(config, sigma, w, SimTransport(servers))
                            expected = expected_by_sigma.get(sigma.mapping)
                            if expected is None:
                                expected = [compose_reference(functions, sigma, vec, p) for vec in w]
                                expected_by_sigma[sigma.mapping] = expected
                            runs += 1
                            queries += report.d
                            if outputs != expected:
                                failures.append((k, n, m, p, l, sigma.mapping))
                            if report.d != query_count(k, n, m):
                                failures.append(("count", k, n, m, report.d))
                            if report.rate[0] > report.rate[1]:  # R > 1
                                failures.append(("rate", k, n, m))
                            if any(d < m for d in report.d_k):
                                failures.append(("d_k", k, n, m))
    elapsed = time.time() - start
    ok = not failures and elapsed < 60.0
    _verdict(
        "criterion 1",
        ok,
        f"zero-error correctness: {runs} runs, {queries} queries, "
        f"{elapsed:.1f}s (< 60s), failures={failures[:3]}",
    )


def test_criterion_2_query_count_reproduction():
    """Exact query counts: 9M'+27 at (4,3), KM for chains, block formula."""
    checks = []
    for m_prime in (1, 5, 100):
        _, _, report = _run_once(4, 3, 2 * m_prime, 1, 3, 7, Permutation.identity(4))
        checks.append(report.d == 9 * m_prime + 27)
    for k, n, m in ((2, 2, 7), (3, 5, 4), (5, 5, 6), (1, 1, 3)):
        _, _, report = _run_once(k, n, m, 1, 3, 7, Permutation.identity(k))
        checks.append(report.d == k * m)
    for k, n, m in ((3, 2, 5), (5, 3, 6), (4, 2, 6)):
        m_prime = m // (n - 1)
        _, _, report = _run_once(k, n, m, 1, 3, 7, Permutation.identity(k))
        checks.append(report.d == (m_prime + k - 1) * n * (k - 1))
    _verdict("criterion 2", all(checks), f"query counts exact: {sum(checks)}/{len(checks)} checks")


def test_criterion_3_rate_convergence():
    """R = 8M'/(9M'+27) exactly; within 1e-3 of the limits at M'=3000."""
    checks = []
    details = []
    for m_prime in (1, 30, 3000):
        _, _, report = _run_once(4, 3, 2 * m_prime, 1, 3, 8, Permutation.identity(4))
        rate = Fraction(*report.rate)
        checks.append(rate == Fraction(8 * m_prime, 9 * m_prime + 27))
        checks.append(rate <= 1)
    gap_43 = abs(float(rate) - 8 / 9)
    checks.append(gap_43 < 1e-3)
    details.append(f"|R(4,3)@M'=3000 - 8/9| = {gap_43:.2e}")

    _, _, report = _run_once(3, 2, 3000, 1, 3, 8, Permutation.identity(3))
    rate_32 = Fraction(*report.rate)
    gap_32 = abs(float(rate_32) - 3 / 4)
    checks.append(rate_32 <= 1)
    checks.append(gap_32 < 1e-3)
    details.append(f"|R(3,2)@M=3000 - 3/4| = {gap_32:.2e}")

    for k, n in ((2, 2), (3, 5), (5, 5)):
        _, _, report = _run_once(k, n, 4, 1, 3, 8, Permutation.identity(k))
        checks.append(Fraction(*report.rate) == 1)
    _verdict("criterion 3", all(checks), f"rate convergence: {'; '.join(details)}")


def test_criterion_4_fingerprint_invariance():
    """Per-server function order identical across all orders, exhaustively."""
    cases = 0
    bad = []
    for k in range(2, 6):
        for n in range(1, k):  # K > N, including the N=1 fallback
            for m in range(1, 5):
                res = fingerprint_invariance(k, n, m, p=3, l=1, seed=4000 + k)
                cases += 1
                if not (res.ok and res.exhaustive):
                    bad.append((k, n, m))
    for k in range(1, 6):
        for n in range(k, 6):  # chain regime K <= N
            for m in range(1, 5):
                res = fingerprint_invariance(k, n, m, p=3, l=1, seed=4100 + k)
                cases += 1
                if not (res.ok and res.exhaustive):
                    bad.append((k, n, m))
                # server n's fingerprint is (n,) per request, idle servers empty
                for server in range(1, n + 1):
                    expect = (server,) * m if server <= k else ()
                    if res.fingerprints[server] != expect:
                        bad.append(("chain-shape", k, n, m, server))
    _verdict("criterion 4", not bad, f"fingerprints invariant in {cases} settings, bad={bad[:3]}")


def test_criterion_5_statistical_privacy():
    """K=3, N=2, p=3, L=1, 1e6 trials per order: TV and chi-square."""
    start = time.time()
    res = uniformity_test(3, 2, 1, 3, 1, trials=1_000_000, seed=7)
    elapsed = time.time() - start
    tv_ok = res.max_tv_cross <= 0.02
    chi_ok = res.chi2_all_pass(0.01)
    ok = tv_ok and chi_ok and elapsed < 300.0
    _verdict(
        "criterion 5",
        ok,
        f"max TV over {len(res.tv_cross)} order-pair/server cells = "
        f"{res.max_tv_cross:.4f} (<= 0.02); chi-square min p = {res.chi2_min_p:.4f} over "
        f"{len(res.chi2_pvalues)} slots at alpha 0.01 Bonferroni; {elapsed:.1f}s (< 300s)",
    )


def test_criterion_6_attacker_calibration():
    """Attacker breaks the naive control (> 0.9) and not the real scheme."""
    naive = attack_campaign(3, 2, trials=10_000, l=1, seed=606, scheme="naive")
    real = attack_campaign(3, 2, trials=10_000, l=1, seed=606, scheme="real")
    naive_ok = naive.best_rate > 0.9
    real_ok = real.within_uniform_band()
    _verdict(
        "criterion 6",
        naive_ok and real_ok,
        f"control best rate = {naive.best_rate:.4f} (> 0.9); real rates = "
        f"{[round(r, 4) for r in real.per_server_rate]} within "
        f"{real.uniform_rate:.4f} +- {real.three_sigma_band:.4f}",
    )


def test_criterion_7_converse_quantities():
    """D_k >= M in every report; rank-decay bound at 1e5 trials."""
    dk_ok = True
    for k, n, m in ((4, 3, 4), (3, 2, 5), (2, 2, 6), (5, 3, 5), (3, 1, 2), (5, 4, 2)):
        sigma = enumerate_permutations(k)[-1]
        _, _, report = _run_once(k, n, m, 1, 5, 70, sigma)
        if any(d < m for d in report.d_k) or sum(report.d_k) != report.d:
            dk_ok = False
    decay1 = rank_decay_experiment(10, 3, 2, trials=100_000, seed=71)
    decay2 = rank_decay_experiment(8, 2, 5, trials=100_000, seed=71)
    ok = dk_ok and decay1.ok and decay2.ok
    _verdict(
        "criterion 7",
        ok,
        f"D_k >= M in all sampled regimes: {dk_ok}; "
        f"P(rank<3|p=2,L=10) = {decay1.empirical:.5f} <= {decay1.bound:.5f}+3se; "
        f"P(rank<2|p=5,L=8) = {decay2.empirical:.6f} <= {decay2.bound:.6f}+3se",
    )


def test_criterion_8_determinism_and_transport_equivalence():
    """Same (config, order, seed) twice and sim vs TCP: byte-identical."""
    checks = []
    for k, n, m, l, p in ((4, 3, 4, 2, 5), (3, 2, 2, 1, P31), (2, 3, 3, 2, 7)):
        sigma = enumerate_permutations(k)[1]
        _, _, rep_a = _run_once(k, n, m, l, p, 909, sigma)
        _, _, rep_b = _run_once(k, n, m, l, p, 909, sigma)
        checks.append(rep_a.to_json() == rep_b.to_json())

        config = RunConfig(k=k, n=n, m=m, l=l, p=p, seed=909)
        functions = generate_functions(k, l, p, Rng(909).child("functions"))
        w = generate_inputs(m, l, p, Rng(909).child("inputs"))
        servers = [Server(i + 1, functions, p) for i in range(n)]
        host = TcpServerHost(servers)
        transport = TcpTransport(host.addresses)
        try:
            _, rep_tcp = run_protocol(config, sigma, w, transport)
        finally:
            transport.close()
            host.close()
        checks.append(rep_tcp.to_json() == rep_a.to_json())
    _verdict(
        "criterion 8",
        all(checks),
        f"determinism and sim/TCP equivalence: {sum(checks)}/{len(checks)} byte-identical",
    )
