"""Workload definitions, set-up, timed operations and correctness checks.

A protocol operation is one `run_protocol` call for one secret order,
with fresh servers and a cold plan; an audit operation is one pass of the
acceptance-sized privacy campaigns.  Everything outside the timed call --
fresh hosts, the checks, the report -- is done here but not timed.

`psfc` is imported inside the workload constructors on purpose: its
import is part of the set-up time the benchmark reports.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

P31 = 2**31 - 1
P61 = 2**61 - 1

# The acceptance suite's own pinned campaign seeds.  The audit checks are
# statistical with a designed false-alarm rate (alpha = 0.01 Bonferroni
# for chi-square, about 0.5 % for two 3-sigma bands), so campaigns drawn
# from the run seed would fail about one operation in seventy on a
# correct scheme, and the failed share would differ between sets of runs.
UNIFORMITY_SEED = 7
ATTACK_SEED = 606

# Fixed acceptance thresholds (ROADMAP): TV 0.02 at 10^6 trials, scaled
# as 1/sqrt(trials) at other sizes, alpha 0.01, naive control above 0.9.
TV_AT_1E6 = 0.02
CHI2_ALPHA = 0.01
NAIVE_FLOOR = 0.9


@dataclass(frozen=True)
class ProtocolSpec:
    name: str
    k: int
    n: int
    m: int
    l: int
    p: int
    transport: str  # "sim" or "tcp"
    orders: int = 4  # distinct secret orders; one round runs each once


@dataclass(frozen=True)
class AuditSpec:
    name: str
    k: int = 3
    n: int = 2
    m: int = 1
    p: int = 3
    l: int = 1
    uniformity_trials: int = 1_000_000
    attack_trials: int = 3000


SPECS = {
    spec.name: spec
    for spec in (
        ProtocolSpec("wide-sim", k=4, n=3, m=400, l=64, p=P31, transport="sim"),
        ProtocolSpec("narrow-tcp", k=4, n=2, m=3000, l=2, p=P31, transport="tcp"),
        ProtocolSpec("mixed-sim-p61", k=5, n=3, m=8001, l=2, p=P61, transport="sim"),
        AuditSpec("audit"),
    )
}


# -- checks computed apart from the program ------------------------------------


def closed_form_d(k: int, n: int, m: int) -> int:
    """D = KM for K <= N, else (M'+K-1)·N·(K-1) + r·K·K! with M = M'(N-1) + r."""
    if k <= n:
        return k * m
    m_prime, r = divmod(m, n - 1)
    blocks = (m_prime + k - 1) * n * (k - 1) if m_prime else 0
    return blocks + r * k * math.factorial(k)


def _mat_mul(a, b, p):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in a]


def expected_outputs(functions, mapping, inputs, p):
    """F_{s_K}···F_{s_1}·w for every input, by plain-integer composition."""
    l = len(functions[0])
    composite = [[int(i == j) for j in range(l)] for i in range(l)]
    for func in mapping:
        composite = _mat_mul(functions[func - 1], composite, p)
    return [tuple(sum(map(mul, row, w)) % p for row in composite) for w in inputs]


def protocol_problems(
    spec, outputs, report, report_json, expected, fingerprints, baseline, replay
):
    """Every way one protocol operation can be wrong, as readable strings."""
    problems = []
    d = closed_form_d(spec.k, spec.n, spec.m)
    if outputs != expected or report.outputs != expected:
        problems.append("outputs differ from the composed functions")
    if report.d != d or len(report.transcript) != d:
        problems.append(f"D={report.d}, closed form {d}")
    if Fraction(*report.rate) != Fraction(spec.k * spec.m, d):
        problems.append(f"rate {report.rate} != KM/D = {spec.k * spec.m}/{d}")
    if min(report.d_k) < spec.m or sum(report.d_k) != d:
        problems.append(f"per-function counts {report.d_k} break D_k >= M")
    if fingerprints != baseline:
        problems.append("a server's function-index sequence depends on the order")
    if replay is not None and report_json != replay:
        problems.append("report JSON differs from the sim replay")
    return problems


def tv_limit(trials: int) -> float:
    return TV_AT_1E6 * math.sqrt(1_000_000 / trials)


def audit_problems(uniformity, real, naive):
    problems = []
    limit = tv_limit(uniformity.trials)
    if uniformity.max_tv_cross > limit:
        problems.append(f"cross-order TV {uniformity.max_tv_cross} > {limit}")
    if uniformity.max_tv_self > limit * math.sqrt(2):
        problems.append(f"split-half TV {uniformity.max_tv_self} > {limit * math.sqrt(2)}")
    if not uniformity.chi2_all_pass(CHI2_ALPHA):
        problems.append(f"chi-square min p {uniformity.chi2_min_p} fails Bonferroni")
    if not real.within_uniform_band():
        problems.append(f"attacker rates {real.per_server_rate} outside 3 sigma of 1/K!")
    if naive.best_rate <= NAIVE_FLOOR:
        problems.append(f"naive control broken only at rate {naive.best_rate}")
    return problems


# -- workloads ------------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float  # the timed call
    problems: list
    parts: dict  # the queries it made, and for audit each campaign's figures


class ProtocolWorkload:
    def __init__(self, spec: ProtocolSpec, seed: int):
        from psfc import client, protocol, rand, runtime, scheduler

        self.spec = spec
        self.client, self.runtime, self.scheduler = client, runtime, scheduler
        self.config = protocol.RunConfig(spec.k, spec.n, spec.m, spec.l, spec.p, seed=seed)
        root = rand.Rng(seed)
        self.functions = runtime.generate_functions(spec.k, spec.l, spec.p, root.child("functions"))
        self.inputs = runtime.generate_inputs(spec.m, spec.l, spec.p, root.child("inputs"))
        all_orders = list(itertools.permutations(range(1, spec.k + 1)))
        picked = random.Random(f"{seed}:orders").sample(all_orders, spec.orders)
        self.orders = [protocol.Permutation(mapping) for mapping in picked]
        self._expected = {}
        self._replays = {}
        self._baseline = None
        self._ready = self._fresh()

    def _servers(self):
        return [self.runtime.Server(i + 1, self.functions, self.spec.p) for i in range(self.spec.n)]

    def _fresh(self):
        """Fresh servers and a transport to them; a TCP host takes one connection."""
        servers = self._servers()
        if self.spec.transport == "tcp":
            host = self.runtime.TcpServerHost(servers)
            return servers, host, self.runtime.TcpTransport(host.addresses)
        return servers, None, self.runtime.SimTransport(servers)

    def _drop_plan_cache(self):
        # Users pay plan build once per order per process, so every timed
        # call starts from a cold plan, its fallback section included.
        # Clearing also keeps the plan cache's retention from growing peak
        # RSS with the run's length.
        for cache in ("_build_plan_cached", "_fallback_section"):
            cached = getattr(self.scheduler, cache, None)
            if cached is not None:
                cached.cache_clear()

    def close(self):
        if self._ready is not None:
            _, host, transport = self._ready
            transport.close()
            if host is not None:
                host.close()
            self._ready = None

    def rounds(self):
        return self.orders

    def operation(self, sigma, tracer=None) -> Outcome:
        servers, host, transport = self._ready or self._fresh()
        self._ready = None
        self._drop_plan_cache()
        call = self.client.run_protocol
        if tracer is not None:
            call = tracer.root("bench.op", call)
        try:
            start = time.perf_counter()
            outputs, report = call(self.config, sigma, self.inputs, transport)
            seconds = time.perf_counter() - start
        finally:
            transport.close()
            if host is not None:
                host.close()
        to_json = report.to_json if tracer is None else tracer.root("bench.report", report.to_json)
        report_json = to_json()
        fingerprints = [tuple(f for f, _ in s.marginal.entries) for s in servers]
        if self._baseline is None:
            self._baseline = fingerprints
        key = sigma.mapping
        if key not in self._expected:
            self._expected[key] = expected_outputs(self.functions, key, self.inputs, self.spec.p)
        replay = None
        if self.spec.transport == "tcp":
            if key not in self._replays:
                self._replays[key] = self._sim_replay(sigma)
            replay = self._replays[key]
        problems = protocol_problems(
            self.spec, outputs, report, report_json, self._expected[key], fingerprints,
            self._baseline, replay,
        )
        spec = self.spec
        return Outcome(seconds, problems, {"queries": closed_form_d(spec.k, spec.n, spec.m)})

    def _sim_replay(self, sigma) -> str:
        transport = self.runtime.SimTransport(self._servers())
        _, report = self.client.run_protocol(self.config, sigma, self.inputs, transport)
        return report.to_json()


class AuditWorkload:
    """The campaigns run at the pinned acceptance seeds, whatever the run seed."""

    def __init__(self, spec: AuditSpec, seed: int):
        import scipy.stats  # noqa: F401  (uniformity_test imports it lazily)
        from psfc import audit

        self.spec = spec
        self.audit = audit

    def close(self):
        pass

    def rounds(self):
        return [None]

    def operation(self, _unused=None, tracer=None) -> Outcome:
        s = self.spec
        parts = {}

        def campaigns():
            start = time.perf_counter()
            uni = self.audit.uniformity_test(
                s.k, s.n, s.m, s.p, s.l, trials=s.uniformity_trials, seed=UNIFORMITY_SEED
            )
            mid = time.perf_counter()
            real = self.audit.attack_campaign(
                s.k, s.n, trials=s.attack_trials, seed=ATTACK_SEED, scheme="real"
            )
            mid2 = time.perf_counter()
            naive = self.audit.attack_campaign(
                s.k, s.n, trials=s.attack_trials, seed=ATTACK_SEED, scheme="naive"
            )
            parts["uniformity_s"] = mid - start
            parts["attack_real_s"] = mid2 - mid
            parts["attack_trials"] = s.attack_trials
            parts["uniformity_trials"] = uni.n_sigmas * s.uniformity_trials
            return uni, real, naive

        call = campaigns if tracer is None else tracer.root("bench.op", campaigns)
        start = time.perf_counter()
        uni, real, naive = call()
        seconds = time.perf_counter() - start
        # Server queries the pass evaluates, each vectorised trial counted
        # once: the uniformity plans, the real scheme's runs and the naive
        # K-step chains.
        real_m = s.n - 1 if s.k > s.n >= 2 else 1
        parts["queries"] = (
            uni.n_sigmas * s.uniformity_trials * closed_form_d(s.k, s.n, s.m)
            + s.attack_trials * closed_form_d(s.k, s.n, real_m)
            + s.attack_trials * s.k
        )
        return Outcome(seconds, audit_problems(uni, real, naive), parts)


def make(spec, seed: int):
    if isinstance(spec, AuditSpec):
        return AuditWorkload(spec, seed)
    return ProtocolWorkload(spec, seed)
