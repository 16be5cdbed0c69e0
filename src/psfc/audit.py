"""Executable privacy and rate audits.

The privacy guarantee is an exact distributional identity, which a
simulator can only probe.  The audit therefore layers three kinds of
evidence, all computed from the servers' marginal views only:

1. structural: per-server function-order fingerprints, and the number
   of queries in each of a server's exchanges, must be identical across
   every composition order (exact check, exhaustive);
2. statistical: on tiny fields, the order-conditioned distribution of a
   server's full input tuple is compared across orders by total
   variation distance, and every individual input slot is chi-square
   tested against the uniform law.  Its thresholds are fixed here:
   `UniformityResult.tv_limit`, `tv_self_limit` and `chi2_all_pass`
   (at CHI2_ALPHA), and NAIVE_FLOOR for the broken control below.
   Its trial stacks are reduced mod p by table lookup, never by integer
   division; the p^L <= 32 guard bounds every value, and so the table;
3. adversarial: a reverse-computation attacker that links query inputs
   to function images of earlier outputs.  It must recover the order
   from a deliberately broken interleaved schedule (the negative
   control) and must do no better than a uniform guess against the real
   scheme.

Rate and query-count checks compare measured values against the exact
formulas and the capacity bounds, and a sampling experiment checks the
rank-deficiency probability of uniform input matrices against its
analytic union bound.

Monte-Carlo trials are independent seeded instances, so every campaign
here is embarrassingly parallel; the aggregations (histogram sums, hit
counts) are commutative folds.  The implementations run single-threaded
for determinism and lean on vectorization instead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import TYPE_CHECKING

from .client import RunReport, run_protocol
from .field import DEFAULT_MODULUS, FieldMatrix, FieldVector, mat_vec_mul, rank, sample_uniform_vector
from .protocol import (
    MarginalQueryList,
    Permutation,
    RunConfig,
    enumerate_permutations,
    random_permutation,
)
from .rand import Rng
from .runtime import Server, SimTransport, generate_functions, generate_inputs, marginal_fingerprint
from .scheduler import QueryPlan, build_plan, rate_bounds, run_plan

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GuardExceeded",
    "FingerprintResult",
    "fingerprint_invariance",
    "UniformityResult",
    "uniformity_test",
    "sigma_attack",
    "naive_chain_run",
    "AttackCampaignResult",
    "attack_campaign",
    "RateVerdict",
    "rate_report",
    "ConverseResult",
    "converse_counts",
    "RankDecayResult",
    "rank_decay_experiment",
]

MAX_EXHAUSTIVE_K = 6
SAMPLED_SIGMA_COUNT = 24
# int64 count entries a uniformity test allocates, over all servers
# (orders x 2 halves x joint cells each): 128 MiB.
JOINT_ENTRY_CAP = 1 << 24
UNIFORMITY_CHUNK = 200_000  # trials evaluated together in one numpy stack

# Fixed acceptance thresholds.  The TV limit is a calibration choice, not
# a derived constant; the attacker must break the control above NAIVE_FLOOR.
TV_BASELINE = 0.02
TV_BASELINE_TRIALS = 1_000_000
CHI2_ALPHA = 0.01
NAIVE_FLOOR = 0.9


class GuardExceeded(ValueError):
    """Requested audit would enumerate an impractically large space."""


def _pick_orders(k: int, budget: int, rng: Rng) -> tuple[list[Permutation], bool]:
    """The orders an audit compares, and whether they are a sample.

    All K! orders while K! <= budget; otherwise SAMPLED_SIGMA_COUNT
    distinct orders drawn from `rng`, in first-draw order.
    """
    if factorial(k) <= budget:
        return list(enumerate_permutations(k)), False
    seen: dict[tuple[int, ...], Permutation] = {}
    while len(seen) < SAMPLED_SIGMA_COUNT:
        sigma = random_permutation(k, rng)
        seen.setdefault(sigma.mapping, sigma)
    return list(seen.values()), True


# -- structural check: fingerprint invariance ----------------------------------


@dataclass
class FingerprintResult:
    k: int
    n: int
    m: int
    ok: bool
    exhaustive: bool
    n_sigmas: int
    fingerprints: dict[int, tuple[int, ...]]  # server -> common fingerprint
    exchanges: dict[int, tuple[int, ...]]  # server -> queries per exchange, in order
    mismatches: list[str] = field(default_factory=list)


class _ExchangeLog:
    """A transport wrapper: per server, the queries in each exchange.

    A server sees how its queries arrive in exchanges, so these sizes are
    part of its view and must not depend on the order.
    """

    def __init__(self, inner, n: int):
        self.inner = inner
        self.sizes: dict[int, list[int]] = {server: [] for server in range(1, n + 1)}

    def query(self, servers, functions, xs):
        for server, count in Counter(servers).items():
            self.sizes[server].append(count)
        return self.inner.query(servers, functions, xs)


def fingerprint_invariance(
    k: int, n: int, m: int, p: int = 3, l: int = 1, seed: int = 0
) -> FingerprintResult:
    """Run the protocol for every order and compare per-server fingerprints
    and exchange sizes.

    Exhausts all K! orders up to K = 6; beyond that a seeded sample of
    distinct orders is used and the result is flagged as non-exhaustive.
    """
    sigmas, sampled = _pick_orders(
        k, factorial(MAX_EXHAUSTIVE_K), Rng(seed).child("fingerprint-sigmas")
    )
    config = RunConfig(k=k, n=n, m=m, l=l, p=p, seed=seed)
    functions = generate_functions(k, l, p, Rng(seed).child("functions"))
    w = generate_inputs(m, l, p, Rng(seed).child("inputs"))

    baseline = None  # (fingerprints, exchange sizes) under the first order
    mismatches: list[str] = []
    for sigma in sigmas:
        servers = [Server(i + 1, functions, p) for i in range(n)]
        log = _ExchangeLog(SimTransport(servers), n)
        run_protocol(config, sigma, w, log)
        fps = {s.id: marginal_fingerprint(s) for s in servers}
        exchanges = {server: tuple(sizes) for server, sizes in log.sizes.items()}
        baseline = baseline or (fps, exchanges)
        if fps != baseline[0]:
            mismatches.append(f"order {sigma} changes a server fingerprint")
        if exchanges != baseline[1]:
            mismatches.append(f"order {sigma} changes a server's exchange sizes")
    return FingerprintResult(
        k=k, n=n, m=m, ok=not mismatches, exhaustive=not sampled, n_sigmas=len(sigmas),
        fingerprints=baseline[0], exchanges=baseline[1], mismatches=mismatches,
    )


# -- statistical check: input-tuple uniformity ---------------------------------


@dataclass
class UniformityResult:
    k: int
    n: int
    m: int
    p: int
    l: int
    trials: int
    resample_f: bool
    sigmas_sampled: bool  # True when K! exceeded the enumeration budget
    n_sigmas: int
    slot_cells: int  # p^l
    slots_per_server: list[int]
    tv_cross: dict[tuple[str, str, int], float]  # (order_a, order_b, server) -> TV
    tv_self: dict[tuple[str, int], float]  # (order, server) -> split-half TV
    chi2_pvalues: dict[tuple[str, int, int], float]  # (order, server, slot) -> p-value

    @property
    def max_tv_cross(self) -> float:
        return max(self.tv_cross.values()) if self.tv_cross else 0.0

    @property
    def max_tv_self(self) -> float:
        return max(self.tv_self.values()) if self.tv_self else 0.0

    @property
    def chi2_min_p(self) -> float:
        return min(self.chi2_pvalues.values()) if self.chi2_pvalues else 1.0

    @property
    def tv_limit(self) -> float:
        """Cross-order TV limit: TV_BASELINE at TV_BASELINE_TRIALS, scaled as 1/sqrt(trials)."""
        return TV_BASELINE * math.sqrt(TV_BASELINE_TRIALS / self.trials)

    @property
    def tv_self_limit(self) -> float:
        """Split-half TV limit: each half has half the trials, so sqrt(2) more noise."""
        return self.tv_limit * math.sqrt(2)

    def chi2_all_pass(self, alpha: float = CHI2_ALPHA) -> bool:
        """Bonferroni-corrected goodness-of-fit verdict over all slots."""
        if not self.chi2_pvalues:
            return True
        return self.chi2_min_p >= alpha / len(self.chi2_pvalues)


def _residues(p: int, l: int) -> np.ndarray:
    """Lookup table r with r[v] == v % p for every value `_batch_eval` meets.

    With canonical operands a product row sums L products, a pad add
    two residues and an unmask subtracts two, so every value lies in
    [-(p-1), max(L(p-1)^2, 2(p-1))]; the p^L <= 32 guard keeps that
    under a thousand entries.  A negative v reads from the end of the
    table, as numpy indexing does, so a lookup needs no offset.
    """
    import numpy as np
    lo, hi = 1 - p, max(l * (p - 1) ** 2, 2 * (p - 1))
    return np.roll(np.arange(lo, hi + 1, dtype=np.int64) % p, lo)


def _singular(mats: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of a (..., L, L) stack of residues are singular mod p, for L <= 3."""
    import numpy as np
    l = mats.shape[-1]
    if l == 1:
        return mats[..., 0, 0] == 0  # canonical entries
    if l == 2:
        det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    elif l == 3:
        a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 0, 2]
        d, e, f = mats[..., 1, 0], mats[..., 1, 1], mats[..., 1, 2]
        g, h, i = mats[..., 2, 0], mats[..., 2, 1], mats[..., 2, 2]
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    else:
        raise GuardExceeded(f"batched invertible sampling supports L <= 3, got L={l}")
    # L!/2 products of L residues enter with each sign.
    bound = factorial(l) // 2 * (p - 1) ** l
    return (np.arange(-bound, bound + 1) % p == 0)[det + bound]


def _sample_invertible_batch(k: int, l: int, p: int, t: int, nprng) -> np.ndarray:
    """(K, T, L, L) int64 stack of per-trial uniform invertible matrices.

    Rejection sampling that redraws only the singular matrices: each
    round draws one replacement per rejected matrix, in C order over the
    stack, and tests just those.  The draw sizes and order are those of
    a loop that re-tests the whole stack every round, so the generator
    stream and the result are identical to it.
    """
    import numpy as np
    mats = nprng.integers(0, p, size=(k, t, l, l), dtype=np.int64)
    flat = mats.reshape(k * t, l, l)  # a view: writes land in `mats`
    redo = np.flatnonzero(_singular(flat, p))
    while redo.size:
        fresh = nprng.integers(0, p, size=(redo.size, l, l), dtype=np.int64)
        flat[redo] = fresh
        redo = redo[_singular(fresh, p)]
    return mats


def _batch_eval(plan: QueryPlan, f_batch, w_batch, draw, p: int) -> list[list[np.ndarray]]:
    """The plan interpreter over a stack of trials, as numpy arrays.

    Values are (trials x L) int64 arrays; `draw(mid)` returns a fresh
    one.  `f_batch[k - 1]` is function k: one (L x L) matrix shared by
    every trial, or a (trials x L x L) stack.  Every value is reduced
    mod p by lookup in `_residues`.  Returns, per server, the list of
    input arrays in arrival order.
    """
    import numpy as np
    per_server: list[list[np.ndarray]] = [[] for _ in range(plan.n)]
    mod = _residues(p, w_batch.shape[-1])

    def query(servers, functions, xs):
        # A generator, so that each answer is used before the next one is
        # computed and a block's answers are never all held at once.
        for server, function, w in zip(servers, functions, xs):
            per_server[server - 1].append(w)
            yield mod[np.einsum("...ij,...j->...i", f_batch[function - 1], w)]

    run_plan(plan, w_batch, draw, lambda x, z: mod[x + z], lambda a, b: mod[a - b], query)
    return per_server


def _tv(a: np.ndarray, b: np.ndarray) -> float:
    """Total variation distance between the laws of two count arrays."""
    return float(0.5 * abs(a / a.sum() - b / b.sum()).sum())


def uniformity_test(
    k: int, n: int, m: int, p: int, l: int, trials: int, seed: int = 0, resample_f: bool = True
) -> UniformityResult:
    """Monte-Carlo comparison of server views across composition orders.

    Per order, `trials` independent protocol instances (fresh functions
    unless resample_f is False, fresh inputs, fresh pads) are evaluated
    and each server's full input tuple is histogrammed.  Total variation
    distances are computed between every pair of order-conditioned
    joint distributions, plus a split-half self distance per order as a
    noise floor, plus a per-slot chi-square against uniform.

    Orders are exhausted while K! <= SAMPLED_SIGMA_COUNT; beyond that a
    seeded sample of SAMPLED_SIGMA_COUNT orders is used and the result
    says so.  Trials run in chunks of UNIFORMITY_CHUNK.
    """
    import numpy as np
    from scipy.stats import chi2 as chi2_dist

    slot_cells = p**l
    if slot_cells > 32:
        raise GuardExceeded(f"p^L = {slot_cells} > 32: cells are not enumerable")
    if trials < 2:
        raise ValueError("need at least 2 trials")

    sigmas, sampled = _pick_orders(k, SAMPLED_SIGMA_COUNT, Rng(seed).child("uniformity-sigmas"))
    plans = [build_plan(k, n, m, sigma) for sigma in sigmas]
    slots_per_server = [plans[0].server.count(server) for server in range(1, n + 1)]
    joint_cells = [slot_cells**s for s in slots_per_server]
    entries = len(sigmas) * 2 * sum(joint_cells)
    if entries > JOINT_ENTRY_CAP:
        # In words: the count itself can pass int-to-str's digit limit.
        raise GuardExceeded(f"joint counts need over {JOINT_ENTRY_CAP} entries: {len(sigmas)}"
                            f" orders x 2 halves x the sum over servers of (p^L)^slots,"
                            f" p^L = {slot_cells}, slots per server {slots_per_server}")

    if not resample_f:
        f_batch = np.array(generate_functions(k, l, p, Rng(seed).child("functions")), dtype=np.int64)

    powers = np.array([p**i for i in range(l)], dtype=np.int64)
    # Per server: joint-tuple counts by (order, half, cell).  A cell codes
    # a server's input tuple with slot s's value (its L entries in base p)
    # as digit s in base slot_cells.
    joint = [np.zeros((len(sigmas), 2, cells), dtype=np.int64) for cells in joint_cells]
    for si, (sigma, plan) in enumerate(zip(sigmas, plans)):
        nprng = np.random.default_rng(Rng(seed).child(f"uniformity:{sigma}").seed)
        for done in range(0, trials, UNIFORMITY_CHUNK):
            t = min(UNIFORMITY_CHUNK, trials - done)
            if resample_f:
                f_batch = _sample_invertible_batch(k, l, p, t, nprng)
            w_batch = nprng.integers(0, p, size=(max(m, 1), t, l), dtype=np.int64)
            draw = lambda _mid: nprng.integers(0, p, size=(t, l), dtype=np.int64)
            for srv, inputs in enumerate(_batch_eval(plan, f_batch, w_batch, draw, p)):
                code = np.zeros(t, dtype=np.int64)
                for s, x in enumerate(inputs):
                    code += np.einsum("ij,j->i", x, powers * slot_cells**s)
                half = t // 2
                joint[srv][si, 0] += np.bincount(code[:half], minlength=joint_cells[srv])
                joint[srv][si, 1] += np.bincount(code[half:], minlength=joint_cells[srv])

    labels = [str(s) for s in sigmas]
    totals = [counts.sum(axis=1) for counts in joint]
    pvalues = []  # per server, (order, slot)
    for tot, count in zip(totals, slots_per_server):
        # Per-slot counts by (order, slot, cell): slot s's are the totals
        # summed over every other digit.
        counts = np.zeros((len(sigmas), count, slot_cells), dtype=np.int64)
        for s in range(count):
            counts[:, s] = tot.reshape(len(sigmas), -1, slot_cells, slot_cells**s).sum(axis=(1, 3))
        expected = counts.sum(axis=2, keepdims=True) / slot_cells
        stats = ((counts - expected) ** 2 / expected).sum(axis=2)
        pvalues.append(chi2_dist.sf(stats, slot_cells - 1))
    tv_self: dict[tuple[str, int], float] = {}
    chi2_pvalues: dict[tuple[str, int, int], float] = {}
    for si, label in enumerate(labels):
        for srv in range(n):
            tv_self[(label, srv + 1)] = _tv(*joint[srv][si])
            for s, pvalue in enumerate(pvalues[srv][si]):
                chi2_pvalues[(label, srv + 1, s)] = float(pvalue)
    tv_cross = {
        (labels[a], labels[b], srv + 1): _tv(totals[srv][a], totals[srv][b])
        for a, b in combinations(range(len(sigmas)), 2)
        for srv in range(n)
    }

    return UniformityResult(
        k=k, n=n, m=m, p=p, l=l, trials=trials, resample_f=resample_f,
        sigmas_sampled=sampled, n_sigmas=len(sigmas),
        slot_cells=slot_cells, slots_per_server=slots_per_server,
        tv_cross=tv_cross, tv_self=tv_self, chi2_pvalues=chi2_pvalues,
    )


# -- adversarial check: reverse-computation attacker ---------------------------


def _hidden_images(
    functions: list[FieldMatrix], start: FieldVector, first: int, p: int
) -> list[tuple[tuple[int, ...], FieldVector]]:
    """Every run of 0..K-2 distinct functions other than `first`, with
    the image of `start` under it.

    Listed breadth-first: shorter runs first, runs of one length in
    lexicographic order, so each prefix's image is computed once.
    """
    level = [((), start)]
    listed = list(level)
    for _ in range(len(functions) - 2):
        level = [
            (hidden + (h,), mat_vec_mul(functions[h - 1], value, p))
            for hidden, value in level
            for h in range(1, len(functions) + 1)
            if h != first and h not in hidden
        ]
        listed += level
    return listed


def sigma_attack(
    marginal: MarginalQueryList, functions: list[FieldMatrix], p: int, rng: Rng
) -> Permutation:
    """One curious server's best guess at the composition order.

    Builds a consistency graph: for queries a < b of different functions
    in its own view, if input_b equals the output of a carried through
    0..K-2 hidden functions, the attacker learns that f_a, the hidden
    functions and f_b are consecutive steps of the order, in that
    sequence.  It then guesses uniformly among the orders consistent
    with every observed run; with no usable runs that is a uniform guess.
    """
    entries = marginal.entries
    runs: set[tuple[int, ...]] = set()
    for a, (f_a, w_a) in enumerate(entries):
        later = [(f_b, w_b) for f_b, w_b in entries[a + 1:] if f_b != f_a]
        if not later:
            continue
        images = _hidden_images(functions, mat_vec_mul(functions[f_a - 1], w_a, p), f_a, p)
        for f_b, w_b in later:
            # The fewest hidden steps from output a to input b that avoid f_b.
            hidden = next((run for run, value in images if value == w_b and f_b not in run), None)
            if hidden is not None:
                runs.add((f_a, *hidden, f_b))

    # An order fits when each run is a stretch of its consecutive steps.
    orders = enumerate_permutations(len(functions))
    candidates = [
        perm for perm in orders
        if all(perm.mapping[perm.mapping.index(run[0]):][: len(run)] == run for run in runs)
    ] or orders
    if len(candidates) == 1:
        return candidates[0]
    return rng.choice(candidates)


def naive_chain_run(
    sigma: Permutation, servers: list[Server], w: FieldVector, p: int
) -> FieldVector:
    """Negative control: the obvious interleaved chain, which leaks.

    Query j goes to server ((j-1) mod N) + 1 with function s_j and the
    previous answer as input, so a server holding two consecutive-ish
    steps can reverse-compute the order.  Audit-only; never used by the
    real client.
    """
    prev = w
    n = len(servers)
    for j, func in enumerate(sigma.mapping, start=1):
        (prev,) = servers[(j - 1) % n].serve([func], [prev])
    return prev


@dataclass
class AttackCampaignResult:
    scheme: str
    k: int
    n: int
    trials: int
    per_server_rate: list[float]
    uniform_rate: float  # 1/K!
    three_sigma_band: float

    def within_uniform_band(self) -> bool:
        lo = self.uniform_rate - self.three_sigma_band
        hi = self.uniform_rate + self.three_sigma_band
        return all(lo <= r <= hi for r in self.per_server_rate)

    @property
    def best_rate(self) -> float:
        return max(self.per_server_rate)


def attack_campaign(
    k: int, n: int, trials: int, l: int = 1, seed: int = 0, scheme: str = "real"
) -> AttackCampaignResult:
    """Run the attacker against fresh instances and count exact recoveries.

    scheme="real" executes the actual protocol; scheme="naive" executes
    the broken interleaved chain as a negative control.  Each trial
    draws a fresh order, fresh functions, and fresh inputs over
    GF(DEFAULT_MODULUS).
    """
    if scheme not in ("real", "naive"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if trials < 1:
        raise ValueError("need at least 1 trial")
    p = DEFAULT_MODULUS
    root = Rng(seed).child(f"attack:{scheme}:{k}:{n}")
    hits = [0] * n
    for t in range(trials):
        trng = root.child(str(t))
        sigma = random_permutation(k, trng)
        functions = generate_functions(k, l, p, trng)
        servers = [Server(i + 1, functions, p) for i in range(n)]
        if scheme == "real":
            m = n - 1 if (k > n and n >= 2) else 1
            config = RunConfig(k=k, n=n, m=m, l=l, p=p, seed=trng.seed)
            w = generate_inputs(m, l, p, trng)
            run_protocol(config, sigma, w, SimTransport(servers))
        else:
            w = sample_uniform_vector(l, p, trng)
            naive_chain_run(sigma, servers, w, p)
        guess_rng = trng.child("guess")
        for i, server in enumerate(servers):
            guess = sigma_attack(server.marginal, functions, p, guess_rng)
            if guess.mapping == sigma.mapping:
                hits[i] += 1
    uniform = 1.0 / factorial(k)
    band = 3.0 * math.sqrt(uniform * (1.0 - uniform) / trials)
    return AttackCampaignResult(
        scheme=scheme, k=k, n=n, trials=trials,
        per_server_rate=[h / trials for h in hits],
        uniform_rate=uniform, three_sigma_band=band,
    )


# -- rate and converse quantities ----------------------------------------------


@dataclass
class RateVerdict:
    measured: Fraction
    lower_bound: Fraction
    upper_bound: Fraction
    asymptotic_limit: Fraction
    gap: Fraction
    ok: bool


def rate_report(report: RunReport) -> RateVerdict:
    """Exact rate bookkeeping for one run.

    measured = KM/D as a fraction; the capacity window is
    (1 - 1/N)/(1 - 1/max(K, N)) <= C <= 1.  The verdict fails if the
    measured rate exceeds 1 or the scheme's own asymptotic limit.
    """
    measured = Fraction(*report.rate)
    lower, limit = rate_bounds(report.k, report.n)
    upper = Fraction(1)
    ok = measured <= upper and measured <= limit
    return RateVerdict(
        measured=measured, lower_bound=lower, upper_bound=upper,
        asymptotic_limit=limit, gap=upper - measured, ok=ok,
    )


@dataclass
class ConverseResult:
    m: int
    counts: list[tuple[int, int, int]]  # (function, d_k, slack)
    ok: bool


def converse_counts(report: RunReport) -> ConverseResult:
    """Check the per-function workload floor: D_k >= M for every k."""
    counts = [(idx + 1, d, d - report.m) for idx, d in enumerate(report.d_k)]
    return ConverseResult(m=report.m, counts=counts, ok=all(d >= report.m for _, d, _ in counts))


@dataclass
class RankDecayResult:
    l: int
    m: int
    p: int
    trials: int
    empirical: float
    bound: float
    stderr: float
    certain: bool  # M > L: deficiency is certain, probability is exactly 1
    ok: bool


def rank_decay_experiment(
    l: int, m: int, p: int, trials: int, seed: int = 0
) -> RankDecayResult:
    """Estimate P(rank of M uniform vectors in GF(p)^L < M) vs its bound.

    The analytic union bound is (p^M - 1) / (p^L (p - 1)); the check
    allows three binomial standard errors of slack at the bound.
    """
    if trials < 1:
        raise ValueError("need at least 1 trial")
    if m > l:
        return RankDecayResult(
            l=l, m=m, p=p, trials=trials, empirical=1.0,
            bound=1.0, stderr=0.0, certain=True, ok=True,
        )
    rng = Rng(seed).child(f"rank-decay:{p}:{l}:{m}")
    hits = 0
    for _ in range(trials):
        vectors = [sample_uniform_vector(l, p, rng) for _ in range(m)]
        if rank(vectors, p) < m:
            hits += 1
    empirical = hits / trials
    bound = (p**m - 1) / (p**l * (p - 1))
    stderr = math.sqrt(bound * (1.0 - bound) / trials)
    return RankDecayResult(
        l=l, m=m, p=p, trials=trials, empirical=empirical,
        bound=bound, stderr=stderr, certain=False,
        ok=empirical <= bound + 3.0 * stderr,
    )
