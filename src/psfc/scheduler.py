"""Query planning: who computes what, on which vector, in which order.

The planner splits into a composition-order-independent *function
assignment* and an order-dependent *vector assignment*:

* K <= N: one server per function.  Request m becomes a K-query chain;
  query j goes to server s_j, asks for function s_j, and feeds it the
  previous answer.  Each server only ever computes its own function, so
  its view carries no order information.

* K > N, N >= 2: requests are grouped into batches of N-1 inputs and
  served by M' + K - 1 identical two-phase *blocks*.  In phase 1 server
  n computes F_n on N-1 vectors; in phase 2 every server computes
  F_{N+1}..F_K once each.  A block therefore always issues N(K-1)
  queries with a fixed per-server function column, whatever the order.
  With pi the inverse of the composition order, block m advances step
  pi_n of batch m - pi_n + 1 at server n (phase 1) and step pi_{N+i} of
  batch m - pi_{N+i} + 1 across servers (phase 2, function N+i).  Phase-2
  inputs at servers 1..N-1 are one-time-padded with a per-block mask
  Z[m,i]; server N receives the bare mask so the client can cancel the
  pad image from the other answers.  Any batch index outside [1..M']
  turns into a fresh placeholder vector: the query is still issued, so
  the servers' view stays byte-identical for every order.

* leftover requests (N-1 does not divide M) and the N = 1 degenerate
  case fall back to asking server 1 to evaluate all K! composition
  chains for the request, K*K! queries per request, enumerated in a
  fixed lexicographic order.  Only the chain matching the secret order
  is decoded; the rest are camouflage.

A plan is symbolic: inputs are expressions over raw inputs, stored task
outputs, masks, placeholders, and previous chain answers.  `run_plan` is
the one interpreter of that language.  It is written against a value
backend (how to draw a pad, add it, cancel its image, and ask a server),
so the client (field vectors), the audit (numpy trial stacks), the demo
(symbolic terms) and the feasibility test (block numbers) all execute
the same plan the same way.  Nothing order-dependent ever reaches a
server except the input values themselves, which are distributed
identically for every order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import NamedTuple

from .protocol import MAX_ENUMERABLE_K, KTooLarge, Permutation

__all__ = [
    "InvalidRegime",
    "DependencyViolation",
    "MissingValue",
    "BlockPlan",
    "MaskLedger",
    "PlannedQuery",
    "QueryPlan",
    "build_blocks",
    "plan_vectors",
    "schedule_chain",
    "schedule_fallback",
    "build_plan",
    "query_count",
    "rate_bounds",
    "run_plan",
]


class InvalidRegime(ValueError):
    """Scheduler called outside its (K, N) regime."""


class DependencyViolation(RuntimeError):
    """The plan referenced a value that is not resolved yet (a bug)."""


class MissingValue(RuntimeError):
    """Decoding found an unresolved output (a bug)."""


# Input expressions (what the client sends):
#   ("w", flat)            raw input vector, 0-based flat index
#   ("out", m, k, i)       stored output i of task (batch m, step k)
#   ("mask", mid)          the raw mask vector Z[mid]
#   ("ph", pid)            a fresh uniform placeholder, drawn once
#   ("xor", base, mid)     base expression padded with Z[mid]
#   ("prev", cid)          previous answer of chain cid
#
# Effects (what the client does with the answer):
#   ("out", m, k, i)             store as output i of task (m, k)
#   ("masked", m, k, i, mid)     padded image; store after cancelling Z[mid]
#   ("img", mid)                 answer is the pad image of Z[mid]
#   ("prev", cid)                remember as chain cid's latest answer
#   ("final", out)               result of request `out` (flat index)
#   ("drop",)                    camouflage answer, discarded


class PlannedQuery(NamedTuple):
    server: int
    function: int
    expr: tuple
    effect: tuple
    block: int  # 1-based block index; 0 for chain / fallback queries


@dataclass(frozen=True)
class BlockPlan:
    """One two-phase block; `columns[n-1]` is server n's function column."""

    index: int
    columns: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MaskLedger:
    """Mask ids by (block, slot) plus the number of placeholders drawn."""

    mask_ids: dict[tuple[int, int], int]
    placeholder_count: int


@dataclass(frozen=True)
class QueryPlan:
    k: int
    n: int
    m: int
    m_prime: int
    r: int
    n_blocks: int
    queries: list[PlannedQuery]
    ledger: MaskLedger

    def __len__(self) -> int:
        return len(self.queries)


def _function_column(k: int, n: int, server: int) -> tuple[int, ...]:
    return (server,) * (n - 1) + tuple(range(n + 1, k + 1))


def build_blocks(k: int, n: int, m_prime: int) -> list[BlockPlan]:
    """The M' + K - 1 identical blocks of the K > N regime.

    The result depends only on (K, N, M'): the function assignment is
    deterministic and identical for every composition order.
    """
    if k <= n:
        raise InvalidRegime(f"blocks need K > N (got K={k}, N={n}); use the chain scheme")
    if n < 2:
        raise InvalidRegime("blocks need N >= 2; route everything through the fallback")
    if m_prime < 1:
        raise InvalidRegime(f"need at least one batch, got M'={m_prime}")
    columns = tuple(_function_column(k, n, srv) for srv in range(1, n + 1))
    return [BlockPlan(index=m, columns=columns) for m in range(1, m_prime + k)]


def plan_vectors(
    sigma: Permutation, k: int, n: int, m_prime: int, blocks: list[BlockPlan]
) -> QueryPlan:
    """Attach input expressions to the block schedule for one order.

    Canonical in-block order: phase-1 rows server by server, then
    phase-2 rows server by server.  Each server therefore always sees
    its fixed column (N-1 copies of F_n, then F_{N+1}..F_K) per block.
    """
    if sigma.size != k:
        raise InvalidRegime(f"order has size {sigma.size}, expected K={k}")
    pi = sigma.inverse().mapping
    # tuple.__new__ builds a PlannedQuery without the Python-level
    # NamedTuple constructor, which was a third of the build time.
    row = tuple.__new__
    queries: list[PlannedQuery] = []
    append = queries.append
    mask_ids: dict[tuple[int, int], int] = {}
    ph = 0
    width = n - 1
    comps = range(1, n)
    # Phase 1: server n advances step pi_n of batch m - pi_n + 1.
    phase1 = [(srv, pi[srv - 1]) for srv in range(1, n + 1)]
    # Phase 2: function N+i advances step pi_{N+i}.
    phase2 = [(i, n + i, pi[n + i - 1]) for i in range(1, k - n + 1)]
    drop = ("drop",)

    # A task's input, component comp, is the raw input for step 1 and
    # otherwise the stored output of the previous step.
    for block in blocks:
        m = block.index
        for srv, step in phase1:
            batch = m - step + 1
            if not 1 <= batch <= m_prime:
                for _ in comps:
                    append(row(PlannedQuery, (srv, srv, ("ph", ph), drop, m)))
                    ph += 1
            elif step == 1:
                first = (batch - 1) * width - 1
                for comp in comps:
                    append(row(PlannedQuery, (srv, srv, ("w", first + comp),
                                              ("out", batch, 1, comp), m)))
            else:
                for comp in comps:
                    append(row(PlannedQuery, (srv, srv, ("out", batch, step - 1, comp),
                                              ("out", batch, step, comp), m)))
        # Phase 2: function N+i everywhere; servers below N get padded
        # inputs, server N gets the bare mask.
        slots = [(func, step, mask_ids.setdefault((m, i), len(mask_ids)))
                 for i, func, step in phase2]
        for srv in comps:
            for func, step, mid in slots:
                batch = m - step + 1
                if not 1 <= batch <= m_prime:
                    base = ("ph", ph)
                    ph += 1
                    effect = drop
                else:
                    base = (("w", (batch - 1) * width + srv - 1) if step == 1
                            else ("out", batch, step - 1, srv))
                    effect = ("masked", batch, step, srv, mid)
                append(row(PlannedQuery, (srv, func, ("xor", base, mid), effect, m)))
        for func, _step, mid in slots:
            append(row(PlannedQuery, (n, func, ("mask", mid), ("img", mid), m)))

    return QueryPlan(
        k=k,
        n=n,
        m=m_prime * (n - 1),
        m_prime=m_prime,
        r=0,
        n_blocks=len(blocks),
        queries=queries,
        ledger=MaskLedger(mask_ids=mask_ids, placeholder_count=ph),
    )


def schedule_chain(sigma: Permutation, k: int, n: int, request: int = 1) -> list[PlannedQuery]:
    """The K <= N chain for one request: server s_j computes F_{s_j}."""
    if k > n:
        raise InvalidRegime(f"chain scheme needs K <= N (got K={k}, N={n})")
    if sigma.size != k:
        raise InvalidRegime(f"order has size {sigma.size}, expected K={k}")
    w = request - 1
    cid = w
    queries = []
    for j, func in enumerate(sigma.mapping, start=1):
        expr = ("w", w) if j == 1 else ("prev", cid)
        effect = ("final", w) if j == k else ("prev", cid)
        queries.append(PlannedQuery(func, func, expr, effect, 0))
    return queries


def schedule_fallback(sigma: Permutation, r: int, first_request: int = 1) -> list[PlannedQuery]:
    """All K! chains per leftover request, every query to server 1.

    The chain enumeration is lexicographic and fixed, so the server's
    view is independent of which chain the client actually wants.  Only
    the last query of the chain equal to sigma is marked final; the
    other chains end in a dropped answer.

    The chains run one after another, so they all link through one
    ("prev", 0): every row but a chain's first and the final row is one
    of 2K rows built once.
    """
    if r < 0:
        raise InvalidRegime(f"leftover request count must be >= 0, got {r}")
    if r == 0:
        return []
    k = sigma.size
    if k > MAX_ENUMERABLE_K:
        raise KTooLarge(f"the fallback enumerates K! chains; K <= {MAX_ENUMERABLE_K}, got {k}")
    if k < 2:
        raise InvalidRegime("K = 1 always runs as a chain")
    functions = range(1, k + 1)
    link = ("prev", 0)
    step = {f: PlannedQuery(1, f, link, link, 0) for f in functions}
    drop = {f: PlannedQuery(1, f, link, ("drop",), 0) for f in functions}
    chains = [
        (tau[0], [step[f] for f in tau[1:-1]], tau[-1], tau == sigma.mapping)
        for tau in permutations(functions)  # lexicographic
    ]
    queries: list[PlannedQuery] = []
    for w in range(first_request - 1, first_request - 1 + r):
        head = ("w", w)
        start = {f: PlannedQuery(1, f, head, link, 0) for f in functions}
        for first, middle, last, mine in chains:
            queries.append(start[first])
            queries += middle
            queries.append(PlannedQuery(1, last, link, ("final", w), 0) if mine else drop[last])
    return queries


def build_plan(k: int, n: int, m: int, sigma: Permutation) -> QueryPlan:
    """Full ordered plan for M requests under composition order sigma."""
    no_masks = MaskLedger(mask_ids={}, placeholder_count=0)
    if k <= n:
        queries = [q for request in range(1, m + 1) for q in schedule_chain(sigma, k, n, request)]
        return QueryPlan(k=k, n=n, m=m, m_prime=0, r=0, n_blocks=0, queries=queries,
                         ledger=no_masks)
    m_prime, r = divmod(m, n - 1) if n > 1 else (0, m)
    if m_prime == 0:
        # N = 1, or too few requests to fill a batch: everything goes
        # through the fallback rather than blocks of pure placeholders.
        return QueryPlan(k=k, n=n, m=m, m_prime=0, r=r, n_blocks=0,
                         queries=schedule_fallback(sigma, r), ledger=no_masks)
    block_plan = plan_vectors(sigma, k, n, m_prime, build_blocks(k, n, m_prime))
    queries = block_plan.queries + schedule_fallback(sigma, r, m_prime * (n - 1) + 1)
    return QueryPlan(
        k=k, n=n, m=m, m_prime=m_prime, r=r, n_blocks=block_plan.n_blocks,
        queries=queries, ledger=block_plan.ledger,
    )


def query_count(k: int, n: int, m: int) -> int:
    """Total queries D the plan will issue for (K, N, M).

    K <= N: KM.  N = 1 (or fewer than N-1 requests): M * K * K! via the
    fallback.  Otherwise, with M = M'(N-1) + r: (M'+K-1) N(K-1) blocks
    plus r * K * K! fallback queries.
    """
    if k <= n:
        return k * m
    if n == 1:
        return m * k * factorial(k)
    m_prime, r = divmod(m, n - 1)
    block_queries = (m_prime + k - 1) * n * (k - 1) if m_prime else 0
    return block_queries + r * k * factorial(k)


def rate_bounds(k: int, n: int) -> tuple[Fraction, Fraction]:
    """(capacity lower bound, the scheme's asymptotic rate) for (K, N).

    The capacity window is (1 - 1/N)/(1 - 1/max(K, N)) <= C <= 1; the
    scheme approaches 1 (chains), 1/K! (N = 1, all-chains fallback) or
    K(N-1)/(N(K-1)) (blocks) as M grows.
    """
    biggest = max(k, n)
    if biggest == 1:
        lower = Fraction(1)  # K = N = 1: a single chain query achieves rate 1
    else:
        lower = (1 - Fraction(1, n)) / (1 - Fraction(1, biggest))
    if k <= n:
        limit = Fraction(1)
    elif n == 1:
        limit = Fraction(1, factorial(k))
    else:
        limit = Fraction(k * (n - 1), n * (k - 1))
    return lower, limit


# -- the plan interpreter ------------------------------------------------------


def run_plan(plan: QueryPlan, inputs, draw, add, sub, query) -> list:
    """Execute `plan` over a value backend and return outputs in input order.

    The backend is five callables over its own value type:
      inputs[i]         raw input vector i (flat request index);
      draw(mid)         a fresh uniform value: mask `mid`, or a
                        placeholder when mid is None;
      add(x, z)         x padded with mask z;
      sub(a, b)         a with the pad image b cancelled;
      query(rows)       the answers F_f(x) to rows [(s, f, x), ...], an
                        iterable in row order.
    The plan runs one group at a time: each block's N(K-1) rows go in one
    `query` call, because no block reads its own answers; each chain and
    fallback row goes alone, because it reads the previous answer.  All
    inputs of a group are built before any of its answers is used, so a
    same-block read raises DependencyViolation.  Masks and placeholders
    are drawn at first use, in plan order, a padded placeholder before
    its mask, so a seeded backend sees one fixed sequence of draws.  The
    interpreter owns all plan state: task outputs, chain predecessors,
    masks, pad images, pending unmasks.
    """
    outs: dict = {}  # keyed by the expression ("out", m, k, i) that reads it
    prev: dict = {}
    masks: dict = {}
    images: dict = {}
    pending: dict = {}
    outputs: list = [None] * plan.m

    def mask(mid):
        z = masks.get(mid)
        if z is None:
            z = masks[mid] = draw(mid)
        return z

    queries = plan.queries
    total = len(queries)
    # Groups: n_blocks blocks of N(K-1) rows, then single rows.
    width = plan.n * (plan.k - 1)
    blocks_end = plan.n_blocks * width
    start = 0
    while start < total:
        stop = start + width if start < blocks_end else start + 1
        group = queries[start:stop]
        start = stop
        rows = []
        for server, function, expr, _effect, _block in group:
            base = expr[1] if expr[0] == "xor" else expr
            tag = base[0]
            if tag == "prev":
                x = prev.get(base[1])
            elif tag == "w":
                x = inputs[base[1]]
            elif tag == "out":
                x = outs.get(base)
            elif tag == "ph":
                x = draw(None)
            else:  # "mask"
                x = mask(base[1])
            if x is None:
                raise DependencyViolation(f"{base} is referenced before it is resolved")
            if base is not expr:
                x = add(x, mask(expr[2]))
            rows.append((server, function, x))

        for (_, _, _, effect, _), ans in zip(group, query(rows), strict=True):
            eff = effect[0]
            if eff == "out":
                outs[effect] = ans
            elif eff == "prev":
                prev[effect[1]] = ans
            elif eff == "masked":
                key, mid = ("out",) + effect[1:4], effect[4]
                image = images.get(mid)
                if image is None:
                    pending.setdefault(mid, []).append((key, ans))
                else:
                    outs[key] = sub(ans, image)
            elif eff == "img":
                mid = effect[1]
                images[mid] = ans
                for key, masked in pending.pop(mid, ()):
                    outs[key] = sub(masked, ans)
            elif eff == "final":
                outputs[effect[1]] = ans
            # "drop": camouflage answer, nothing to do

    # Batch m component j is the last step's output; it lands at flat
    # position (m-1)(N-1) + j - 1.
    n = plan.n
    for batch in range(1, plan.m_prime + 1):
        for comp in range(1, n):
            outputs[(batch - 1) * (n - 1) + comp - 1] = outs.get(("out", batch, plan.k, comp))
    missing = [i for i, value in enumerate(outputs) if value is None]
    if missing:
        raise MissingValue(f"outputs {missing} were never resolved")
    return outputs
