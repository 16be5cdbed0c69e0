"""Planner tests: block structure, vector assignment, counts, invariance.

The K=4/N=3 expectations mirror the two fully worked schedules for
orders (1 3 4 2) and (4 3 2 1); the K=3/N=2 expectations mirror the
per-server function-column summary of that scheme.
"""

import dataclasses
import gc
import weakref
from itertools import permutations
from math import factorial
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psfc.client import run_protocol
from psfc.protocol import KTooLarge, Permutation, RunConfig, compose_reference, enumerate_permutations
from psfc.rand import Rng
from psfc.runtime import Server, SimTransport, generate_functions, generate_inputs
from psfc.scheduler import (
    DependencyViolation,
    InvalidRegime,
    QueryPlan,
    _IMAGE,
    _MASK,
    _MASKED,
    _PH,
    _REG,
    _STORE,
    build_plan,
    query_count,
    run_plan,
)


def _mask_id(plan, block, slot):
    """Masks are numbered block by block, K - N to a block."""
    assert 1 <= block <= plan.n_blocks and 1 <= slot <= plan.k - plan.n
    mid = (block - 1) * (plan.k - plan.n) + slot - 1
    assert mid < plan.masks
    return mid


# -- block function columns -----------------------------------------------------


def _columns(plan, block):
    """Each server's function column in `block`."""
    rows = [q for q in _rows(plan) if q.block == block]
    return tuple(tuple(q.function for q in rows if q.server == s) for s in range(1, plan.n + 1))


def test_block_columns_k4_n3():
    for sigma in enumerate_permutations(4):
        plan = build_plan(4, 3, 4, sigma)
        assert plan.n_blocks == 5  # M' + K - 1
        for block in range(1, 6):
            assert _columns(plan, block) == ((1, 1, 4), (2, 2, 4), (3, 3, 4))


def test_block_columns_k3_n2():
    plan = build_plan(3, 2, 4, Permutation.from_paper_order((2, 3, 1)))
    assert plan.n_blocks == 6
    for block in range(1, 7):
        assert _columns(plan, block) == ((1, 3), (2, 3))


def test_block_count_example():
    assert build_plan(4, 3, 10, Permutation.identity(4)).n_blocks == 8


def test_build_blocks_regime_errors():
    # Blocks need K > N, N >= 2 and a full batch of N - 1 requests; any
    # other shape runs as chains (K <= N) or wholly through the fallback.
    for k, n, m in ((2, 2, 1), (3, 1, 1), (4, 3, 1)):
        plan = build_plan(k, n, m, Permutation.identity(k))
        assert plan.n_blocks == plan.m_prime == plan.masks == 0
        assert _PH not in plan.source_kind
        assert all(q.block == 0 for q in _rows(plan))
    assert all(q.server == q.function for q in _rows(build_plan(2, 2, 1, Permutation.identity(2))))
    assert all(q.server == 1 for q in _rows(build_plan(4, 3, 1, Permutation.identity(4))))


# -- block plans against the worked K=4, N=3 tables ---------------------------


def _queries_at(plan, block, server):
    return [q for q in _rows(plan) if q.block == block and q.server == server]


def test_plan_vectors_order_1342_blocks():
    sigma = Permutation.from_paper_order((1, 3, 4, 2))  # steps: F2, F4, F3, F1
    plan = build_plan(4, 3, 2, sigma)  # M' = 1

    # Block 1: only server 2 phase 1 touches real data (W[1,1], W[1,2]).
    s2 = _queries_at(plan, 1, 2)
    assert [q.function for q in s2] == [2, 2, 4]
    assert s2[0].expr == ("w", 0) and s2[1].expr == ("w", 1)
    for q in _queries_at(plan, 1, 1) + _queries_at(plan, 1, 3):
        if q.function in (1, 3):
            assert q.expr[0] == "ph"

    # Block 2, server 1 phase 2: the step-2 value of batch 1, padded.
    s1 = _queries_at(plan, 2, 1)
    assert s1[2].function == 4
    assert s1[2].expr == ("xor", ("out", 1, 1, 1), _mask_id(plan, 2, 1))
    # Server 2 phase 2 pads component 2; server 3 receives the raw mask.
    s2 = _queries_at(plan, 2, 2)
    assert s2[2].expr == ("xor", ("out", 1, 1, 2), _mask_id(plan, 2, 1))
    s3 = _queries_at(plan, 2, 3)
    assert s3[2].expr == ("mask", _mask_id(plan, 2, 1))

    # Block 3, server 3 phase 1: step-3 inputs of batch 1 (out of step 2).
    s3 = _queries_at(plan, 3, 3)
    assert s3[0].expr == ("out", 1, 2, 1)
    assert s3[1].expr == ("out", 1, 2, 2)

    # Block 4, server 1 phase 1: the final step-4 inputs of batch 1.
    s1 = _queries_at(plan, 4, 1)
    assert s1[0].expr == ("out", 1, 3, 1)
    assert s1[1].expr == ("out", 1, 3, 2)
    assert s1[0].effect == ("out", 1, 4, 1)


def test_plan_vectors_order_4321_blocks():
    sigma = Permutation.from_paper_order((4, 3, 2, 1))  # identity steps
    plan = build_plan(4, 3, 8, sigma)  # M' = 4
    # Block 2, server 1 phase 1 reads the second batch raw.
    s1 = _queries_at(plan, 2, 1)
    assert s1[0].expr == ("w", 2)  # W[2,1]
    assert s1[1].expr == ("w", 3)  # W[2,2]
    # Block 2, server 2 phase 1 consumes batch 1 step-1 outputs.
    s2 = _queries_at(plan, 2, 2)
    assert s2[0].expr == ("out", 1, 1, 1)
    assert s2[1].expr == ("out", 1, 1, 2)


def test_plan_vectors_block1_placeholders():
    # In block 1 every task with batch index <= 0 becomes a placeholder.
    for sigma in enumerate_permutations(4):
        plan = build_plan(4, 3, 4, sigma)  # M' = 2
        pi = sigma.inverse().mapping
        for q in _queries_at(plan, 1, 1):
            if q.function == 1 and pi[0] > 1:
                assert q.expr[0] == "ph"


# -- the plan decoded into readable rows ----------------------------------------


class PlannedQuery(NamedTuple):
    """One decoded row.  A register reads as `QueryPlan.register_name`
    names it; a row's input may also be ("mask", mid), ("ph", pid) or
    ("xor", value, mid), and its effect ("masked", batch, step, comp,
    mid), ("img", mid) or ("drop",).
    """

    server: int
    function: int
    expr: tuple
    effect: tuple
    block: int  # 1-based block index; 0 for chain / fallback queries


def _rows(plan) -> list[PlannedQuery]:
    """The plan's columns as readable rows, in plan order."""
    name = plan.register_name
    width = plan.n * (plan.k - 1)
    rows = []
    columns = zip(plan.server, plan.function, plan.source_kind, plan.source,
                  plan.pad, plan.effect, plan.dest)
    for i, (server, function, kind, source, pad, effect, dest) in enumerate(columns):
        expr = name(source) if kind == _REG else ("mask" if kind == _MASK else "ph", source)
        if pad >= 0:
            expr = ("xor", expr, pad)
        if effect == _STORE:
            done = name(dest)
        elif effect == _MASKED:
            done = ("masked",) + name(dest)[1:] + (pad,)
        else:
            done = ("img", dest) if effect == _IMAGE else ("drop",)
        block = i // width + 1 if i < plan.n_blocks * width else 0
        rows.append(PlannedQuery(server, function, expr, done, block))
    return rows


def _reference_block_plan(sigma, k, n, m_prime):
    """The block plan written row by row, as the scheme states it."""
    pi = sigma.inverse().mapping
    rows, mask_ids, ph = [], {}, 0

    def in_expr(batch, step, comp):
        return ("w", (batch - 1) * (n - 1) + comp - 1) if step == 1 else ("out", batch, step - 1, comp)

    for m in range(1, m_prime + k):
        for srv in range(1, n + 1):
            step = pi[srv - 1]
            batch = m - step + 1
            for comp in range(1, n):
                if 1 <= batch <= m_prime:
                    rows.append(PlannedQuery(srv, srv, in_expr(batch, step, comp),
                                             ("out", batch, step, comp), m))
                else:
                    rows.append(PlannedQuery(srv, srv, ("ph", ph), ("drop",), m))
                    ph += 1
        for srv in range(1, n + 1):
            for i in range(1, k - n + 1):
                func = n + i
                mid = mask_ids.setdefault((m, i), len(mask_ids))
                if srv == n:
                    rows.append(PlannedQuery(srv, func, ("mask", mid), ("img", mid), m))
                    continue
                step = pi[func - 1]
                batch = m - step + 1
                if 1 <= batch <= m_prime:
                    base, effect = in_expr(batch, step, srv), ("masked", batch, step, srv, mid)
                else:
                    base, effect = ("ph", ph), ("drop",)
                    ph += 1
                rows.append(PlannedQuery(srv, func, ("xor", base, mid), effect, m))
    return rows, mask_ids, ph


def _reference_plan(sigma, k, n, m):
    """The whole plan written row by row: the blocks, then each other
    request's chains (sigma for K <= N, all K! for the fallback), stepped
    level by level."""
    if k <= n:
        m_prime, first, chains = 0, 0, [sigma.mapping]
    else:
        m_prime, r = divmod(m, n - 1) if n > 1 else (0, m)
        first, chains = m - r, list(permutations(range(1, k + 1)))  # lexicographic
    rows = _reference_block_plan(sigma, k, n, m_prime)[0] if m_prime else []
    for w in range(first, m):
        for j in range(1, k + 1):
            for c, tau in enumerate(chains):
                if j < k:
                    effect = ("prev", c)
                else:
                    effect = ("final", w) if tau == sigma.mapping else ("drop",)
                server = tau[j - 1] if k <= n else 1
                expr = ("w", w) if j == 1 else ("prev", c)
                rows.append(PlannedQuery(server, tau[j - 1], expr, effect, 0))
    return rows


def test_plan_vectors_matches_reference_plan():
    for k in range(3, 6):
        for n in range(2, min(k, 5)):
            for m in (1, 2, 5, 8001):
                m_prime = m // (n - 1)
                if not m_prime:
                    continue  # no batch: build_plan takes the fallback
                orders = enumerate_permutations(k)
                for sigma in orders[:: len(orders) // (1 if m == 8001 else 3)]:
                    plan = build_plan(k, n, m_prime * (n - 1), sigma)
                    rows, mask_ids, ph = _reference_block_plan(sigma, k, n, m_prime)
                    assert _rows(plan) == rows, (k, n, m, sigma)
                    assert {key: _mask_id(plan, *key) for key in mask_ids} == mask_ids
                    assert plan.masks == len(mask_ids)
                    assert plan.source_kind.count(_PH) == ph


# -- chain scheme ---------------------------------------------------------------


def test_chain_order_21():
    sigma = Permutation.from_paper_order((2, 1))
    queries = _rows(build_plan(2, 2, 1, sigma))
    assert [(q.server, q.function) for q in queries] == [(1, 1), (2, 2)]
    assert queries[0].expr == ("w", 0)
    assert queries[1].expr[0] == "prev"


def test_chain_order_12():
    sigma = Permutation.from_paper_order((1, 2))
    queries = _rows(build_plan(2, 2, 1, sigma))
    assert [(q.server, q.function) for q in queries] == [(2, 2), (1, 1)]


def test_chain_k1():
    queries = _rows(build_plan(1, 1, 1, Permutation((1,))))
    assert [(q.server, q.function) for q in queries] == [(1, 1)]
    assert queries[0].effect[0] == "final"


def test_chain_regime_guard():
    # An order of the wrong size is refused in every regime.
    for k, n in ((2, 3), (3, 2), (3, 1)):
        with pytest.raises(InvalidRegime):
            build_plan(k, n, 1, Permutation.identity(k + 1))


# -- fallback ---------------------------------------------------------------------


def test_fallback_counts():
    assert len(build_plan(2, 1, 1, Permutation.identity(2))) == 4
    assert len(build_plan(3, 1, 1, Permutation.identity(3))) == 18
    # N - 1 = 2 divides M = 4: no leftover request, no fallback row.
    assert all(q.block for q in _rows(build_plan(4, 3, 4, Permutation.identity(4))))


def test_fallback_all_to_server_one_lex_order():
    queries = _rows(build_plan(2, 1, 1, Permutation.identity(2)))
    assert all(q.server == 1 for q in queries)
    # step 1 of the lexicographic chains (1,2) and (2,1), then step 2
    assert [q.function for q in queries] == [1, 2, 2, 1]


def test_fallback_final_effects_carry_chain_order():
    # A request's six chains run level by level, chain c linking through
    # ("prev", c).  Only the chain evaluating the secret order ends in a
    # final effect; every other chain's last answer is dropped.
    chains = list(permutations(range(1, 4)))
    for sigma in enumerate_permutations(3):
        mine = chains.index(sigma.mapping)
        queries = _rows(build_plan(3, 1, 5, sigma))[3 * 18:]  # requests 4 and 5
        for w, request in ((3, queries[:18]), (4, queries[18:])):
            levels = [request[6 * t:6 * t + 6] for t in range(3)]
            for t, level in enumerate(levels):
                assert [q.function for q in level] == [chain[t] for chain in chains]
                reads = [("w", w)] * 6 if t == 0 else [("prev", c) for c in range(6)]
                assert [q.expr for q in level] == reads
            for level in levels[:2]:
                assert [q.effect for q in level] == [("prev", c) for c in range(6)]
            assert [q.effect for q in levels[2]] == [
                ("final", w) if c == mine else ("drop",) for c in range(6)
            ]
            assert tuple(level[mine].function for level in levels) == sigma.mapping


# -- query_count -------------------------------------------------------------------


def test_query_count_worked_examples():
    for m_prime in (1, 5, 100):
        assert query_count(4, 3, 2 * m_prime) == 9 * m_prime + 27
    assert query_count(2, 2, 7) == 14
    assert query_count(3, 2, 5) == 28
    assert query_count(2, 1, 1) == 4
    assert query_count(3, 1, 2) == 36


def test_query_count_matches_plan_length():
    for k in range(1, 7):
        sigma = Permutation.identity(k)
        for n in range(1, 6):
            # K = 6 keeps M small: a leftover request is 720 chains.
            for m in range(1, 8 if k < 6 else 4):
                plan = build_plan(k, n, m, sigma)
                assert len(plan) == query_count(k, n, m), (k, n, m)


def test_fallback_beyond_the_enumeration_guard_raises():
    # The fallback lists all K! chains through the one K! enumeration.
    with pytest.raises(KTooLarge):
        build_plan(9, 1, 1, Permutation.identity(9))


# -- plan invariants -----------------------------------------------------------------


def test_per_server_function_sequence_independent_of_order():
    for k in range(1, 6):
        for n in range(1, 6):
            for m in (1, 3, 4):
                baseline = None
                for sigma in enumerate_permutations(k):
                    plan = build_plan(k, n, m, sigma)
                    per_server = [
                        tuple(q.function for q in _rows(plan) if q.server == s)
                        for s in range(1, n + 1)
                    ]
                    if baseline is None:
                        baseline = per_server
                    else:
                        assert per_server == baseline, (k, n, m, sigma)


def check_feasibility(plan: QueryPlan) -> None:
    """Run the plan on block numbers: a value is the block that produced it.

    Raw inputs, masks and placeholders are 0; padding and cancelling keep
    the later block.  A block query must read only values from earlier
    blocks, and run_plan itself rejects an unresolved reference, a read
    of its own block's answers, or an undecoded output.
    """
    blocks = iter(q.block for q in _rows(plan))

    def query(_servers, _functions, xs):
        answers = []
        for value in xs:
            block = next(blocks)
            if block:
                assert value < block, f"block {block} reads a value of block {value}"
            answers.append(block)
        return answers

    run_plan(plan, dict.fromkeys(range(plan.m), 0), lambda _mid: 0, max, max, query)


def test_feasibility_mechanical_check():
    for k in range(1, 6):
        for n in range(1, 6):
            for m in (1, 2, 5):
                for sigma in enumerate_permutations(k):
                    check_feasibility(build_plan(k, n, m, sigma))


def test_feasibility_check_rejects_same_block_reads():
    # A phase-1 output consumed in its own block must fail the check.
    plan = build_plan(4, 3, 2, Permutation.identity(4))
    rows = _rows(plan)
    i = next(i for i, q in enumerate(rows) if q.effect[0] == "out")
    source = list(plan.source)
    source[i + 1] = plan.dest[i]  # row i+1 now reads row i's answer
    broken = dataclasses.replace(plan, source=source)
    assert _rows(broken)[i + 1].expr == rows[i].effect
    # run_plan builds the whole block's inputs before it uses any answer.
    with pytest.raises(DependencyViolation):
        check_feasibility(broken)


def test_run_plan_sends_a_block_per_call():
    # Blocks go whole, N(K-1) rows a call; then each request outside the
    # blocks goes in K calls, one level of its chains each: one row for
    # K <= N, K! rows for the fallback.  The plan lists those exchanges,
    # and run_plan makes one query call per entry.
    for k in range(1, 6):
        orders = enumerate_permutations(k)
        for n in range(1, 5):
            for m in range(1, 6):
                batches = m // (n - 1) if k > n > 1 else 0
                n_blocks = batches + k - 1 if batches else 0
                chains, requests = (1, m) if k <= n else (factorial(k), m - batches * (n - 1))
                expected = [n * (k - 1)] * n_blocks + [chains] * (k * requests)
                for sigma in orders[:: 17 if k == 5 else 1]:
                    plan = build_plan(k, n, m, sigma)
                    ends = plan.exchanges
                    assert all(a < b for a, b in zip(ends, ends[1:])) and ends[-1] == len(plan)
                    assert [b - a for a, b in zip([0] + ends, ends)] == expected, (k, n, m, sigma)
                    sent = []

                    def query(servers, functions, xs):
                        sent.append((servers, functions, len(xs)))
                        return [0] * len(xs)

                    run_plan(plan, [0] * m, lambda _mid: 0, max, max, query)
                    # Each call's columns are the plan's own, sliced.
                    assert sent == [(plan.server[a:b], plan.function[a:b], b - a)
                                    for a, b in zip([0] + ends, ends)]
                    assert [size for _, _, size in sent] == expected


def test_run_plan_rejects_a_read_within_a_fallback_level():
    # Row 1 of a request's first level now reads the link that row 0,
    # in the same level, writes.  run_plan builds the whole level's
    # inputs before it uses any answer, so the read is unresolved.
    plan = build_plan(3, 1, 1, Permutation.identity(3))
    source = list(plan.source)
    source[1] = plan.dest[0]
    broken = dataclasses.replace(plan, source=source)
    assert _rows(broken)[1].expr == _rows(plan)[0].effect == ("prev", 0)
    with pytest.raises(DependencyViolation):
        check_feasibility(broken)


def test_run_plan_rejects_unresolved_reference():
    plan = build_plan(2, 2, 1, Permutation.identity(2))
    # The chain's first query reads the link it is about to write.
    broken = dataclasses.replace(plan, source=[plan.dest[0]] + plan.source[1:])
    assert _rows(broken)[0].expr == ("prev", 0)
    with pytest.raises(DependencyViolation):
        check_feasibility(broken)


@pytest.mark.parametrize("k, n", [(2, 2), (3, 1)])
def test_run_plan_rejects_a_link_left_by_an_earlier_request(k, n):
    # Requests reuse the chain-link registers.  Request 2's first row now
    # reads link 0, which request 1 wrote: a K <= N chain and a fallback.
    plan = build_plan(k, n, 2, Permutation.identity(k))
    first = len(plan) // 2
    source = list(plan.source)
    source[first] = plan.links
    broken = dataclasses.replace(plan, source=source)
    assert _rows(broken)[first].expr == ("prev", 0)
    check_feasibility(plan)
    with pytest.raises(DependencyViolation):
        check_feasibility(broken)


def test_mask_usage_exactly_n_queries_per_block():
    for sigma in enumerate_permutations(4):
        plan = build_plan(4, 3, 4, sigma)  # M'=2, blocks=5
        usage: dict[int, list] = {}
        for q in _rows(plan):
            if q.expr[0] == "xor":
                usage.setdefault(q.expr[2], []).append(q.block)
            elif q.expr[0] == "mask":
                usage.setdefault(q.expr[1], []).append(q.block)
        assert len(usage) == plan.masks == 5 * 1  # blocks x (K - N)
        for block in range(1, 6):
            assert usage[_mask_id(plan, block, 1)] == [block] * 3  # N queries


def test_placeholders_never_reused():
    for sigma in enumerate_permutations(4):
        plan = build_plan(4, 3, 2, sigma)
        seen = set()
        for q in _rows(plan):
            for expr in (q.expr, q.expr[1] if q.expr[0] == "xor" else None):
                if expr and expr[0] == "ph":
                    assert expr[1] not in seen
                    seen.add(expr[1])
        assert len(seen) == plan.source_kind.count(_PH)


def test_task_completion_follows_block_diagonal():
    # After block m, exactly the tasks with batch + step = m + 1 resolve.
    sigma = Permutation.from_paper_order((2, 4, 1, 3))
    plan = build_plan(4, 3, 6, sigma)  # M'=3
    resolved_at: dict[tuple[int, int], int] = {}
    for q in _rows(plan):
        if q.effect[0] in ("out", "masked"):
            batch, step = q.effect[1], q.effect[2]
            resolved_at.setdefault((batch, step), q.block)
    for (batch, step), block in resolved_at.items():
        assert batch + step == block + 1
    assert {(b, s) for b, s in resolved_at} == {
        (b, s) for b in range(1, 4) for s in range(1, 5)
    }


def test_blocks_strictly_sequential():
    plan = build_plan(4, 3, 4, Permutation.identity(4))
    blocks = [q.block for q in _rows(plan)]
    assert blocks == sorted(blocks)


def test_fallback_section_shared_and_sigma_free():
    # With N=1 the entire plan is order-independent camouflage except
    # for client-private effect tags: what the servers are sent is equal.
    plans = [build_plan(3, 1, 2, s) for s in enumerate_permutations(3)]
    sent = [[(q.server, q.function, q.expr, q.block) for q in _rows(p)] for p in plans]
    assert all(s == sent[0] for s in sent)


def test_plan_freed_after_del():
    # Plans are built fresh per call and nothing retains them.
    plan = build_plan(4, 3, 5, Permutation.identity(4))
    ref = weakref.ref(plan)
    del plan
    gc.collect()
    assert ref() is None


def test_task_outputs_written_exactly_once():
    # Task outputs are written once: each (batch, step, component)
    # appears in exactly one effect.
    for sigma in enumerate_permutations(4):
        plan = build_plan(4, 3, 6, sigma)
        written = []
        for q in _rows(plan):
            if q.effect[0] in ("out", "masked"):
                written.append((q.effect[1], q.effect[2], q.effect[3]))
        assert len(written) == len(set(written))


def test_mixed_regime_with_leftovers():
    # K=4, N=3, M=5: M'=2 batches plus r=1 leftover through the fallback.
    plan = build_plan(4, 3, 5, Permutation.identity(4))
    assert plan.m_prime == 2
    assert len(plan.exchanges) == 5 + 4  # the blocks, then the leftover's K levels
    assert len(plan) == (2 + 3) * 9 + 1 * 4 * factorial(4)
    tail = [q for q in _rows(plan) if q.block == 0]
    assert len(tail) == 4 * factorial(4)
    assert all(q.server == 1 for q in tail)
    # leftover request reads the fifth input vector
    assert all(q.expr == ("w", 4) for q in tail if q.expr[0] == "w")


def test_plan_build_allocates_no_per_query_objects():
    # The plan is flat integer columns: building the largest benchmark
    # plan leaves a handful of containers for the cyclic collector, not
    # one or more tuples per query.
    sigma = Permutation((3, 5, 1, 4, 2))
    gc.collect()
    before = len(gc.get_objects())
    plan = build_plan(5, 3, 8001, sigma)
    assert len(plan) == query_count(5, 3, 8001)
    assert len(gc.get_objects()) - before < 1_000


FIELDS = [(3, 1), (2**31 - 1, 12), (2**61 - 1, 2)]  # tuple path, float64 kernel, 61-bit


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    k=st.integers(1, 5),
    n=st.integers(1, 4),
    m=st.integers(1, 7),
    field=st.sampled_from(FIELDS),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_full_protocol_matches_reference(k, n, m, field, seed, data):
    sigma = Permutation(tuple(data.draw(st.permutations(range(1, k + 1)), label="sigma")))
    p, l = field
    assert _rows(build_plan(k, n, m, sigma)) == _reference_plan(sigma, k, n, m)
    functions = generate_functions(k, l, p, Rng(seed).child("functions"))
    w = generate_inputs(m, l, p, Rng(seed).child("inputs"))
    servers = [Server(i + 1, functions, p) for i in range(n)]
    outputs, report = run_protocol(RunConfig(k, n, m, l, p, seed), sigma, w, SimTransport(servers))
    assert outputs == [compose_reference(functions, sigma, v, p) for v in w]
    assert report.d == query_count(k, n, m)
