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
  chains for the request, K*K! queries per request, in the fixed
  lexicographic order of `protocol.enumerate_permutations` (K <= 8).
  Only the chain matching the secret order is decoded; the rest are
  camouflage.

`_shape` is the one rule for how many requests take which route; both
`build_plan` and `query_count` read it.

Chains and the fallback share one shape: a request's chains are
stepped level by level, step t of every chain in one exchange, so a
request costs K exchanges either way.

A plan is a register program: five flat integer columns, one entry per
query, that hold no nested objects (see QueryPlan), so a plan of 10^5
queries is a handful of lists for the garbage collector to scan.  A
row's `source`, `pad` and `dest` say both what it is sent and what
becomes of its answer.  The plan also lists its exchanges, which only
the emitters decide.  `run_plan` is the one interpreter of the plan, an
exchange at a time.  It is written against a value backend (how to draw
a pad, add it, cancel its image, and ask servers), so the client (field
vectors), the audit (numpy trial stacks), the demo (symbolic terms) and
the feasibility test (block numbers) all execute the same plan the same
way.  Nothing order-dependent ever reaches a server except the input
values themselves, which are distributed identically for every order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .protocol import Permutation, enumerate_permutations

__all__ = [
    "InvalidRegime",
    "DependencyViolation",
    "MissingValue",
    "QueryPlan",
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


# What a row sends: register `source` when source >= 0, a fresh uniform
# placeholder when source is _FRESH, and the bare mask Z[pad] when source
# is _MASK; a register or placeholder is padded with Z[pad] when pad >= 0,
# Z[pad] being its exchange's mask in slot pad.  A _MASK row's answer is
# the image of Z[pad], and any other padded answer has it cancelled; an
# answer is then stored in register `dest` if dest >= 0, else dropped.
_FRESH, _MASK = -1, -2


@dataclass(frozen=True)
class QueryPlan:
    """One order's plan, as columns over one register list.

    Registers: [0, M) are the outputs, in request order; [M, 2M) the raw
    inputs; [2M, links) the block task outputs of steps 1..K-1, by step,
    then batch, then component; from `links` on, one link per chain of
    a request outside the blocks (`chains` of them).  A block task's
    step-K output is its request's output register, so the last step
    writes straight into place.  Column i of every list describes query
    i: its server, its function, and the `source`, `pad` and `dest` that
    say what it is sent and where its answer goes (see _FRESH and _MASK
    above); `pad` is -1 or a slot in [0, K-N) of the row's own block.
    """

    k: int
    n: int
    m: int
    m_prime: int
    n_blocks: int
    links: int  # the first chain-link register
    chains: int  # chains per request outside the blocks: K! with a fallback, else 1
    exchanges: list[int]  # the end row of each exchange: a block each, then a chain level each
    server: list[int]
    function: list[int]
    source: list[int]
    pad: list[int]
    dest: list[int]

    def __len__(self) -> int:
        return len(self.server)

    def register_name(self, reg: int) -> tuple:
        """Register `reg` named by the value it holds: ("w", i) for raw
        input i, ("out", batch, step, comp) for a block task output,
        ("prev", c) for chain c's link or ("final", i) for output i."""
        m, width = self.m, self.n - 1
        blocked = self.m_prime * width  # requests the blocks serve
        if reg >= self.links:
            return ("prev", reg - self.links)
        if reg >= 2 * m:
            step, index = divmod(reg - 2 * m, blocked)
            step += 1
        elif reg >= m:
            return ("w", reg - m)
        elif reg >= blocked:
            return ("final", reg)
        else:
            step, index = self.k, reg
        batch, comp = divmod(index, width)
        return ("out", batch + 1, step, comp + 1)


def _emit_blocks(cols, exchanges, sigma: Permutation, n: int, m: int, m_prime: int, n_blocks: int):
    """The n_blocks = M' + K - 1 blocks, one exchange each.

    Canonical in-block order: phase-1 rows server by server, then
    phase-2 rows server by server.  Each server therefore always sees
    its fixed column (N-1 copies of F_n, then F_{N+1}..F_K) per block,
    which depends only on (K, N): the function assignment is identical
    for every composition order.
    """
    server, function, source, pad, dest = cols
    k = sigma.size
    width, slots = n - 1, k - n
    phase1 = [srv for srv in range(1, n + 1) for _ in range(width)]
    server += (phase1 + [srv for srv in range(1, n + 1) for _ in range(slots)]) * n_blocks
    function += (phase1 + list(range(n + 1, k + 1)) * n) * n_blocks
    pad += ([-1] * len(phase1) + list(range(slots)) * n) * n_blocks
    pi = sigma.inverse().mapping
    # A task is (step, comp).  Phase 1: server n advances step pi_n of batch
    # b - pi_n + 1.  Phase 2: function N+1+i advances step pi_{N+1+i} at the
    # servers below N, on inputs padded with mask slot i; N gets the mask.
    tasks = [(step, comp) for step in pi[:n] for comp in range(1, n)]
    tasks += [(step, srv) for srv in range(1, n) for step in pi[n:]]
    # base[s] + (batch-1)(N-1) + comp-1 is the register of a task's
    # step-s output: s = 0 names the raw input, s = K the output.
    base = [m] + [2 * m + s * m_prime * width for s in range(k - 1)] + [0]
    size = len(tasks) + slots  # rows a block
    source += ([_FRESH] * len(tasks) + [_MASK] * slots) * n_blocks
    dest += [-1] * (size * n_blocks)
    # Row r of a task (step, comp) holds batch b - step + 1 in blocks b = step
    # to step + M' - 1, so its registers there step by N-1 from block to block.
    for r, (step, comp) in enumerate(tasks):
        rows = slice((step - 1) * size + r, (step - 1 + m_prime) * size, size)
        source[rows] = range(base[step - 1] + comp - 1, base[step - 1] + comp - 1 + m_prime * width, width)
        dest[rows] = range(base[step] + comp - 1, base[step] + comp - 1 + m_prime * width, width)
    exchanges += range(size, size * n_blocks + 1, size)


def _emit_chains(cols, exchanges, sigma: Permutation, first: int, m: int, links: int,
                 fallback: bool) -> int:
    """Requests first..m-1 as chains, stepped level by level; returns the
    number of chains per request.

    K <= N: each request is one chain, sigma, and server s_j computes
    F_{s_j}.  The fallback: each request is all K! chains in a fixed
    lexicographic order, every query to server 1, so the server's view
    is independent of which chain the client actually wants.

    Level t holds step t of every chain of a request; it reads only the
    level before it, so it goes in one exchange.  Chain c links through
    register links + c, shared by the requests, which run one after
    another.  Only the chain equal to sigma stores its last answer, in
    the request's output register; the others end in a dropped answer.
    """
    server, function, source, pad, dest = cols
    k = sigma.size
    chains = [c.mapping for c in enumerate_permutations(k)] if fallback else [sigma.mapping]
    count, mine = len(chains), chains.index(sigma.mapping)
    functions = [chain[t] for t in range(k) for chain in chains]  # step-major
    size = count * k
    servers = [1] * size if fallback else functions
    link = list(range(links, links + count))
    for w in range(first, m):
        exchanges += range(len(server) + count, len(server) + size + 1, count)
        server += servers
        function += functions
        source += [m + w] * count + link * (k - 1)
        pad += [-1] * size
        dest += link * (k - 1) + [-1] * mine + [w] + [-1] * (count - 1 - mine)
    return count


def _shape(k: int, n: int, m: int) -> tuple[int, int, int]:
    """(M', r, n_blocks) for (K, N, M): M' batches of N-1 requests go
    through the n_blocks = M' + K - 1 blocks, and r leftover requests
    through the fallback.  K <= N has neither: one chain per request.
    """
    if k <= n:
        return 0, 0, 0
    # N = 1, or too few requests to fill a batch: everything goes
    # through the fallback rather than blocks of pure placeholders.
    m_prime, r = divmod(m, n - 1) if n > 1 else (0, m)
    return m_prime, r, m_prime + k - 1 if m_prime else 0


def build_plan(k: int, n: int, m: int, sigma: Permutation) -> QueryPlan:
    """Full ordered plan for M requests under composition order sigma."""
    if sigma.size != k:
        raise InvalidRegime(f"order has size {sigma.size}, expected K={k}")
    fallback = k > n
    m_prime, r, n_blocks = _shape(k, n, m)
    links = 2 * m + (k - 1) * m_prime * (n - 1)
    cols: tuple[list[int], ...] = ([], [], [], [], [])
    exchanges: list[int] = []
    if n_blocks:
        _emit_blocks(cols, exchanges, sigma, n, m, m_prime, n_blocks)
    first = m - r if fallback else 0
    chains = _emit_chains(cols, exchanges, sigma, first, m, links, fallback) if first < m else 1
    return QueryPlan(k, n, m, m_prime, n_blocks, links, chains, exchanges, *cols)


def query_count(k: int, n: int, m: int) -> int:
    """Total queries D the plan will issue for (K, N, M).

    K <= N: KM.  N = 1 (or fewer than N-1 requests): M * K * K! via the
    fallback.  Otherwise, with M = M'(N-1) + r: (M'+K-1) N(K-1) blocks
    plus r * K * K! fallback queries.
    """
    if k <= n:
        return k * m
    _, r, n_blocks = _shape(k, n, m)
    return n_blocks * n * (k - 1) + r * k * factorial(k)


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
      draw(slot)        a fresh uniform value: the exchange's mask in pad
                        slot `slot`, or a placeholder when slot is None;
      add(x, z)         x padded with mask z;
      sub(a, b)         a with the pad image b cancelled;
      query(servers, functions, xs)  the answers F_f(x) to one exchange,
                        an iterable in row order; its rows come as columns:
                        plan.server[start:stop], plan.function[start:stop]
                        and the list of inputs built for it.
    The plan runs one exchange of `plan.exchanges` per `query` call.
    All inputs of an exchange are built before any of its answers is
    stored, so a read of its own answers raises DependencyViolation, as
    does any read of a register not yet written.  A chain link lives for
    one exchange, the one after it is written: the links are cleared
    once an exchange's inputs are built, so a read of an older link,
    such as an earlier request's, raises too.  Placeholders and the
    exchange's masks are drawn at first use, in plan order, a padded
    placeholder before its mask, so a seeded backend sees one fixed
    sequence of draws.  A pad lives in its exchange: once the answers
    are in, every padded one has its mask's image (a bare-mask row's
    answer) cancelled, or raises DependencyViolation when there is none,
    and then, like any answer, is stored in register `dest` if dest >= 0
    and dropped otherwise.  So an exchange's (draw, add, sub) work is the
    same under every order, and only the registers outlive an exchange.
    """
    m = plan.m
    regs: list = [None] * (plan.links + plan.chains)
    regs[m : 2 * m] = [inputs[i] for i in range(m)]

    def mask(slot):
        z = masks.get(slot)
        if z is None:
            z = masks[slot] = draw(slot)
        return z

    servers, functions = plan.server, plan.function
    sources, pads, dests = plan.source, plan.pad, plan.dest
    links, unset = plan.links, [None] * plan.chains
    for start, stop in zip([0, *plan.exchanges], plan.exchanges):
        group = range(start, stop)
        masks: dict = {}  # pad slot -> this exchange's mask
        xs = []
        for i in group:
            source, pad = sources[i], pads[i]
            if source == _MASK:
                xs.append(mask(pad))
                continue
            x = draw(None) if source == _FRESH else regs[source]
            if x is None:
                name = plan.register_name(source)
                raise DependencyViolation(f"{name} is referenced before it is resolved")
            if pad >= 0:
                x = add(x, mask(pad))
            xs.append(x)

        regs[links:] = unset
        images, padded = {}, []
        for i, ans in zip(group, query(servers[start:stop], functions[start:stop], xs), strict=True):
            dest, pad = dests[i], pads[i]
            if pad < 0:
                if dest >= 0:
                    regs[dest] = ans
            elif sources[i] == _MASK:
                images[pad] = ans
            else:
                padded.append((dest, pad, ans))
        for dest, pad, ans in padded:
            if pad not in images:
                raise DependencyViolation(f"no image of mask slot {pad} in exchange [{start}, {stop})")
            ans = sub(ans, images[pad])
            if dest >= 0:
                regs[dest] = ans

    outputs = regs[:m]
    missing = [i for i, value in enumerate(outputs) if value is None]
    if missing:
        raise MissingValue(f"outputs {missing} were never resolved")
    return outputs
