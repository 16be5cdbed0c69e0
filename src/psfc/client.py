"""Client orchestration: the field-vector backend of the plan interpreter.

The client is deliberately blind: it never holds the function matrices
and never multiplies by them.  It hands `scheduler.run_plan` four field
operations (draw a pad, add it, cancel a pad image, ask a server) and
records what it sent; storage, pad bookkeeping and output decoding are
the interpreter's.  The first three are `field.vec_ops(L)`, compiled once
per L; the inputs are admitted first by `field.check_vectors`, the servers'
rule.  This module must not import any matrix operation; a test enforces that.

Execution is a single logical thread that sends the plan's exchanges
one at a time, each in one transport call, and uses every answer before
the next exchange's inputs are materialized, which is exactly the
ordering the scheduler's feasibility argument requires.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count

from .field import FieldVector, check_vectors, vec_ops
from .protocol import Permutation, RunConfig, json_array
from .rand import Rng
from .scheduler import build_plan, run_plan

__all__ = [
    "RunReport",
    "run_protocol",
    "outputs_to_bytes",
]


@dataclass
class RunReport:
    """Everything observable about one run, for audits and replay.

    `sigma` is the internal step map (position k holds the function
    applied at step k); JSON renders it in display order.  The rate is
    kept exact as a reduced fraction (numerator, denominator).  Queries
    are three columns in send order, `server` and `function` (the plan's
    lists) and `inputs`; `transcript` views them.
    """

    k: int
    n: int
    m: int
    l: int
    p: int
    seed: int
    sigma: tuple[int, ...]
    d: int
    d_k: list[int]
    rate: tuple[int, int]
    outputs: list[FieldVector]
    server: list[int]
    function: list[int]
    inputs: list[FieldVector]

    @property
    def transcript(self) -> list[tuple[int, int, int]]:
        """(seq, server, function) of each query, in send order."""
        return list(zip(count(), self.server, self.function))

    def _view(self, server: int):
        """(function, input) of each query sent to `server`, in arrival order."""
        return compress(zip(self.function, self.inputs), map(server.__eq__, self.server))

    @property
    def rate_float(self) -> float:
        return self.rate[0] / self.rate[1]

    def to_json(self) -> str:
        """Canonical JSON: key-sorted, no whitespace, ints only.

        Two runs are considered identical iff these bytes match.  Written from
        the columns, as json.dumps(doc, sort_keys=True, separators=(",", ":")).
        """
        transcript = ",".join(map("[%d,%d,%d]".__mod__, zip(count(), self.server, self.function)))
        marginals = ",".join(
            f'"{s}":[' + ",".join([f"[{f},{json_array(x)}]" for f, x in self._view(s)]) + "]"
            for s in sorted(range(1, self.n + 1), key=str)
        )
        return (
            f'{{"config":{{"k":{self.k},"l":{self.l},"m":{self.m},"n":{self.n},"p":{self.p},'
            f'"seed":{self.seed}}},"d":{self.d},"d_k":{json_array(self.d_k)},'
            f'"marginals":{{{marginals}}},"outputs":[{",".join(map(json_array, self.outputs))}],'
            f'"rate":{{"den":{self.rate[1]},"num":{self.rate[0]}}},'
            f'"sigma_display":{json_array(reversed(self.sigma))},"transcript":[{transcript}]}}'
        )


def run_protocol(
    config: RunConfig, sigma: Permutation, w_vectors, transport
) -> tuple[list[FieldVector], RunReport]:
    """Run the full protocol for M inputs and return (outputs, report).

    Deterministic given (config, sigma, w_vectors) and the transport's
    servers: the client's own randomness (pads and placeholders) comes
    from the seed's "client" child stream, drawn in plan order.  Inputs
    are refused before any query is sent, whatever the order.
    """
    k, n, m, l, p = config.k, config.n, config.m, config.l, config.p
    if len(w_vectors) != m:
        raise ValueError(f"expected {m} input vectors, got {len(w_vectors)}")
    check_vectors(w_vectors, l, p)
    plan = build_plan(k, n, m, sigma)
    randrange = Rng(config.seed).child("client").randrange
    inputs: list[FieldVector] = []  # in send order
    draw, add, sub = vec_ops(l)(p, randrange)

    def query(servers, functions, xs):
        inputs.extend(xs)
        return transport.query(servers, functions, xs)

    outputs = run_plan(plan, w_vectors, draw, add, sub, query)

    per_function = Counter(plan.function)
    d_k = [per_function[function] for function in range(1, k + 1)]
    d = len(inputs)
    ratio = Fraction(k * m, d)
    report = RunReport(
        k=k, n=n, m=m, l=l, p=p, seed=config.seed, sigma=sigma.mapping,
        d=d, d_k=d_k, rate=(ratio.numerator, ratio.denominator), outputs=outputs,
        server=plan.server, function=plan.function, inputs=inputs,
    )
    return outputs, report


def outputs_to_bytes(outputs: list[FieldVector]) -> bytes:
    """Binary output matrix: header (M u32, L u32 LE), then u64 LE row-major."""
    m = len(outputs)
    l = len(outputs[0]) if m else 0
    parts = [struct.pack("<II", m, l)]
    for vec in outputs:
        parts.append(struct.pack(f"<{l}Q", *vec))
    return b"".join(parts)
