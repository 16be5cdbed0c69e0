"""Golden digests: one sha256 per named artifact, checked against tests/golden.json.

An artifact is a run report, a server's captured view, a demo's stdout,
the figures of a small audit campaign or a seeded matrix draw.  A change
that is meant to leave every byte alone must leave this file alone; one
that changes bytes on purpose rewrites it and says which names changed
and why.  The test names every artifact whose digest differs.

Regenerate by hand, from the repository root:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import sys
import time

from psfc.audit import attack_campaign, rank_decay_experiment, uniformity_test
from psfc.cli import _instance, main
from psfc.client import run_protocol
from psfc.field import DEFAULT_MODULUS, sample_invertible_matrix
from psfc.protocol import RunConfig, random_permutation
from psfc.rand import Rng
from psfc.runtime import SimTransport, TcpServerHost, TcpTransport, marginal_to_json

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
# All artifacts take about 2 s on a 2-vCPU machine; the budget leaves room for slower runners.
BUDGET_S = 20.0

RUN_SHAPES = ((3, 3, 3), (4, 3, 5), (5, 2, 3), (3, 1, 2), (5, 3, 5))  # (K, N, M)
RUN_LENGTHS = (2, 64)
DRAW_LENGTHS = (2, 9, 64)
DRAW_PRIMES = (2, 2**31 - 1, 2**61 - 1)


def _canon(obj):
    """JSON-ready form: dicts as key-sorted pairs, floats to 12 significant digits."""
    if isinstance(obj, dict):
        return sorted([_canon(k), _canon(v)] for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, float):
        return f"{obj:.12g}"
    return obj


def _figures(result) -> str:
    return json.dumps(_canon(dataclasses.asdict(result)), separators=(",", ":"))


def _run(k, n, m, l, transport):
    """The report and captured views of one seeded run, as `psfc run` makes them."""
    config = RunConfig(k=k, n=n, m=m, l=l, p=DEFAULT_MODULUS, seed=1)
    _, w, servers = _instance(config)
    sigma = random_permutation(k, Rng(config.seed).child("sigma"))
    host = None
    if transport == "sim":
        channel = SimTransport(servers)
    else:
        host = TcpServerHost(servers)
        channel = TcpTransport(host.addresses)
    try:
        _, report = run_protocol(config, sigma, w, channel)
    finally:
        channel.close()
        if host is not None:
            host.close()
    return [report.to_json()] + [marginal_to_json(server) for server in servers]


def artifacts():
    """Yield (name, text) for every golden artifact."""
    for k, n, m in RUN_SHAPES:
        for l in RUN_LENGTHS:
            texts = _run(k, n, m, l, "sim")
            assert _run(k, n, m, l, "tcp") == texts, (k, n, m, l)
            name = f"run k{k} n{n} m{m} l{l}"
            yield f"{name} report", texts[0]
            for server, text in enumerate(texts[1:], 1):
                yield f"{name} marginal {server}", text
    for example in ("example1", "example3"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["demo", example]) == 0
        yield f"demo {example}", out.getvalue()
    yield "uniformity k3 n2 m1 p3 l1", _figures(
        uniformity_test(3, 2, 1, 3, 1, trials=20_000, seed=7))
    yield "attack k3 n2", _figures(attack_campaign(3, 2, trials=300, seed=606))
    for l in DRAW_LENGTHS:
        for p in DRAW_PRIMES:
            matrix = sample_invertible_matrix(l, p, Rng(l * p))
            yield f"invertible l{l} p{p}", json.dumps(matrix)
    for l, m, p in ((10, 3, 2), (8, 2, 5)):
        yield f"rank-decay l{l} m{m} p{p}", _figures(
            rank_decay_experiment(l, m, p, trials=2_000, seed=71))


def digests() -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in artifacts()}


def test_golden_digests():
    start = time.perf_counter()
    got = digests()
    elapsed = time.perf_counter() - start
    expected = json.loads(GOLDEN.read_text())
    differ = sorted(name for name in got.keys() | expected.keys()
                    if got.get(name) != expected.get(name))
    assert not differ, f"{len(differ)} artifacts differ from {GOLDEN.name}: {differ}"
    assert elapsed < BUDGET_S, f"golden artifacts took {elapsed:.1f} s of {BUDGET_S} s"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
