"""Command-line driver: run protocols, audit privacy, tabulate rates.

Composition orders on the command line use the display convention: the
string "4,3,2,1" lists the order right to left, so the rightmost entry
is the function applied first.  `run` and `audit` build one seeded
instance the same way (`_config`, `_instance`); their `--seed` defaults
to PSFC_SEED, else 0.  `demo` runs the worked examples on symbolic
values and checks them against their own outputs, so it takes no seed.
Exit codes: 0 success, 1 a protocol or audit check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .audit import (
    NAIVE_FLOOR,
    GuardExceeded,
    attack_campaign,
    converse_counts,
    fingerprint_invariance,
    rank_decay_experiment,
    rate_report,
    uniformity_test,
)
from .client import outputs_to_bytes, run_protocol
from .field import DEFAULT_MODULUS
from .protocol import (InvalidPermutation, KTooLarge, Permutation, RunConfig, compose_reference,
                       enumerate_permutations, random_permutation)
from .rand import Rng
from .runtime import (
    Server,
    SimTransport,
    TcpServerHost,
    TcpTransport,
    generate_functions,
    generate_inputs,
    marginal_to_json,
)
from .scheduler import build_plan, query_count, rate_bounds, run_plan

__all__ = ["main"]

USAGE_ERROR = 2
CHECK_ERROR = 1


class _UsageError(Exception):
    """Bad arguments: `main` prints "error: <message>" and exits USAGE_ERROR."""


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, default=3, help="number of basic functions")
    sub.add_argument("--n", type=int, default=2, help="number of servers")
    sub.add_argument("--m", type=int, default=1, help="number of input vectors")
    sub.add_argument("--l", type=int, default=1, help="vector dimension")
    sub.add_argument("--p", type=int, default=DEFAULT_MODULUS, help="prime modulus")
    # A string default goes through `type`, so a malformed PSFC_SEED is a usage error.
    sub.add_argument("--seed", type=int, default=os.environ.get("PSFC_SEED", "0"),
                     help="root seed (default: PSFC_SEED env var, else 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psfc",
        description="Order-private sequential evaluation of public linear functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one protocol run and verify it")
    _add_common(run)
    run.set_defaults(handler=cmd_run)
    run.add_argument("--sigma", default="random",
                     help='composition order, display order, e.g. "3,2,1"; or "random"')
    run.add_argument("--transport", choices=("sim", "tcp"), default="sim")
    run.add_argument("--addresses", default=None,
                     help="comma-separated host:port list for tcp (default: spawn local servers)")
    run.add_argument("--emit-report", default=None, help="write the run report JSON here")
    run.add_argument("--outputs", default=None, help="write outputs as a binary matrix here")
    run.add_argument("--capture-dir", default=None,
                     help="dump each local server's marginal list JSON into this directory")

    audit = sub.add_parser("audit", help="run the privacy and rate audit suite")
    _add_common(audit)
    audit.set_defaults(handler=cmd_audit, p=3)
    audit.add_argument("--trials", type=int, default=100_000,
                       help="Monte-Carlo trials per composition order")
    audit.add_argument("--attack-trials", type=int, default=2_000)
    audit.add_argument("--negative-control", action="store_true",
                       help="also attack the deliberately broken interleaved schedule")
    audit.add_argument("--fixed-f", action="store_true",
                       help="hold the function matrices fixed across uniformity trials")
    audit.add_argument("--emit", default=None, help="write audit verdicts JSON here")

    table = sub.add_parser("rate-table", help="emit a CSV rate sweep")
    table.set_defaults(handler=cmd_rate_table)
    table.add_argument("--k-values", default="2,3,4,5")
    table.add_argument("--n-values", default="1,2,3,4,5")
    table.add_argument("--m-values", default="6,60,600,6000")
    table.add_argument("--output", default=None, help="CSV path (default: stdout)")

    demo = sub.add_parser("demo", help="replay a worked example with per-server tables")
    demo.set_defaults(handler=cmd_demo)
    demo.add_argument("name", help="example1 or example3")

    return parser


def _config(args) -> RunConfig:
    try:
        return RunConfig(k=args.k, n=args.n, m=args.m, l=args.l, p=args.p, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(exc) from exc


def _instance(config: RunConfig):
    """The seeded (functions, inputs, fresh servers) of `config`."""
    rng = Rng(config.seed)
    functions = generate_functions(config.k, config.l, config.p, rng.child("functions"))
    w = generate_inputs(config.m, config.l, config.p, rng.child("inputs"))
    return functions, w, [Server(i + 1, functions, config.p) for i in range(config.n)]


# -- run -------------------------------------------------------------------------


def _parse_address(part: str) -> tuple[str, int]:
    """"host:port" as a (host, port) pair; ValueError if malformed."""
    hostname, _, port = part.strip().rpartition(":")
    if not hostname or not port.isdigit() or not 0 < int(port) < 65536:
        raise ValueError(f"{part.strip()!r} is not host:port with a port in 1..65535")
    return hostname, int(port)


def _remote_addresses(args, n: int) -> list[tuple[str, int]]:
    """The N servers named by --addresses; a usage error if they cannot be used."""
    if args.transport != "tcp":
        raise _UsageError("--addresses needs --transport tcp")
    if args.capture_dir:
        raise _UsageError("--capture-dir records local servers; remote servers "
                          "given by --addresses keep their own views")
    try:
        addresses = [_parse_address(part) for part in args.addresses.split(",")]
    except ValueError as exc:
        raise _UsageError(f"--addresses: {exc}") from exc
    if len(addresses) != n:
        raise _UsageError(f"need {n} addresses, got {len(addresses)}")
    return addresses


def cmd_run(args) -> int:
    config = _config(args)
    if args.sigma == "random":
        sigma = random_permutation(config.k, Rng(config.seed).child("sigma"))
    else:
        try:
            sigma = Permutation.parse(args.sigma)
        except InvalidPermutation as exc:
            raise _UsageError(exc) from exc
        if sigma.size != config.k:
            raise _UsageError(f"order has {sigma.size} entries, expected K={config.k}")
    addresses = _remote_addresses(args, config.n) if args.addresses else None

    functions, w, servers = _instance(config)
    host = None
    if args.transport == "sim":
        transport = SimTransport(servers)
    else:
        if addresses is None:
            host = TcpServerHost(servers)
            addresses = host.addresses
        transport = TcpTransport(addresses)
    try:
        outputs, report = run_protocol(config, sigma, w, transport)
    finally:
        transport.close()
        if host is not None:
            host.close()

    ok = outputs == [compose_reference(functions, sigma, vec, config.p) for vec in w]
    verdict = rate_report(report)
    print(f"order {sigma}  D={report.d}  rate={report.rate[0]}/{report.rate[1]}"
          f" ({report.rate_float:.6f})  outputs {'MATCH' if ok else 'MISMATCH'}")
    print(f"rate window: lower={float(verdict.lower_bound):.6f} <= C <= 1;"
          f" scheme limit={float(verdict.asymptotic_limit):.6f}")

    if args.emit_report:
        with open(args.emit_report, "w") as fh:
            fh.write(report.to_json())
    if args.outputs:
        with open(args.outputs, "wb") as fh:
            fh.write(outputs_to_bytes(outputs))
    if args.capture_dir:
        os.makedirs(args.capture_dir, exist_ok=True)
        for server in servers:
            path = os.path.join(args.capture_dir, f"marginal_server_{server.id}.json")
            with open(path, "w") as fh:
                fh.write(marginal_to_json(server))
    return 0 if ok and verdict.ok else CHECK_ERROR


# -- audit -----------------------------------------------------------------------


def cmd_audit(args) -> int:
    config = _config(args)
    seed = config.seed
    if args.trials < 2 or args.attack_trials < 1:
        raise _UsageError("--trials must be at least 2 and --attack-trials at least 1")
    enumerate_permutations(config.k)  # the attacker tries every order: refuse K past the guard now

    rows: list[dict] = []

    def row(check: str, statistic, threshold, passed: bool) -> None:
        rows.append({"check": check, "statistic": statistic,
                     "threshold": threshold, "pass": bool(passed)})

    fp = fingerprint_invariance(config.k, config.n, config.m, p=config.p, l=config.l, seed=seed)
    scope = "exhaustive" if fp.exhaustive else f"sampled {fp.n_sigmas}"
    row(f"fingerprint invariance ({scope})", int(fp.ok), "== 1", fp.ok)

    try:
        uni = uniformity_test(config.k, config.n, config.m, config.p, config.l,
                              trials=args.trials, seed=seed, resample_f=not args.fixed_f)
    except GuardExceeded as exc:
        print(f"warning: uniformity test skipped: {exc}", file=sys.stderr)
        row("input-tuple uniformity", "skipped (guard)", "n/a", True)
        uni = None
    if uni is not None:
        scope = f"sampled {uni.n_sigmas} orders" if uni.sigmas_sampled else "all orders"
        if uni.sigmas_sampled:
            print(f"warning: {config.k}! orders exceed the enumeration budget; "
                  f"comparing a seeded sample of {uni.n_sigmas}", file=sys.stderr)
        row(f"input-tuple TV across orders ({scope})", round(uni.max_tv_cross, 6),
            f"<= {uni.tv_limit:.6f}", uni.max_tv_cross <= uni.tv_limit)
        row("input-tuple TV split-half floor", round(uni.max_tv_self, 6),
            f"<= {uni.tv_self_limit:.6f}", uni.max_tv_self <= uni.tv_self_limit)
        n_slots = len(uni.chi2_pvalues)
        row(f"per-slot uniformity chi-square ({n_slots} slots)",
            round(uni.chi2_min_p, 6), f">= alpha/{n_slots}", uni.chi2_all_pass())

    real = attack_campaign(config.k, config.n, trials=args.attack_trials,
                           l=1, seed=seed, scheme="real")
    row("attacker vs real scheme", [round(r, 4) for r in real.per_server_rate],
        f"within {real.uniform_rate:.4f} +- {real.three_sigma_band:.4f}",
        real.within_uniform_band())

    if args.negative_control:
        # L = 2: 1x1 matrices commute, so at L = 1 a run of several
        # hidden steps would not reveal their order.
        naive = attack_campaign(config.k, config.n, trials=args.attack_trials,
                                l=2, seed=seed, scheme="naive")
        row("attacker vs broken control", round(naive.best_rate, 4), f"> {NAIVE_FLOOR}",
            naive.best_rate > NAIVE_FLOOR)

    functions, w, servers = _instance(config)
    sigma = random_permutation(config.k, Rng(seed).child("sigma"))
    outputs, report = run_protocol(config, sigma, w, SimTransport(servers))
    ok = outputs == [compose_reference(functions, sigma, vec, config.p) for vec in w]
    row("zero-error correctness (seeded run)", int(ok), "== 1", ok)
    conv = converse_counts(report)
    row("per-function counts D_k >= M", min(d for _, d, _ in conv.counts),
        f">= {report.m}", conv.ok)
    verdict = rate_report(report)
    row("measured rate <= min(1, scheme limit)", f"{verdict.measured}",
        f"<= {min(verdict.upper_bound, verdict.asymptotic_limit)}", verdict.ok)

    for rl, rm, rp in ((10, 3, 2), (8, 2, 5)):
        decay = rank_decay_experiment(rl, rm, rp, trials=min(args.trials, 100_000), seed=seed)
        row(f"rank-decay bound (p={rp}, L={rl}, M={rm})",
            round(decay.empirical, 6),
            f"<= {decay.bound + 3 * decay.stderr:.6f}", decay.ok)

    width = max(len(r["check"]) for r in rows)
    for r in rows:
        status = "PASS" if r["pass"] else "FAIL"
        print(f"{r['check']:<{width}}  {status}  statistic={r['statistic']}  "
              f"threshold: {r['threshold']}")
    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(rows, fh, indent=2)
    return 0 if all(r["pass"] for r in rows) else CHECK_ERROR


# -- rate table --------------------------------------------------------------------


def cmd_rate_table(args) -> int:
    try:
        k_values = [int(x) for x in args.k_values.split(",")]
        n_values = [int(x) for x in args.n_values.split(",")]
        m_values = [int(x) for x in args.m_values.split(",")]
    except ValueError as exc:
        raise _UsageError("value lists must be comma-separated integers") from exc
    if any(v < 1 for v in k_values + n_values + m_values):
        raise _UsageError("K, N, M must be >= 1")

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["K", "N", "M", "D", "R", "lower_bound", "gap", "limit"])
    for k in k_values:
        for n in n_values:
            for m in m_values:
                d = query_count(k, n, m)
                r = k * m / d
                lower, limit = rate_bounds(k, n)
                writer.writerow([k, n, m, d, f"{r:.9f}", f"{float(lower):.9f}",
                                 f"{1 - r:.9f}", f"{float(limit):.9f}"])
    text = buffer.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- demo ----------------------------------------------------------------------------


def _demo(k: int, n: int, m: int, sigma: Permutation) -> bool:
    """Run one order's plan on symbolic values and print its per-server table.

    A value is a tuple of terms; a server maps F over the terms, and a
    pad image cancels its own terms, which is exactly linearity.  The
    table is what the run itself sent: `run_plan` sends block b in its
    b-th `query` call, before any chain level.  The check: every output
    reads F{s_K}(...F{s_1}(W[..])), and D equals query_count.
    """
    plan = build_plan(k, n, m, sigma)
    if plan.n_blocks:
        names = [f"W[{i // (n - 1) + 1},{i % (n - 1) + 1}]" for i in range(m)]
    else:
        names = [f"W[{i + 1}]" for i in range(m)]
    sent = []  # (block, server, function, text), in send order
    calls = 0

    def query(servers, functions, xs):
        nonlocal calls
        calls += 1
        block = calls if calls <= plan.n_blocks else 0
        sent.extend((block, s, f, " + ".join(x)) for s, f, x in zip(servers, functions, xs))
        return [tuple(f"F{f}({term})" for term in x) for f, x in zip(functions, xs)]

    outputs = run_plan(
        plan, [(name,) for name in names],
        lambda slot: ("Z*",) if slot is None else (f"Z[{calls + 1},{slot + 1}]",),
        lambda x, z: x + z, lambda a, b: tuple(t for t in a if t not in b), query,
    )
    expected = []
    for name in names:
        for function in sigma.mapping:
            name = f"F{function}({name})"
        expected.append((name,))
    ok = outputs == expected

    print(f"\ncomposition order {sigma}")
    for block in sorted({b for b, _, _, _ in sent}):
        print(f"  {'block ' + str(block) if block else 'chain'}:")
        for srv in range(1, n + 1):
            cells = [f"F{f} {t}" for b, s, f, t in sent if b == block and s == srv]
            if cells:
                print(f"    server {srv}:  " + "  |  ".join(cells))
    expected_d = query_count(k, n, m)
    print(f"  queries: {len(sent)} (expected {expected_d}); "
          f"outputs {'MATCH' if ok else 'MISMATCH'}")
    return ok and len(sent) == expected_d


def cmd_demo(args) -> int:
    if args.name == "example1":
        print("Two functions, two servers: one server per function, rate 1.")
        ok = all(_demo(2, 2, 1, Permutation.from_paper_order(order)) for order in ((2, 1), (1, 2)))
    elif args.name == "example3":
        print("Four functions, three servers: fixed per-server column (Fn, Fn, F4).")
        ok = all(_demo(4, 3, 2, Permutation.from_paper_order(order))
                 for order in ((1, 3, 4, 2), (4, 3, 2, 1)))
    else:
        raise _UsageError(f"unknown demo {args.name!r} (try example1, example3)")
    return 0 if ok else CHECK_ERROR


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (_UsageError, KTooLarge) as exc:  # KTooLarge: K! chains past the enumeration guard
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
