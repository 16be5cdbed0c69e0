"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload wide-sim --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.  The
run sets up the workload, then attempts whole rounds of operations (one
per secret order) until `--seconds` of operations have passed, checking
every result outside the timed call.  With `--trace 0` it prints the
end-to-end metrics, and times set-ups in fresh processes spread between
the operations; with `--trace 1` it runs each operation untraced and
then traced, and prints the per-layer metrics.  See bench/README.md.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 8  # extra set-ups, each in a fresh process, for setup_s

LAYERS = ("scheduler", "client", "runtime", "field", "audit", "bench")


def pin_to_one_cpu():
    """Keep the process and its threads and children on one CPU.

    Python runs one thread at a time, so this costs the protocol nothing,
    but it keeps every TCP wake-up on one core: unpinned, loopback round
    trips switch between two speeds run to run (0.7 s and 1.5 s per
    narrow-tcp operation on a 2-core machine).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def attempt(workload, item, tracer, log):
    """One operation; returns its Outcome, or None if it raised or was wrong."""
    try:
        outcome = workload.operation(item, tracer)
    except Exception as exc:  # a raising operation counts as failed
        print(f"operation {item} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        log.append({"failed": f"{type(exc).__name__}: {exc}"})
        return None
    log.append({"seconds": outcome.seconds, "problems": outcome.problems, **outcome.parts})
    if outcome.problems:
        print(f"operation {item} failed: {'; '.join(outcome.problems)}", file=sys.stderr)
        return None
    return outcome


def measure(workload, seconds, tracer, probe=None):
    """Whole rounds until `seconds` of operations pass.

    Returns (untraced, traced, log, setups).  `probe`, if given, times one
    set-up; it is called between operations so that SETUP_PROBES of them
    are spread evenly over the run, and its time is not counted in
    `seconds`.  On a shared machine whose speed moves in phases of a few
    seconds, set-ups timed back to back would all sample one phase.
    """
    untraced, traced, log, setups = [], [], [], []
    start = time.perf_counter()
    spent = probing = 0.0
    while spent < seconds:
        for item in workload.rounds():
            untraced.append(attempt(workload, item, None, log))
            if tracer is not None:
                # Right after its untraced twin, so both see the same
                # machine speed and their difference is the tracing cost.
                tracer.install()
                try:
                    traced.append(attempt(workload, item, tracer, log))
                finally:
                    tracer.uninstall()
            spent = time.perf_counter() - start - probing
            while probe is not None and len(setups) < SETUP_PROBES * min(spent / seconds, 1):
                probe_start = time.perf_counter()
                setups.append(probe())
                probing += time.perf_counter() - probe_start
    return untraced, traced, log, setups


def probe_setup(workload_name, seed):
    """The set-up time of a fresh process, as the probe measured it."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe_setup.py"), workload_name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ok, setup_times):
    op_seconds = [o.seconds for o in ok]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "run_s": metric(statistics.median(op_seconds), "s"),
        "queries_per_s": metric(
            statistics.median(o.parts["queries"] / o.seconds for o in ok), "1/s"
        ),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def src_lines():
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted((SRC / "psfc").rglob("*.py"))
    )


def per_layer(tracer, untraced, traced):
    """The declared per-layer metrics, and the figures behind the README's shares.

    Times are per traced operation and corrected for the tracer's own cost.
    """
    import numpy as np

    spans = tracer.arrays()
    name = spans.name
    ids = {n: i for i, n in enumerate(tracer.names)}
    root_name = name[spans.root]
    in_ops = root_name == ids.get("bench.op", -1)
    in_setup = root_name == ids.get("bench.setup", -1)
    parent_name = np.where(spans.parent >= 0, name[spans.parent], -1)
    ops = max(len(traced), 1)

    def pick(span, where=None):
        sel = name == ids.get(span, -1)
        return sel if where is None else sel & where

    def incl(span, where=None):
        return float(spans.dur[pick(span, where)].sum()) / ops

    def own(span):
        return float(spans.self_t[pick(span)].sum()) / ops

    def calls(span):
        return int(pick(span).sum()) / ops

    counters = tracer.counters
    uni_parts = [o.parts for o in untraced if "uniformity_s" in o.parts]
    metrics = {
        "scheduler.build_plan_s": metric(incl("scheduler.build_plan"), "s"),
        "scheduler.plan_queries": metric(counters.get("plan_queries", 0) / ops, "count"),
        "client.self_s": metric(own("client.run_protocol"), "s"),
        "client.pad_elements": metric(float(spans.pads[in_ops].sum()) / ops, "count"),
        "client.pad_draw_s": metric(float(spans.pad_s[in_ops].sum()) / ops, "s"),
        "client.pad_add_s": metric(incl("client.vec_add"), "s"),
        "client.unmask_s": metric(incl("client.unmask"), "s"),
        "client.decode_s": metric(incl("client.decode_outputs"), "s"),
        "client.report_s": metric(incl("client.to_json"), "s"),
        "client.report_bytes": metric(counters.get("report_bytes", 0) / ops, "bytes"),
        "runtime.serve_s": metric(incl("runtime.serve"), "s"),
        "runtime.serve_calls": metric(calls("runtime.serve"), "count"),
        "runtime.transport_s": metric(own("runtime.sim_query") + own("runtime.tcp_query"), "s"),
        "runtime.round_trips": metric(calls("runtime.tcp_query"), "count"),
        "runtime.wire_bytes": metric(counters.get("wire_bytes", 0) / ops, "bytes"),
        "runtime.codec_s": metric(incl("runtime.encode") + incl("runtime.decode"), "s"),
        # Per set-up on protocol workloads, per operation on audit.
        "runtime.instance_s": metric(
            incl("runtime.instance", in_ops) + incl("runtime.instance", in_setup) * ops, "s"
        ),
        "field.mat_vec_s": metric(incl("field.mat_vec_mul"), "s"),
        "field.mat_vec_calls": metric(calls("field.mat_vec_mul"), "count"),
        "audit.uniformity_eval_s": metric(incl("audit.batch_eval"), "s"),
        "audit.uniformity_sample_s": metric(incl("audit.sample_invertible"), "s"),
        "audit.uniformity_stats_s": metric(own("audit.uniformity_test"), "s"),
        "audit.attack_protocol_s": metric(
            incl("client.run_protocol", parent_name == ids.get("audit.attack_campaign", -1)),
            "s",
        ),
        "audit.sigma_attack_s": metric(incl("audit.sigma_attack"), "s"),
        "audit.uniformity_trials_per_s": metric(
            sum(p["uniformity_trials"] for p in uni_parts)
            / sum(p["uniformity_s"] for p in uni_parts) if uni_parts else 0.0,
            "1/s",
        ),
        "audit.attack_trials_per_s": metric(
            sum(p["attack_trials"] for p in uni_parts)
            / sum(p["attack_real_s"] for p in uni_parts) if uni_parts else 0.0,
            "1/s",
        ),
    }
    op_roots = pick("bench.op")
    raw_run_s = float(spans.raw_dur[op_roots].sum()) / ops
    untraced_s = statistics.fmean(o.seconds for o in untraced)
    metrics["trace.overhead"] = metric(raw_run_s / untraced_s - 1.0, "ratio")
    metrics["src.lines"] = metric(src_lines(), "count")

    # Each layer's self time inside the operations; they sum to the
    # corrected traced run_s exactly.  Pad draws belong to the client.
    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names] or [""])[name]
    shares = {}
    for layer in LAYERS:
        sel = (layer_of == layer) & in_ops
        shares[f"layer.{layer}_s"] = float((spans.self_t + spans.pad_s)[sel].sum()) / ops
    run_s = float(spans.dur[op_roots].sum()) / ops
    shares.update({
        "trace.run_s": run_s,
        "trace.raw_run_s": raw_run_s,
        "trace.untraced_run_s": untraced_s,
        "trace.residual": run_s / untraced_s - 1.0,
        **{f"wrapper.{k}_s": v for k, v in vars(tracer.cost).items()},
    })
    return metrics, shares


def main(argv=None):
    if not (SRC / "psfc" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'psfc'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(argv, workloads.SPECS)
    pin_to_one_cpu()
    spec = workloads.SPECS[args.workload]
    tracer = probe = None
    if args.trace:
        from spans import Tracer, calibrate

        tracer = Tracer()
        tracer.install()
        make = tracer.root("bench.setup", workloads.make)
    else:
        make = workloads.make
        probe = lambda: probe_setup(args.workload, args.seed)  # noqa: E731
    try:
        workload = make(spec, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - _PROCESS_START
    try:
        untraced, traced, log, setups = measure(workload, args.seconds, tracer, probe)
    finally:
        workload.close()

    ok = [o for o in untraced + traced if o is not None]
    attempted = len(untraced) + len(traced)
    failed = attempted - len(ok)
    good_untraced = [o for o in untraced if o is not None]
    if not good_untraced or (tracer is not None and not any(traced)):
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    extra = {}
    if tracer is None:
        metrics = end_to_end(good_untraced, [setup_s] + setups)
        extra["setups"] = [setup_s] + setups
    else:
        tracer.cost = calibrate()
        metrics, extra["shares"] = per_layer(
            tracer, good_untraced, [o for o in traced if o is not None]
        )

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.npz")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(
        json.dumps({"seed": args.seed, "seconds": args.seconds, "operations": log, **extra,
                    **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
