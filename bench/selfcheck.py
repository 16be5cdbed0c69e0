"""Self-check of the benchmark: every workload at toy sizes, every check.

    python3 bench/selfcheck.py

Runs one untraced and one traced round of each workload at toy sizes,
feeds every correctness check a deliberately wrong value, and makes one
operation return a corrupted output, which must count as failed.  Prints
one line per check and exits 1 if any misbehaves.  Takes a few seconds.
"""

import dataclasses
import io
import json
import sys
from contextlib import redirect_stderr
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, calibrate  # noqa: E402

SEED = 3
TOY = {
    "wide-sim": {"m": 6, "l": 4},
    "narrow-tcp": {"m": 6},
    "mixed-sim-p61": {"m": 7},  # 7 = 3·(N-1) + 1: blocks plus a fallback section
    "audit": {"uniformity_trials": 20_000, "attack_trials": 300},
}

failures = []
COST = calibrate()


def check(label, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(label)


def quiet(fn, *args):
    with redirect_stderr(io.StringIO()):
        return fn(*args)


def toy(name):
    return dataclasses.replace(workloads.SPECS[name], **TOY[name])


def declared_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["end_to_end"]], [m["name"] for m in doc["per_layer"]]


def run_workload(name):
    end_to_end_names, per_layer_names = declared_metrics()
    spec = toy(name)
    workload = workloads.make(spec, SEED)
    tracer = Tracer()
    try:
        untraced, traced, _, _ = quiet(run.measure, workload, 1e-9, tracer)
    finally:
        workload.close()
    attempts = untraced + traced
    check(f"{name}: every operation passes", all(attempts), f"{attempts}")
    if not all(attempts):
        return
    e2e = run.end_to_end(untraced, [0.1, 0.2, 0.3])
    check(f"{name}: end-to-end metrics as declared", list(e2e) == end_to_end_names, f"{list(e2e)}")
    check(f"{name}: end-to-end metrics nonzero", all(m["value"] > 0 for m in e2e.values()))
    tracer.cost = COST
    layers, shares = run.per_layer(tracer, untraced, traced)
    check(f"{name}: per-layer metrics as declared", list(layers) == per_layer_names,
          f"{sorted(set(layers) ^ set(per_layer_names))}")
    total = sum(shares[f"layer.{layer}_s"] for layer in run.LAYERS)
    traced_s = shares["trace.run_s"]
    check(f"{name}: layer self times account for the traced run_s",
          abs(total - traced_s) <= 1e-6 * traced_s, f"{total} vs {traced_s}")
    if isinstance(spec, workloads.ProtocolSpec):
        d = workloads.closed_form_d(spec.k, spec.n, spec.m)
        check(f"{name}: planned and served queries equal D",
              layers["scheduler.plan_queries"]["value"] == d
              and layers["runtime.serve_calls"]["value"] == d)
        trips = layers["runtime.round_trips"]["value"]
        check(f"{name}: one round trip per query on TCP only",
              trips == (d if spec.transport == "tcp" else 0), f"{trips}")
        check(f"{name}: pad draws counted and timed",
              layers["client.pad_elements"]["value"] > 0
              and layers["client.pad_draw_s"]["value"] > 0)
    else:
        check(f"{name}: audit layers traced",
              all(layers[k]["value"] > 0 for k in (
                  "audit.uniformity_eval_s", "audit.attack_protocol_s",
                  "audit.sigma_attack_s", "audit.uniformity_trials_per_s")))


def corrupted_output_fails():
    from psfc import client

    real = client.run_protocol
    calls = []

    def corrupting(*args):
        outputs, report = real(*args)
        calls.append(1)
        if len(calls) == 1:
            first = tuple((x + 1) % report.p for x in outputs[0])
            outputs = [first] + outputs[1:]
        return outputs, report

    workload = workloads.make(toy("wide-sim"), SEED)
    client.run_protocol = corrupting
    try:
        untraced, _, _, _ = quiet(run.measure, workload, 1e-9, None)
    finally:
        client.run_protocol = real
        workload.close()
    failed = sum(o is None for o in untraced)
    check("a corrupted output counts as one failed operation", failed == 1, f"{failed} failed")


def every_protocol_check_fires():
    from psfc import SimTransport, client, runtime

    spec = toy("mixed-sim-p61")
    workload = workloads.make(spec, SEED)
    workload.close()
    sigma = workload.orders[0]
    servers = [runtime.Server(i + 1, workload.functions, spec.p) for i in range(spec.n)]
    outputs, report = client.run_protocol(workload.config, sigma, workload.inputs,
                                          SimTransport(servers))
    text = report.to_json()
    expected = workloads.expected_outputs(workload.functions, sigma.mapping, workload.inputs,
                                          spec.p)
    prints = [tuple(f for f, _ in s.marginal.entries) for s in servers]

    def problems(**tamper):
        args = dict(outputs=outputs, report=report, report_json=text, expected=expected,
                    fingerprints=prints, baseline=prints, replay=text)
        args.update(tamper)
        return workloads.protocol_problems(spec, **args)

    check("protocol checks pass on a correct run", problems() == [], f"{problems()}")
    d_k = list(report.d_k)
    d_k[0] = spec.m - 1
    wrong = {
        "outputs": dict(outputs=[expected[1]] + expected[1:]),
        "D": dict(report=dataclasses.replace(report, d=report.d + 1)),
        "rate": dict(report=dataclasses.replace(report, rate=(1, 1))),
        "D_k >= M": dict(report=dataclasses.replace(report, d_k=d_k)),
        "fingerprint": dict(baseline=[prints[0][::-1]] + prints[1:]),
        "sim replay": dict(replay=text.replace('"d":', '"d": ')),
    }
    for label, tamper in wrong.items():
        check(f"protocol check fires on a wrong {label}", len(problems(**tamper)) == 1,
              f"{problems(**tamper)}")


def every_audit_check_fires():
    from psfc import audit

    spec = toy("audit")
    uni = audit.uniformity_test(spec.k, spec.n, spec.m, spec.p, spec.l,
                                trials=spec.uniformity_trials, seed=workloads.UNIFORMITY_SEED)
    real = audit.attack_campaign(spec.k, spec.n, trials=spec.attack_trials,
                                 seed=workloads.ATTACK_SEED, scheme="real")
    naive = audit.attack_campaign(spec.k, spec.n, trials=spec.attack_trials,
                                  seed=workloads.ATTACK_SEED, scheme="naive")
    check("audit checks pass on the toy campaigns",
          workloads.audit_problems(uni, real, naive) == [],
          f"{workloads.audit_problems(uni, real, naive)}")
    first = next(iter(uni.tv_cross))
    first_self = next(iter(uni.tv_self))
    first_slot = next(iter(uni.chi2_pvalues))
    wrong = {
        "cross-order TV": (dataclasses.replace(uni, tv_cross={**uni.tv_cross, first: 1.0}),
                           real, naive),
        "split-half TV": (dataclasses.replace(uni, tv_self={**uni.tv_self, first_self: 1.0}),
                          real, naive),
        "chi-square": (dataclasses.replace(uni, chi2_pvalues={**uni.chi2_pvalues,
                                                              first_slot: 0.0}), real, naive),
        "attacker band": (uni, dataclasses.replace(real, per_server_rate=[1.0] * spec.n),
                          naive),
        "naive control": (uni, real, dataclasses.replace(naive, per_server_rate=[0.5] * spec.n)),
    }
    for label, results in wrong.items():
        found = workloads.audit_problems(*results)
        check(f"audit check fires on a wrong {label}", len(found) == 1, f"{found}")


def setup_probes_spread():
    workload = workloads.make(toy("narrow-tcp"), SEED)
    try:
        untraced, _, _, setups = quiet(run.measure, workload, 1e-9, None,
                                       lambda: run.probe_setup("narrow-tcp", SEED))
    finally:
        workload.close()
    check("set-up probes report positive times",
          len(setups) == run.SETUP_PROBES and all(t > 0 for t in setups), f"{setups}")


def wrapper_cost_measured():
    check("wrapper cost calibrated", COST.inside + COST.outside > 0 and COST.pad_call > 0,
          f"{COST}")


def main():
    for name in workloads.SPECS:
        run_workload(name)
    corrupted_output_fails()
    every_protocol_check_fires()
    every_audit_check_fires()
    setup_probes_spread()
    wrapper_cost_measured()
    print(f"{len(failures)} self-check failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
