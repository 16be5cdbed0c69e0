"""Command-line driver: exit codes, artifacts, determinism."""

import dataclasses
import json
import os
import struct
import subprocess
import sys

import pytest

from psfc import cli
from psfc.cli import main
from psfc.scheduler import build_plan


def run_cli(*argv):
    return main(list(argv))


def test_run_example3_config(capsys):
    code = run_cli("run", "--k", "4", "--n", "3", "--m", "2", "--l", "2",
                   "--p", "5", "--sigma", "1,3,4,2", "--seed", "42")
    out = capsys.readouterr().out
    assert code == 0
    assert "D=36" in out and "MATCH" in out


def test_run_chain_d_equals_2(capsys):
    code = run_cli("run", "--k", "2", "--n", "2", "--m", "1", "--l", "1",
                   "--p", "5", "--sigma", "2,1", "--seed", "1")
    assert code == 0
    assert "D=2" in capsys.readouterr().out


def test_run_rejects_bad_k(capsys):
    assert run_cli("run", "--k", "0") == 2


def test_run_rejects_bad_sigma(capsys):
    assert run_cli("run", "--k", "3", "--sigma", "1,2") == 2
    assert run_cli("run", "--k", "3", "--sigma", "1,2,x") == 2


def test_run_emits_report_and_outputs(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    outputs_path = tmp_path / "outputs.bin"
    code = run_cli("run", "--k", "3", "--n", "2", "--m", "2", "--l", "2", "--p", "7",
                   "--sigma", "3,1,2", "--seed", "5",
                   "--emit-report", str(report_path), "--outputs", str(outputs_path))
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["d"] == 16  # (2+2)*2*2
    blob = outputs_path.read_bytes()
    m, l = struct.unpack("<II", blob[:8])
    assert (m, l) == (2, 2)
    assert len(blob) == 8 + m * l * 8


def test_run_report_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert run_cli("run", "--k", "3", "--n", "2", "--m", "1", "--l", "1", "--p", "5",
                       "--sigma", "3,2,1", "--seed", "9", "--emit-report", str(path)) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_tcp_transport_matches_sim(tmp_path):
    sim_path = tmp_path / "sim.json"
    tcp_path = tmp_path / "tcp.json"
    base = ["run", "--k", "3", "--n", "2", "--m", "2", "--l", "2", "--p", "7",
            "--sigma", "1,3,2", "--seed", "21"]
    assert run_cli(*base, "--emit-report", str(sim_path)) == 0
    assert run_cli(*base, "--transport", "tcp", "--emit-report", str(tcp_path)) == 0
    assert sim_path.read_bytes() == tcp_path.read_bytes()


def test_run_capture_dir(tmp_path):
    capture = tmp_path / "caps"
    assert run_cli("run", "--k", "2", "--n", "2", "--m", "1", "--l", "1", "--p", "5",
                   "--sigma", "2,1", "--seed", "3", "--capture-dir", str(capture)) == 0
    files = sorted(os.listdir(capture))
    assert files == ["marginal_server_1.json", "marginal_server_2.json"]
    doc = json.loads((capture / files[0]).read_text())
    assert doc["server"] == 1
    assert doc["entries"][0]["function"] == 1


def test_run_rejects_malformed_addresses(capsys):
    base = ["run", "--k", "2", "--n", "2", "--m", "1", "--l", "1", "--p", "5",
            "--transport", "tcp"]
    for addresses in ("127.0.0.1:abc,127.0.0.1:1", "127.0.0.1,127.0.0.1:1",
                      ":80,127.0.0.1:1", "127.0.0.1:0,127.0.0.1:1", "127.0.0.1:70000,127.0.0.1:1"):
        assert run_cli(*base, "--addresses", addresses) == 2, addresses
        assert "error: --addresses" in capsys.readouterr().err


def test_run_rejects_capture_dir_with_remote_servers(tmp_path, capsys):
    # Remote servers keep their own views: there is nothing local to capture.
    capture = tmp_path / "caps"
    code = run_cli("run", "--k", "2", "--n", "2", "--m", "1", "--l", "1", "--p", "5",
                   "--transport", "tcp", "--addresses", "127.0.0.1:1,127.0.0.1:2",
                   "--capture-dir", str(capture))
    assert code == 2
    assert "--capture-dir" in capsys.readouterr().err
    assert not capture.exists()


def test_run_rejects_addresses_without_tcp(capsys):
    # --addresses names remote servers; over sim it would be ignored.
    code = run_cli("run", "--k", "2", "--n", "2", "--m", "1", "--l", "1", "--p", "5",
                   "--addresses", "127.0.0.1:1,127.0.0.1:2")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: --addresses needs --transport tcp\n"
    assert captured.out == ""


def test_audit_small(capsys):
    code = run_cli("audit", "--k", "3", "--n", "2", "--p", "3", "--l", "1",
                   "--trials", "30000", "--attack-trials", "400", "--seed", "7")
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "fingerprint invariance" in out


def test_audit_negative_control(tmp_path, capsys):
    emit = tmp_path / "audit.json"
    code = run_cli("audit", "--k", "3", "--n", "2", "--p", "3", "--l", "1",
                   "--trials", "30000", "--attack-trials", "400", "--seed", "7",
                   "--negative-control", "--emit", str(emit))
    assert code == 0
    rows = json.loads(emit.read_text())
    control = [r for r in rows if "broken control" in r["check"]]
    assert len(control) == 1 and control[0]["pass"]
    assert control[0]["statistic"] > 0.9


def test_audit_thresholds_are_fixed(tmp_path, capsys):
    # TV 0.02 at 10^6 trials scaled as 1/sqrt(trials), sqrt(2) times that
    # for split halves, alpha 0.01: no option loosens them.
    emit = tmp_path / "audit.json"
    assert run_cli("audit", "--k", "3", "--n", "2", "--p", "3", "--l", "1",
                   "--trials", "30000", "--attack-trials", "100", "--seed", "7",
                   "--emit", str(emit)) == 0
    rows = {r["check"]: r for r in json.loads(emit.read_text())}
    assert rows["input-tuple TV across orders (all orders)"]["threshold"] == "<= 0.115470"
    assert rows["input-tuple TV split-half floor"]["threshold"] == "<= 0.163299"
    assert rows["per-slot uniformity chi-square (72 slots)"]["threshold"] == ">= alpha/72"
    rate = rows["measured rate <= min(1, scheme limit)"]
    assert rate["pass"] and rate["statistic"] == "1/4" and rate["threshold"] == "<= 3/4"
    for flag in ("--alpha", "--tv-threshold"):
        with pytest.raises(SystemExit) as exc:
            run_cli("audit", flag, "1")
        assert exc.value.code == 2


def test_audit_rejects_bad_trials(capsys):
    # The message names the real bounds: two trials for a split half, one attack.
    for flag, value in (("--trials", "1"), ("--attack-trials", "0")):
        assert run_cli("audit", flag, value) == 2
        assert capsys.readouterr().err == (
            "error: --trials must be at least 2 and --attack-trials at least 1\n")


@pytest.mark.parametrize("argv", [
    ("run", "--k", "9", "--n", "1", "--m", "1"),
    ("run", "--k", "9", "--n", "3", "--m", "1"),
    ("audit", "--k", "9", "--n", "2"),
])
def test_k_past_the_enumeration_guard_is_a_usage_error(argv, capsys):
    # The fallback and the attacker list all K! orders, which stops at K = 8.
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "K" in captured.err and "8" in captured.err


def test_audit_reports_the_uniformity_guard_and_finishes(capsys):
    # 35,280 slots at server 1: the joint count has too many digits to
    # print, so the guard must say why in words and the audit go on.
    code = run_cli("audit", "--k", "7", "--n", "3", "--m", "1",
                   "--trials", "10", "--attack-trials", "1")
    captured = capsys.readouterr()
    assert code == 0
    assert "input-tuple uniformity" in captured.out and "skipped (guard)" in captured.out
    assert "slots per server" in captured.err


def test_audit_large_k_switches_to_sampled_orders(capsys):
    # 7! orders exceed every enumeration budget: the fingerprint and
    # uniformity checks fall back to seeded samples with a warning.
    code = run_cli("audit", "--k", "7", "--n", "7", "--p", "3", "--l", "1",
                   "--trials", "2000", "--attack-trials", "5", "--seed", "3")
    captured = capsys.readouterr()
    assert code == 0
    assert "sampled" in captured.out
    assert "warning" in captured.err


def test_rate_table_rows(capsys):
    code = run_cli("rate-table", "--k-values", "3,4", "--n-values", "2,3",
                   "--m-values", "200")
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K,N,M,D,R,lower_bound,gap,limit"
    rows = {tuple(line.split(",")[:3]): line.split(",") for line in lines[1:]}
    k4n3 = rows[("4", "3", "200")]
    assert k4n3[3] == "927"  # 9*100 + 27
    assert abs(float(k4n3[4]) - 800 / 927) < 1e-9
    assert abs(float(k4n3[7]) - 8 / 9) < 1e-9
    k3n3 = rows[("3", "3", "200")]
    assert float(k3n3[4]) == 1.0
    k3n2 = rows[("3", "2", "200")]
    assert abs(float(k3n2[7]) - 0.75) < 1e-9


def test_rate_table_to_file(tmp_path):
    out = tmp_path / "rates.csv"
    assert run_cli("rate-table", "--k-values", "2", "--n-values", "2",
                   "--m-values", "10", "--output", str(out)) == 0
    assert out.read_text().splitlines()[1].startswith("2,2,10,20,1.0")


def test_demo_example1(capsys):
    assert run_cli("demo", "example1") == 0
    out = capsys.readouterr().out
    assert "(2 1)" in out and "(1 2)" in out
    assert out.count("queries: 2") == 2


def test_demo_example3(capsys):
    assert run_cli("demo", "example3") == 0
    out = capsys.readouterr().out
    assert "queries: 36 (expected 36)" in out
    assert "MISMATCH" not in out


def test_demo_example3_worked_table_rows(capsys):
    # Rows of the paper's worked table for order (1 3 4 2): blocks 2 and
    # 3 carry batch 1 through F2, F4, F3; the pads on F4 cancel.
    assert run_cli("demo", "example3") == 0
    out = capsys.readouterr().out
    table = out.split("composition order (1 3 4 2)")[1].split("composition order")[0]
    block2 = table.split("  block 2:\n")[1].split("  block 3:")[0]
    block3 = table.split("  block 3:\n")[1].split("  block 4:")[0]
    block4 = table.split("  block 4:\n")[1]
    assert "    server 1:  F1 Z*  |  F1 Z*  |  F4 F2(W[1,1]) + Z[2,1]\n" in block2
    assert "    server 3:  F3 Z*  |  F3 Z*  |  F4 Z[2,1]\n" in block2
    assert "    server 3:  F3 F4(F2(W[1,1]))  |  F3 F4(F2(W[1,2]))  |  F4 Z[3,1]\n" in block3
    assert ("    server 1:  F1 F3(F4(F2(W[1,1])))  |  F1 F3(F4(F2(W[1,2])))"
            "  |  F4 Z* + Z[4,1]\n") in block4


def test_demo_check_fires_on_a_broken_plan(monkeypatch, capsys):
    # Swap the raw inputs of two rows: the symbolic run must notice.
    def swapped(*args):
        plan = build_plan(*args)
        source = list(plan.source)
        i, j = [i for i, s in enumerate(source) if plan.m <= s < 2 * plan.m][:2]
        assert source[i] != source[j]
        source[i], source[j] = source[j], source[i]
        return dataclasses.replace(plan, source=source)

    monkeypatch.setattr(cli, "build_plan", swapped)
    assert run_cli("demo", "example3") == 1
    assert "outputs MISMATCH" in capsys.readouterr().out


def test_demo_unknown_name(capsys):
    assert run_cli("demo", "nope") == 2


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PSFC_SEED", "77")
    a = tmp_path / "a.json"
    assert run_cli("run", "--k", "2", "--n", "2", "--m", "1", "--l", "1", "--p", "5",
                   "--sigma", "2,1", "--emit-report", str(a)) == 0
    assert json.loads(a.read_text())["config"]["seed"] == 77


def test_malformed_env_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("PSFC_SEED", "abc")
    for command in ("run", "audit"):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--k", "2", "--n", "2")
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err
    # An explicit --seed wins; rate-table and demo take no seed at all.
    assert run_cli("run", "--k", "2", "--n", "2", "--seed", "4") == 0
    assert run_cli("rate-table", "--k-values", "2", "--n-values", "2", "--m-values", "4") == 0
    assert run_cli("demo", "example1") == 0


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "psfc.cli", "rate-table", "--k-values", "2",
         "--n-values", "2", "--m-values", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("K,N,M,D,R")


# Each step runs in one fresh interpreter, in order, and must leave numpy
# unloaded: below L = 9 no server makes an array, and nothing else needs one.
NUMPY_FREE_STEPS = r"""
import sys


def check(step):
    assert "numpy" not in sys.modules, f"{step} loaded numpy"


import psfc
check("import psfc")
import psfc.cli
check("import psfc.cli")
for transport in ("sim", "tcp"):
    argv = ["run", "--k", "4", "--n", "2", "--m", "3", "--l", "2", "--transport", transport]
    assert psfc.cli.main(argv) == 0
    check(f"psfc run over {transport}")
assert psfc.cli.main(["demo", "example1"]) == 0
check("psfc demo example1")
# The narrow-tcp and mixed-sim-p61 benchmark set-ups: instances, servers, TCP ends.
for k, n, m, p, transport in ((4, 2, 3000, 2**31 - 1, "tcp"), (5, 3, 8001, 2**61 - 1, "sim")):
    root = psfc.Rng(1)
    functions = psfc.generate_functions(k, 2, p, root.child("functions"))
    psfc.generate_inputs(m, 2, p, root.child("inputs"))
    servers = [psfc.Server(i + 1, functions, p) for i in range(n)]
    if transport == "tcp":
        host = psfc.TcpServerHost(servers)
        psfc.TcpTransport(host.addresses).close()
        host.close()
    check(f"the K={k} M={m} set-up over {transport}")
"""


def test_tuple_paths_never_load_numpy():
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_STEPS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_kernel_sized_run_loads_numpy():
    step = ("import sys\nfrom psfc.cli import main\n"
            "assert main(['run', '--k', '4', '--n', '2', '--m', '3', '--l', '16']) == 0\n"
            "assert 'numpy' in sys.modules")
    proc = subprocess.run([sys.executable, "-c", step], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
