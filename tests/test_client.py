"""Client orchestration: zero-error correctness, accounting, determinism.

Every correctness expectation is checked against the brute-force
composition oracle, never against the protocol's own data flow.
"""

import ast
import inspect
import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psfc import client as client_module
from psfc.client import outputs_to_bytes, run_protocol, unmask
from psfc.field import DEFAULT_MODULUS, DimensionMismatch, mat_vec_mul, sample_invertible_matrix, sample_uniform_vector, vec_add
from psfc.protocol import Permutation, RunConfig, compose_reference, enumerate_permutations
from psfc.rand import Rng
from psfc.runtime import Server, SimTransport, generate_functions, generate_inputs, marginal_to_json
from psfc.scheduler import query_count


def _instance(k, n, m, l, p, seed):
    config = RunConfig(k=k, n=n, m=m, l=l, p=p, seed=seed)
    functions = generate_functions(k, l, p, Rng(seed).child("functions"))
    w = generate_inputs(m, l, p, Rng(seed).child("inputs"))
    return config, functions, w


def _run(config, functions, w, sigma):
    servers = [Server(i + 1, functions, config.p) for i in range(config.n)]
    return run_protocol(config, sigma, w, SimTransport(servers))


# -- unmask ------------------------------------------------------------------------


def test_unmask_zero_image_is_identity():
    assert unmask((2, 3), (0, 0), 5) == (2, 3)


def test_unmask_scalar_example():
    assert unmask((4,), (3,), 5) == (1,)


def test_unmask_cancels_linear_pad():
    rng = Rng(6)
    p = 11
    f = sample_invertible_matrix(3, p, rng)
    x = sample_uniform_vector(3, p, rng)
    z = sample_uniform_vector(3, p, rng)
    masked = mat_vec_mul(f, vec_add(x, z, p), p)
    image = mat_vec_mul(f, z, p)
    assert unmask(masked, image, p) == mat_vec_mul(f, x, p)


def test_unmask_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        unmask((1, 2), (1,), 5)


# -- correctness against the oracle ---------------------------------------------------


def test_chain_k2_single_request():
    config, functions, w = _instance(2, 2, 1, 2, 5, seed=3)
    sigma = Permutation.from_paper_order((2, 1))
    outputs, report = _run(config, functions, w, sigma)
    assert outputs == [compose_reference(functions, sigma, w[0], 5)]
    assert report.d == 2


def test_block_regime_k4_n3_all_orders():
    config, functions, w = _instance(4, 3, 2, 2, 5, seed=42)
    for sigma in enumerate_permutations(4):
        outputs, report = _run(config, functions, w, sigma)
        expected = [compose_reference(functions, sigma, vec, 5) for vec in w]
        assert outputs == expected
        assert report.d == 36


def test_k3_n2_exhaustive_orders_l3_p7():
    config, functions, w = _instance(3, 2, 3, 3, 7, seed=9)
    for sigma in enumerate_permutations(3):
        outputs, _ = _run(config, functions, w, sigma)
        assert outputs == [compose_reference(functions, sigma, vec, 7) for vec in w]


def test_fallback_only_n1():
    config, functions, w = _instance(3, 1, 2, 1, 5, seed=10)
    for sigma in enumerate_permutations(3):
        outputs, report = _run(config, functions, w, sigma)
        assert outputs == [compose_reference(functions, sigma, vec, 5) for vec in w]
        assert report.d == 2 * 3 * 6


def test_mixed_regime_with_leftovers():
    # K=5, N=4: M=7 gives M'=2 batches (6 requests) plus one fallback request.
    config, functions, w = _instance(5, 4, 7, 1, 7, seed=11)
    sigma = Permutation.from_paper_order((2, 5, 1, 4, 3))
    outputs, report = _run(config, functions, w, sigma)
    assert outputs == [compose_reference(functions, sigma, vec, 7) for vec in w]
    assert report.d == query_count(5, 4, 7)


def test_large_modulus_run():
    p = DEFAULT_MODULUS
    config, functions, w = _instance(4, 3, 2, 3, p, seed=12)
    sigma = Permutation.from_paper_order((1, 3, 4, 2))
    outputs, _ = _run(config, functions, w, sigma)
    assert outputs == [compose_reference(functions, sigma, vec, p) for vec in w]


def test_output_index_layout():
    # Outputs must land at (batch-1)(N-1) + component - 1, i.e. the
    # original input order.
    config, functions, w = _instance(4, 3, 6, 1, 5, seed=13)
    sigma = Permutation.from_paper_order((4, 3, 2, 1))
    outputs, _ = _run(config, functions, w, sigma)
    for idx, vec in enumerate(w):
        assert outputs[idx] == compose_reference(functions, sigma, vec, 5)


# -- accounting -----------------------------------------------------------------------


def test_report_d_k_block_structure():
    config, functions, w = _instance(4, 3, 4, 1, 5, seed=14)  # M'=2, blocks=5
    _, report = _run(config, functions, w, Permutation.identity(4))
    assert report.d_k == [2 * 5, 2 * 5, 2 * 5, 3 * 5]
    assert sum(report.d_k) == report.d == query_count(4, 3, 4)


def test_report_rate_exact_fraction():
    config, functions, w = _instance(4, 3, 2, 1, 5, seed=15)
    _, report = _run(config, functions, w, Permutation.identity(4))
    assert report.rate == (2, 9)  # 8/36 reduced


def test_chain_d_k_is_m():
    config, functions, w = _instance(3, 4, 5, 1, 5, seed=16)
    _, report = _run(config, functions, w, Permutation.identity(3))
    assert report.d_k == [5, 5, 5]


def test_determinism_byte_identical_reports():
    config, functions, w = _instance(4, 3, 3, 2, 7, seed=17)
    sigma = Permutation.from_paper_order((3, 1, 4, 2))
    _, rep1 = _run(config, functions, w, sigma)
    _, rep2 = _run(config, functions, w, sigma)
    assert rep1.to_json() == rep2.to_json()


def test_report_json_fields():
    config, functions, w = _instance(2, 2, 1, 1, 5, seed=18)
    sigma = Permutation.from_paper_order((2, 1))
    _, report = _run(config, functions, w, sigma)
    doc = json.loads(report.to_json())
    assert doc["config"] == {"k": 2, "n": 2, "m": 1, "l": 1, "p": 5, "seed": 18}
    assert doc["sigma_display"] == [2, 1]
    assert doc["d"] == 2
    assert len(doc["transcript"]) == 2
    assert set(doc["marginals"]) == {"1", "2"}


def test_report_queries_reconstruct_triples():
    config, functions, w = _instance(2, 2, 1, 1, 5, seed=23)
    sigma = Permutation.from_paper_order((2, 1))
    _, report = _run(config, functions, w, sigma)
    assert report.transcript == [(0, 1, 1), (1, 2, 2)]
    assert report.inputs == [w[0], mat_vec_mul(functions[0], w[0], 5)]


def _projection(report, server: int) -> list:
    """The client's record of what `server` was sent, as (function, input)
    in send order, from the report's columns."""
    return [(f, x) for s, f, x in zip(report.server, report.function, report.inputs) if s == server]


def test_report_marginals_match_server_view():
    config, functions, w = _instance(3, 2, 2, 1, 5, seed=19)
    sigma = Permutation.from_paper_order((1, 3, 2))
    servers = [Server(i + 1, functions, 5) for i in range(2)]
    _, report = run_protocol(config, sigma, w, SimTransport(servers))
    for server in servers:
        assert _projection(report, server.id) == server.marginal.entries


# -- canonical JSON, written from the columns --------------------------------------------


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _report_doc(report) -> dict:
    """The run report as a document, built from the (server, function,
    input) columns: the oracle for `RunReport.to_json`."""
    marginals = {str(s): [[f, list(x)] for f, x in _projection(report, s)]
                 for s in range(1, report.n + 1)}
    return {
        "config": {"k": report.k, "n": report.n, "m": report.m, "l": report.l,
                   "p": report.p, "seed": report.seed},
        "sigma_display": list(reversed(report.sigma)),
        "d": report.d,
        "d_k": report.d_k,
        "rate": {"num": report.rate[0], "den": report.rate[1]},
        "outputs": [list(v) for v in report.outputs],
        "transcript": [[seq, s, f] for seq, (s, f) in enumerate(zip(report.server, report.function))],
        "marginals": marginals,
    }


def _marginal_doc(server) -> dict:
    """One server's view as a document: the oracle for `marginal_to_json`."""
    return {
        "server": server.id,
        "entries": [{"function": f, "input": list(w)} for f, w in server.marginal.entries],
    }


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    sigma=st.integers(1, 5).flatmap(lambda k: st.permutations(range(1, k + 1))),
    n=st.integers(1, 12),
    m=st.integers(1, 6),
    l=st.integers(1, 3),
    p=st.sampled_from((2, 3, 2**31 - 1, 2**61 - 1)),
    seed=st.integers(0, 2**32),
)
@example(sigma=[2, 3, 1], n=11, m=2, l=2, p=2**61 - 1, seed=0)  # "10" sorts before "2"
def test_json_written_from_columns_equals_json_dumps_of_the_documents(sigma, n, m, l, p, seed):
    config, functions, w = _instance(len(sigma), n, m, l, p, seed)
    servers = [Server(i + 1, functions, p) for i in range(n)]
    _, report = run_protocol(config, Permutation(tuple(sigma)), w, SimTransport(servers))
    assert report.to_json() == _canonical(_report_doc(report))
    for server in servers:
        assert marginal_to_json(server) == _canonical(_marginal_doc(server))


# The most tracemalloc may see at its peak over run_protocol and to_json,
# in bytes per query, at (K, N, M, L, p) = (5, 3, 2001, 2, 2^61-1).  With
# a tuple per query in the report and in each server's view, and to_json
# building a nested document, the peak was 848; with columns it is ~340.
MEMORY_BUDGET_PER_QUERY = 500


def test_run_and_report_stay_within_the_memory_budget():
    config, functions, w = _instance(5, 3, 2001, 2, 2**61 - 1, seed=3)
    servers = [Server(i + 1, functions, config.p) for i in range(3)]
    transport = SimTransport(servers)
    sigma = Permutation.parse("2,5,1,4,3")
    tracemalloc.start()
    try:
        _, report = run_protocol(config, sigma, w, transport)
        report.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.d == query_count(5, 3, 2001) == 12648
    assert peak / report.d <= MEMORY_BUDGET_PER_QUERY, f"{peak / report.d:.0f} bytes per query"


def test_outputs_binary_format():
    blob = outputs_to_bytes([(1, 2), (3, 4)])
    assert blob[:8] == (2).to_bytes(4, "little") + (2).to_bytes(4, "little")
    assert len(blob) == 8 + 4 * 8
    assert blob[8:16] == (1).to_bytes(8, "little")


def test_input_validation():
    config, functions, w = _instance(3, 2, 2, 1, 5, seed=20)
    with pytest.raises(ValueError):
        _run(config, functions, w[:1], Permutation.identity(3))
    with pytest.raises(ValueError):
        _run(config, functions, w, Permutation.identity(4))


# -- structural: the client never touches the function matrices -----------------------


def test_client_module_is_matrix_blind():
    source = inspect.getsource(client_module)
    tree = ast.parse(source)
    names = {
        node.names[0].name.split(".")[-1] if isinstance(node, ast.Import) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    forbidden = {"mat_vec_mul", "mat_mul", "mat_inv", "sample_invertible_matrix",
                 "generate_functions", "compose_reference"}
    assert not names & forbidden, f"client imports matrix machinery: {names & forbidden}"
