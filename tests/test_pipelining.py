"""Pipelined exchanges: a block is one transport call on sim and TCP alike.

Over TCP a block is one exchange per connection.  Every shape of plan
must give the same report and the same server views as the simulated
path, with the exchange count the plan predicts.
"""

import socket
import struct
import threading
import time
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psfc import runtime
from psfc.client import run_protocol
from psfc.field import DEFAULT_MODULUS
from psfc.protocol import Permutation, RunConfig, compose_reference
from psfc.rand import Rng
from psfc.runtime import (
    ChannelClosed,
    MalformedFrame,
    Server,
    SimTransport,
    TcpServerHost,
    TcpTransport,
    _parse_frame,
    _rows_per_frame,
    encode_message,
    generate_functions,
    generate_inputs,
    marginal_to_json,
)
from psfc.scheduler import build_plan


class _Counting:
    """Passes exchanges through and records the rows in each."""

    def __init__(self, inner):
        self.inner = inner
        self.sizes = []

    def query(self, servers, functions, xs):
        self.sizes.append(len(xs))
        return self.inner.query(servers, functions, xs)


def _sim_and_tcp(k, n, m, l, sigma, seed=11, p=DEFAULT_MODULUS):
    config = RunConfig(k=k, n=n, m=m, l=l, p=p, seed=seed)
    functions = generate_functions(k, l, p, Rng(seed).child("functions"))
    w = generate_inputs(m, l, p, Rng(seed).child("inputs"))
    sim_servers = [Server(i + 1, functions, p) for i in range(n)]
    sim = _Counting(SimTransport(sim_servers))
    sim_outputs, sim_report = run_protocol(config, sigma, w, sim)
    tcp_servers = [Server(i + 1, functions, p) for i in range(n)]
    host = TcpServerHost(tcp_servers)
    tcp = _Counting(TcpTransport(host.addresses))
    try:
        tcp_outputs, tcp_report = run_protocol(config, sigma, w, tcp)
    finally:
        tcp.inner.close()
        host.close()
    assert sim_outputs == tcp_outputs == [compose_reference(functions, sigma, v, p) for v in w]
    assert tcp_report.to_json() == sim_report.to_json()
    assert [marginal_to_json(s) for s in tcp_servers] == [marginal_to_json(s) for s in sim_servers]
    assert tcp.sizes == sim.sizes
    return tcp.sizes


@pytest.mark.parametrize(
    "k, n, m, sigma",
    [
        pytest.param(3, 3, 2, (2, 3, 1), id="chains"),
        pytest.param(4, 3, 4, (3, 1, 4, 2), id="blocks"),
        pytest.param(4, 3, 5, (4, 3, 2, 1), id="blocks-and-fallback"),
        pytest.param(3, 1, 2, (3, 1, 2), id="n1"),
    ],
)
def test_tcp_exchanges_match_sim(k, n, m, sigma):
    sigma = Permutation(sigma)
    sizes = _sim_and_tcp(k, n, m, 2, sigma)
    plan = build_plan(k, n, m, sigma)
    # A block per exchange, then one exchange per level of each other
    # request's chains.
    levels = (len(plan) - plan.n_blocks * n * (k - 1)) // plan.chains
    assert sizes == [n * (k - 1)] * plan.n_blocks + [plan.chains] * levels


@pytest.mark.parametrize("k, n, m", [(3, 1, 2), (5, 3, 5)], ids=["n1", "k5-leftover"])
def test_fallback_request_is_k_exchanges_of_k_factorial_rows(k, n, m):
    sigma = Permutation.from_paper_order(range(1, k + 1))
    plan = build_plan(k, n, m, sigma)
    leftover = m - plan.m_prime * (n - 1)
    assert leftover
    sizes = _sim_and_tcp(k, n, m, 2, sigma)
    assert sizes[plan.n_blocks:] == [factorial(k)] * (k * leftover)


class _FrameLog:
    """Wraps `runtime.encode_message` and records (magic, rows) per frame."""

    def __init__(self, monkeypatch):
        self.frames = []
        encode = runtime.encode_message

        def logged(magic, seq, l, functions, rows):
            self.frames.append((magic, len(rows)))
            return encode(magic, seq, l, functions, rows)

        monkeypatch.setattr(runtime, "encode_message", logged)

    def queries(self):
        return [count for magic, count in self.frames if magic == b"PSFQ"]


@pytest.mark.parametrize(
    "k, n, m, sigma",
    [
        pytest.param(3, 3, 2, (2, 3, 1), id="chains"),
        pytest.param(4, 3, 5, (4, 3, 2, 1), id="blocks-and-fallback"),
        pytest.param(3, 1, 2, (3, 1, 2), id="n1"),
    ],
)
def test_one_query_frame_and_one_answer_frame_per_server_per_exchange(monkeypatch, k, n, m, sigma):
    log = _FrameLog(monkeypatch)
    sigma = Permutation(sigma)
    sizes = _sim_and_tcp(k, n, m, 2, sigma)
    plan = build_plan(k, n, m, sigma)
    # A block gives each server K - 1 rows; any other exchange is one
    # level of a request's chains, all at one server.
    expected = [k - 1] * n * plan.n_blocks + [plan.chains] * (len(sizes) - plan.n_blocks)
    assert log.queries() == expected
    assert sorted(count for magic, count in log.frames if magic == b"PSFA") == sorted(expected)


def test_tiny_window_reads_before_sending(monkeypatch):
    # A window of a few bytes holds no row, so every frame holds one, and
    # the client reads each answer before it sends the next frame of the
    # block; the run must still complete unchanged.
    monkeypatch.setattr(runtime, "_WINDOW_BYTES", 8)
    log = _FrameLog(monkeypatch)
    sigma = Permutation((2, 5, 1, 4, 3))
    sizes = _sim_and_tcp(5, 2, 3, 16, sigma)
    assert len(sizes) == build_plan(5, 2, 3, sigma).n_blocks
    assert log.queries() == [1] * sum(sizes)


def _answer_then_drop(monkeypatch, answer):
    """Run a three-row block against a host that sends `answer` after the
    first query frame and then drops the connection."""
    monkeypatch.setattr(runtime, "_WINDOW_BYTES", 8)  # one row per frame
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def answer_once_then_drop():
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)
            conn.sendall(answer)

    thread = threading.Thread(target=answer_once_then_drop, daemon=True)
    thread.start()
    transport = TcpTransport([listener.getsockname()])
    start = time.monotonic()
    try:
        with pytest.raises(ChannelClosed):
            transport.query([1, 1, 1], [1, 2, 3], [(0,), (1,), (2,)])
    finally:
        transport.close()
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()
    assert time.monotonic() - start < 5  # the peer's close, not the socket timeout


def test_host_dropping_mid_block_raises_channel_closed(monkeypatch):
    _answer_then_drop(monkeypatch, encode_message(b"PSFA", 0, 1, (), [(1,)]))


def test_host_dropping_mid_frame_raises_channel_closed(monkeypatch):
    _answer_then_drop(monkeypatch, encode_message(b"PSFA", 0, 1, (), [(1,)])[:20])


@pytest.mark.parametrize(
    "header",
    [
        b"PSFQ" + struct.pack("<III", 0, 1, 1),
        b"PSFA" + struct.pack("<III", 5, 1, 1),
        b"PSFA" + struct.pack("<III", 0, 0, 1),
        b"PSFA" + struct.pack("<III", 0, 2, 1),
        b"PSFA" + struct.pack("<III", 0, 2**32 - 1, 1),
        b"PSFA" + struct.pack("<III", 0, 1, 2),
        b"PSFA" + struct.pack("<III", 0, 1, 2**32 - 1),
    ],
    ids=["not-an-answer", "wrong-seq", "no-rows", "more-rows", "huge-count", "wrong-dim",
         "huge-dim"],
)
def test_client_refuses_an_answer_header_before_its_body(header):
    # The host sends only a bad header and holds the connection open: the
    # client must refuse it at once, not wait for (or buffer) a body.
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    release = threading.Event()

    def send_header_only():
        conn, _ = listener.accept()
        with conn:
            conn.recv(4096)
            conn.sendall(header)
            release.wait(10)

    thread = threading.Thread(target=send_header_only, daemon=True)
    thread.start()
    transport = TcpTransport([listener.getsockname()])
    start = time.monotonic()
    try:
        with pytest.raises(MalformedFrame):
            transport.query([1], [1], [(0,)])
        elapsed = time.monotonic() - start
    finally:
        release.set()
        transport.close()
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()
    assert elapsed < 5  # the header alone, not the 10 s socket timeout


def _echo_host(listener, frames):
    """Answer each query frame with its own rows, and log its row count."""
    conn, _ = listener.accept()
    with conn:
        buffered = b""
        while True:
            while (frame := _parse_frame(buffered, b"PSFQ", _accept)) is None:
                chunk = conn.recv(4096)
                if not chunk:
                    return
                buffered += chunk
            seq, _, rows, end = frame
            buffered = buffered[end:]
            frames.append(len(rows))
            conn.sendall(encode_message(b"PSFA", seq, len(rows[0]), (), rows))


def _accept(*_fields):
    pass


def test_window_keeps_a_large_block_from_deadlocking(monkeypatch):
    # Socket buffers of a few KB on both ends and a block of 512 KB of
    # rows.  If the client wrote the whole block before reading, the host
    # would block writing answers, stop reading, and both ends would wait;
    # frames of at most a window each, one unanswered at a time, prevent it.
    monkeypatch.setattr(runtime, "_WINDOW_BYTES", 4096)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    frames = []
    thread = threading.Thread(target=_echo_host, args=(listener, frames), daemon=True)
    thread.start()
    transport = TcpTransport([listener.getsockname()])
    transport._channels[0].sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    transport._channels[0].sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    xs = [tuple(range(i, i + 16)) for i in range(4096)]
    start = time.monotonic()
    try:
        assert transport.query([1] * 4096, [1 + i % 3 for i in range(4096)], xs) == xs
    finally:
        transport.close()
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()
    assert time.monotonic() - start < 5
    # 31 rows of 130 body bytes fill a 4 KiB frame; the last frame holds the rest.
    full = _rows_per_frame(16)
    assert full == 31
    assert frames == [full] * (4096 // full) + [4096 % full]


# -- the full protocol over TCP, on random shapes ------------------------------------------

@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(
    k=st.integers(1, 5),
    n=st.integers(1, 4),
    m=st.integers(1, 7),
    p=st.sampled_from((3, 2**31 - 1, 2**61 - 1)),  # tuple path and float64 kernel, 61-bit
    l=st.integers(1, 16),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_full_protocol_over_tcp_matches_sim_and_reference(k, n, m, p, l, seed, data):
    # Same reports, same server views and outputs equal to the reference,
    # over TCP and over sim, on the shapes of the scheduler's property.
    sigma = Permutation(tuple(data.draw(st.permutations(range(1, k + 1)), label="sigma")))
    _sim_and_tcp(k, n, m, l, sigma, seed=seed, p=p)


def test_full_protocol_over_tcp_past_the_window():
    # A leftover request at K = 5, N = 1 gives server 1 K! = 120 rows per
    # exchange; at L = 70 that is 67,440 query body bytes, past
    # _WINDOW_BYTES, so each exchange is two frames a direction.
    assert 120 * (2 + 8 * 70) > runtime._WINDOW_BYTES
    assert _rows_per_frame(70) < 120
    _sim_and_tcp(5, 1, 1, 70, Permutation((4, 2, 5, 1, 3)), p=2**31 - 1)
