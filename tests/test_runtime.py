"""Server behavior, wire codec byte layout, and both transports."""

import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psfc import runtime
from psfc.field import (
    DEFAULT_MODULUS,
    KERNEL_MIN_DIM,
    DimensionMismatch,
    mat_vec_mul,
    sample_uniform_vector,
)
from psfc.protocol import Permutation, RunConfig, compose_reference
from psfc.rand import Rng
from psfc.runtime import (
    ChannelClosed,
    MalformedFrame,
    NonCanonicalElement,
    Server,
    SimTransport,
    TcpServerHost,
    TcpTransport,
    UnknownFunction,
    _HEAD,
    _Channel,
    _parse_frame,
    _rows_per_frame,
    encode_message,
    generate_functions,
    generate_inputs,
    marginal_fingerprint,
    marginal_to_json,
)
from psfc.client import run_protocol


def _servers(k=3, n=2, l=1, p=5, seed=0):
    functions = generate_functions(k, l, p, Rng(seed).child("functions"))
    return [Server(i + 1, functions, p) for i in range(n)], functions


# -- serve_query ----------------------------------------------------------------


def test_serve_identity_function():
    server = Server(1, [((1, 0), (0, 1))], 5)
    assert server.serve([1], [(3, 4)]) == [(3, 4)]


def test_serve_scalar_example():
    server = Server(1, [((2,),), ((3,),)], 5)
    assert server.serve([2, 1], [(4,), (4,)]) == [(2,), (3,)]  # 3*4, 2*4 mod 5


def test_serve_appends_one_marginal_entry():
    server = Server(1, [((1,),)], 5)
    assert len(server.marginal) == 0
    server.serve([1], [(2,)])
    assert len(server.marginal) == 1
    assert server.marginal.entries[0] == (1, (2,))


def test_serve_unknown_function():
    server = Server(1, [((1,),)], 5)
    with pytest.raises(UnknownFunction):
        server.serve([2], [(1,)])
    with pytest.raises(UnknownFunction):
        server.serve([0], [(1,)])


def test_serve_dimension_check():
    server = Server(1, [((1, 0), (0, 1))], 5)
    with pytest.raises(DimensionMismatch):
        server.serve([1], [(1,)])


@pytest.mark.parametrize("l", [2, 16])  # the tuple path and the float64 kernel
def test_serve_rejects_noncanonical_elements(l):
    p = DEFAULT_MODULUS
    server = Server(1, generate_functions(1, l, p, Rng(1)), p)
    for bad in ((2**62,) * l, (p,) + (0,) * (l - 1), (0,) * (l - 1) + (-1,)):
        with pytest.raises(NonCanonicalElement):
            server.serve([1], [bad])
        with pytest.raises(NonCanonicalElement):
            SimTransport([server]).query([1], [1], [bad])
    assert len(server.marginal) == 0


@pytest.mark.parametrize(
    "last, error",
    [((1, (7,)), NonCanonicalElement), ((9, (1,)), UnknownFunction)],
    ids=["noncanonical", "unknown-function"],
)
def test_refused_batch_records_nothing(last, error):
    # The whole batch is checked before any of it is recorded or
    # answered, so rows ahead of the bad last row leave no trace either.
    servers, _ = _servers(k=2, n=1, l=1, p=5)
    server = servers[0]
    server.serve([2], [(4,)])
    before = list(server.marginal.entries)
    functions, ws = [1, 2, last[0]], [(1,), (3,), last[1]]
    with pytest.raises(error):
        server.serve(functions, ws)
    with pytest.raises(error):
        SimTransport([server]).query([1] * 3, functions, ws)
    assert server.marginal.entries == before


BATCHES = settings(derandomize=True, max_examples=60, deadline=None, database=None)
BATCH_PRIMES = (2, 3, 2**31 - 1, 2**61 - 1)
# Both sides of KERNEL_MIN_DIM, and past the 16-bit limbs' L = 64.
BATCH_DIMS = (1, KERNEL_MIN_DIM - 1, KERNEL_MIN_DIM, 64, 65, 100)


def _uniform_functions(k, l, p, seed):
    """K seeded uniform matrices; serving needs no inverse."""
    rng = Rng(seed)
    return [tuple(tuple(rng.randrange(p) for _ in range(l)) for _ in range(l)) for _ in range(k)]


def _vectors(l, p):
    """Canonical vectors of length l, the all-(p-1) worst case among them."""
    return st.one_of(
        st.just((p - 1,) * l),
        st.lists(st.integers(0, p - 1), min_size=l, max_size=l).map(tuple),
    )


def _batches(k, l, p, max_size):
    return st.lists(st.tuples(st.integers(1, k), _vectors(l, p)), max_size=max_size)


def _columns(batch):
    """A batch of (function, w) pairs as serve's two columns."""
    return [f for f, _ in batch], [w for _, w in batch]


@BATCHES
@given(
    data=st.data(),
    p=st.sampled_from(BATCH_PRIMES),
    l=st.sampled_from(BATCH_DIMS),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32),
)
def test_served_batch_equals_row_by_row_products(data, p, l, k, seed):
    functions = _uniform_functions(k, l, p, seed)
    server = Server(1, functions, p)
    assert isinstance(server._prepared[0], np.ndarray) == (l >= KERNEL_MIN_DIM and p < 2**31)
    assert server.serve([], []) == [] and len(server.marginal) == 0
    batch = data.draw(_batches(k, l, p, max_size=12))
    answers = server.serve(*_columns(batch))
    assert answers == [mat_vec_mul(functions[f - 1], w, p) for f, w in batch]
    assert all(type(x) is int for answer in answers for x in answer)
    assert server.marginal.entries == batch


@BATCHES
@given(
    data=st.data(),
    p=st.sampled_from(BATCH_PRIMES),
    l=st.sampled_from(BATCH_DIMS),
    k=st.integers(1, 4),
    fault=st.sampled_from(["function", "length", -1, "p", 2**63, 2**64]),
)
def test_refused_batch_raises_its_typed_error(data, p, l, k, fault):
    # One bad row anywhere in a batch: the typed error, never one from
    # numpy, through serve and through the sim transport, and no trace.
    functions = _uniform_functions(k, l, p, 7)
    server = Server(1, functions, p)
    server.serve([1], [(0,) * l])
    before = list(server.marginal.entries)
    batch = data.draw(_batches(k, l, p, max_size=6))
    function, w = data.draw(st.integers(1, k)), data.draw(_vectors(l, p))
    if fault == "function":
        function, error = data.draw(st.sampled_from([0, k + 1, 2**16 - 1])), UnknownFunction
    elif fault == "length":
        w, error = w + (0,) if l == 1 or data.draw(st.booleans()) else w[1:], DimensionMismatch
    else:
        bad = p if fault == "p" else fault
        at = data.draw(st.integers(0, l - 1))
        w, error = w[:at] + (bad,) + w[at + 1 :], NonCanonicalElement
    batch.insert(data.draw(st.integers(0, len(batch))), (function, w))
    with pytest.raises(error):
        server.serve(*_columns(batch))
    with pytest.raises(error):
        SimTransport([server]).query([1] * len(batch), *_columns(batch))
    assert server.marginal.entries == before


class _CallLog(Server):
    """A server that logs the size of each batch it is asked to serve."""

    __slots__ = ("calls",)

    def serve(self, functions, ws):
        self.calls.append(len(ws))
        return super().serve(functions, ws)


def test_sim_transport_serves_each_run_in_one_call():
    _, functions = _servers(k=2, n=2, l=1, p=5)
    servers = [_CallLog(i + 1, functions, 5) for i in range(2)]
    for server in servers:
        server.calls = []
    fs, xs = [1, 2, 1, 1], [(1,), (2,), (3,), (4,)]
    answers = SimTransport(servers).query([1, 1, 2, 1], fs, xs)
    assert [s.calls for s in servers] == [[2, 1], [1]]
    assert answers == [mat_vec_mul(functions[f - 1], x, 5) for f, x in zip(fs, xs)]


@pytest.mark.parametrize("m, l, p", [(1, 1, 2), (5, 2, 3), (8001, 2, 2**61 - 1), (3, 64, DEFAULT_MODULUS)])
def test_generate_inputs_equals_one_draw_per_input(m, l, p):
    # One draw of M*L elements, sliced: the same elements, in order, and the
    # same generator state as M draws of L.
    rng, reference = Rng(m + l), Rng(m + l)
    expected = [sample_uniform_vector(l, p, reference) for _ in range(m)]
    assert generate_inputs(m, l, p, rng) == expected
    assert rng._r.getstate() == reference._r.getstate()


# -- fingerprints ------------------------------------------------------------------


def test_fingerprint_projection():
    server = Server(1, [((1,),), ((1,),)], 5)
    assert marginal_fingerprint(server) == ()
    server.serve([2, 1], [(1,), (0,)])
    assert marginal_fingerprint(server) == (2, 1)


def test_fingerprint_k3_n2_pattern():
    # Server 1 computes (1, 3) per block, server 2 computes (2, 3).
    servers, _ = _servers(k=3, n=2, l=1, p=5, seed=1)
    config = RunConfig(k=3, n=2, m=2, l=1, p=5, seed=1)
    w = generate_inputs(2, 1, 5, Rng(1).child("inputs"))
    run_protocol(config, Permutation.from_paper_order((3, 2, 1)), w, SimTransport(servers))
    blocks = 2 + 3 - 1
    assert marginal_fingerprint(servers[0]) == (1, 3) * blocks
    assert marginal_fingerprint(servers[1]) == (2, 3) * blocks


def test_fingerprint_k4_n3_pattern():
    config = RunConfig(k=4, n=3, m=4, l=1, p=5, seed=2)
    functions = generate_functions(4, 1, 5, Rng(2).child("functions"))
    servers = [Server(i + 1, functions, 5) for i in range(3)]
    w = generate_inputs(4, 1, 5, Rng(2).child("inputs"))
    run_protocol(config, Permutation.from_paper_order((1, 3, 4, 2)), w, SimTransport(servers))
    blocks = 2 + 4 - 1
    assert marginal_fingerprint(servers[1]) == (2, 2, 4) * blocks


def test_marginal_to_json():
    server = Server(2, [((1,),)], 5)
    server.serve([1], [(3,)])
    assert marginal_to_json(server) == '{"entries":[{"function":1,"input":[3]}],"server":2}'


# -- sim transport FIFO ---------------------------------------------------------------


def test_sim_transport_fifo_per_server():
    servers, functions = _servers(k=2, n=2, l=1, p=5)
    transport = SimTransport(servers)
    answers = transport.query([1, 2, 1], [1, 2, 2], [(1,), (2,), (3,)])
    assert answers == [mat_vec_mul(functions[0], (1,), 5), mat_vec_mul(functions[1], (2,), 5),
                       mat_vec_mul(functions[1], (3,), 5)]
    assert [f for f, _ in servers[0].marginal.entries] == [1, 2]
    assert [w for _, w in servers[0].marginal.entries] == [(1,), (3,)]
    assert [f for f, _ in servers[1].marginal.entries] == [2]


def test_sim_transport_closed():
    servers, _ = _servers()
    transport = SimTransport(servers)
    transport.close()
    with pytest.raises(ChannelClosed):
        transport.query([1], [1], [(0,)])


# -- wire codec -------------------------------------------------------------------------


def _query(seq, functions, rows):
    return encode_message(b"PSFQ", seq, len(rows[0]), functions, rows)


def _answer(seq, rows):
    return encode_message(b"PSFA", seq, len(rows[0]), (), rows)


def _accept(*_fields):
    pass


def test_query_frame_exact_bytes():
    frame = _query(7, (2, 1), ((3, 4), (5, 6)))
    expected = (
        b"PSFQ"
        + (7).to_bytes(4, "little")
        + (2).to_bytes(4, "little")
        + (2).to_bytes(4, "little")
        + (2).to_bytes(2, "little")
        + (1).to_bytes(2, "little")
        + b"".join(x.to_bytes(8, "little") for x in (3, 4, 5, 6))
    )
    assert frame == expected


def test_answer_frame_layout():
    frame = _answer(1, ((4, 5), (6, 7), (8, 9)))
    assert frame[:4] == b"PSFA"
    assert frame[4:16] == struct.pack("<III", 1, 3, 2)
    assert len(frame) == 16 + 3 * 16


def test_codec_roundtrip_random():
    rng = Rng(3)
    for _ in range(100):
        count, dim = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [tuple(rng.randrange(2**31 - 1) for _ in range(dim)) for _ in range(count)]
        seq = rng.randrange(2**32)
        if rng.choice(["query", "answer"]) == "query":
            functions = tuple(rng.randrange(1, 10) for _ in range(count))
            frame = _query(seq, functions, rows)
            assert _parse_frame(frame, b"PSFQ", _accept) == (seq, functions, rows, len(frame))
        else:
            frame = _answer(seq, rows)
            assert _parse_frame(frame, b"PSFA", _accept) == (seq, (), rows, len(frame))


def test_decode_rejects_bad_magic():
    with pytest.raises(MalformedFrame):
        _parse_frame(b"XXXX" + bytes(14), b"PSFQ", _accept)
    # Each end reads one kind, so the other direction's magic is refused
    # too, and a bad first byte is refused before the rest arrives.
    with pytest.raises(MalformedFrame):
        _parse_frame(_answer(0, ((1,),)), b"PSFQ", _accept)
    with pytest.raises(MalformedFrame):
        _parse_frame(b"PSFQ", b"PSFA", _accept)
    with pytest.raises(MalformedFrame):
        _parse_frame(b"X", b"PSFA", _accept)


@pytest.mark.parametrize("count, dim", [(0, 1), (1, 0), (0, 0)])
def test_decode_rejects_an_empty_frame(count, dim):
    # A frame of no rows, or of rows of length 0, is refused on its header.
    for magic in (b"PSFQ", b"PSFA"):
        with pytest.raises(MalformedFrame):
            _parse_frame(magic + struct.pack("<III", 0, count, dim), magic, _accept)


def test_decode_rejects_truncation():
    # Every strict prefix of a frame is incomplete; the bytes after a
    # frame are the next frame's, not part of this one.
    frame = _query(0, (1, 3), ((1, 2), (3, 4)))
    for cut in range(len(frame)):
        assert _parse_frame(frame[:cut], b"PSFQ", _accept) is None
    parsed = _parse_frame(frame + b"\x00", b"PSFQ", _accept)
    assert parsed == (0, (1, 3), [(1, 2), (3, 4)], len(frame))


def test_codec_does_not_check_canonicality():
    # Values >= p pass the codec; the server ingress rejects them.
    frame = _query(0, (1,), ((2**40,),))
    assert _parse_frame(frame, b"PSFQ", _accept)[2] == [(2**40,)]


def test_rows_per_frame_fills_the_window_with_at_least_one_row(monkeypatch):
    # The split depends on L alone: as many rows of 2 + 8L query body
    # bytes as fit in _WINDOW_BYTES, and one row when none fits.
    assert [_rows_per_frame(l) for l in (1, 2, 64, 4096, 8191, 8192)] == [6553, 3640, 127, 1, 1, 1]
    monkeypatch.setattr(runtime, "_WINDOW_BYTES", 8)
    assert _rows_per_frame(1) == 1


# -- frame parser fuzzing ----------------------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)
U32 = st.integers(0, 2**32 - 1)
U64 = st.integers(0, 2**64 - 1)
# Each frame kind's magic, and whether its body carries function indices.
KINDS = {"query": (b"PSFQ", True), "answer": (b"PSFA", False)}


@st.composite
def _frames(draw, has_functions):
    """(seq, functions, rows) of one frame: 1-4 rows of length 1-4."""
    count, dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    functions = tuple(draw(st.lists(st.integers(0, 2**16 - 1), min_size=count, max_size=count)))
    rows = draw(st.lists(st.tuples(*[U64] * dim), min_size=count, max_size=count))
    return draw(U32), functions if has_functions else (), rows


def _encode(magic, seq, functions, rows):
    return encode_message(magic, seq, len(rows[0]), functions, rows)


class _Chunks:
    """A socket stand-in whose `recv` returns the given chunks, then EOF."""

    def __init__(self, chunks):
        self._chunks = iter(chunks)

    def setsockopt(self, *_args):
        pass

    def recv(self, _size):
        return next(self._chunks, b"")


class _Refused(Exception):
    pass


@PROPERTY
@given(
    prefix=st.sampled_from([b"", b"P", b"PSF", b"PSFQ", b"PSFA"]),
    rest=st.binary(max_size=64),
)
def test_parse_frame_any_bytes_give_none_a_frame_or_malformed(prefix, rest):
    buf = prefix + rest
    for magic, _ in KINDS.values():
        try:
            frame = _parse_frame(buf, magic, _accept)
        except MalformedFrame:
            assert buf[:4] != magic[:len(buf)] or 0 in _HEAD.unpack_from(buf)[2:]
            continue
        if frame is not None:
            seq, functions, rows, end = frame
            assert _encode(magic, seq, functions, rows) == buf[:end]


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_channel_reads_frames_back_in_any_split(kind, data):
    magic, has_functions = KINDS[kind]
    sent = data.draw(st.lists(_frames(has_functions), max_size=5))
    stream = b"".join(_encode(magic, *frame) for frame in sent)
    cuts = sorted(data.draw(st.sets(st.integers(1, max(len(stream) - 1, 1)))))
    chunks = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)]) if a < b]
    channel = _Channel(_Chunks(chunks), magic)
    got = []
    with pytest.raises(ChannelClosed):
        while True:
            got.append(channel.read(_accept))
    assert got == sent


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_refusing_check_fires_on_the_header_alone(kind, data):
    magic, has_functions = KINDS[kind]
    seq, functions, rows = data.draw(_frames(has_functions))
    frame = _encode(magic, seq, functions, rows)
    seen = []

    def refuse(*header):
        seen.append(header)
        raise _Refused

    for cut in range(_HEAD.size):
        assert _parse_frame(frame[:cut], magic, refuse) is None
    assert not seen
    with pytest.raises(_Refused):
        _parse_frame(frame[:_HEAD.size], magic, refuse)
    assert seen == [(seq, len(rows), len(rows[0]))]


# -- tcp transport ---------------------------------------------------------------------


def test_tcp_transport_round_trip():
    servers, functions = _servers(k=2, n=2, l=2, p=7, seed=5)
    host = TcpServerHost(servers)
    transport = TcpTransport(host.addresses)
    try:
        answers = transport.query([1, 2, 1], [1, 1, 2], [(1, 0), (0, 1), (0, 1)])
        assert answers == [
            tuple(row[0] for row in functions[0]),
            tuple(row[1] for row in functions[0]),
            tuple(row[1] for row in functions[1]),
        ]
        # The next exchange continues each connection's seq numbering.
        assert transport.query([1], [1], [(0, 1)]) == [tuple(row[1] for row in functions[0])]
    finally:
        transport.close()
        host.close()
    assert [f for f, _ in servers[0].marginal.entries] == [1, 2, 1]
    assert servers[1].marginal.entries == [(1, (0, 1))]


def test_tcp_transport_closed_raises():
    servers, _ = _servers()
    host = TcpServerHost(servers)
    transport = TcpTransport(host.addresses)
    transport.close()
    with pytest.raises(ChannelClosed):
        transport.query([1], [1], [(0,)])
    host.close()


def test_tcp_ingress_rejects_noncanonical():
    servers, _ = _servers(k=1, n=1, l=1, p=5)
    host = TcpServerHost(servers)
    raw = socket.create_connection(host.addresses[0], timeout=5)
    try:
        raw.sendall(_query(0, (1,), ((7,),)))  # 7 >= p
        assert raw.recv(64) == b""  # server drops the connection
    finally:
        raw.close()
        host.close()
    assert len(servers[0].marginal) == 0


def test_tcp_rejects_noncanonical_kernel_input():
    p = DEFAULT_MODULUS
    server = Server(1, generate_functions(1, 16, p, Rng(1)), p)
    host = TcpServerHost([server])
    transport = TcpTransport(host.addresses)
    try:
        with pytest.raises(ChannelClosed):
            transport.query([1], [1], [(2**62,) * 16])
    finally:
        transport.close()
        host.close()
    assert len(server.marginal) == 0


@pytest.mark.parametrize(
    "header",
    [
        b"PSFA" + struct.pack("<III", 0, 1, 1),
        b"PSFQ" + struct.pack("<III", 3, 1, 1),
        b"PSFQ" + struct.pack("<III", 0, 0, 1),
        b"PSFQ" + struct.pack("<III", 0, _rows_per_frame(1) + 1, 1),
        b"PSFQ" + struct.pack("<III", 0, 2**32 - 1, 1),
        b"PSFQ" + struct.pack("<III", 0, 1, 2),
        b"PSFQ" + struct.pack("<III", 0, 1, 2**20),
    ],
    ids=["not-a-query", "out-of-order-seq", "no-rows", "over-a-full-frame", "huge-count",
         "wrong-dimension", "huge-dimension"],
)
def test_tcp_host_refuses_a_header_before_its_body(header):
    # Only the header is sent: the host must close on it alone, without
    # waiting for (or buffering) a body.
    servers, _ = _servers(k=1, n=1, l=1, p=5)
    host = TcpServerHost(servers)
    raw = socket.create_connection(host.addresses[0], timeout=5)
    try:
        raw.sendall(header)
        assert raw.recv(64) == b""
    finally:
        raw.close()
        host.close()
    assert len(servers[0].marginal) == 0


def test_tcp_host_refuses_an_unknown_function_in_the_body():
    # Function indices travel in the body: the server refuses the frame
    # whole, so the good row ahead of the bad one is not recorded either.
    servers, _ = _servers(k=1, n=1, l=1, p=5)
    host = TcpServerHost(servers)
    raw = socket.create_connection(host.addresses[0], timeout=5)
    try:
        raw.sendall(_query(0, (1, 9), ((1,), (2,))))
        assert raw.recv(64) == b""
    finally:
        raw.close()
        host.close()
    assert len(servers[0].marginal) == 0


def test_tcp_refuses_rows_of_unequal_length_before_sending():
    # A frame has one L, and rows of lengths 2, 1 and 3 hold the 3 x 2
    # elements of a frame of L = 2: the client refuses them, as the sim
    # servers do, before it sends a byte, so the connection stays in step.
    servers, functions = _servers(k=2, n=1, l=2, p=7, seed=5)
    exchange = [1, 1, 1], [1, 2, 1], [(1, 0), (1,), (0, 1, 1)]
    with pytest.raises(DimensionMismatch):
        SimTransport(servers).query(*exchange)
    host = TcpServerHost(servers)
    transport = TcpTransport(host.addresses)
    try:
        with pytest.raises(DimensionMismatch):
            transport.query(*exchange)
        assert transport.query([1], [1], [(0, 1)]) == [tuple(row[1] for row in functions[0])]
    finally:
        transport.close()
        host.close()
    assert servers[0].marginal.entries == [(1, (0, 1))]


def test_tcp_host_close_stops_threads_with_a_client_connected():
    # The client is still connected when the host closes: close must shut
    # its connections down instead of waiting out each thread's join.
    servers, _ = _servers(k=2, n=2, l=2, p=7)
    host = TcpServerHost(servers)
    transport = TcpTransport(host.addresses)
    try:
        transport.query([1, 2], [1, 2], [(1, 0), (0, 1)])
        start = time.monotonic()
        host.close()
        elapsed = time.monotonic() - start
        assert not any(thread.is_alive() for thread in host._threads)
        assert elapsed < 0.5
        with pytest.raises(ChannelClosed):
            transport.query([1], [1], [(1, 0)])
    finally:
        transport.close()


def test_tcp_send_failure_names_its_server():
    servers, _ = _servers(k=2, n=3, l=1, p=5)
    host = TcpServerHost(servers)
    transport = TcpTransport(host.addresses)
    try:
        transport._channels[1].sock.close()
        with pytest.raises(ChannelClosed, match="server 2 connection failed"):
            transport.query([1, 2, 3], [1, 1, 2], [(1,), (2,), (3,)])
    finally:
        transport.close()
        host.close()


def test_tcp_client_times_out_on_a_silent_host(monkeypatch):
    # The host accepts and never answers: the client's blocking receive
    # gives up at the socket deadline and names the server.
    monkeypatch.setattr(runtime, "_SOCKET_TIMEOUT_S", 0.2)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        transport = TcpTransport([listener.getsockname()])
        conn, _ = listener.accept()
        try:
            start = time.monotonic()
            with pytest.raises(ChannelClosed, match="server 1 connection failed"):
                transport.query([1], [1], [(1, 2)])
            assert time.monotonic() - start < 1.0
        finally:
            transport.close()
            conn.close()


def test_tcp_host_rejects_garbage_frame():
    servers, _ = _servers(k=1, n=1, l=1, p=5)
    host = TcpServerHost(servers)
    raw = socket.create_connection(host.addresses[0], timeout=5)
    try:
        raw.sendall(b"GARBAGEGARBAGEGARBAGE")
        # The host drops the connection: clean EOF or a reset, depending
        # on whether its receive buffer still held bytes.
        try:
            assert raw.recv(64) == b""
        except ConnectionResetError:
            pass
    finally:
        raw.close()
        host.close()


# -- exchanges as columns, on both transports ------------------------------------------


def _assert_refused_in_step(entry, short=None, server=None):
    """Break an exchange (column `short` one row short, or its last row for
    `server`), and check that `entry` refuses it with a plain ValueError
    before it sends or records anything, and then answers the next one."""
    servers, functions = _servers(k=2, n=2, l=2, p=7, seed=5)
    for each in servers:
        each.serve([2], [(1, 1)])
    before = [list(each.marginal.entries) for each in servers]
    columns = [[1, 2, 1], [1, 2, 2], [(1, 0), (0, 1), (1, 1)]]
    follow = [[1], [1], [(0, 1)]]
    host = TcpServerHost(servers) if entry == "tcp" else None
    transport = TcpTransport(host.addresses) if host else SimTransport(servers)
    query = transport.query
    if entry == "serve":
        columns, follow, query = columns[1:], follow[1:], servers[0].serve
    if short is None:
        columns[0][-1] = server
    else:
        columns[short] = columns[short][:-1]
    try:
        with pytest.raises(ValueError) as refused:
            query(*columns)
        assert refused.type is ValueError  # not a typed error of a row's own
        assert [each.marginal.entries for each in servers] == before
        # Nothing went out: the next exchange is answered in step.
        assert query(*follow) == [tuple(row[1] for row in functions[0])]
    finally:
        transport.close()
        if host:
            host.close()
    assert [each.marginal.entries for each in servers] == [before[0] + [(1, (0, 1))], before[1]]


@pytest.mark.parametrize(
    "entry, short",
    [("serve", 0), ("serve", 1), ("sim", 0), ("sim", 1), ("sim", 2),
     ("tcp", 0), ("tcp", 1), ("tcp", 2)],
)
def test_columns_of_unequal_length_are_refused(entry, short):
    # zip and slices would drop the unmatched rows without a word.
    _assert_refused_in_step(entry, short=short)


@pytest.mark.parametrize("entry", ["sim", "tcp"])
@pytest.mark.parametrize("server", [0, -1, 3])
def test_servers_outside_one_to_n_are_refused(entry, server):
    # At N = 2, server 0 or -1 indexes server 2's or server 1's list
    # entry from the end, and server 3 none; over TCP the rows for servers
    # 1 and 2 come first, so a late refusal would leave bytes on the wire.
    _assert_refused_in_step(entry, server=server)


@pytest.mark.parametrize(
    "exchange, error",
    [(([2, 1], [9, 2], [(1, 1), (1, 1)]), ChannelClosed),  # server 2 refuses function 9
     # Server 2's frame cannot be built; which error says so is not this test's concern.
     (([1, 2], [2, 1], [(1, 1), (-1, 1)]), (struct.error, NonCanonicalElement))],
    ids=["refused", "unencodable"],
)
def test_tcp_exchange_failing_part_way_closes_the_transport(exchange, error):
    # Server 1 was sent F_2 (1, 1) = (2, 3) before the exchange failed at
    # server 2.  That answer must never be read as the answer to a later
    # call: the transport closes on the failure.
    identity, diagonal = ((1, 0), (0, 1)), ((2, 0), (0, 3))
    servers = [Server(i, [identity, diagonal], 7) for i in (1, 2)]
    host = TcpServerHost(servers)
    transport = TcpTransport(host.addresses)
    try:
        with pytest.raises(error):
            transport.query(*exchange)
        with pytest.raises(ChannelClosed, match="transport is closed"):
            transport.query([1], [1], [(5, 5)])
    finally:
        transport.close()
        host.close()


@st.composite
def _exchange(draw, n, k, l, p):
    """One exchange no plan makes, as (servers, functions, xs) columns:
    0-8 rows, each for any server and any function, so one server's rows
    can come in interleaved runs."""
    rows = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, k), _vectors(l, p)),
                         max_size=8))
    return [s for s, _, _ in rows], [f for _, f, _ in rows], [x for _, _, x in rows]


# Each example starts a TCP host and connects to it: 3 x 10 examples take
# about 0.4 s on a 2-vCPU machine, within a 5 s budget for this test.
@pytest.mark.parametrize(
    "l, p", [(1, 3), (2, 2**61 - 1), (KERNEL_MIN_DIM, DEFAULT_MODULUS)],
    ids=["tuple-p3", "tuple-p61", "kernel"],
)
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(data=st.data(), n=st.integers(1, 4), k=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_both_transports_answer_any_exchange_row_by_row(l, p, data, n, k, seed):
    functions = _uniform_functions(k, l, p, seed)
    exchanges = [data.draw(_exchange(n, k, l, p)) for _ in range(data.draw(st.integers(1, 3)))]
    if n >= 2:  # server 1's rows in two runs around server 2's
        exchanges.append(([1, 2, 1], [1, k, 1], [(0,) * l, (1,) * l, (p - 1,) * l]))
    sim_servers = [Server(i + 1, functions, p) for i in range(n)]
    tcp_servers = [Server(i + 1, functions, p) for i in range(n)]
    assert sim_servers[0]._stacked == (l >= KERNEL_MIN_DIM and p < 2**31)
    host = TcpServerHost(tcp_servers)
    sim, tcp = SimTransport(sim_servers), TcpTransport(host.addresses)
    try:
        for servers, fs, xs in exchanges:
            expected = [mat_vec_mul(functions[f - 1], x, p) for f, x in zip(fs, xs)]
            assert sim.query(servers, fs, xs) == expected
            assert tcp.query(servers, fs, xs) == expected
    finally:
        tcp.close()
        host.close()
    for server in range(1, n + 1):
        rows = [(f, x) for servers, fs, xs in exchanges
                for s, f, x in zip(servers, fs, xs) if s == server]
        assert sim_servers[server - 1].marginal.entries == rows
        assert tcp_servers[server - 1].marginal.entries == rows


# -- the float64 kernel behind both transports -------------------------------------------


class _Recording:
    """Passes queries through and keeps every answer the client receives."""

    def __init__(self, inner):
        self.inner = inner
        self.answers = []

    def query(self, servers, functions, xs):
        answers = self.inner.query(servers, functions, xs)
        self.answers.extend(answers)
        return answers


def test_float64_kernel_path_on_both_transports():
    # At L >= KERNEL_MIN_DIM and p < 2^31 the servers, including the TCP
    # host's threads, answer through the float64 kernel.
    k, n, m, l, p = 4, 3, 4, 16, DEFAULT_MODULUS
    assert l >= KERNEL_MIN_DIM
    config = RunConfig(k=k, n=n, m=m, l=l, p=p, seed=33)
    functions = generate_functions(k, l, p, Rng(33).child("functions"))
    w = generate_inputs(m, l, p, Rng(33).child("inputs"))
    sigma = Permutation((3, 1, 4, 2))
    sim = _Recording(SimTransport([Server(i + 1, functions, p) for i in range(n)]))
    sim_outputs, sim_report = run_protocol(config, sigma, w, sim)
    host = TcpServerHost([Server(i + 1, functions, p) for i in range(n)])
    tcp = _Recording(TcpTransport(host.addresses))
    try:
        tcp_outputs, tcp_report = run_protocol(config, sigma, w, tcp)
    finally:
        tcp.inner.close()
        host.close()
    assert tcp_report.to_json() == sim_report.to_json()
    assert sim_outputs == tcp_outputs == [compose_reference(functions, sigma, v, p) for v in w]
    for values in (*sim.answers, *tcp.answers, *sim_outputs):
        assert all(type(x) is int for x in values)
