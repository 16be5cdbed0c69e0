"""Server state machines, transports, and the binary wire codec.

Servers are structurally non-colluding: each Server object holds the
public function matrices and its own marginal query list, and nothing
else.  No server references another, and nothing order-dependent is
ever placed on the wire: a query carries only (per-connection sequence
number, function index, input vector).

Two interchangeable transports execute a run:

* SimTransport: in-process, synchronous.  The default for tests and
  audits.  Each run of consecutive rows for one server is one `serve`
  call.
* TcpTransport / TcpServerHost: one persistent localhost TCP connection
  per server.  A transport call carries a group of queries (a block, or
  one level of a request's chains): the client writes each server's
  frames in one pipelined send and reads the answers back in
  per-connection sequence order, so a group costs one exchange per
  connection; the host serves the frames it has buffered in one `serve`
  call.  Byte-for-byte the same RunReport as the simulated path for the
  same (config, order, seed).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from collections import deque
from typing import NamedTuple, Optional

from .field import (
    DimensionMismatch,
    FieldMatrix,
    FieldVector,
    mat_vec_mul,
    prepare_matrix,
    sample_invertible_matrix,
    sample_uniform_vector,
)
from .protocol import MarginalQueryList
from .rand import Rng

__all__ = [
    "UnknownFunction",
    "NonCanonicalElement",
    "ChannelClosed",
    "MalformedFrame",
    "Server",
    "marginal_fingerprint",
    "marginal_to_json",
    "generate_functions",
    "generate_inputs",
    "SimTransport",
    "WireMessage",
    "encode_message",
    "decode_message",
    "TcpServerHost",
    "TcpTransport",
]


class UnknownFunction(ValueError):
    """Query asked for a function index outside [1..K]."""


class NonCanonicalElement(ValueError):
    """Query input holds an element outside [0, p)."""


class ChannelClosed(ConnectionError):
    """Transport used after close, or the peer went away."""


class MalformedFrame(ValueError):
    """Wire bytes do not parse as a frame."""


class Server:
    """One honest-but-curious server: computes F_k w and records its view."""

    __slots__ = ("id", "functions", "p", "l", "marginal", "_prepared")

    def __init__(self, server_id: int, functions: list[FieldMatrix], p: int):
        self.id = server_id
        self.functions = functions
        self._prepared = [prepare_matrix(a, p) for a in functions]
        self.p = p
        self.l = len(functions[0])
        self.marginal = MarginalQueryList(server=server_id)

    def admit(self, function: int, dim: int) -> None:
        """Refuse a query for an unknown function or of the wrong length."""
        if not 1 <= function <= len(self.functions):
            raise UnknownFunction(f"function {function} not in [1..{len(self.functions)}]")
        if dim != self.l:
            raise DimensionMismatch(f"input has length {dim}, expected {self.l}")

    def serve(self, queries: list[tuple[int, FieldVector]]) -> list[FieldVector]:
        """Answer a batch of (function, w) queries, in order.

        The whole batch is checked before any of it is recorded or
        returned, so a refused batch leaves the marginal list unchanged.
        Each element is checked before its row is multiplied: the int64
        kernel is exact only for elements below p.
        """
        p, prepared = self.p, self._prepared
        answers = []
        for function, w in queries:
            self.admit(function, len(w))
            for x in w:
                if not 0 <= x < p:
                    raise NonCanonicalElement(f"input element {x} outside [0, {p})")
            answers.append(mat_vec_mul(prepared[function - 1], w, p))
        self.marginal.entries.extend(queries)
        return answers


def marginal_fingerprint(server: Server) -> tuple[int, ...]:
    """The server's function-index sequence, in arrival order.

    This is the object whose invariance across composition orders
    certifies the structural half of privacy.
    """
    return tuple(function for function, _ in server.marginal.entries)


def marginal_to_json(server: Server) -> str:
    doc = {
        "server": server.id,
        "entries": [{"function": f, "input": list(w)} for f, w in server.marginal.entries],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- instance generation -------------------------------------------------------


def generate_functions(k: int, l: int, p: int, rng: Rng) -> list[FieldMatrix]:
    """K independent uniform invertible matrices, in index order."""
    return [sample_invertible_matrix(l, p, rng) for _ in range(k)]


def generate_inputs(m: int, l: int, p: int, rng: Rng) -> list[FieldVector]:
    """M independent uniform input vectors, in request order."""
    return [sample_uniform_vector(l, p, rng) for _ in range(m)]


# -- simulated transport -------------------------------------------------------


class SimTransport:
    """Synchronous in-process channel; per-server FIFO holds trivially."""

    def __init__(self, servers: list[Server]):
        self.servers = servers
        self._closed = False

    def query(self, rows) -> list[FieldVector]:
        """Answers to rows [(server, function, w), ...], in row order."""
        if self._closed:
            raise ChannelClosed("transport is closed")
        servers = self.servers
        answers: list[FieldVector] = []
        run: list = []
        for server, function, w in rows:
            if run and server != current:
                answers += servers[current - 1].serve(run)
                run = []
            current = server
            run.append((function, w))
        return answers + servers[current - 1].serve(run) if run else answers

    def close(self) -> None:
        self._closed = True


# -- wire codec ----------------------------------------------------------------

QUERY_MAGIC = b"PSFQ"
ANSWER_MAGIC = b"PSFA"

_QUERY_HEAD = struct.Struct("<IHI")  # seq u32, function u16, dim u32
_ANSWER_HEAD = struct.Struct("<II")  # seq u32, dim u32


class WireMessage(NamedTuple):
    kind: str  # "query" | "answer"
    seq: int
    function: Optional[int]  # queries only
    payload: FieldVector


def encode_message(msg: WireMessage) -> bytes:
    """Frame layout: magic | seq u32 | [function u16] | L u32 | L x u64, all LE."""
    body = struct.pack(f"<{len(msg.payload)}Q", *msg.payload)
    if msg.kind == "query":
        return QUERY_MAGIC + _QUERY_HEAD.pack(msg.seq, msg.function, len(msg.payload)) + body
    if msg.kind == "answer":
        return ANSWER_MAGIC + _ANSWER_HEAD.pack(msg.seq, len(msg.payload)) + body
    raise ValueError(f"unknown message kind {msg.kind!r}")


def _parse_frame(buf, check=None) -> Optional[tuple[WireMessage, int]]:
    """The frame at the start of `buf` and its length, or None while it is
    incomplete.  Raises MalformedFrame on a bad magic.

    `check(magic, head)` sees the unpacked header as soon as it is
    buffered, before any of the body is awaited, and raises to refuse
    the frame.
    """
    have = len(buf)
    if have < 4:
        return None
    if buf.startswith(QUERY_MAGIC):
        magic, head = QUERY_MAGIC, _QUERY_HEAD
    elif buf.startswith(ANSWER_MAGIC):
        magic, head = ANSWER_MAGIC, _ANSWER_HEAD
    else:
        raise MalformedFrame(f"bad magic {bytes(buf[:4])!r}")
    head_end = 4 + head.size
    if have < head_end:
        return None
    fields = head.unpack_from(buf, 4)
    if check is not None:
        check(magic, fields)
    dim = fields[-1]
    end = head_end + 8 * dim
    if have < end:
        return None
    payload = struct.unpack_from(f"<{dim}Q", buf, head_end)
    if magic == QUERY_MAGIC:
        return WireMessage("query", fields[0], fields[1], payload), end
    return WireMessage("answer", fields[0], None, payload), end


def decode_message(data: bytes) -> WireMessage:
    """Inverse of encode_message: exactly one whole frame.  Raises
    MalformedFrame on bad bytes.

    Canonicality of elements (value < p) is deliberately not checked
    here; the server ingress does that, since only it knows p.
    """
    frame = _parse_frame(data)
    if frame is None:
        raise MalformedFrame(f"truncated frame of {len(data)} bytes")
    msg, end = frame
    if len(data) != end:
        raise MalformedFrame(f"frame length {len(data)} != expected {end}")
    return msg


# -- TCP transport --------------------------------------------------------------


_RECV_CHUNK = 1 << 16
# Unanswered query bytes per connection.  Past it the client reads
# answers before it sends more, so a block of large frames cannot fill
# both socket buffers and leave client and host waiting on each other.
_WINDOW_BYTES = 1 << 16


class _FrameReader:
    """Frames off one connection, read in chunks of up to _RECV_CHUNK bytes."""

    __slots__ = ("_conn", "_buf")

    def __init__(self, conn: socket.socket):
        self._conn = conn
        self._buf = bytearray()

    def fill(self) -> None:
        """Block for the next chunk; ChannelClosed when the peer is gone."""
        chunk = self._conn.recv(_RECV_CHUNK)
        if not chunk:
            raise ChannelClosed("connection closed")
        self._buf += chunk

    def pop(self, check=None) -> Optional[WireMessage]:
        """The next buffered frame, or None while it is incomplete; `check`
        as in _parse_frame."""
        frame = _parse_frame(self._buf, check)
        if frame is None:
            return None
        msg, end = frame
        del self._buf[:end]
        return msg


class TcpServerHost:
    """Listens on one ephemeral localhost port per server.

    Each server thread accepts a single client connection and answers
    query frames in arrival order (the per-server FIFO contract).  It
    checks each header (a query, the next sequence number, a known
    function, dimension L) before it buffers the body, and the server
    rejects non-canonical elements; any refused frame closes the
    connection.  It serves every whole frame it has buffered in one
    `serve` call, then sends those answers in one write.  The
    per-connection sequence number restarts at zero for every server, so
    absolute global positions never appear on the wire.
    """

    def __init__(self, servers: list[Server], host: str = "127.0.0.1"):
        self.servers = servers
        self._listeners = []
        self._threads = []
        self.addresses: list[tuple[str, int]] = []
        for server in servers:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, 0))
            listener.listen(1)
            self._listeners.append(listener)
            self.addresses.append(listener.getsockname())
            thread = threading.Thread(
                target=self._serve_loop, args=(server, listener), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve_loop(self, server: Server, listener: socket.socket) -> None:
        try:
            conn, _ = listener.accept()
        except OSError:
            return  # closed before any client connected
        next_seq = 0

        def check(magic: bytes, head: tuple) -> None:
            if magic != QUERY_MAGIC:
                raise MalformedFrame("expected a query frame")
            seq, function, dim = head
            if seq != next_seq:
                raise MalformedFrame(f"query seq {seq}, expected {next_seq}")
            server.admit(function, dim)

        reader = _FrameReader(conn)
        with conn:
            try:
                # A block that arrives in more than one read is answered in
                # more than one write; without TCP_NODELAY, Nagle's algorithm
                # could hold the later write until the client's delayed ACK.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while True:
                    reader.fill()
                    batch = []
                    while (msg := reader.pop(check)) is not None:
                        batch.append((msg.function, msg.payload))
                        next_seq += 1
                    if batch:
                        first = next_seq - len(batch)
                        conn.sendall(b"".join(
                            encode_message(WireMessage("answer", seq, None, answer))
                            for seq, answer in enumerate(server.serve(batch), first)
                        ))
            except (OSError, MalformedFrame, UnknownFunction, DimensionMismatch,
                    NonCanonicalElement):
                # The peer went away, or a frame was refused: a bad header,
                # an unknown function, a wrong dimension, a non-canonical
                # element.  Either way the connection closes.
                return

    def close(self) -> None:
        for listener in self._listeners:
            try:
                listener.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=1.0)


class TcpTransport:
    """Client side: one persistent connection per server, pipelined sends."""

    def __init__(self, addresses: list[tuple[str, int]]):
        self._conns = []
        self._readers = []
        self._seqs = []
        try:
            for host, port in addresses:
                conn = socket.create_connection((host, port), timeout=10.0)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._conns.append(conn)
                self._readers.append(_FrameReader(conn))
                self._seqs.append(0)
        except OSError as exc:
            self.close()
            raise ChannelClosed(f"cannot connect: {exc}") from exc
        self._closed = False

    def query(self, rows) -> list[FieldVector]:
        """Answers to rows [(server, function, w), ...], in row order.

        Each server's frames go out in one write, then the answers are
        read back in each connection's seq order.
        """
        if self._closed:
            raise ChannelClosed("transport is closed")
        by_server: dict[int, list] = {}
        for index, (server, function, w) in enumerate(rows):
            by_server.setdefault(server, []).append((index, function, w))
        answers: list = [None] * len(rows)
        server = 0
        try:
            unanswered = [(server, self._send(server, items, answers))
                          for server, items in by_server.items()]
            for server, queue in unanswered:
                while queue:
                    self._receive(server, queue, answers)
        except OSError as exc:
            raise ChannelClosed(f"server {server} connection failed: {exc}") from exc
        return answers

    def _send(self, server: int, items: list, answers: list) -> deque:
        """Send server's queries; the (row index, seq, frame size, dim) of those unanswered.

        Frames are batched into one write while at most _WINDOW_BYTES of
        queries are unanswered; past that, answers are read first.
        """
        conn = self._conns[server - 1]
        seq = self._seqs[server - 1]
        unanswered: deque = deque()
        in_flight = 0
        batch = []
        for index, function, w in items:
            frame = encode_message(WireMessage("query", seq, function, w))
            if in_flight and in_flight + len(frame) > _WINDOW_BYTES:
                if batch:
                    conn.sendall(b"".join(batch))
                    batch = []
                while unanswered and in_flight + len(frame) > _WINDOW_BYTES:
                    in_flight -= self._receive(server, unanswered, answers)
            batch.append(frame)
            unanswered.append((index, seq, len(frame), len(w)))
            in_flight += len(frame)
            seq += 1
        conn.sendall(b"".join(batch))
        self._seqs[server - 1] = seq
        return unanswered

    def _receive(self, server: int, unanswered: deque, answers: list) -> int:
        """Read server's oldest unanswered answer into `answers`; its query's frame size.

        The answer's header is checked before its body is awaited: it must
        be an answer to that query's seq, of that query's dimension.
        """
        index, seq, size, dim = unanswered.popleft()
        expected = (seq, dim)

        def check(magic: bytes, head: tuple) -> None:
            if magic != ANSWER_MAGIC or head != expected:
                raise MalformedFrame(f"unexpected reply to query {seq} at server {server}")

        reader = self._readers[server - 1]
        while (msg := reader.pop(check)) is None:
            reader.fill()
        answers[index] = msg.payload
        return size

    def close(self) -> None:
        self._closed = True
        for conn in getattr(self, "_conns", []):
            try:
                conn.close()
            except OSError:
                pass
