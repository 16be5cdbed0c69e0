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

Each direction of a connection carries one frame kind: queries to the
host, answers to the client.  Each end reads its kind through one
`_Channel` (socket, receive buffer, next sequence number) and one pure
parser, `_parse_frame`, which refuses any other magic on its first
bytes and lets the reader check a header before the body is awaited.
Every frame is built by `encode_message`.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from collections import deque

import numpy as np

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
    "encode_message",
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

        All of it is checked before any is recorded or returned, so a refused
        batch leaves the marginal list unchanged.  Tuple matrices take it row
        by row; on prepared arrays it is one stack, checked by one numpy
        reduction, with one `mat_vec_mul` call per function.
        """
        p, l, prepared = self.p, self.l, self._prepared
        k, stacked = len(prepared), isinstance(prepared[0], np.ndarray)
        answers = []
        for function, w in queries:
            if not (0 < function <= k and len(w) == l):
                self.admit(function, len(w))
            if not stacked:
                for x in w:
                    if not 0 <= x < p:
                        raise NonCanonicalElement(f"input element {x} outside [0, {p})")
                answers.append(mat_vec_mul(prepared[function - 1], w, p))
        if stacked and queries:
            functions, ws = zip(*queries)
            try:  # numpy refuses an element below 0 or from 2^64 on
                x = np.array(ws, dtype=np.uint64)
            except OverflowError:
                x = None
            if x is None or x.max() >= p:
                bad = next(e for w in ws for e in w if not 0 <= e < p)
                raise NonCanonicalElement(f"input element {bad} outside [0, {p})")
            answers = [None] * len(queries)
            for function in set(functions):
                index = [i for i, f in enumerate(functions) if f == function]
                rows = x[index] if len(index) < len(queries) else x
                for i, row in zip(index, mat_vec_mul(prepared[function - 1], rows, p).tolist()):
                    answers[i] = tuple(row)
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

# Each direction carries one frame kind, whose header starts with its magic.
_QUERY_HEAD = struct.Struct("<4sIHI")  # magic, seq u32, function u16, dim u32
_ANSWER_HEAD = struct.Struct("<4sII")  # magic, seq u32, dim u32


def encode_message(head: struct.Struct, fields: tuple, payload: FieldVector) -> bytes:
    """Frame layout: `head` packed from `fields` and L, then L x u64, all LE."""
    return head.pack(*fields, len(payload)) + struct.pack(f"<{len(payload)}Q", *payload)


def _parse_frame(buf, head: struct.Struct, magic: bytes, check):
    """The frame at the start of `buf` as (header fields after the magic,
    payload, frame length), or None while it is incomplete.

    Raises MalformedFrame as soon as the buffered bytes differ from
    `magic`.  `check(*fields)` sees the header as soon as it is buffered,
    before any of the body is awaited, and raises to refuse the frame.
    """
    if buf[:4] != magic[:len(buf)]:
        raise MalformedFrame(f"expected {magic!r}, got {bytes(buf[:4])!r}")
    if len(buf) < head.size:
        return None
    fields = head.unpack_from(buf)[1:]
    check(*fields)
    dim = fields[-1]
    end = head.size + 8 * dim
    if len(buf) < end:
        return None
    return fields, struct.unpack_from(f"<{dim}Q", buf, head.size), end


# -- TCP transport --------------------------------------------------------------


_RECV_CHUNK = 1 << 16
# Unanswered query bytes per connection.  Past it the client reads
# answers before it sends more, so a block of large frames cannot fill
# both socket buffers and leave client and host waiting on each other.
_WINDOW_BYTES = 1 << 16


class _Channel:
    """One end of a connection: its socket, the frames it reads (one kind,
    in chunks of up to _RECV_CHUNK bytes) and its next sequence number.

    Both ends set TCP_NODELAY: a block that arrives in more than one read
    is answered in more than one write, and Nagle's algorithm could hold
    the later write until the peer's delayed ACK.
    """

    __slots__ = ("sock", "seq", "_head", "_magic", "_buf")

    def __init__(self, sock: socket.socket, head: struct.Struct, magic: bytes):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.seq = 0
        self._head = head
        self._magic = magic
        self._buf = bytearray()

    def fill(self) -> None:
        """Block for the next chunk; ChannelClosed when the peer is gone."""
        chunk = self.sock.recv(_RECV_CHUNK)
        if not chunk:
            raise ChannelClosed("connection closed")
        self._buf += chunk

    def pop(self, check):
        """The next buffered frame as (header fields, payload), or None while
        it is incomplete; `check` as in _parse_frame."""
        frame = _parse_frame(self._buf, self._head, self._magic, check)
        if frame is None:
            return None
        fields, payload, end = frame
        del self._buf[:end]
        return fields, payload


class TcpServerHost:
    """Listens on one ephemeral localhost port per server.

    Each server thread accepts a single client connection and answers
    query frames in arrival order (the per-server FIFO contract).  It
    checks each header (the query magic, the next sequence number, a
    known function, dimension L) before it buffers the body, and the
    server rejects non-canonical elements; any refused frame closes the
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

        def check(seq: int, function: int, dim: int) -> None:
            if seq != channel.seq:
                raise MalformedFrame(f"query seq {seq}, expected {channel.seq}")
            server.admit(function, dim)

        with conn:
            try:
                channel = _Channel(conn, _QUERY_HEAD, QUERY_MAGIC)
                while True:
                    channel.fill()
                    batch = []
                    while (frame := channel.pop(check)) is not None:
                        (_, function, _), w = frame
                        batch.append((function, w))
                        channel.seq += 1
                    if batch:
                        first = channel.seq - len(batch)
                        conn.sendall(b"".join(
                            encode_message(_ANSWER_HEAD, (ANSWER_MAGIC, seq), answer)
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
        self._channels: list[_Channel] = []
        try:
            for host, port in addresses:
                sock = socket.create_connection((host, port), timeout=10.0)
                self._channels.append(_Channel(sock, _ANSWER_HEAD, ANSWER_MAGIC))
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
        channel = self._channels[server - 1]
        unanswered: deque = deque()
        in_flight = 0
        batch = []
        for index, function, w in items:
            frame = encode_message(_QUERY_HEAD, (QUERY_MAGIC, channel.seq, function), w)
            if in_flight and in_flight + len(frame) > _WINDOW_BYTES:
                if batch:
                    channel.sock.sendall(b"".join(batch))
                    batch = []
                while unanswered and in_flight + len(frame) > _WINDOW_BYTES:
                    in_flight -= self._receive(server, unanswered, answers)
            batch.append(frame)
            unanswered.append((index, channel.seq, len(frame), len(w)))
            in_flight += len(frame)
            channel.seq += 1
        channel.sock.sendall(b"".join(batch))
        return unanswered

    def _receive(self, server: int, unanswered: deque, answers: list) -> int:
        """Read server's oldest unanswered answer into `answers`; its query's frame size.

        The answer's header is checked before its body is awaited: it must
        answer that query's seq, with that query's dimension.
        """
        index, seq, size, dim = unanswered.popleft()

        def check(*head: int) -> None:
            if head != (seq, dim):
                raise MalformedFrame(f"unexpected reply to query {seq} at server {server}")

        channel = self._channels[server - 1]
        while (frame := channel.pop(check)) is None:
            channel.fill()
        answers[index] = frame[1]
        return size

    def close(self) -> None:
        self._closed = True
        for channel in self._channels:
            try:
                channel.sock.close()
            except OSError:
                pass
