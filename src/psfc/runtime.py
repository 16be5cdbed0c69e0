"""Server state machines, transports, and the binary wire codec.

Servers are structurally non-colluding: each Server object holds the
public function matrices and its own marginal query list, and nothing
else.  No server references another, and nothing order-dependent is
ever placed on the wire: a query carries only (per-connection sequence
number, function index, input vector).

Two interchangeable transports execute a run:

* SimTransport: in-process, synchronous.  The default for tests and
  audits.
* TcpTransport / TcpServerHost: one persistent localhost TCP connection
  per server, request/response frames.  Byte-for-byte the same
  RunReport as the simulated path for the same (config, order, seed).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
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

    def serve(self, function: int, w: FieldVector) -> FieldVector:
        """Answer one query: append to the marginal list, return F_k w."""
        if not 1 <= function <= len(self.functions):
            raise UnknownFunction(f"function {function} not in [1..{len(self.functions)}]")
        if len(w) != self.l:
            raise DimensionMismatch(f"input has length {len(w)}, expected {self.l}")
        self.marginal.entries.append((function, w))
        return mat_vec_mul(self._prepared[function - 1], w, self.p)


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

    def query(self, server: int, function: int, w: FieldVector) -> FieldVector:
        if self._closed:
            raise ChannelClosed("transport is closed")
        return self.servers[server - 1].serve(function, w)

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


def decode_message(data: bytes) -> WireMessage:
    """Inverse of encode_message.  Raises MalformedFrame on bad bytes.

    Canonicality of elements (value < p) is deliberately not checked
    here; the server ingress does that, since only it knows p.
    """
    magic = data[:4]
    if magic == QUERY_MAGIC:
        head_end = 4 + _QUERY_HEAD.size
        if len(data) < head_end:
            raise MalformedFrame("truncated query header")
        seq, function, dim = _QUERY_HEAD.unpack(data[4:head_end])
    elif magic == ANSWER_MAGIC:
        head_end = 4 + _ANSWER_HEAD.size
        if len(data) < head_end:
            raise MalformedFrame("truncated answer header")
        seq, dim = _ANSWER_HEAD.unpack(data[4:head_end])
        function = None
    else:
        raise MalformedFrame(f"bad magic {magic!r}")
    end = head_end + 8 * dim
    if len(data) != end:
        raise MalformedFrame(f"frame length {len(data)} != expected {end}")
    payload = struct.unpack(f"<{dim}Q", data[head_end:end])
    kind = "query" if magic == QUERY_MAGIC else "answer"
    return WireMessage(kind=kind, seq=seq, function=function, payload=payload)


# -- TCP transport --------------------------------------------------------------


def _recv_exact(conn: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = conn.recv(count)
        if not chunk:
            raise ChannelClosed("connection closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _recv_frame(conn: socket.socket) -> WireMessage:
    magic = _recv_exact(conn, 4)
    if magic == QUERY_MAGIC:
        head = _recv_exact(conn, _QUERY_HEAD.size)
        _, _, dim = _QUERY_HEAD.unpack(head)
    elif magic == ANSWER_MAGIC:
        head = _recv_exact(conn, _ANSWER_HEAD.size)
        _, dim = _ANSWER_HEAD.unpack(head)
    else:
        raise MalformedFrame(f"bad magic {magic!r}")
    body = _recv_exact(conn, 8 * dim)
    return decode_message(magic + head + body)


class TcpServerHost:
    """Listens on one ephemeral localhost port per server.

    Each server thread accepts a single client connection, answers
    query frames in arrival order (the per-server FIFO contract), and
    validates element canonicality at ingress.  The per-connection
    sequence number restarts at zero for every server, so absolute
    global positions never appear on the wire.
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
        expected_seq = 0
        with conn:
            while True:
                try:
                    msg = _recv_frame(conn)
                except (ChannelClosed, OSError):
                    return
                except MalformedFrame:
                    return  # drop the connection on garbage
                if msg.kind != "query" or msg.seq != expected_seq:
                    return
                if any(x >= server.p for x in msg.payload):
                    return  # non-canonical element: reject at ingress
                answer = server.serve(msg.function, msg.payload)
                frame = encode_message(WireMessage("answer", msg.seq, None, answer))
                try:
                    conn.sendall(frame)
                except OSError:
                    return
                expected_seq += 1

    def close(self) -> None:
        for listener in self._listeners:
            try:
                listener.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=1.0)


class TcpTransport:
    """Client side: one persistent connection per server, blocking RPC."""

    def __init__(self, addresses: list[tuple[str, int]]):
        self._conns = []
        self._seqs = []
        try:
            for host, port in addresses:
                conn = socket.create_connection((host, port), timeout=10.0)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._conns.append(conn)
                self._seqs.append(0)
        except OSError as exc:
            self.close()
            raise ChannelClosed(f"cannot connect: {exc}") from exc
        self._closed = False

    def query(self, server: int, function: int, w: FieldVector) -> FieldVector:
        if self._closed:
            raise ChannelClosed("transport is closed")
        conn = self._conns[server - 1]
        seq = self._seqs[server - 1]
        frame = encode_message(WireMessage("query", seq, function, w))
        try:
            conn.sendall(frame)
            msg = _recv_frame(conn)
        except OSError as exc:
            raise ChannelClosed(f"server {server} connection failed: {exc}") from exc
        if msg.kind != "answer" or msg.seq != seq:
            raise MalformedFrame(f"unexpected reply to query {seq} at server {server}")
        self._seqs[server - 1] = seq + 1
        return msg.payload

    def close(self) -> None:
        self._closed = True
        for conn in getattr(self, "_conns", []):
            try:
                conn.close()
            except OSError:
                pass
