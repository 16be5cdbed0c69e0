"""Server state machines, transports, and the binary wire codec.

Servers are structurally non-colluding: each Server object holds the
public function matrices and its own marginal query list, and nothing
else.  No server references another, and nothing order-dependent is
ever placed on the wire: a query frame carries only its first row's
per-connection sequence number, its row count, L, and each row's
(function index, input vector).

Two interchangeable transports execute a run.  A transport call carries
one exchange of the plan (a block, or one level of a request's chains)
as three columns, `query(servers, functions, xs)`, and answers its rows
in order; a server is asked for two, `serve(functions, ws)`.  Columns of
unequal length are refused before anything is sent or recorded.

* SimTransport: in-process, synchronous.  The default for tests and
  audits.  Each run of consecutive rows for one server is one `serve`
  call, on slices of the columns.
* TcpTransport / TcpServerHost: one persistent localhost TCP connection
  per server.  Each server's share of an exchange goes as one query
  frame and comes back as one answer frame (more only past _WINDOW_BYTES
  of body); the host serves each frame's two columns in one `serve`
  call.  Byte-for-byte the same RunReport as the simulated path for the
  same (config, order, seed).

A frame is a header (magic, the per-connection seq of its first row, its
row count, L), then for queries one function index per row, then the
rows' elements.  Each direction carries one frame kind.  Each end reads
its kind through one `_Channel` (socket, receive buffer, next sequence
number) and one pure parser, `_parse_frame`, which refuses any other
magic on its first bytes and lets the reader check a header before the
body is awaited.  Every frame is built by `encode_message`.
"""

from __future__ import annotations

import socket
import struct
import threading
from itertools import chain

from .field import (
    DimensionMismatch,
    FieldMatrix,
    FieldVector,
    mat_vec_mul,
    prepare_matrix,
    sample_invertible_matrix,
    sample_uniform_vector,
)
from .protocol import MarginalQueryList, json_array
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

    __slots__ = ("id", "p", "l", "marginal", "_prepared", "_stacked")

    def __init__(self, server_id: int, functions: list[FieldMatrix], p: int):
        self.id = server_id
        self._prepared = [prepare_matrix(a, p) for a in functions]
        self._stacked = self._prepared[0] is not functions[0]  # prepare_matrix made arrays
        self.p = p
        self.l = len(functions[0])
        self.marginal = MarginalQueryList(server=server_id)

    def admit(self, function: int, dim: int) -> None:
        """Refuse a query for an unknown function or of the wrong length."""
        if not 1 <= function <= len(self._prepared):
            raise UnknownFunction(f"function {function} not in [1..{len(self._prepared)}]")
        if dim != self.l:
            raise DimensionMismatch(f"input has length {dim}, expected {self.l}")

    def serve(self, functions, ws) -> list[FieldVector]:
        """Answer F_functions[i] ws[i] for each row i of two columns, in order.

        All of it is checked before any is recorded or returned, so a refused
        batch leaves the marginal list unchanged.  Tuple matrices take it row
        by row; on prepared arrays it is one stack, checked by one numpy
        reduction, with one `mat_vec_mul` call per function.
        """
        if len(functions) != len(ws):  # zip would drop the extra rows without a word
            raise ValueError(f"{len(functions)} functions for {len(ws)} inputs")
        p, l, prepared, stacked = self.p, self.l, self._prepared, self._stacked
        k = len(prepared)
        answers = []
        for function, w in zip(functions, ws):
            if not (0 < function <= k and len(w) == l):
                self.admit(function, len(w))
            if not stacked:
                for x in w:
                    if not 0 <= x < p:
                        raise NonCanonicalElement(f"input element {x} outside [0, {p})")
                answers.append(mat_vec_mul(prepared[function - 1], w, p))
        if stacked and ws:
            import numpy as np
            try:  # numpy refuses an element below 0 or from 2^64 on
                x = np.array(ws, dtype=np.uint64)
            except OverflowError:
                x = None
            if x is None or x.max() >= p:
                bad = next(e for w in ws for e in w if not 0 <= e < p)
                raise NonCanonicalElement(f"input element {bad} outside [0, {p})")
            answers = [None] * len(ws)
            for function in set(functions):
                index = [i for i, f in enumerate(functions) if f == function]
                rows = x[index] if len(index) < len(ws) else x
                for i, row in zip(index, mat_vec_mul(prepared[function - 1], rows, p).tolist()):
                    answers[i] = tuple(row)
        self.marginal.functions += functions
        self.marginal.inputs += ws
        return answers


def marginal_fingerprint(server: Server) -> tuple[int, ...]:
    """The server's function-index sequence, in arrival order.

    This is the object whose invariance across composition orders
    certifies the structural half of privacy.
    """
    return tuple(server.marginal.functions)


def marginal_to_json(server: Server) -> str:
    """{"entries": [{"function", "input"}, ...], "server"} from the view's
    columns, as json.dumps(doc, sort_keys=True, separators=(",", ":"))."""
    view = server.marginal
    entries = ",".join([f'{{"function":{f},"input":{json_array(w)}}}'
                        for f, w in zip(view.functions, view.inputs)])
    return f'{{"entries":[{entries}],"server":{server.id}}}'


# -- instance generation -------------------------------------------------------


def generate_functions(k: int, l: int, p: int, rng: Rng) -> list[FieldMatrix]:
    """K independent uniform invertible matrices, in index order."""
    return [sample_invertible_matrix(l, p, rng) for _ in range(k)]


def generate_inputs(m: int, l: int, p: int, rng: Rng) -> list[FieldVector]:
    """M independent uniform input vectors, in request order, cut from one draw."""
    elements = sample_uniform_vector(m * l, p, rng)
    return [elements[i * l : (i + 1) * l] for i in range(m)]


# -- simulated transport -------------------------------------------------------


class SimTransport:
    """Synchronous in-process channel; per-server FIFO holds trivially."""

    def __init__(self, servers: list[Server]):
        self.servers = servers
        self._closed = False

    def query(self, servers, functions, xs) -> list[FieldVector]:
        """Answers to an exchange given as columns, row i asking server
        servers[i] for F_functions[i] xs[i], in row order."""
        if self._closed:
            raise ChannelClosed("transport is closed")
        if not len(servers) == len(functions) == len(xs):  # slices would drop rows silently
            raise ValueError(f"columns of {len(servers)}, {len(functions)} and {len(xs)} rows")
        answers: list[FieldVector] = []
        start, end = 0, len(servers)
        for stop in range(1, end + 1):
            if stop == end or servers[stop] != servers[start]:  # the end of a run
                answers += self.servers[servers[start] - 1].serve(functions[start:stop], xs[start:stop])
                start = stop
        return answers

    def close(self) -> None:
        self._closed = True


# -- wire codec ----------------------------------------------------------------

QUERY_MAGIC = b"PSFQ"
ANSWER_MAGIC = b"PSFA"

# Both frame kinds share one header: magic, seq u32 (the per-connection
# index of the frame's first row), count u32 (its rows), L u32.
_HEAD = struct.Struct("<4sIII")


def encode_message(magic: bytes, seq: int, l: int, functions, rows) -> bytes:
    """One frame of `rows`, all little-endian: the header, then a function
    u16 per row (queries; an answer passes none), then count*L x element u64."""
    count = len(rows)
    return struct.pack(f"<4sIII{len(functions)}H{count * l}Q", magic, seq, count, l,
                       *functions, *chain.from_iterable(rows))


def _parse_frame(buf, magic: bytes, check):
    """The frame at the start of `buf` as (seq, functions, rows, frame
    length), or None while it is incomplete; an answer has no functions.

    Raises MalformedFrame as soon as the buffered bytes differ from
    `magic`, or on a header of no rows or of L = 0.  `check(seq, count, l)`
    sees the header as soon as it is buffered, before any of the body is
    awaited, and raises to refuse the frame.
    """
    if buf[:4] != magic[:len(buf)]:
        raise MalformedFrame(f"expected {magic!r}, got {bytes(buf[:4])!r}")
    if len(buf) < _HEAD.size:
        return None
    _, seq, count, l = _HEAD.unpack_from(buf)
    if not (count and l):
        raise MalformedFrame(f"frame of {count} rows of length {l}")
    check(seq, count, l)
    n = count if magic == QUERY_MAGIC else 0
    end = _HEAD.size + 2 * n + 8 * count * l
    if len(buf) < end:
        return None
    values = struct.unpack_from(f"<{n}H{count * l}Q", buf, _HEAD.size)
    return seq, values[:n], list(zip(*[iter(values[n:])] * l)), end


# -- TCP transport --------------------------------------------------------------


_RECV_CHUNK = 1 << 16
_SOCKET_TIMEOUT_S = 10.0  # the most a client's connect, or one send or receive, may wait
# Body bytes of a full query frame.  A server's rows in one exchange go as
# frames of as many rows as fit, and at least one; the client keeps one
# frame unanswered per connection, so a block of large rows cannot fill
# both socket buffers and leave client and host waiting on each other.
_WINDOW_BYTES = 1 << 16


def _rows_per_frame(l: int) -> int:
    """The rows of a full frame: as many as fit in _WINDOW_BYTES of query
    body (2 + 8L bytes a row), and at least one."""
    return max(1, _WINDOW_BYTES // (2 + 8 * l))


class _Channel:
    """One end of a connection: its socket, the frames it reads (one kind,
    in chunks of up to _RECV_CHUNK bytes) and the seq of its next row.

    Both ends set TCP_NODELAY, so that Nagle's algorithm never holds a
    frame back until the peer's delayed ACK.
    """

    __slots__ = ("sock", "seq", "_magic", "_buf")

    def __init__(self, sock: socket.socket, magic: bytes):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.seq = 0
        self._magic = magic
        self._buf = bytearray()

    def read(self, check):
        """The next frame as (seq, functions, rows), once it is whole;
        `check` as in _parse_frame.  ChannelClosed when the peer is gone."""
        buf = self._buf
        while not (buf and (frame := _parse_frame(buf, self._magic, check))):
            chunk = self.sock.recv(_RECV_CHUNK)
            if not chunk:
                raise ChannelClosed("connection closed")
            buf += chunk
        del buf[:frame[3]]
        return frame[:3]


class TcpServerHost:
    """Listens on one ephemeral localhost port per server.

    Each server thread accepts a single client connection and answers
    query frames in arrival order (the per-server FIFO contract), each
    frame in one `serve` call and one answer frame.  It refuses a header
    before it waits for the body: not the query magic, a seq other than
    its next row's, no rows, more rows than a full frame holds, or an L
    other than its own.  The server then refuses unknown functions and
    non-canonical elements before it records any row of the frame.  Any
    refused frame closes the connection.  The per-connection sequence
    number restarts at zero for every server, so absolute global positions
    never appear on the wire.  `close` also shuts down a connection its
    client still holds open.
    """

    def __init__(self, servers: list[Server], host: str = "127.0.0.1"):
        self.servers = servers
        self._listeners = []
        self._conns = []
        self._threads = []
        self._closed = False
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
        self._conns.append(conn)  # before `_closed` is read: `close` shuts it
        l, most = server.l, _rows_per_frame(server.l)

        def check(seq: int, count: int, dim: int) -> None:
            if seq != channel.seq or count > most or dim != l:
                raise MalformedFrame(f"query header {(seq, count, dim)} refused")

        with conn:
            try:
                channel = _Channel(conn, QUERY_MAGIC)
                while not self._closed:
                    seq, functions, ws = channel.read(check)
                    answers = server.serve(functions, ws)
                    conn.sendall(encode_message(ANSWER_MAGIC, seq, l, (), answers))
                    channel.seq += len(ws)
            except (OSError, MalformedFrame, UnknownFunction, NonCanonicalElement):
                # The peer went away, the host closed, or a frame was
                # refused: a bad header, an unknown function, a
                # non-canonical element.  Either way the connection closes.
                return

    def close(self) -> None:
        """Stop every server thread, also one whose client is connected."""
        self._closed = True
        for sock in self._listeners + self._conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept or recv
            except OSError:
                pass  # the peer has already gone
        for listener in self._listeners:
            listener.close()
        for thread in self._threads:
            thread.join(timeout=1.0)


class TcpTransport:
    """Client side: one persistent connection per server.

    A transport call sends each server's rows as frames of up to
    `_rows_per_frame(L)` rows, so one query frame and one answer frame per
    server unless its share passes _WINDOW_BYTES of body.  Every server's
    first frame goes out before any answer is read; after that a
    connection has one frame unanswered at a time.  An answer header must
    repeat its query frame's (seq, count, L) before its body is awaited,
    so the client buffers at most 8L bytes per row it asked for.
    """

    def __init__(self, addresses: list[tuple[str, int]]):
        self._channels: list[_Channel] = []
        timeval = struct.pack("ll", *divmod(round(_SOCKET_TIMEOUT_S * 1e6), 10**6))
        try:
            for host, port in addresses:
                sock = socket.create_connection((host, port), timeout=_SOCKET_TIMEOUT_S)
                self._channels.append(_Channel(sock, ANSWER_MAGIC))
                sock.settimeout(None)  # blocking: the kernel keeps the deadline, with no poll
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
        except OSError as exc:
            self.close()
            raise ChannelClosed(f"cannot connect: {exc}") from exc
        self._closed = False

    def query(self, servers, functions, xs) -> list[FieldVector]:
        """Answers to an exchange given as columns, as SimTransport.query;
        every x of one call has the same length L."""
        if self._closed:
            raise ChannelClosed("transport is closed")
        if not len(servers) == len(functions) == len(xs):  # slices would drop rows silently
            raise ValueError(f"columns of {len(servers)}, {len(functions)} and {len(xs)} rows")
        l = len(xs[0]) if xs else 0
        shares: dict[int, list] = {}
        for index, (server, x) in enumerate(zip(servers, xs)):
            if len(x) != l:  # a frame has one L: refuse before anything is sent
                raise DimensionMismatch(f"input has length {len(x)}, expected {l}")
            shares.setdefault(server, []).append(index)
        answers: list = [None] * len(xs)
        size = _rows_per_frame(l)
        frames = []
        server = 0
        try:
            for server, indices in shares.items():
                chunks = [indices[i:i + size] for i in range(0, len(indices), size)]
                frames.append((server, chunks))
                self._send(server, functions, xs, chunks[0], l)
            for server, chunks in frames:
                for at, chunk in enumerate(chunks):
                    if at:
                        self._send(server, functions, xs, chunk, l)
                    self._receive(server, chunk, l, answers)
        except OSError as exc:
            raise ChannelClosed(f"server {server} connection failed: {exc}") from exc
        return answers

    def _send(self, server: int, functions, xs, chunk: list, l: int) -> None:
        """Send the rows at indices `chunk` to `server` as one query frame."""
        channel = self._channels[server - 1]
        functions, xs = [functions[i] for i in chunk], [xs[i] for i in chunk]
        channel.sock.sendall(encode_message(QUERY_MAGIC, channel.seq, l, functions, xs))

    def _receive(self, server: int, chunk: list, l: int, answers: list) -> None:
        """Read the answer frame to `chunk`'s query frame into `answers`."""
        channel = self._channels[server - 1]
        expected = (channel.seq, len(chunk), l)

        def check(*head: int) -> None:
            if head != expected:
                raise MalformedFrame(f"answer header {head} from server {server}, not {expected}")

        for index, answer in zip(chunk, channel.read(check)[2]):
            answers[index] = answer
        channel.seq += len(chunk)

    def close(self) -> None:
        self._closed = True
        for channel in self._channels:
            try:
                channel.sock.close()
            except OSError:
                pass
