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
in order.  Both split it by `_shares`, worked out once per (server column,
N), after refusing unequal columns, a server outside [1..N] or rows of
more than one L: each server's share, in plan order, is one `serve(functions,
ws)` call, all or nothing, by one batch routine (the float64 kernel where
`field.prepare_matrix` made arrays, else the compiled row kernel of its L)
that admits what `field.check_vectors` and an int function in [1..K] admit.

* SimTransport: in-process, synchronous; the default for tests and audits.
* TcpTransport / TcpServerHost: one persistent localhost TCP connection
  per server.  A share goes as one query frame and comes back as one
  answer frame (more only past _WINDOW_BYTES of body).  A row no frame
  can hold, or one holding a bool, raises a server's typed error; an
  exchange that fails part-way closes the transport.  Byte-for-byte the
  same RunReport as the simulated path for the same (config, order, seed).

A frame is a header (magic, the per-connection seq of its first row, its
row count, L), then for queries one function index per row, then the
rows' elements.  Each end reads its one frame kind through a `_Channel`
(socket with a send and receive deadline, receive buffer, next seq) and
one pure parser, `_parse_frame`, which refuses any other magic on its
first bytes and lets the reader check a header before the body is
awaited.  Every frame is built by `encode_message`.
"""

from __future__ import annotations

import socket
import struct
import threading
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .field import (
    DimensionMismatch,
    FieldMatrix,
    FieldVector,
    NonCanonicalElement,
    check_vectors,
    mat_vec_mul,
    prepare_matrix,
    row_kernel,
    sample_invertible_matrix,
    sample_uniform_vector,
)
from .protocol import MarginalQueryList, json_array
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
    "encode_message",
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
    """One honest-but-curious server: computes F_k w and records its view.

    Refuses, when built, functions that are not all L x L matrices of ints
    in [0, p) (DimensionMismatch, NonCanonicalElement)."""

    __slots__ = ("id", "p", "l", "marginal", "_matrices", "_product")

    def __init__(self, server_id: int, functions: list[FieldMatrix], p: int):
        self.id = server_id
        self.p = p
        self.l = len(functions[0])
        if set(map(len, functions)) != {self.l}:
            raise DimensionMismatch(f"matrices of {sorted(set(map(len, functions)))} rows in one server")
        self._matrices = {f: prepare_matrix(a, p) for f, a in enumerate(functions, 1)}
        # prepare_matrix makes float64 arrays where the float64 kernel applies.
        self._product = _serve_stacked if hasattr(self._matrices[1], "dtype") else row_kernel(self.l)
        self.marginal = MarginalQueryList(server=server_id)

    def serve(self, functions, ws) -> list[FieldVector]:
        """Answer F_functions[i] ws[i] for each row i of two columns, in order.

        The server's batch routine checks and answers the whole batch in one
        call, or refuses it; then nothing is recorded, and the first bad row
        raises its typed error: a function that is not an int in [1..K] (a
        bool or float is refused), then what `field.check_vectors` refuses.
        """
        if len(functions) != len(ws):  # zip would drop the extra rows without a word
            raise ValueError(f"{len(functions)} functions for {len(ws)} inputs")
        p, matrices = self.p, self._matrices
        answers = self._product(matrices, functions, ws, p) if ws else []
        if answers is None:
            for function, w in zip(functions, ws):
                if type(function) is not int or function not in matrices:  # 0 and -1 too
                    raise UnknownFunction(f"function {function!r} not in [1..{len(matrices)}]")
                check_vectors((w,), self.l, p)
            raise RuntimeError("batch refused with no bad row")  # an internal bug; record nothing
        self.marginal.functions += functions
        self.marginal.inputs += ws
        return answers


def _serve_stacked(matrices, functions, ws, p):
    """A batch on float64 arrays, admitted as one uint64 stack by one numpy
    reduction (None if refused), with one `mat_vec_mul` call per function."""
    import numpy as np
    # numpy would cast a bool, float or str, and a function True or 1.0 is the key 1
    if {*map(type, functions), *map(type, chain.from_iterable(ws))} != {int}:
        return None
    try:  # numpy refuses an element below 0 or from 2^64 on, and rows of two lengths
        x = np.array(ws, dtype=np.uint64)
    except (OverflowError, ValueError):
        return None
    if x.shape[1:] != (len(matrices[1]),) or not set(functions) <= matrices.keys() or x.max() >= p:
        return None
    answers = [None] * len(ws)
    for function in set(functions):  # not per run: fallback levels interleave functions
        index = [i for i, f in enumerate(functions) if f == function]
        rows = x.take(index, axis=0) if len(index) < len(ws) else x  # take: faster than x[index]
        for i, row in zip(index, mat_vec_mul(matrices[function], rows, p).tolist()):
            answers[i] = tuple(row)
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


# -- exchanges, and the simulated transport ------------------------------------


@lru_cache(maxsize=256)
def _split(servers: tuple, n: int):
    """How `_shares` splits a server column, worked out once per (column, n):
    ((server, pick), ...), `pick` taking the server's rows in row order (one
    slice when consecutive), and the `merge` back to row order of the shares'
    answers laid end to end (None when they are in it)."""
    if servers and not (0 < min(servers) and max(servers) <= n):
        raise ValueError(f"servers {min(servers)}..{max(servers)} not all in [1..{n}]")
    rows: dict[int, list[int]] = {}
    for i, server in enumerate(servers):
        rows.setdefault(server, []).append(i)
    order = [*chain.from_iterable(rows.values())]
    merge = None if order == sorted(order) else itemgetter(*sorted(range(len(order)), key=order.__getitem__))
    return tuple((server, itemgetter(slice(index[0], index[-1] + 1)) if index[-1] - index[0] == len(index) - 1
                  else itemgetter(*index)) for server, index in rows.items()), merge


def _shares(servers, functions, xs, n: int):
    """Each server's share of an exchange, [(server, functions, xs)], and the
    `merge` of `_split`.  Refuses first columns of unequal length, which zip
    would cut without a word, a server outside [1..n], whose index could
    reach another's view, and rows of more than one L, which no frame can carry."""
    if not len(servers) == len(functions) == len(xs):
        raise ValueError(f"columns of {len(servers)}, {len(functions)} and {len(xs)} rows")
    picks, merge = _split(tuple(servers), n)
    if len(lengths := set(map(len, xs))) > 1:
        raise DimensionMismatch(f"rows of lengths {sorted(lengths)} in one exchange")
    return [(server, pick(functions), pick(xs)) for server, pick in picks], merge


def _in_row_order(answers: list, merge) -> list[FieldVector]:
    """The exchange's answers in row order, from its shares' answers in share order."""
    rows = answers[0] if len(answers) == 1 else [*chain.from_iterable(answers)]
    return rows if merge is None else list(merge(rows))


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
        shares, merge = _shares(servers, functions, xs, len(self.servers))
        return _in_row_order([self.servers[server - 1].serve(fs, ws) for server, fs, ws in shares], merge)

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
_SOCKET_TIMEOUT_S = 10.0  # the most a connect, or one send or receive at either end, may wait
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
    frame back until the peer's delayed ACK, and give each send and
    receive the deadline _SOCKET_TIMEOUT_S on a blocking socket.
    """

    __slots__ = ("sock", "seq", "_magic", "_buf")

    def __init__(self, sock: socket.socket, magic: bytes):
        timeval = struct.pack("ll", *divmod(round(_SOCKET_TIMEOUT_S * 1e6), 10**6))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
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
            listener = socket.create_server((host, 0), backlog=1)
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
        try:
            for host, port in addresses:
                sock = socket.create_connection((host, port), timeout=_SOCKET_TIMEOUT_S)
                sock.settimeout(None)  # blocking: the kernel keeps the deadline, with no poll
                self._channels.append(_Channel(sock, ANSWER_MAGIC))
        except OSError as exc:
            self.close()
            raise ChannelClosed(f"cannot connect: {exc}") from exc
        self._closed = False

    def query(self, servers, functions, xs) -> list[FieldVector]:
        """Answers to an exchange given as columns, as SimTransport.query."""
        if self._closed:
            raise ChannelClosed("transport is closed")
        shares, merge = _shares(servers, functions, xs, len(self._channels))
        l = len(xs[0]) if xs else 0
        size = _rows_per_frame(l)
        answers: list[list] = [[] for _ in shares]
        try:
            for server, fs, ws in shares:
                self._send(server, fs[:size], ws[:size], l)
            for (server, fs, ws), rows in zip(shares, answers):
                for at in range(0, len(ws), size):
                    if at:
                        self._send(server, fs[at:at + size], ws[at:at + size], l)
                    rows += self._receive(server, min(size, len(ws) - at), l)
        except BaseException as exc:
            self.close()  # a connection may be out of step: its late answers must reach no call
            if isinstance(exc, OSError):
                raise ChannelClosed(f"server {server} connection failed: {exc}") from exc
            raise
        return _in_row_order(answers, merge)

    def _send(self, server: int, functions, xs, l: int) -> None:
        """Send these rows to `server` as one query frame; a row no frame can
        hold, or with a value that is not an int, raises a server's typed error."""
        channel = self._channels[server - 1]
        try:  # struct packs a bool, or anything with __index__, as an int
            if {*map(type, chain(functions, *xs))} != {int}:
                raise struct.error("a function or element that is not an int")
            frame = encode_message(QUERY_MAGIC, channel.seq, l, functions, xs)
        except struct.error:
            for function in functions:
                if type(function) is not int or not 0 <= function < 1 << 16:
                    raise UnknownFunction(f"function {function!r} is not an int that fits a u16") from None
            check_vectors(xs, l, 1 << 64)
            raise
        channel.sock.sendall(frame)

    def _receive(self, server: int, count: int, l: int) -> list[FieldVector]:
        """The answers of the frame answering `server`'s last query frame, of `count` rows."""
        channel = self._channels[server - 1]
        expected = (channel.seq, count, l)

        def check(*head: int) -> None:
            if head != expected:
                raise MalformedFrame(f"answer header {head} from server {server}, not {expected}")

        rows = channel.read(check)[2]
        channel.seq += count
        return rows

    def close(self) -> None:
        self._closed = True
        for channel in self._channels:
            try:
                channel.sock.close()
            except OSError:
                pass
