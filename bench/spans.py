"""Spans and counters recorded around calls into psfc's public functions.

The tracer replaces module attributes and methods of `psfc` with wrappers
that record, for each call, a name, a start, an end and the span that
caused it (Dapper's model: Sigelman et al., 2010).  Spans stay in memory
in flat arrays and are written once, when the run ends.  A span's self
time is its duration minus the part its children cover; children of one
span never overlap, because one thread runs them in turn or the client is
blocked waiting for them, so that part is the sum of their durations.

Spans are recorded only inside a root (`Tracer.root`), so the benchmark's
own checks and replays leave no trace.  TCP servers answer in their own
threads: a server-side span with no parent on its thread is parented to
the client's open transport query, which is the only one outstanding
because the client blocks on each answer.

The client draws pads one field element at a time, about 10^5 draws per
operation, too many to give each a span.  Each draw is only counted, and
one draw in PAD_SAMPLE is timed; the pad time is extrapolated from those.

A wrapper costs time of its own: a part inside the span it records, and
a part in its caller's self time.  `calibrate` measures both on no-op
calls and `Tracer.arrays` subtracts them, so the corrected times estimate
where an untraced run spends its time.
"""

from __future__ import annotations

import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

# Every wrapped callable: (owner path, attribute, span name).  Names
# missing from the package are skipped, and their metrics read 0.
WRAPPED = (
    ("psfc.client", "build_plan", "scheduler.build_plan"),
    ("psfc.audit", "build_plan", "scheduler.build_plan"),
    ("psfc.client", "run_protocol", "client.run_protocol"),
    ("psfc.audit", "run_protocol", "client.run_protocol"),
    ("psfc.client", "vec_add", "client.vec_add"),
    ("psfc.client", "unmask", "client.unmask"),
    ("psfc.client", "decode_outputs", "client.decode_outputs"),
    ("psfc.client:RunReport", "to_json", "client.to_json"),
    ("psfc.runtime:SimTransport", "query", "runtime.sim_query"),
    ("psfc.runtime:TcpTransport", "query", "runtime.tcp_query"),
    ("psfc.runtime:Server", "serve", "runtime.serve"),
    ("psfc.runtime", "encode_message", "runtime.encode"),
    ("psfc.runtime", "decode_message", "runtime.decode"),
    ("psfc.runtime", "generate_functions", "runtime.instance"),
    ("psfc.runtime", "generate_inputs", "runtime.instance"),
    ("psfc.audit", "generate_functions", "runtime.instance"),
    ("psfc.audit", "generate_inputs", "runtime.instance"),
    ("psfc.runtime", "mat_vec_mul", "field.mat_vec_mul"),
    ("psfc.audit", "mat_vec_mul", "field.mat_vec_mul"),
    ("psfc.audit", "uniformity_test", "audit.uniformity_test"),
    ("psfc.audit", "_batch_eval", "audit.batch_eval"),
    ("psfc.audit", "_sample_invertible_batch", "audit.sample_invertible"),
    ("psfc.audit", "attack_campaign", "audit.attack_campaign"),
    ("psfc.audit", "sigma_attack", "audit.sigma_attack"),
)

PAD_SAMPLE = 32  # one pad draw in this many is timed


@dataclass(frozen=True)
class WrapperCost:
    """Seconds a wrapper adds per call, as `calibrate` measured them."""

    inside: float = 0.0  # inside the recorded span
    outside: float = 0.0  # in the caller's self time
    pad_call: float = 0.0  # a counted pad draw, in the caller's self time
    pad_timer: float = 0.0  # inside a timed pad draw


@dataclass(frozen=True)
class Spans:
    """Per-span columns, times in seconds and corrected for wrapper cost."""

    name: np.ndarray  # name id
    parent: np.ndarray  # parent span index, -1 for a root
    root: np.ndarray  # root span index
    dur: np.ndarray  # inclusive time: own self time plus every descendant's
    raw_dur: np.ndarray  # end - start as recorded
    self_t: np.ndarray  # time no child span and no pad draw covers
    pad_s: np.ndarray  # time drawing pads directly in the span
    pads: np.ndarray  # pad elements drawn directly in the span


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.roots = array("i")
        self.depths = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, int] = {}
        self.pad_streams: list[list] = []  # [owning span, draws, timed ns]
        self.cost = WrapperCost()
        self.active = False
        self._rpc = -1  # the open client transport query, for server threads
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, counter: str, amount: int) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, fn, on_result=None, rpc: bool = False):
        """`fn` with a span named `name` around each call made while active."""
        nid = self._name_id(name)
        names, parents, roots, depths = self.name, self.parent, self.roots, self.depths
        starts, ends = self.start, self.end
        lock, clock = self._lock, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            with lock:
                idx = len(names)
                up = stack[-1] if stack else tracer._rpc
                names.append(nid)
                parents.append(up)
                roots.append(roots[up] if up >= 0 else idx)
                depths.append(depths[up] + 1 if up >= 0 else 0)
                starts.append(0)
                ends.append(0)
            stack.append(idx)
            if rpc:
                tracer._rpc = idx
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if rpc:
                    tracer._rpc = -1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_draws(self, fn):
        """`fn`, counted on every call and timed on one call in PAD_SAMPLE.

        The draws are charged to the span open on this thread now.
        """
        stack = self._stack()
        record = [stack[-1] if stack else -1, 0, 0]
        self.pad_streams.append(record)
        clock = time.perf_counter_ns

        def draw(n):
            record[1] += 1
            if record[1] % PAD_SAMPLE:
                return fn(n)
            start = clock()
            value = fn(n)
            record[2] += clock() - start
            return value

        return draw

    def root(self, name: str, fn):
        """`fn` run as a root span, with recording switched on inside it."""
        inner = self.wrap(name, fn)

        def rooted(*args, **kwargs):
            self.active = True
            try:
                return inner(*args, **kwargs)
            finally:
                self.active = False

        return rooted

    # -- installing the wrappers ------------------------------------------------

    def install(self) -> None:
        import importlib

        for owner_path, attr, name in WRAPPED:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            on_result, rpc = None, False
            if name == "runtime.encode":
                on_result = lambda frame: self.count("wire_bytes", len(frame))
            elif name == "client.to_json":
                on_result = lambda text: self.count("report_bytes", len(text))
            elif name == "scheduler.build_plan":
                on_result = lambda plan: self.count("plan_queries", len(plan))
            elif name == "runtime.tcp_query":
                rpc = True
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, on_result, rpc))
        self._install_pad_draws()

    def _install_pad_draws(self) -> None:
        # The client draws pads and placeholders one element at a time from
        # Rng(seed).child("client").randrange; count that bound method.
        from psfc import client

        real_rng = getattr(client, "Rng", None)
        if real_rng is None:
            return
        tracer = self

        class PadCountingRng(real_rng):
            __slots__ = ()

            def child(self, label):
                stream = real_rng.child(self, label)
                if tracer.active:
                    stream.randrange = tracer.count_draws(stream.randrange)
                return stream

        self._patches.append((client, "Rng", real_rng))
        client.Rng = PadCountingRng

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries --------------------------------------------------------------

    def arrays(self) -> Spans:
        """The spans as columns, with the wrappers' own cost taken out."""
        cost = self.cost
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        depth = np.frombuffer(self.depths, dtype=np.int32)
        n = len(name)
        raw = (
            np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        ).astype(np.float64) / 1e9
        pads = np.zeros(n)
        pad_s = np.zeros(n)
        for span, draws, timed_ns in self.pad_streams:
            timed = draws // PAD_SAMPLE
            if span >= 0 and timed:
                pads[span] += draws
                pad_s[span] += draws * (timed_ns / 1e9 / timed - cost.pad_timer)
        has_parent = parent >= 0
        up = parent[has_parent]
        children = np.bincount(up, minlength=n)
        covered = np.bincount(up, weights=raw[has_parent], minlength=n)
        self_t = (
            raw - covered - cost.inside - children * cost.outside
            - pads * cost.pad_call - pad_s
        )
        # Inclusive times rebuilt bottom-up, one depth level at a time.
        dur = self_t + pad_s
        for level in range(int(depth.max()) if n else 0, 0, -1):
            at = depth == level
            np.add.at(dur, parent[at], dur[at])
        root = np.frombuffer(self.roots, dtype=np.int32).copy()
        return Spans(name, parent, root, dur, raw, self_t, pad_s, pads)

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            pad_streams=np.array(self.pad_streams, dtype=np.int64).reshape(-1, 3),
        )


def calibrate(calls: int = 20_000, repeats: int = 5) -> WrapperCost:
    """Time no-op calls plain, through a span wrapper and through a pad counter.

    Each figure is the fastest of `repeats` loops, so a slow phase of a
    shared machine does not inflate it.
    """

    def noop(_n):
        return None

    def per_call(fn):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn(1)
        return (time.perf_counter_ns() - start) / calls / 1e9

    plain, wrapped, counted, inside, timer = [], [], [], [], []
    for _ in range(repeats):
        probe = Tracer()
        probe.active = True
        plain.append(per_call(noop))
        wrapped.append(per_call(probe.wrap("calibrate", noop)))
        counted.append(per_call(probe.count_draws(noop)))
        raw = np.frombuffer(probe.end, dtype=np.int64) - np.frombuffer(probe.start, dtype=np.int64)
        inside.append(float(raw.mean()) / 1e9)
        _, draws, timed_ns = probe.pad_streams[0]
        timer.append(timed_ns / 1e9 / (draws // PAD_SAMPLE))
    base = min(plain)
    span_inside = max(min(inside) - base, 0.0)
    return WrapperCost(
        inside=span_inside,
        outside=max(min(wrapped) - base - span_inside, 0.0),
        pad_call=max(min(counted) - base, 0.0),
        pad_timer=max(min(timer) - base, 0.0),
    )
