"""Span tracing for the benchmark's traced runs (``--trace 1``).

The tracer wraps public callables of the program with span recorders from
the benchmark's own files; nothing under ``src/`` is changed.  Each span
records its name, wall start and end, the span that caused it (from a
thread-local stack) and its thread.  Self time is measured on the thread's
CPU clock, so a call that blocks on a lock or a full buffer is charged only
for the work it did, and a layer's self time is its CPU time minus the CPU
time of its child spans.  Aggregates cover every span; the raw span log
keeps the first ``SPAN_LOG_CAP`` spans and is written out at the end.

A patch point that the program no longer reaches must fail loudly rather
than show up as a low layer time, so :meth:`Tracer.patch_function` replaces
a function in every ``repro`` module that imported it by name and raises
:class:`TraceCoverageError` if one of the modules known to call it holds no
reference, and :func:`check_coverage` reconciles span counts with counts
the program keeps itself.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Raw spans kept in memory for the span log; aggregates are never capped.
SPAN_LOG_CAP = 20_000

#: Spans whose wall durations are kept for percentiles (rare, slow calls).
WALL_NAMES = frozenset({
    "core.splice_add", "core.splice_remove", "core.boundary_wait",
    "core.add_stream", "streams.dos_pause", "cluster.start",
    "cluster.open_streams", "cluster.drain", "cluster.rpc",
    "cluster.stream_result",
})


class TraceCoverageError(RuntimeError):
    """A patch point is missing or span counts do not reconcile."""


class _ThreadState:
    __slots__ = ("stack", "calls", "self_ns", "items", "zero", "walls",
                 "log", "tid")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self.zero: Dict[str, int] = defaultdict(int)
        self.walls: Dict[str, List[int]] = defaultdict(list)
        self.log: List[tuple] = []
        self.tid = threading.get_ident()


class Tracer:
    """Wraps callables with span recorders and aggregates their spans."""

    def __init__(self) -> None:
        """Create an empty tracer with no patches installed."""
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._logged = 0
        self._patches: List[tuple] = []
        #: Counter objects of the program's FEC coders, by span name and id.
        #: The small stats objects are kept, not the coders, so a coder
        #: freed mid-run still counts.
        self.coder_stats: Dict[str, Dict[int, Any]] = defaultdict(dict)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def wrap(self, name: str, fn: Callable,
             measure: Optional[Callable[[tuple, Any], int]] = None,
             when: Optional[Callable[[tuple], bool]] = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``measure(args, result)`` returns how many items the call handled
        (packets, chunks or bytes); calls that handled zero items are also
        counted on their own, for useful-versus-attempted ratios.  When
        ``when(args)`` is false the call runs without a span.
        """
        tracer = self
        ids = self._ids
        cpu = time.thread_time_ns
        wall = time.perf_counter_ns
        keep_wall = name in WALL_NAMES

        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            state = getattr(tracer._local, "state", None) or tracer._state()
            stack = state.stack
            parent = stack[-1][0] if stack else 0
            frame = [next(ids), 0]
            stack.append(frame)
            w0 = wall()
            c0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = cpu()
                w1 = wall()
                stack.pop()
                spent = c1 - c0
                if stack:
                    stack[-1][1] += spent
                own = spent - frame[1]
                state.calls[name] += 1
                state.self_ns[name] += own
                if keep_wall:
                    state.walls[name].append(w1 - w0)
                if tracer._logged < SPAN_LOG_CAP:
                    tracer._logged += 1
                    state.log.append((name, w0, w1, frame[0], parent,
                                      state.tid, own))
            if measure is not None:
                count = measure(args, result)
                state.items[name] += count
                if not count:
                    state.zero[name] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_method(self, owner: type, attr: str, name: str,
                     measure: Optional[Callable[[tuple, Any], int]] = None,
                     when: Optional[Callable[[tuple], bool]] = None) -> None:
        """Replace ``owner.attr`` (a method defined on ``owner``) with a span."""
        original = owner.__dict__.get(attr)
        if original is None:
            raise TraceCoverageError(
                f"{owner.__module__}.{owner.__qualname__} defines no {attr!r}: "
                f"the patch point for {name!r} has moved")
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self.wrap(name, original.__func__,
                                                 measure, when))
        else:
            wrapped = self.wrap(name, original, measure, when)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def patch_function(self, module_name: str, attr: str, name: str,
                       required: tuple = (),
                       measure: Optional[Callable[[tuple, Any], int]] = None
                       ) -> None:
        """Replace a function in its module and every module importing it.

        ``required`` names modules that call the function through a name
        they imported; each must hold the original, or the patch would miss
        their calls and the layer time would read silently low.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(name, original, measure)
        patched = set()
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._patches.append((module, key, original))
                    patched.add(mod_name)
        missing = [mod for mod in (module_name, *required) if mod not in patched]
        if missing:
            raise TraceCoverageError(
                f"{module_name}.{attr} is not referenced by {missing}: the "
                f"patch point for {name!r} has moved")

    def remove_patches(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: calls, self CPU ns, items, zero-item calls, walls."""
        merged: Dict[str, Dict[str, Any]] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, calls in list(state.calls.items()):
                entry = merged.setdefault(key, {"calls": 0, "self_ns": 0,
                                                "items": 0, "zero": 0,
                                                "walls": []})
                entry["calls"] += calls
                entry["self_ns"] += state.self_ns.get(key, 0)
                entry["items"] += state.items.get(key, 0)
                entry["zero"] += state.zero.get(key, 0)
                entry["walls"].extend(state.walls.get(key, ()))
        return merged

    def span_self_ns(self) -> int:
        """Self CPU time of every span recorded so far, summed."""
        return sum(entry["self_ns"] for entry in self.totals().values())

    def write_log(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        with self._states_lock:
            states = list(self._states)
        count = 0
        with open(path, "w", encoding="utf-8") as out:
            for state in states:
                for name, w0, w1, span_id, parent, tid, own in state.log:
                    out.write(json.dumps({
                        "name": name, "start_ns": w0, "end_ns": w1,
                        "id": span_id, "parent": parent, "thread": tid,
                        "self_cpu_ns": own}) + "\n")
                    count += 1
        return count


def merge_totals(parts: List[Dict[str, Dict[str, Any]]]) -> Dict[str, Dict[str, Any]]:
    """Sum several :meth:`Tracer.totals` results (e.g. parent and workers)."""
    merged: Dict[str, Dict[str, Any]] = {}
    for part in parts:
        for key, entry in part.items():
            into = merged.setdefault(key, {"calls": 0, "self_ns": 0,
                                           "items": 0, "zero": 0,
                                           "walls": []})
            for field in ("calls", "self_ns", "items", "zero"):
                into[field] += entry[field]
            into["walls"].extend(entry["walls"])
    return merged


# --------------------------------------------------------------------------
# Patch table: which public callables mark which layer boundary.
# --------------------------------------------------------------------------


def _count_len_arg(index: int) -> Callable[[tuple, Any], int]:
    return lambda args, result: len(args[index])


def _count_result(args, result) -> int:
    return len(result)


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are built from."""
    # Imported here: the caller has already put the program on sys.path and
    # cleared the REPRO_* environment before the first repro import.
    from repro.cluster import ProxyCluster
    from repro.cluster.rpc import RpcConnection
    from repro.core import ControlThread, Filter, PacketFilter, Proxy
    from repro.core.endpoints import SinkEndPoint
    from repro.fec import FecPacket
    from repro.fec.backend import NumpyGFBackend, PurePythonGFBackend
    from repro.fec.group import FecGroupDecoder, FecGroupEncoder
    from repro.filters import FecDecoderFilter, FecEncoderFilter
    from repro.streams.buffer import StreamBuffer
    from repro.streams.detachable import DetachableOutputStream
    from repro.streams.framing import FrameDecoder
    from repro.transport.udp import UdpChannel

    # repro.streams: framing at every hop, the buffer hop, the splice pause.
    tracer.patch_function("repro.streams.framing", "encode_frame",
                          "streams.encode_frame",
                          required=("repro.core.filter", "repro.core.endpoints"))
    tracer.patch_method(FrameDecoder, "feed", "streams.frame_feed",
                        _count_result)
    tracer.patch_method(StreamBuffer, "write", "streams.buffer_write")
    tracer.patch_method(StreamBuffer, "write_chunks", "streams.buffer_write")
    tracer.patch_method(StreamBuffer, "read", "streams.buffer_read")
    tracer.patch_method(StreamBuffer, "read_chunks", "streams.buffer_read",
                        _count_result)
    tracer.patch_method(DetachableOutputStream, "pause", "streams.dos_pause")

    # repro.fec: group coding, packet objects, the GF(256) product.
    def _coder_items(name: str) -> Callable[[tuple, Any], int]:
        def items(args, result) -> int:
            stats = args[0].stats
            tracer.coder_stats[name][id(stats)] = stats
            return len(args[1]) if isinstance(args[1], (list, tuple)) else 1
        return items

    _encoder_items = _coder_items("fec.encode")
    _decoder_items = _coder_items("fec.decode")

    tracer.patch_method(FecGroupEncoder, "add", "fec.encode", _encoder_items)
    tracer.patch_method(FecGroupEncoder, "add_batch", "fec.encode",
                        _encoder_items)
    tracer.patch_method(FecGroupEncoder, "flush", "fec.encode")
    tracer.patch_method(FecGroupDecoder, "add", "fec.decode", _decoder_items)
    tracer.patch_method(FecGroupDecoder, "add_batch", "fec.decode",
                        _decoder_items)
    tracer.patch_method(FecGroupDecoder, "flush", "fec.decode")
    tracer.patch_method(FecPacket, "pack", "fec.packet_pack")
    tracer.patch_method(FecPacket, "unpack", "fec.packet_unpack")
    for backend in (NumpyGFBackend, PurePythonGFBackend):
        tracer.patch_method(backend, "apply_matrix", "fec.gf_apply",
                            lambda args, result: int(args[2].nbytes))

    # repro.filters: batching into the FEC filters and the per-batch glue.
    tracer.patch_method(FecEncoderFilter, "transform_packets",
                        "filters.fec_encoder", _count_len_arg(1))
    tracer.patch_method(FecEncoderFilter, "transform_packet",
                        "filters.fec_encoder", lambda args, result: 1)
    tracer.patch_method(FecDecoderFilter, "transform_packets",
                        "filters.fec_decoder", _count_len_arg(1))
    tracer.patch_method(FecDecoderFilter, "transform_packet",
                        "filters.fec_decoder", lambda args, result: 1)
    for owner in (PacketFilter, SinkEndPoint):
        tracer.patch_method(owner, "transform", "filters.transform")
        tracer.patch_method(owner, "transform_chunks", "filters.transform")

    # repro.core: cooperative pump steps, splices, stream construction.
    tracer.patch_method(Filter, "pump", "core.pump")
    # Adds before start() compose a chain statically; only a splice into
    # a running stream is a splice.
    tracer.patch_method(ControlThread, "add", "core.splice_add",
                        when=lambda args: args[0].running)
    tracer.patch_method(ControlThread, "remove", "core.splice_remove")
    tracer.patch_method(Filter, "hold_at_boundary", "core.boundary_wait")
    tracer.patch_method(Proxy, "add_stream", "core.add_stream")

    # repro.transport: vectored syscalls and the batched channel send.
    tracer.patch_method(UdpChannel, "send_many", "transport.send_many",
                        _count_len_arg(1))
    # repro.transport.udp calls these through the module, not by name.
    tracer.patch_function("repro.transport.vectored", "send_batch",
                          "transport.send_batch", measure=_count_len_arg(2))
    tracer.patch_function("repro.transport.vectored", "recv_batch",
                          "transport.recv_batch",
                          measure=lambda args, result: len(result[0]))

    # repro.cluster: the parent's control plane.
    tracer.patch_method(ProxyCluster, "start", "cluster.start")
    tracer.patch_method(ProxyCluster, "open_streams", "cluster.open_streams")
    tracer.patch_method(ProxyCluster, "drain", "cluster.drain")
    tracer.patch_method(ProxyCluster, "stream_result", "cluster.stream_result")
    tracer.patch_method(RpcConnection, "request", "cluster.rpc")


def fec_stats(tracer: Tracer) -> Dict[str, int]:
    """Sum the counters the FEC coders keep themselves.

    The sum runs over every coder a traced call touched; the coverage check
    reconciles span counts with it.
    """
    stats = {"payloads_in": 0, "groups_decoded": 0, "groups_repaired": 0}
    for encoder in tracer.coder_stats["fec.encode"].values():
        stats["payloads_in"] += encoder.payloads_in
    for decoder in tracer.coder_stats["fec.decode"].values():
        stats["groups_decoded"] += decoder.groups_decoded
        stats["groups_repaired"] += decoder.groups_repaired
    return stats


# --------------------------------------------------------------------------
# Cluster workers: the same patches, installed in each spawned worker.
# --------------------------------------------------------------------------

#: Set (to a directory inside the checkout) for the workers of a traced run.
WORKER_TRACE_ENV = "PERFBENCH_WORKER_TRACE_DIR"


def trace_this_worker(out_dir: str) -> None:
    """Install the patches in a cluster worker and dump totals at its exit.

    The spawn start method re-imports the parent's main module in every
    worker before the worker entry point runs; the benchmark's entry
    script calls this from that import, so the worker's proxy is traced
    from its first stream on.  The dump runs as a multiprocessing
    finalizer, which a worker runs when it leaves its control loop.
    """
    import os
    from multiprocessing import util

    cpu_at_start = time.process_time_ns()
    tracer = Tracer()
    install(tracer)

    def dump() -> None:
        payload = {
            "pid": os.getpid(),
            "cpu_ns": time.process_time_ns() - cpu_at_start,
            "threads": threading.active_count(),
            "totals": tracer.totals(),
            "fec": fec_stats(tracer),
        }
        path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as out:
            json.dump(payload, out)

    util.Finalize(None, dump, exitpriority=100)
