"""EndPoints — the components that anchor a proxy's filter chain.

"EndPoints are special extensions of Filters that are instantiated by the
ControlThread for providing Input and Output services to the framework."
A :class:`SourceEndPoint` pulls data from outside the chain (a socket, a
generator, a simulated network receiver) and writes it to its DOS; a
:class:`SinkEndPoint` reads from its DIS and pushes data outside the chain.
"Combined with the ControlThread, two EndPoints comprise a 'null' proxy".

Concrete EndPoints are provided for the data sources and sinks used in this
reproduction: Python iterables/callables, in-memory collectors, real TCP
sockets, and the simulated wired/wireless networks.
"""

from __future__ import annotations

import socket
import threading
from itertools import repeat as _repeat
from time import monotonic as _monotonic
from typing import Callable, Iterable, Iterator, List, Optional

from ..streams import FrameDecoder, encode_frame
from .filter import Filter

#: Infinite second argument for ``map(isinstance, items, ...)`` — the
#: C-speed all-bytes-like batch check (same idiom as the stream buffer).
_REPEAT_BYTES_LIKE = _repeat((bytes, bytearray, memoryview))

#: A pull-style source callback: returns the next chunk, or None at EOF.
SourceCallable = Callable[[], Optional[bytes]]

#: A push-style sink callback: receives each chunk (or packet).
SinkCallable = Callable[[bytes], None]


class EndPoint(Filter):
    """Common base class for chain endpoints."""

    type_name = "endpoint"


class SourceEndPoint(EndPoint):
    """Reads data from an external producer and writes it into the chain.

    Subclasses implement :meth:`produce`, returning the next chunk of bytes
    or ``None`` at end of input.  The endpoint's DIS is unused.
    """

    type_name = "source-endpoint"

    #: Most sources block on external input (sockets, queues), so by default
    #: every execution engine gives them a dedicated thread.  Sources whose
    #: ``produce`` is non-blocking (:class:`IterableSource`) opt back in to
    #: cooperative pumping; pacing then becomes a scheduler deadline rather
    #: than a sleeping thread.
    cooperative_capable = False

    #: Whether ``produce`` returns without ever blocking *on a dedicated
    #: thread as well*.  A pump step draws a whole budget of items only
    #: from a source that is pumped cooperatively or declares this: a
    #: blocking source would stall in ``produce`` while already-produced
    #: items sit undelivered, so on its own thread it moves one item per
    #: step.  (This is stricter than ``cooperative_capable`` — a transport
    #: source polls non-blockingly when cooperative but blocks in its
    #: dedicated thread.)
    produce_nonblocking = False

    def __init__(self, name: Optional[str] = None, frame_output: bool = False,
                 pacing_s: float = 0.0, close_on_eof: bool = True) -> None:
        super().__init__(name=name, propagate_eof=close_on_eof)
        if pacing_s < 0:
            raise ValueError("pacing_s must be non-negative")
        self.frame_output = frame_output
        self.pacing_s = pacing_s
        self.items_produced = 0
        self._next_due = 0.0
        # Latched the first time produce() returns None, so an exhausted
        # producer is never probed again (produce() need not be repeatable
        # after signalling end of input).
        self._exhausted = False

    def produce(self) -> Optional[bytes]:
        """Return the next chunk/packet, or None when the source is exhausted."""
        raise NotImplementedError

    def produce_many(self, max_items: int) -> Optional[List[bytes]]:
        """Produce up to ``max_items`` items in one call, or None.

        Returning None (the default) makes the pump step accumulate its
        batch through per-item :meth:`produce` calls.  Sources whose
        backlog is indexable (:class:`IterableSource` over a materialised
        list) override this so a whole batch is drawn as one slice.  A
        short or empty return does *not* signal exhaustion — the next
        :meth:`produce` call decides that.
        """
        return None

    def _encode(self, item: bytes) -> bytes:
        """The wire form of one produced item (framed or raw bytes)."""
        if self.frame_output:
            return encode_frame(item)
        if isinstance(item, (bytes, bytearray, memoryview)):
            return item  # queued by reference, per the buffer's contract
        return bytes(item)

    def _encode_many(self, items: List[bytes]) -> List[bytes]:
        """The wire forms of a bulk-drawn slice; empty items are skipped."""
        if self.frame_output:
            return [encode_frame(item) for item in items if len(item)]
        if (all(map(isinstance, items, _REPEAT_BYTES_LIKE))
                and 0 not in map(len, items)):
            return items  # the dominant case: queued as-is, at C speed
        return [item if isinstance(item, (bytes, bytearray, memoryview))
                else bytes(item) for item in items if len(item)]

    # -------------------------------------------------------------- pump step

    def _pump_input(self, progress: bool) -> bool:
        """The source variant of a pump step: produce and emit items.

        Pacing is honoured through :meth:`next_due_s` — an engine does not
        pump the source again until the deadline, and a dedicated thread
        sleeps until it — so a paced cooperative source costs a timer
        entry instead of a sleeping thread.

        An unpaced source that never blocks (cooperative, or
        ``produce_nonblocking``) produces up to a budget of items per step
        — one :meth:`produce_many` slice when the backlog is indexable —
        and flushes them as one batch, so round-trips amortize.  A paced
        source moves one item per deadline, and a blocking source on its
        own thread one item per step, so nothing it produced waits behind
        its next blocking ``produce``.
        """
        if self.pacing_s and _monotonic() < self._next_due:
            if progress:
                # The flush above advanced the pacing deadline; re-mark
                # ourselves so the next round parks us on the timer.
                self._notify_engine()
            return progress
        pending = self._pending
        item = None if self._exhausted else self.produce()
        if item is None:
            self._exhausted = True
        elif item:
            pending.append(self._encode(item))
            if (not self.pacing_s and self.pump_budget > 1
                    and (self._cooperative or self.produce_nonblocking)):
                more = self.produce_many(self.pump_budget - 1)
                if more is not None:
                    pending.extend(self._encode_many(more))
                else:
                    for _ in range(self.pump_budget - 1):
                        item = self.produce()
                        if item is None:
                            self._exhausted = True
                            break
                        if not item:
                            break  # nothing available right now
                        pending.append(self._encode(item))
            self._flush_pending()
        if self._exhausted and not pending:
            # produce() also returns None when a stop interrupts a blocking
            # read; _end_stream never closes the stream of a stopped source.
            self._end_stream()
            return True
        self._notify_engine()  # stay scheduled until exhausted
        return True

    def _close_output_after_error(self) -> None:
        self._close_output()

    def wants_input_pump(self) -> bool:
        if self.pacing_s:
            return _monotonic() >= self._next_due
        return True

    def next_due_s(self) -> "Optional[float]":
        if self.pacing_s and not self._finished.is_set():
            return self._next_due
        return None

    def _record_emit(self, data: bytes) -> None:
        self.items_produced += 1
        self.stats.record_output(len(data),
                                 packets=1 if self.frame_output else 0)
        if self.pacing_s:
            # Absolute schedule (due += interval), not relative to the emit
            # instant: deadlines don't drift with scheduler latency, and
            # sources started together stay phase-aligned so one timer tick
            # pumps the whole batch.
            base = self._next_due if self._next_due > 0.0 else _monotonic()
            self._next_due = base + self.pacing_s

    def _record_emit_batch(self, batch) -> None:
        if self.pacing_s:
            # Per-unit: each emit advances the pacing deadline.
            for data in batch:
                self._record_emit(data)
            return
        self.items_produced += len(batch)
        self.stats.record_output_batch(
            sum(map(len, batch)), len(batch),
            packets=len(batch) if self.frame_output else 0)

    def _boundary_unit(self, unit: bytes) -> bytes:
        """Boundary predicates see the produced item, not its framing."""
        if self.frame_output:
            from ..streams.framing import HEADER_SIZE

            if len(unit) >= HEADER_SIZE:
                return unit[HEADER_SIZE:]
        return unit


class IterableSource(SourceEndPoint):
    """A source that drains a Python iterable of byte chunks/packets."""

    type_name = "iterable-source"

    #: Iterating is assumed non-blocking, so the cooperative engines pump
    #: this source from their scheduler — N paced streams need no N
    #: sleeping threads — and on a dedicated thread it still draws a whole
    #: budget of items per pump step.
    cooperative_capable = True
    produce_nonblocking = True

    def __init__(self, items: Iterable[bytes], name: Optional[str] = None,
                 frame_output: bool = False, pacing_s: float = 0.0) -> None:
        super().__init__(name=name, frame_output=frame_output, pacing_s=pacing_s)
        # A materialised backlog is drawn by index so produce_many can hand
        # out whole slices; any other iterable is drained item by item.
        self._items = items if isinstance(items, (list, tuple)) else None
        self._pos = 0
        self._iterator: Optional[Iterator[bytes]] = (
            None if self._items is not None else iter(items))

    def produce(self) -> Optional[bytes]:
        if self._items is not None:
            pos = self._pos
            if pos >= len(self._items):
                return None
            self._pos = pos + 1
            return self._items[pos]
        try:
            return next(self._iterator)
        except StopIteration:
            return None

    def produce_many(self, max_items: int) -> Optional[List[bytes]]:
        """One slice of the backlog when it is indexable (else None)."""
        if self._items is None:
            return None
        pos = self._pos
        batch = list(self._items[pos:pos + max_items])
        self._pos = pos + len(batch)
        return batch


class CallableSource(SourceEndPoint):
    """A source that repeatedly calls a function until it returns None."""

    type_name = "callable-source"

    def __init__(self, callback: SourceCallable, name: Optional[str] = None,
                 frame_output: bool = False, pacing_s: float = 0.0) -> None:
        super().__init__(name=name, frame_output=frame_output, pacing_s=pacing_s)
        self._callback = callback

    def produce(self) -> Optional[bytes]:
        return self._callback()


class SocketSource(SourceEndPoint):
    """Reads raw bytes from a connected stream (EndPointSocketReader).

    Accepts a connected TCP ``socket.socket`` or any transport-layer
    :class:`~repro.transport.base.StreamConnection` — the endpoint is built
    on the latter; a raw socket is wrapped on the way in.  ``recv_timeout``
    bounds each blocking read (it exists so the source's thread can observe
    a stop request, not for liveness): peer close is end-of-stream the
    moment it happens, and :meth:`stop` half-closes the reading side so a
    parked ``recv`` returns immediately instead of burning out its poll
    cycle.
    """

    type_name = "socket-source"

    def __init__(self, sock, name: Optional[str] = None,
                 recv_size: int = 8192,
                 recv_timeout: Optional[float] = 0.5) -> None:
        from ..transport.base import TransportTimeoutError
        from ..transport.udp import TcpStreamConnection

        super().__init__(name=name, frame_output=False)
        if recv_timeout is not None and recv_timeout <= 0:
            raise ValueError("recv_timeout must be positive (or None)")
        self._conn = (TcpStreamConnection(sock)
                      if isinstance(sock, socket.socket) else sock)
        self._timeout_error = TransportTimeoutError
        self.recv_size = recv_size
        self.recv_timeout = recv_timeout

    def produce(self) -> Optional[bytes]:
        while not self._stop_event.is_set():
            try:
                data = self._conn.recv(self.recv_size,
                                       timeout=self.recv_timeout)
            except self._timeout_error:
                continue
            return data if data else None
        return None

    def stop(self, timeout: float = 5.0) -> None:
        # Unblock a thread parked in recv() before joining it, so stopping
        # costs one wakeup rather than a full recv_timeout poll cycle.
        self._stop_event.set()
        unblock = getattr(self._conn, "unblock", None)
        if callable(unblock):
            unblock()
        super().stop(timeout=timeout)

    def on_stop(self) -> None:
        self._conn.close()


class SinkEndPoint(EndPoint):
    """Reads data from the chain and delivers it to an external consumer.

    Subclasses implement :meth:`consume`.  When ``expect_frames`` is True the
    sink deframes the byte stream and calls :meth:`consume` once per packet;
    otherwise it is called with raw chunks.
    """

    type_name = "sink-endpoint"

    def __init__(self, name: Optional[str] = None, expect_frames: bool = False) -> None:
        super().__init__(name=name, propagate_eof=False)
        self.expect_frames = expect_frames
        self._sink_decoder = FrameDecoder()
        self.items_consumed = 0
        self.eof_seen = threading.Event()

    def consume(self, data: bytes) -> None:
        """Handle one chunk (or one packet when ``expect_frames`` is True)."""
        raise NotImplementedError

    def consume_many(self, items) -> None:
        """Handle a whole batch of chunks/packets (the batched consume).

        The default delivers the batch one :meth:`consume` call at a time;
        sinks with a genuinely cheaper bulk path — a vectored transport
        send, a pure discard — override this.
        """
        for data in items:
            self.consume(data)
            self.items_consumed += 1

    def transform(self, chunk: bytes):
        if self.expect_frames:
            for packet in self._sink_decoder.feed(chunk):
                self.stats.record_input(0, packets=1)
                self.consume(packet)
                self.items_consumed += 1
        else:
            self.consume(chunk)
            self.items_consumed += 1
        return None

    def transform_chunks(self, chunks, outputs) -> None:
        """Deliver a whole input batch through :meth:`consume_many`.

        Deframing happens across the batch first, so a sink with a bulk
        consume (the transport sink's vectored send) receives the full
        budget of packets in one call.  Stats match the per-chunk path.
        """
        if self.expect_frames:
            packets = []
            for chunk in chunks:
                self._batch_in_bytes += len(chunk)
                self._batch_in_chunks += 1
                packets.extend(self._sink_decoder.feed(chunk))
            if packets:
                self.stats.record_input_batch(0, len(packets),
                                              packets=len(packets))
                self.consume_many(packets)
        else:
            # The whole batch is handed to consume_many at once, so it is
            # accounted at once (a consume failing mid-batch was still
            # *given* every chunk).
            self._batch_in_bytes += sum(map(len, chunks))
            self._batch_in_chunks += len(chunks)
            self.consume_many(chunks)

    def finalize(self):
        self.eof_seen.set()
        return None

    def wait_for_eof(self, timeout: Optional[float] = None) -> bool:
        """Block until the chain's end-of-stream reaches this sink."""
        return self.eof_seen.wait(timeout=timeout)

    def is_idle(self) -> bool:
        if self.expect_frames and self._sink_decoder.has_partial_frame():
            return False
        return super().is_idle()


class CollectorSink(SinkEndPoint):
    """Accumulates everything that reaches the end of the chain.

    With ``expect_frames=True`` the collected items are packets; otherwise
    the raw byte chunks are concatenated by :meth:`data`.
    """

    type_name = "collector-sink"

    def __init__(self, name: Optional[str] = None, expect_frames: bool = False) -> None:
        super().__init__(name=name, expect_frames=expect_frames)
        self._lock = threading.Lock()
        self._items: List[bytes] = []

    def consume(self, data: bytes) -> None:
        if not isinstance(data, bytes):
            data = bytes(data)  # materialise views: collected items outlive
        with self._lock:       # the writer's buffers
            self._items.append(data)

    def items(self) -> List[bytes]:
        """The collected chunks/packets, in arrival order."""
        with self._lock:
            return list(self._items)

    def data(self) -> bytes:
        """All collected bytes concatenated."""
        with self._lock:
            return b"".join(self._items)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()


class CallableSink(SinkEndPoint):
    """Delivers each chunk/packet to a callback (e.g. ``WirelessLAN.send``)."""

    type_name = "callable-sink"

    def __init__(self, callback: SinkCallable, name: Optional[str] = None,
                 expect_frames: bool = False) -> None:
        super().__init__(name=name, expect_frames=expect_frames)
        self._callback = callback

    def consume(self, data: bytes) -> None:
        # External callbacks are written against real ``bytes``.
        self._callback(data if isinstance(data, bytes) else bytes(data))


class SocketSink(SinkEndPoint):
    """Writes raw bytes to a connected stream (EndPointSocketWriter).

    Accepts a connected TCP ``socket.socket`` or any transport-layer
    :class:`~repro.transport.base.StreamConnection`.  End-of-stream
    half-closes the sending side so the peer sees EOF while the connection
    object stays usable for its owner.
    """

    type_name = "socket-sink"

    #: The blocking send can stall on the peer, so never pump this
    #: cooperatively.
    cooperative_capable = False

    def __init__(self, sock, name: Optional[str] = None) -> None:
        from ..transport.udp import TcpStreamConnection

        super().__init__(name=name, expect_frames=False)
        self._conn = (TcpStreamConnection(sock)
                      if isinstance(sock, socket.socket) else sock)

    def consume(self, data: bytes) -> None:
        self._conn.send(data)

    def on_stop(self) -> None:
        self._conn.close_sending()


class NullSink(SinkEndPoint):
    """Discards everything (useful for throughput benchmarks)."""

    type_name = "null-sink"

    def consume(self, data: bytes) -> None:  # noqa: D401 - intentionally empty
        pass

    def consume_many(self, items) -> None:
        self.items_consumed += len(items)
