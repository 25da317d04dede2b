"""The ControlThread — dynamic composition of filters on a running stream.

"A ControlThread object is responsible for managing the insertion, deletion,
and ordering of the filters associated with the stream."  It owns the Filter
Vector (the ordered list of active filters between the two EndPoints) and
performs every reconfiguration with the detachable-stream pause/reconnect
protocol, so that:

* no byte is lost, duplicated, or reordered by a reconfiguration, and
* the stream's EndPoints (and therefore the remote peers) never notice.

The insertion algorithm mirrors the paper's ``add()`` excerpt::

    LeftFilter.DOS.pause();
    LeftFilter.DOS.reconnect(F.DIS);
    RightFilter.DIS.reconnect(F.DOS);
    F.start();
    V.insertElement(F, pos);

except that ``F`` is started while the left DOS is still paused, and its
output is reconnected before its input (see :meth:`ControlThread.add`).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, List, Optional, Sequence, Union

from ..obs.events import (
    EVENT_SPLICE_INSERT,
    EVENT_SPLICE_REMOVE,
    EVENT_STREAM_START,
    EVENT_STREAM_STOP,
    get_event_log,
    new_correlation_id,
)
from ..runtime import ExecutionEngine, resolve_engine
from ..streams import StreamClosedError
from ..transport.base import Transport, resolve_transport
from .endpoints import SinkEndPoint, SourceEndPoint
from .errors import CompositionError
from .filter import Filter
from .stats import ChainSnapshot
from .supervision import ErrorPolicy, StreamSupervisor

#: How long composition operations wait for buffers to drain / filters to
#: quiesce before giving up.
DEFAULT_OPERATION_TIMEOUT = 10.0

FilterRef = Union[int, str, Filter]


class ControlThread:
    """Manages the filter chain of one proxied data stream.

    Parameters
    ----------
    source:
        The upstream EndPoint (data enters the chain here).
    sink:
        The downstream EndPoint (data leaves the chain here).
    name:
        Stream name used in snapshots and control-protocol replies.
    auto_start:
        When True (default) the EndPoints are connected and started
        immediately, forming the paper's "null proxy".
    engine:
        The execution engine running the chain elements: an
        :class:`~repro.runtime.ExecutionEngine` instance, a registered
        engine name (``"threaded"``, ``"event"``), or None to consult
        ``REPRO_ENGINE`` / the registry default.  Passing a shared instance
        (as :class:`~repro.core.proxy.Proxy` does) multiplexes several
        streams onto one engine; an engine resolved from a name/None is
        owned by this ControlThread and shut down with it.
    transport:
        The network substrate available to this stream (reachable as
        :attr:`transport` / :meth:`open_channel`): a
        :class:`~repro.transport.base.Transport` instance, a registered
        transport name (``"inproc"``, ``"udp"``, ``"loopback"``), or None
        to consult ``REPRO_TRANSPORT`` / the registry default.  A
        name/None is resolved *lazily* on first use, so streams that never
        touch the transport never instantiate one.  Ownership follows the
        engine rule: a shared instance (as ``Proxy`` passes) outlives the
        stream, a transport resolved from a name/None is closed with it.
    """

    def __init__(self, source: SourceEndPoint, sink: SinkEndPoint,
                 name: str = "stream", auto_start: bool = True,
                 operation_timeout: float = DEFAULT_OPERATION_TIMEOUT,
                 engine: Union[str, ExecutionEngine, None] = None,
                 transport: Union[str, Transport, None] = None,
                 error_policy=None) -> None:
        self.name = name
        self.source = source
        self.sink = sink
        self.operation_timeout = operation_timeout
        #: How filter crashes/stalls are handled (see
        #: :mod:`repro.core.supervision`).  ``None`` — the default — means
        #: unsupervised: no watcher thread, byte-identical legacy behaviour.
        self.error_policy = ErrorPolicy.resolve(error_policy)
        self._supervisor: Optional[StreamSupervisor] = None
        self._owns_engine = not isinstance(engine, ExecutionEngine)
        self.engine = resolve_engine(engine)
        self._owns_transport = not isinstance(transport, Transport)
        self._transport_arg = transport
        self._transport: Optional[Transport] = (
            transport if isinstance(transport, Transport) else None)
        self._filters: List[Filter] = []
        self._lock = threading.RLock()
        self._idle_cond = threading.Condition()
        self._idle_waiters = 0
        #: Idle-waiter wakeups delivered (plain int: only ever incremented
        #: on the gated waiters-present branch, never on the bare data path).
        self.idle_wakeups = 0
        #: Correlation id stamped on every event this stream emits.
        self.correlation_id = new_correlation_id()
        self._started = False
        self._shutdown = False
        if auto_start:
            self.start()

    def _emit_event(self, event: str, **fields) -> None:
        """Append one control-plane event to the process event log."""
        get_event_log().emit(event, stream=self.name,
                             cid=self.correlation_id, **fields)

    # ----------------------------------------------------------------- setup

    def start(self) -> None:
        """Wire up the chain and start every element.

        With no filters this forms the paper's "null proxy" (source connected
        straight to sink); filters added *before* start are wired statically
        in order, which is how a pre-composed proxy (e.g. one created with
        FEC already required) comes up without a transient unprotected
        window.
        """
        with self._lock:
            if self._started:
                return
            chain = [self.source, *self._filters, self.sink]
            for filter_obj in self._filters:
                self._apply_policy_flags(filter_obj)
            for left, right in zip(chain, chain[1:]):
                left.dos.connect(right.dis)
            for element in chain:
                element.add_activity_listener(self._on_element_activity)
                self.engine.start_element(element)
            self._started = True
            if self.error_policy is not None and self._supervisor is None:
                self._supervisor = StreamSupervisor(
                    self, self.error_policy).start()
        self._emit_event(EVENT_STREAM_START,
                         engine=getattr(self.engine, "name", ""),
                         filters=[f.name for f in self.filters],
                         policy=(self.error_policy.mode
                                 if self.error_policy else ""))

    def _apply_policy_flags(self, filter_obj: Filter) -> None:
        """Prepare a filter for this stream's error policy.

        Under a recoverable policy a crashing filter must *not* close its
        downstream — the supervisor is about to splice around it, and a
        premature EOF would end the stream it is trying to save.
        """
        if self.error_policy is not None and self.error_policy.recoverable:
            filter_obj.close_output_on_error = False

    # -------------------------------------------------------------- transport

    @property
    def transport(self) -> Transport:
        """The stream's network substrate (resolved lazily on first use)."""
        if self._transport is None:
            with self._lock:
                if self._transport is None:
                    self._transport = resolve_transport(self._transport_arg)
        return self._transport

    def open_channel(self, name: str = "default", **options):
        """Open a datagram channel on this stream's transport."""
        return self.transport.open_channel(name, **options)

    # ------------------------------------------------------------ inspection

    @property
    def filters(self) -> List[Filter]:
        """The current Filter Vector (a copy)."""
        with self._lock:
            return list(self._filters)

    def filter_count(self) -> int:
        with self._lock:
            return len(self._filters)

    def filter_names(self) -> List[str]:
        with self._lock:
            return [f.name for f in self._filters]

    def elements(self) -> List[Filter]:
        """Source, filters, sink — the full chain in stream order."""
        with self._lock:
            return [self.source, *self._filters, self.sink]

    def position_of(self, ref: FilterRef) -> int:
        """Resolve a filter reference (index, name, or object) to its index."""
        with self._lock:
            if isinstance(ref, Filter):
                for index, filter_obj in enumerate(self._filters):
                    if filter_obj is ref:
                        return index
                raise CompositionError(f"filter {ref.name!r} is not in this chain")
            if isinstance(ref, str):
                for index, filter_obj in enumerate(self._filters):
                    if filter_obj.name == ref:
                        return index
                raise CompositionError(f"no filter named {ref!r} in this chain")
            index = int(ref)
            if not 0 <= index < len(self._filters):
                raise CompositionError(
                    f"filter position {index} outside [0, {len(self._filters)})")
            return index

    def describe(self) -> List[dict]:
        """Descriptions of the chain elements, in stream order."""
        return [element.describe() for element in self.elements()]

    def snapshot(self) -> ChainSnapshot:
        """A serialisable snapshot of the chain (for the ControlManager)."""
        with self._lock:
            return ChainSnapshot(
                stream_name=self.name,
                filter_names=[f.name for f in self._filters],
                filter_types=[f.type_name for f in self._filters],
                filter_stats=[f.stats.snapshot() for f in self._filters],
                source_stats=self.source.stats.snapshot(),
                sink_stats=self.sink.stats.snapshot(),
                running=self.running,
            )

    @property
    def running(self) -> bool:
        """True while both EndPoints are alive."""
        return self.source.running or self.sink.running

    # ------------------------------------------------------------- composition

    def add(self, filter_obj: Union[Filter, Iterable[Filter]],
            position: Optional[int] = None,
            boundary: Optional[Callable[[bytes], bool]] = None,
            timeout: Optional[float] = None) -> int:
        """Insert ``filter_obj`` into the running stream.

        ``filter_obj`` is one filter, or a sequence of them (a list, or the
        paper's :class:`~repro.core.filter.FilterContainer`) spliced in as
        one sub-chain under a single pause, so no unit ever sees half of
        it.  ``position`` is the index in the Filter Vector (0 =
        immediately after the source); the default appends just before
        the sink.  When ``boundary`` is given, the upstream element is
        first asked to hold at the next unit satisfying the predicate so
        the new filters start at a stream-type-specific boundary (Section
        3 of the paper).

        Returns the position at which the (first) filter was inserted.
        """
        timeout = self.operation_timeout if timeout is None else timeout
        filters = ([filter_obj] if isinstance(filter_obj, Filter)
                   else list(filter_obj))
        if not filters:
            raise CompositionError("nothing to insert")
        for new in filters:
            if new.running or new.finished:
                raise CompositionError(
                    f"filter {new.name!r} has already been started")
            if new.dis.connected or new.dos.connected:
                raise CompositionError(
                    f"filter {new.name!r} is already connected to a stream")
        with self._lock:
            self._ensure_not_shutdown()
            if position is None:
                position = len(self._filters)
            if not 0 <= position <= len(self._filters):
                raise CompositionError(
                    f"insert position {position} outside [0, {len(self._filters)}]")
            if not self._started:
                # Static composition: the chain is wired when start() runs.
                self._filters[position:position] = filters
                return position
            chain = self.elements()
            left = chain[position]
            right = chain[position + 1]

            if boundary is not None:
                # Ask the upstream element to stop emitting at the next
                # stream boundary; even if the hold times out (idle stream)
                # the predicate is cleared again in the finally block below.
                left.hold_at_boundary(boundary, timeout=timeout)

            started = []
            try:
                # The paper's protocol: pause the left DOS (the right DIS is
                # implicitly paused once the buffer drains), then re-splice.
                # The new filters start while the pipe is paused, so no
                # thread start sits between the reconnect and whatever the
                # caller does next; and the new sub-chain's exit is attached
                # before its entrance, so nothing flows into it — not even
                # an end-of-stream — before it has somewhere to go.
                left.dos.pause(drain_timeout=timeout)
                for upstream, downstream in zip(filters, filters[1:]):
                    upstream.dos.connect(downstream.dis)
                for new in filters:
                    self._apply_policy_flags(new)
                    new.add_activity_listener(self._on_element_activity)
                    self.engine.start_element(new)
                    started.append(new)
                filters[-1].dos.reconnect(right.dis)
                left.dos.reconnect(filters[0].dis)
            except StreamClosedError as exc:
                for new in started:
                    self.engine.stop_element(new)
                raise CompositionError(
                    f"cannot insert {filters[0].name!r}: the stream upstream "
                    f"of position {position} has already ended ({exc})"
                ) from exc
            finally:
                if boundary is not None:
                    left.release_hold()
            self._filters[position:position] = filters
        for offset, new in enumerate(filters):
            self._emit_event(EVENT_SPLICE_INSERT, filter=new.name,
                             type=new.type_name, position=position + offset)
        return position

    def remove(self, ref: FilterRef, timeout: Optional[float] = None,
               stop_filter: bool = True) -> Filter:
        """Remove a filter from the running stream without losing data.

        The upstream DOS is paused, the filter is allowed to finish
        processing everything already delivered to it (``quiesce``), its own
        DOS is paused to drain its output, and only then is the chain
        re-spliced around it.  Returns the removed filter.
        """
        timeout = self.operation_timeout if timeout is None else timeout
        with self._lock:
            self._ensure_not_shutdown()
            position = self.position_of(ref)
            filter_obj = self._filters[position]
            if not self._started:
                self._filters.pop(position)
                return filter_obj
            chain = self.elements()
            left = chain[position]
            right = chain[position + 2]

            if left.dos.closed:
                # The stream already ended; the filter has seen (or will see)
                # end-of-stream, so it only needs to be unlinked — once it
                # has forwarded that EOF, which a stop would pre-empt.
                if filter_obj.dis.buffer.closed_for_writing:
                    filter_obj.wait_finished(timeout=timeout)
                self._filters.pop(position)
            elif filter_obj.finished:
                # The filter's worker has already exited (it crashed or was
                # stopped).  Its input can never drain, so splice around the
                # dead element without the drain step; whatever it had
                # buffered is already lost with it.
                left.dos.detach()
                filter_obj.dos.detach()
                if not right.dis.connected:
                    left.dos.reconnect(right.dis)
                self._filters.pop(position)
            else:
                left.dos.pause(drain_timeout=timeout)
                if not filter_obj.quiesce(timeout=timeout):
                    # Put the chain back together before reporting failure.
                    left.dos.reconnect(filter_obj.dis)
                    raise CompositionError(
                        f"filter {filter_obj.name!r} failed to quiesce within {timeout}s")
                if not filter_obj.dos.closed:
                    # Push out anything the filter still holds internally
                    # (e.g. a partially filled FEC group), then drain it.
                    filter_obj.flush_state()
                    filter_obj.dos.pause(drain_timeout=timeout)
                left.dos.reconnect(right.dis)
                self._filters.pop(position)
        if stop_filter:
            self.engine.stop_element(filter_obj)
        self._emit_event(EVENT_SPLICE_REMOVE, filter=filter_obj.name,
                         type=filter_obj.type_name, position=position)
        return filter_obj

    def replace(self, ref: FilterRef, new_filter: Filter,
                timeout: Optional[float] = None) -> Filter:
        """Swap one filter for another at the same position."""
        with self._lock:
            position = self.position_of(ref)
            old = self.remove(position, timeout=timeout)
            self.add(new_filter, position=position, timeout=timeout)
            return old

    def move(self, ref: FilterRef, new_position: int,
             timeout: Optional[float] = None) -> None:
        """Move a filter to a different position in the chain."""
        with self._lock:
            position = self.position_of(ref)
            if not 0 <= new_position < len(self._filters):
                raise CompositionError(
                    f"target position {new_position} outside "
                    f"[0, {len(self._filters)})")
            if new_position == position:
                return
            filter_obj = self._filters[position]
            # A moved filter keeps its internal state but is re-spliced, so
            # it must be restartable: we remove it without stopping the
            # worker thread and re-splice it at the new location.
            self.remove(position, timeout=timeout, stop_filter=False)
            self._readd_running(filter_obj, new_position, timeout=timeout)

    def reorder(self, new_order: Sequence[FilterRef],
                timeout: Optional[float] = None) -> None:
        """Rearrange the whole chain to match ``new_order``.

        ``new_order`` must reference every current filter exactly once.
        """
        with self._lock:
            positions = [self.position_of(ref) for ref in new_order]
            if sorted(positions) != list(range(len(self._filters))):
                raise CompositionError(
                    "reorder must reference every filter exactly once")
            desired = [self._filters[p] for p in positions]
            for target_index, filter_obj in enumerate(desired):
                current_index = self.position_of(filter_obj)
                if current_index != target_index:
                    self.move(filter_obj, target_index, timeout=timeout)

    def _readd_running(self, filter_obj: Filter, position: int,
                       timeout: Optional[float]) -> None:
        """Splice an already-running filter back into the chain."""
        timeout = self.operation_timeout if timeout is None else timeout
        chain = self.elements()
        left = chain[position]
        right = chain[position + 1]
        left.dos.pause(drain_timeout=timeout)
        left.dos.reconnect(filter_obj.dis)
        filter_obj.dos.reconnect(right.dis)
        self._filters.insert(position, filter_obj)

    # ------------------------------------------------------------- idle waits

    def _on_element_activity(self) -> None:
        # Fires after every chunk on the data path, so stay off the lock
        # unless someone is actually blocked in wait_idle.  The waiter count
        # is incremented under the condition lock *before* the waiter's
        # first predicate check, so (with the GIL making the write visible)
        # any activity that matters either happens-before that check or
        # observes a non-zero count and notifies.
        if not self._idle_waiters:
            return
        self.idle_wakeups += 1
        with self._idle_cond:
            self._idle_cond.notify_all()

    @staticmethod
    def _chain_idle(elements: List[Filter],
                    extra: Optional[Callable[[], bool]]) -> bool:
        if extra is not None and not extra():
            return False
        return all(element.is_idle() or element.finished
                   for element in elements)

    def wait_idle(self, timeout: Optional[float] = None,
                  extra: Optional[Callable[[], bool]] = None) -> bool:
        """Block until every chain element is idle (event-driven, no polling).

        "Idle" means no buffered input, no in-flight transform and no parked
        output on any element — data already delivered to the chain has been
        pushed all the way to the sink (internal state like a partially
        filled FEC group counts as idle; it holds data by design).  ``extra``
        is an additional predicate that must also be true (e.g. "the feed
        queue is empty"); it is re-evaluated under the same condition
        variable, which every element notifies after each unit of work.
        Returns True once idle, False on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle_cond:
            self._idle_waiters += 1
        try:
            while True:
                # Snapshot the chain WITHOUT holding _idle_cond: elements()
                # takes the composition lock, which add()/remove() hold for
                # a whole splice, and data-path threads must never be made
                # to wait behind it via _on_element_activity.  A chain
                # mutation between snapshot and check is caught on the next
                # iteration (composition itself generates activity).
                elements = self.elements()
                with self._idle_cond:
                    if self._chain_idle(elements, extra):
                        return True
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return False
                    self._idle_cond.wait(remaining)
        finally:
            with self._idle_cond:
                self._idle_waiters -= 1

    # --------------------------------------------------------------- teardown

    def wait_for_completion(self, timeout: Optional[float] = None) -> bool:
        """Wait until the stream's end-of-file has flowed through to the sink."""
        return self.sink.wait_for_eof(timeout=timeout)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every element of the chain.  Idempotent."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            elements = [self.source, *self._filters, self.sink]
        if self._supervisor is not None:
            # Stopped before the elements so a crash *during* teardown is
            # never mistaken for a recoverable failure.
            self._supervisor.stop()
            self._supervisor = None
        if self._started:
            self._emit_event(EVENT_STREAM_STOP,
                             filters=[f.name for f in elements[1:-1]])
        for element in elements:
            self.engine.stop_element(element, timeout=timeout)
        # Close sink-to-source, DIS before DOS: closing a DIS wakes any
        # writer blocked on its full buffer, so an upstream DOS close can
        # never deadlock behind a write that holds the DOS lock (e.g. a
        # stalled consumer at teardown).
        for element in reversed(elements):
            try:
                element.dis.close()
            except Exception:  # noqa: BLE001 - best effort teardown
                pass
            try:
                element.dos.close()
            except Exception:  # noqa: BLE001
                pass
        if self._owns_engine:
            self.engine.shutdown(timeout=timeout)
        if self._owns_transport and self._transport is not None:
            self._transport.close()

    def _ensure_not_shutdown(self) -> None:
        if self._shutdown:
            raise CompositionError("the stream has been shut down")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ControlThread {self.name!r} filters={self.filter_names()} "
                f"running={self.running}>")
