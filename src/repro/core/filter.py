"""The Filter base classes — the components a proxy composes.

The paper's ``Filter`` class "is meant to be extended by all proxy filters
that are to be run in the proposed framework.  The class contains an
instance of DIS and DOS that are always present.  The ControlThread uses the
DIS and DOS to manipulate the stream connections."  This module provides the
Python equivalents:

* :class:`Filter` — a byte-oriented filter.  Data read from the filter's
  DIS is passed to :meth:`Filter.transform`; whatever the transform returns
  is written to the filter's DOS.
* :class:`PacketFilter` — a filter operating on framed packets (see
  :mod:`repro.streams.framing`); FEC encoders/decoders and media transcoders
  subclass this.
* :class:`FilterContainer` — the paper's container used to hold groups of
  filters uploaded into a proxy.

Filters cooperate with the ControlThread's splice protocol: a filter can be
asked to *hold* at the next stream boundary (:meth:`Filter.hold_at_boundary`)
and to *quiesce* (finish processing everything already delivered to it)
before it is removed from a chain.

Execution is pluggable (see :mod:`repro.runtime`), but a filter has one
execution path: the non-blocking pump step (:meth:`Filter.pump`) — read
available input, transform it, emit the results, honouring boundary holds.
:meth:`Filter.readiness` decides when a step would make progress.  The
cooperative engines call both from a shared scheduler thread; a filter
started with :meth:`Filter.start` gets a dedicated thread that loops the
same step and sleeps on the same readiness signals in between.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import islice
from time import monotonic as _monotonic
from time import sleep as _sleep
from typing import Callable, Deque, Iterable, List, Optional, Union

from ..streams import (
    DEFAULT_CAPACITY,
    BrokenStreamError,
    DetachableInputStream,
    DetachableOutputStream,
    FrameDecoder,
    NotConnectedError,
    StreamClosedError,
    encode_frame,
)
from .errors import FilterStateError
from .stats import FilterStats

#: A transform may return nothing, one chunk, or several chunks.
TransformResult = Union[None, bytes, Iterable[bytes]]

#: Predicate deciding whether a just-emitted packet ends a stream boundary.
BoundaryPredicate = Callable[[bytes], bool]

#: Default number of input chunks a filter moves per lock/scheduler
#: round-trip.  One read drains up to this many queued chunks, and their
#: outputs are delivered in one batched write, so the per-hop locking and
#: wakeup costs amortize across the batch.  Resolved at construction time
#: (not def-time) so tests can pin the unbatched path.
DEFAULT_PUMP_BUDGET = 64

#: Verdicts of :meth:`Filter.readiness`: why a pump step would, or would
#: not, make progress right now.
READY = "ready"        # pump now
IDLE = "idle"          # nothing to do until a notification or next_due_s()
HELD = "held"          # parked at a boundary until release_hold()
DETACHED = "detached"  # output parked while the DOS is detached mid-splice
FULL = "full"          # input wanted, but the downstream buffer is full

#: Longest a dedicated thread sleeps between readiness checks.  Every state
#: change that can make a filter ready sets its wake event, so this is a
#: lost-wakeup safety net, not a polling interval.
_IDLE_WAIT_S = 0.5

#: Longest a dedicated thread waits for room in a full downstream buffer
#: before re-checking readiness (a stop request does not signal the buffer).
_ROOM_WAIT_S = 0.05

_name_lock = threading.Lock()
_name_counter = 0


def _auto_name(prefix: str) -> str:
    global _name_counter
    with _name_lock:
        _name_counter += 1
        return f"{prefix}-{_name_counter}"


class Filter:
    """A byte-stream filter with its own DIS and DOS.

    Lifecycle: construct → (ControlThread connects the DIS/DOS) →
    :meth:`start` (a dedicated thread) or :meth:`bind_engine` (a shared
    scheduler) → repeated :meth:`pump` steps → end-of-stream or
    :meth:`stop`.

    Subclasses usually override only :meth:`transform` (per input chunk) and
    optionally :meth:`finalize` (to emit trailing output at end-of-stream)
    and :meth:`on_start` / :meth:`on_stop`.
    """

    #: Human-readable type name used by the registry and the ControlManager.
    type_name = "filter"

    #: Whether this element can be pumped cooperatively from a shared
    #: scheduler thread.  Elements whose pump step blocks on external I/O
    #: (source endpoints, socket sinks) set this to False and always get a
    #: dedicated thread, whatever the execution engine.
    cooperative_capable = True

    def __init__(self, name: Optional[str] = None, chunk_size: int = 8192,
                 propagate_eof: bool = True,
                 pump_budget: Optional[int] = None) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if pump_budget is None:
            pump_budget = DEFAULT_PUMP_BUDGET
        if pump_budget <= 0:
            raise ValueError("pump_budget must be positive")
        self.name = name or _auto_name(self.type_name)
        self.chunk_size = chunk_size
        self.pump_budget = pump_budget
        self.propagate_eof = propagate_eof
        # Whether a filter *error* closes the downstream side (normal EOF
        # always honours propagate_eof alone).  Stream supervision clears
        # this under restart/bypass policies: a crashed filter about to be
        # spliced out must not hand its successor a premature EOF.
        self.close_output_on_error = True

        # Size the input buffer to hold *two* full pump budgets: one batch
        # being transformed and one the upstream hop deposits meanwhile, so
        # neighbouring hops double-buffer instead of blocking in lock-step
        # on every batch — capped so large-chunk_size filters don't get a
        # backpressure window big enough to hide real latency from the
        # flow control.
        self.dis = DetachableInputStream(
            name=f"{self.name}.dis",
            capacity=max(DEFAULT_CAPACITY,
                         min(2 * chunk_size * pump_budget,
                             16 * DEFAULT_CAPACITY)))
        self.dos = DetachableOutputStream(name=f"{self.name}.dos")
        self.stats = FilterStats()
        self.error: Optional[BaseException] = None

        self._thread: Optional[threading.Thread] = None
        # Set by every readiness notification while the filter runs on a
        # dedicated thread; the thread sleeps on it between pump steps.
        self._wake = threading.Event()
        self._stop_event = threading.Event()
        self._finished = threading.Event()
        self._started = False
        self._busy = False

        # Pump state: the engine (None on a dedicated thread) and output
        # emitted but not yet delivered (boundary hold, mid-splice detach).
        self._engine = None
        self._cooperative = False
        self._pending: Deque[bytes] = deque()
        self._on_start_done = False
        self._finalized = False
        # End-of-stream reached while the DOS was paused for a splice: the
        # close waits, like parked output, for the reattach.
        self._eof_parked = False

        # Scratch counters written by transform_chunks as it consumes input,
        # read by the pump in a ``finally`` so mid-batch errors account only
        # the chunks actually handed to the transform.
        self._batch_in_bytes = 0
        self._batch_in_chunks = 0

        # Listeners notified after every unit of work (used by
        # ControlThread.wait_idle so completion waits are event-driven).
        self._activity_listeners: List[Callable[[], None]] = []

        # Boundary-hold support (used for boundary-aware insertion).
        self._hold_lock = threading.Lock()
        self._boundary_predicate: Optional[BoundaryPredicate] = None
        self._held = threading.Event()
        self._resume = threading.Event()

    # ------------------------------------------------------------- accessors

    def get_dis(self) -> DetachableInputStream:
        """Paper-style accessor for the filter's input stream."""
        return self.dis

    def get_dos(self) -> DetachableOutputStream:
        """Paper-style accessor for the filter's output stream."""
        return self.dos

    def set_dis(self, dis: DetachableInputStream) -> None:
        """Replace the filter's input stream (only before the filter starts)."""
        if self._started:
            raise FilterStateError(f"{self.name}: cannot replace DIS after start")
        self.dis = dis

    def set_dos(self, dos: DetachableOutputStream) -> None:
        """Replace the filter's output stream (only before the filter starts)."""
        if self._started:
            raise FilterStateError(f"{self.name}: cannot replace DOS after start")
        self.dos = dos

    def get_id(self) -> str:
        """Paper-style accessor for the filter's identity."""
        return self.name

    @property
    def running(self) -> bool:
        """True while the filter is executing (own thread or engine)."""
        if self._thread is not None:
            return self._thread.is_alive()
        return self._cooperative and not self._finished.is_set()

    @property
    def finished(self) -> bool:
        """True once the filter has completed (EOF, stop, or error)."""
        return self._finished.is_set()

    @property
    def cooperative(self) -> bool:
        """True when the filter is driven by a cooperative engine's pump."""
        return self._cooperative

    @property
    def pending_output(self) -> bool:
        """True while emitted-but-undelivered output awaits a flush."""
        return bool(self._pending)

    @property
    def stop_requested(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stop_event.is_set()

    # -------------------------------------------------------------- lifecycle

    def start(self) -> "Filter":
        """Run the filter on a dedicated thread.  A filter starts only once.

        The thread loops :meth:`pump` and sleeps on the filter's readiness
        signals in between; an execution engine (see :mod:`repro.runtime`)
        may instead take ownership with :meth:`bind_engine` and pump the
        filter from a shared scheduler.
        """
        if self._started:
            raise FilterStateError(f"{self.name}: already started")
        self._started = True
        self.dis.subscribe(self._notify_engine)
        self.dos.subscribe(self._notify_engine)
        self._thread = threading.Thread(target=self._run, name=self.name,
                                        daemon=True)
        self._thread.start()
        return self

    def bind_engine(self, engine) -> "Filter":
        """Hand execution of this filter to a cooperative engine.

        The engine must call :meth:`pump` whenever the filter may be ready;
        the filter's streams are subscribed to the engine's per-element
        notification for exactly that.  Mutually exclusive with
        :meth:`start`.
        """
        if self._started:
            raise FilterStateError(f"{self.name}: already started")
        self._started = True
        self._cooperative = True
        self._engine = engine
        self.dis.subscribe(self._notify_engine)
        self.dos.subscribe(self._notify_engine)
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the filter to complete and wait for it.

        Stopping does *not* close the filter's streams (the ControlThread
        re-splices them); stopping a never-started filter is a no-op.
        """
        self._stop_event.set()
        self._resume.set()  # never leave a held filter stuck
        self._notify_engine()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        elif self._cooperative:
            self._finished.wait(timeout=timeout)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the filter to finish; True if it did."""
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            return not self._thread.is_alive()
        if self._cooperative:
            return self._finished.wait(timeout=timeout)
        return True

    def wait_finished(self, timeout: Optional[float] = None) -> bool:
        """Wait until the filter has completed."""
        return self._finished.wait(timeout=timeout)

    def abandon(self, error: BaseException) -> None:
        """Declare a wedged filter dead without waiting for its thread.

        The stall watchdog uses this when a filter holds queued input but
        makes no progress: the filter is marked errored and *finished* so
        the ControlThread's dead-filter splice applies, letting supervision
        route around it.  The worker thread (if any) is asked to stop but
        not joined — a transform blocked in C or a long sleep cannot be
        interrupted; once the chain is re-spliced around it, its next write
        hits a detached stream and the thread exits on its own.
        """
        if self.error is None:
            self.error = error
            self.stats.record_error()
        self._stop_event.set()
        self._resume.set()
        self._notify_engine()
        self._finished.set()
        self._notify_activity()

    # ------------------------------------------------------------ hold/quiesce

    def hold_at_boundary(self, predicate: Optional[BoundaryPredicate] = None,
                         timeout: Optional[float] = None) -> bool:
        """Pause this filter's *output* at the next stream boundary.

        The filter keeps processing until it is about to emit a unit for
        which ``predicate`` returns True (with no predicate, the very next
        unit), then parks that unit *before* emitting it until
        :meth:`release_hold` is called.  The downstream side therefore ends
        exactly at the boundary, and the unit that satisfied the predicate is
        the first thing delivered to whatever the stream is reconnected to.
        Returns True once the hold is in place, False on timeout.

        The ControlThread uses this for boundary-aware insertion (e.g. "only
        insert the video FEC filter so that it starts at an I frame").

        Units already handed to a batched delivery when the hold is armed
        still cross (up to one ``pump_budget`` of them), so predicates
        should match *recurring* boundaries — the next I frame, the next
        packet start — rather than one specific unit.  The composition protocol already
        tolerates this: a hold that never engages times out here and the
        caller proceeds with an unaligned splice.
        """
        with self._hold_lock:
            self._held.clear()
            self._resume.clear()
            self._boundary_predicate = predicate if predicate is not None else (
                lambda _unit: True)
        return self._held.wait(timeout=timeout)

    def release_hold(self) -> None:
        """Allow a held filter to continue emitting."""
        with self._hold_lock:
            self._boundary_predicate = None
        self._resume.set()
        self._notify_engine()

    @property
    def held(self) -> bool:
        """True while the filter is holding at a boundary."""
        return self._held.is_set() and not self._resume.is_set()

    def is_idle(self) -> bool:
        """True when the filter has no buffered or in-flight input/output."""
        return (self.dis.available() == 0 and not self._busy
                and not self._pending)

    def flush_state(self) -> None:
        """Emit any data the filter is holding internally (without closing).

        The ControlThread calls this when the filter is removed from a live
        chain so that buffered state — for example the partial FEC group an
        encoder is still filling — is pushed downstream rather than lost.
        The upstream side must already be paused and the filter quiescent.
        """
        units = self._normalize_outputs(self.finalize())
        if units:
            self.dos.write_many(units)
            self._record_emit_batch(units)

    def quiesce(self, timeout: float = 5.0, poll_interval: float = 0.005) -> bool:
        """Wait until every byte already delivered to the filter has been
        processed and emitted downstream.  Returns True on success.

        The ControlThread calls this (after pausing the upstream DOS) before
        removing the filter, so removal never drops in-flight data.
        """
        deadline = _monotonic() + timeout
        while _monotonic() < deadline:
            if self.is_idle() or self.finished:
                return True
            _sleep(poll_interval)
        return self.is_idle() or self.finished

    # ------------------------------------------------------------- transform

    def transform(self, chunk: bytes) -> TransformResult:
        """Transform one input chunk; the default filter is a passthrough."""
        return chunk

    def transform_chunks(self, chunks: List[bytes], outputs) -> None:
        """Transform one input batch, appending results onto ``outputs``.

        The batched equivalent of calling :meth:`transform` per chunk, and
        the hook a subclass overrides to *fuse* work across the batch (the
        FEC filters run one vectorised encode/decode over every packet in
        the pump budget instead of per-packet calls).  Implementations must
        bump ``self._batch_in_bytes`` / ``self._batch_in_chunks`` as each
        input chunk is consumed — the caller reads them in a ``finally`` so
        a transform failing mid-batch accounts only the chunks it actually
        saw, and the outputs appended so far are still delivered.
        """
        for chunk in chunks:
            self._batch_in_bytes += len(chunk)
            self._batch_in_chunks += 1
            result = self.transform(chunk)
            cls = result.__class__
            if cls is bytes or cls is memoryview or cls is bytearray:
                if len(result):  # dominant case: one chunk out, by reference
                    outputs.append(result)
            elif result is not None:
                outputs.extend(self._normalize_outputs(result))

    def finalize(self) -> TransformResult:
        """Produce trailing output when the input stream ends."""
        return None

    def on_start(self) -> None:
        """Hook invoked by the first pump step, before any input is read."""

    def on_stop(self) -> None:
        """Hook invoked once when the filter completes."""

    # ------------------------------------------------------ dedicated thread

    def _run(self) -> None:
        """The :meth:`start` thread: loop :meth:`pump`, sleeping on readiness.

        Between steps the thread waits on the wake event that every
        readiness notification sets; gated on a full downstream buffer, it
        waits on that buffer's room instead.  The wake event is cleared
        *before* readiness is checked, so a notification can never fall
        between the check and the wait.
        """
        wake = self._wake
        try:
            while not self._finished.is_set():
                wake.clear()
                verdict = self.readiness()
                if verdict == READY:
                    self.pump()
                elif verdict == FULL:
                    sink = self.dos.sink
                    if sink is not None:
                        sink.buffer.wait_for_room(_ROOM_WAIT_S)
                else:
                    due = self.next_due_s()
                    wake.wait(_IDLE_WAIT_S if due is None else
                              min(_IDLE_WAIT_S, max(due - _monotonic(), 0.0)))
        except Exception as exc:  # noqa: BLE001 - surfaced via self.error
            self.error = exc
            self.stats.record_error()
        finally:
            self._complete()

    # ------------------------------------------------------------------ pump

    def pump(self) -> bool:
        """Run one bounded execution step — the only way a filter runs.

        One step: flush any output parked by a boundary hold or a mid-splice
        detach, then drain up to a ``pump_budget`` of available input
        chunks, transform each and emit the combined results; at
        end-of-stream, finalize and complete.  A filter step never blocks —
        output is delivered with the non-blocking ``DOS.try_write_many`` and
        input is read only when the DIS reports bytes available — so any
        number of filters can be pumped from a single scheduler thread.
        (A source's step may block inside ``produce`` when it runs on its
        own thread.)  Returns True when the step made progress.

        Errors are recorded on :attr:`error` and counted in stats; outputs
        of the chunks before a failing one are still delivered, the output
        is closed (see :attr:`close_output_on_error`), and the filter
        completes.
        """
        if self._finished.is_set():
            return False
        try:
            if not self._on_start_done:
                self._on_start_done = True
                self.on_start()
            progress = self._flush_pending()
            if self._stop_event.is_set():
                # Stop wins over parked output: the chain around us is
                # being dismantled.
                self._complete()
                return True
            if self._pending:
                return progress  # parked at a boundary or across a splice
            return self._pump_input(progress)
        except (StreamClosedError, BrokenStreamError, NotConnectedError) as exc:
            self.error = exc
            self.stats.record_error()
            self._complete()
            return True
        except Exception as exc:  # noqa: BLE001 - surfaced via self.error
            self.error = exc
            self.stats.record_error()
            try:
                # Outputs queued by the chunks before the failing one must
                # still go downstream before the error closes the stream.
                self._flush_pending()
            except Exception:  # noqa: BLE001 - keep the original error
                pass
            self._close_output_after_error()
            self._complete()
            return True
        finally:
            self._notify_activity()

    def _pump_input(self, progress: bool) -> bool:
        """Consume one budget of input — the part of a pump step that differs
        between filters (read from the DIS) and sources (produce items).

        One step drains up to ``pump_budget`` queued chunks in a single
        buffer lock round-trip, transforms each, and flushes the combined
        output — so lock, wakeup and scheduler costs amortize across the
        batch instead of recurring per chunk.

        The byte budget is ``chunk_size * pump_budget``, but queued chunks
        are taken *whole*: transforms are size-agnostic, and re-fragmenting
        a large upstream chunk to the local chunk_size would cost a
        per-piece loop at every hop for nothing.
        """
        if self.dis.available() > 0:
            # Busy from before the read: a quiesce must never see the batch
            # neither queued in the DIS nor held by the filter.
            self._busy = True
            try:
                chunks = self.dis.read_chunks(
                    self.chunk_size * self.pump_budget, timeout=0)
                if chunks:
                    self._batch_in_bytes = self._batch_in_chunks = 0
                    try:
                        # Appending straight onto the pending deque means a
                        # transform failing mid-batch leaves the earlier
                        # chunks' outputs parked there, and pump()'s error
                        # handler flushes them downstream before closing.
                        self.transform_chunks(chunks, self._pending)
                    finally:
                        self.stats.record_input_batch(self._batch_in_bytes,
                                                      self._batch_in_chunks)
                        if self._batch_in_chunks >= self.pump_budget:
                            self.stats.record_budget_exhausted()
            finally:
                self._busy = False
            if chunks:
                self._flush_pending()
                return True
        if self.dis.at_eof():
            if not self._finalized:
                self._finalized = True
                self._pending.extend(self._normalize_outputs(self.finalize()))
            self._flush_pending()
            if not self._pending:
                self._end_stream()
            return True
        return progress

    def _end_stream(self) -> None:
        """Propagate end-of-stream (when configured) and complete.

        A DOS paused mid-splice defers the close: end-of-stream must reach
        the partner the splice reconnects, not the one it takes away, so
        the filter parks it until the reattach notification.
        """
        if self.propagate_eof and not self._stop_event.is_set():
            try:
                if not self.dos.try_close():
                    self._eof_parked = True
                    return
            except Exception:  # noqa: BLE001 - best effort, as _close_output
                pass
        self._complete()

    def _close_output_after_error(self) -> None:
        if self.propagate_eof and self.close_output_on_error:
            self._close_output()

    def _flush_pending(self) -> bool:
        """Deliver queued output without blocking; True if any unit moved.

        One all-or-nothing ``try_write_many`` moves every queued unit before
        the first one that satisfies an armed boundary predicate; the hold
        then parks at that unit, so the stream stops exactly at the
        boundary.  A DOS detached mid-splice takes nothing, and the queue is
        retried on the reattach notification.
        """
        pending = self._pending
        if not pending:
            return False
        with self._hold_lock:
            predicate = self._boundary_predicate
        count = len(pending)
        if predicate is not None and not self._resume.is_set():
            count = next((i for i, unit in enumerate(pending)
                          if self._unit_matches(predicate, unit)), count)
        if count:
            batch = list(islice(pending, count))
            if not self.dos.try_write_many(batch):
                return False
            if count == len(pending):
                pending.clear()
            else:
                for _ in range(count):
                    pending.popleft()
            if self._held.is_set():
                self._held.clear()
            self._record_emit_batch(batch)
        if pending:
            self._held.set()  # parked at the boundary unit
        return count > 0

    def _record_emit_batch(self, batch: List[bytes]) -> None:
        """Account for a batch delivered downstream.

        Sources override this to keep their per-unit bookkeeping (item
        counts, pacing deadlines) exact.
        """
        self.stats.record_output_batch(sum(map(len, batch)), len(batch))

    def wants_input_pump(self) -> bool:
        """True when a pump step would have input-side work to do.

        :meth:`readiness` combines this with the output-side gating
        (boundary holds, parked output, downstream high-water marks).
        """
        return self.dis.available() > 0 or self.dis.at_eof()

    def readiness(self) -> str:
        """Whether a pump step would make progress now, and if not, why.

        The one readiness decision every engine uses: the dedicated thread
        of :meth:`start` and both cooperative schedulers.  Returns
        :data:`READY` when a stop was requested (stop wins over parked
        output), when parked output or a parked end-of-stream can move
        (its DOS is connected), or when input is wanted and the downstream
        buffer has room; otherwise :data:`HELD`, :data:`DETACHED`,
        :data:`FULL` or :data:`IDLE`.
        """
        if self._stop_event.is_set():
            return READY
        if self.held:
            return HELD
        if self._pending or self._eof_parked:
            return READY if self.dos.connected else DETACHED
        if not self.wants_input_pump():
            return IDLE
        dos = self.dos
        sink = dos.sink
        if dos.connected and sink is not None:
            capacity = sink.buffer.capacity
            if capacity is not None and sink.available() >= capacity:
                return FULL
        # A detached DOS is no gate: one transform parks in _pending.
        return READY

    def next_due_s(self) -> Optional[float]:
        """Monotonic deadline of this element's next timed pump, if any.

        Purely event-driven elements return None; paced cooperative sources
        return the instant their next item is due so the scheduler can sleep
        exactly until then (its timer wheel).
        """
        return None

    def _complete(self) -> None:
        """Mark the filter as finished (idempotent)."""
        if self._finished.is_set():
            return
        try:
            if self._on_start_done:
                self.on_stop()
        finally:
            self._finished.set()
            self._notify_activity()

    def _notify_engine(self) -> None:
        """Signal that this filter's readiness may have changed."""
        engine = self._engine
        if engine is not None:
            engine.notify_element(self)
        else:
            self._wake.set()

    # ---------------------------------------------------------- activity hook

    def add_activity_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after each unit of work completes.

        Used by :meth:`repro.core.control_thread.ControlThread.wait_idle` to
        turn completion polling into a condition-variable wait.  Duplicate
        registrations are ignored (by equality, so bound methods dedupe).
        """
        if listener not in self._activity_listeners:
            self._activity_listeners.append(listener)

    def _notify_activity(self) -> None:
        if not self._activity_listeners:
            return
        for listener in list(self._activity_listeners):
            try:
                listener()
            except Exception:  # noqa: BLE001 - listeners must not kill the filter
                pass

    @staticmethod
    def _normalize_outputs(result: TransformResult) -> List[bytes]:
        """Flatten a transform result into a list of non-empty chunks.

        Bytes-like results (and items) pass through by reference — the
        zero-copy contract from :mod:`repro.streams.buffer` extends through
        the transform; anything else is materialised once here.
        """
        if result is None:
            return []
        if isinstance(result, (bytes, bytearray, memoryview)):
            outputs: List[bytes] = [result]
        else:
            outputs = [item if isinstance(item, (bytes, bytearray, memoryview))
                       else bytes(item) for item in result]
        return [data for data in outputs if len(data)]

    def _boundary_unit(self, unit: bytes) -> bytes:
        """The value handed to boundary predicates for ``unit``.

        Byte filters hand over the chunk itself; packet filters strip the
        framing so predicates see the application-level packet.
        """
        return unit

    def _unit_matches(self, predicate: BoundaryPredicate, unit: bytes) -> bool:
        if not isinstance(unit, bytes):
            # Predicates are written against real ``bytes`` (``startswith``
            # and friends); materialise views on this cold path only.
            unit = bytes(unit)
        try:
            return bool(predicate(self._boundary_unit(unit)))
        except Exception:  # noqa: BLE001 - a broken predicate must not kill the filter
            return True

    def _close_output(self) -> None:
        try:
            self.dos.close()
        except Exception:  # noqa: BLE001 - best effort during teardown
            pass

    def describe(self) -> dict:
        """A serialisable description of the filter (for the ControlManager)."""
        return {
            "name": self.name,
            "type": self.type_name,
            "running": self.running,
            "stats": self.stats.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} running={self.running}>"


class PacketFilter(Filter):
    """A filter that operates on framed packets rather than raw bytes.

    Each input batch is fed through a
    :class:`~repro.streams.framing.FrameDecoder`; every complete packet in
    it reaches one :meth:`transform_packets` call, and every packet returned
    is re-framed onto the output stream.  Subclasses override
    :meth:`transform_packet` to handle one packet at a time, or
    :meth:`transform_packets` to fuse work across the batch (the FEC
    filters run one vectorised encode/decode per pump budget).  Byte- and
    packet-oriented filters can be mixed freely in one chain.
    """

    type_name = "packet-filter"

    #: Result type for packet transforms: none, one, or many packets.
    PacketResult = Union[None, bytes, Iterable[bytes]]

    def __init__(self, name: Optional[str] = None, chunk_size: int = 65536,
                 propagate_eof: bool = True,
                 pump_budget: Optional[int] = None) -> None:
        super().__init__(name=name, chunk_size=chunk_size,
                         propagate_eof=propagate_eof, pump_budget=pump_budget)
        self._decoder = FrameDecoder()

    # -- packet-level hooks ----------------------------------------------------

    def transform_packet(self, packet: bytes) -> "PacketFilter.PacketResult":
        """Transform one packet; the default is a passthrough."""
        return packet

    def transform_packets(self, packets: List[bytes]) -> "PacketFilter.PacketResult":
        """Transform one batch of packets — the packet transform the pump calls.

        The default applies :meth:`transform_packet` to each packet and
        yields its outputs as they are produced, so when a packet fails
        mid-batch the outputs of the packets before it still reach the
        stream.  An override must be byte-equivalent to transforming the
        packets one at a time.
        """
        for packet in packets:
            result = self.transform_packet(packet)
            if isinstance(result, (bytes, bytearray, memoryview)):
                yield result
            elif result is not None:
                yield from result

    def finalize_packets(self) -> "PacketFilter.PacketResult":
        """Produce trailing packets at end-of-stream (e.g. flush FEC groups)."""
        return None

    # -- plumbing ---------------------------------------------------------------

    def transform(self, chunk: bytes) -> TransformResult:
        """Transform one chunk: :meth:`transform_chunks` with a batch of one."""
        outputs: List[bytes] = []
        self.transform_chunks([chunk], outputs)
        return outputs

    def transform_chunks(self, chunks: List[bytes], outputs) -> None:
        """Deframe the whole batch, then make one :meth:`transform_packets`
        call — so a pump budget of FEC packets hits the GF(256) backend as
        one 2D array.  Each output packet is framed onto ``outputs`` as it
        is produced.
        """
        packets: List[bytes] = []
        for chunk in chunks:
            self._batch_in_bytes += len(chunk)
            self._batch_in_chunks += 1
            packets.extend(self._decoder.feed(chunk))
        if packets:
            # Packets only: the pump already accounts the chunks.
            self.stats.record_input_batch(0, 0, packets=len(packets))
            self._frame_into(self.transform_packets(packets), outputs)

    def finalize(self) -> TransformResult:
        outputs: List[bytes] = []
        self._frame_into(self.finalize_packets(), outputs)
        return outputs

    def _frame_into(self, result: "PacketFilter.PacketResult", outputs) -> None:
        """Frame each packet of ``result`` onto ``outputs`` as it comes."""
        if result is None:
            return
        if isinstance(result, (bytes, bytearray, memoryview)):
            result = (result,)
        framed = 0
        try:
            for packet in result:
                outputs.append(encode_frame(packet))
                framed += 1
        finally:
            self.stats.record_output_batch(0, 0, packets=framed)

    def is_idle(self) -> bool:
        return (super().is_idle() and not self._decoder.has_partial_frame())

    def _boundary_unit(self, unit: bytes) -> bytes:
        """Strip the frame header so predicates see the packet payload."""
        from ..streams.framing import HEADER_SIZE

        return unit[HEADER_SIZE:] if len(unit) >= HEADER_SIZE else unit


class FilterContainer:
    """A named collection of filters, as uploaded into a proxy.

    Mirrors the paper's ``FilterContainer``: it "has methods to obtain the
    number of Filters available and an enumeration method to return a String
    enumeration of the Filter objects names".
    """

    def __init__(self, filters: Optional[Iterable[Filter]] = None,
                 name: str = "container") -> None:
        self.name = name
        self._filters: List[Filter] = list(filters or [])

    def add(self, filter_obj: Filter) -> None:
        self._filters.append(filter_obj)

    def count(self) -> int:
        """Number of filters in the container."""
        return len(self._filters)

    def names(self) -> List[str]:
        """The contained filters' names, in order."""
        return [f.name for f in self._filters]

    def get(self, index: int) -> Filter:
        return self._filters[index]

    def by_name(self, name: str) -> Filter:
        for filter_obj in self._filters:
            if filter_obj.name == name:
                return filter_obj
        raise KeyError(f"no filter named {name!r} in container {self.name!r}")

    def __iter__(self):
        return iter(self._filters)

    def __len__(self) -> int:
        return len(self._filters)
