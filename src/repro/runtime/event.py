"""The event-driven engine — readiness-scheduled cooperative execution.

Thread-per-filter burns a thread and a 50 ms polling wakeup per chain
element; a proxy hosting hundreds of streams spends its time context
switching instead of filtering.  ``EventEngine`` multiplexes every
*cooperative* element (filters and in-process sinks) onto one scheduler
thread that pumps an element only when it is ready:

* its DIS has buffered bytes (signalled by the stream's subscriber hook —
  no polling), or has reached end-of-stream and the filter must finalize;
* it has parked output to flush (after a boundary hold is released or a
  splice reattaches its DOS);
* it has been asked to stop.

Elements that block on *external* input (socket and callback sources,
socket sinks — anything marked ``cooperative_capable = False``) still get a
dedicated thread, because a cooperative scheduler must never block.
Non-blocking sources (:class:`~repro.core.endpoints.IterableSource`) are
pumped cooperatively too, their pacing handled by the scheduler's timer
wheel — so an N-stream proxy of in-process sources runs on *one* thread
instead of N × chain-length workers.

Sockets join the same loop through a :mod:`selectors`-based idle wait: a
cooperative element that exposes ``selectable_fileno()`` (the transport
layer's UDP sources, :class:`~repro.transport.endpoints.TransportSource`)
is registered with the scheduler's selector, and when the scheduler would
otherwise sleep it waits in ``selector.select`` instead — a readable socket
drops its element straight into the dirty set.  A self-pipe wakes the
select when an in-process notification lands first, so neither signal
source can stall the other.  N UDP streams therefore cost N *file
descriptors*, not N reader threads.

Flow control is cooperative too: a pump step delivers output with the
non-blocking ``DOS.try_write``/``try_write_many`` (which may overshoot the
downstream buffer's capacity by one pump step's worth of output — up to a
``pump_budget`` of transformed chunks) and the scheduler simply stops
pumping an element while its downstream buffer sits at or above capacity —
the classic high-water-mark pattern, with no blocking and therefore no
scheduler deadlock.

The round itself — readiness, pump or park, retiring finished elements —
is the shared core in :mod:`repro.runtime.cooperative`; this module adds
only the wait: a condition variable, a ``selectors`` wait with a
self-pipe, and a timer heap.

Batch granularity carries end to end: one readiness wakeup drains up to a
``pump_budget`` of chunks through :meth:`Filter.transform_chunks` (which
fused packet filters turn into a single vectorised call), the chunks
themselves are bytes-like objects moved by reference (``memoryview`` splits
included — see :mod:`repro.streams.buffer`), and a transport sink flushes
the whole budget through one ``send_many``.  The scheduler's dirty-set and
wakeup costs therefore amortize over the batch at every hop.

The composition protocol is unchanged: pause/drain/reconnect splices, the
boundary-hold handshake and quiesce all work against the same Filter state
machine; the ControlThread cannot tell which engine is underneath.
"""

from __future__ import annotations

import heapq
import os
import selectors
import socket
import threading
import time
from typing import List, Optional

from .cooperative import DEFAULT_HEARTBEAT_S, CooperativeEngine


class EventEngine(CooperativeEngine):
    """Single-threaded cooperative scheduler for high-stream-count proxies."""

    name = "event"

    def __init__(self, heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        super().__init__(heartbeat_s)
        # Notifications arrive on any thread: the condition guards the
        # shared scheduler state and is what an idle scheduler sleeps on.
        self._cond = threading.Condition()
        self._guard = self._cond
        # Timer wheel for paced sources: a (due, seq, element) min-heap.
        # Entries are popped into the round once due, so N idle paced
        # streams cost one heap entry each, not one readiness check per
        # round.  Scheduler-thread-private.
        self._timers: List = []
        self._timer_seq = 0
        self._wake = False
        # Socket readiness: created lazily with the first selectable element
        # so purely in-process proxies never pay for a selector or the
        # self-pipe.  All guarded by self._cond.
        self._selector: Optional[selectors.BaseSelector] = None
        self._wakeup_send: Optional[socket.socket] = None
        self._wakeup_recv: Optional[socket.socket] = None
        self._selecting = False

    # ------------------------------------------------------------- lifecycle

    def _adopt(self, element) -> None:
        with self._cond:
            self._check_open()
            element.bind_engine(self)
            self._enroll(element)
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop, name=f"event-engine-{id(self):x}",
                    daemon=True)
                self._thread.start()
            self._wake_locked()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the scheduler thread and close the selector (idempotent)."""
        with self._cond:
            self._stopping = True
            self._wake_locked()
            scheduler = self._thread
        if scheduler is not None:
            scheduler.join(timeout=timeout)
        self._close_selector()

    def notify_element(self, element) -> None:
        """Wake the scheduler to re-evaluate one element (thread-safe)."""
        with self._cond:
            self._dirty.add(element)
            self._wake_locked()

    def _notify_recheck(self) -> None:
        with self._cond:
            self._wake_locked()

    def _wake_locked(self) -> None:
        """Wake the scheduler, in select() or on the condition (locked)."""
        self._wake = True
        if self._selecting and self._wakeup_send is not None:
            try:
                self._wakeup_send.send(b"\x00")
            except (BlockingIOError, OSError):
                pass  # pipe full means a wakeup is already pending
        self._cond.notify_all()

    # ----------------------------------------------------- timers and fds

    def _arm_timer(self, element, due: float) -> None:
        self._timer_seq += 1
        heapq.heappush(self._timers, (due, self._timer_seq, element))

    def _due_timers(self) -> List:
        due = []
        now = time.monotonic()
        while self._timers and self._timers[0][0] <= now:
            due.append(heapq.heappop(self._timers)[2])
            self._metric_timer_fires += 1
        return due

    def _ensure_fd_wait(self) -> None:
        if self._selector is not None:
            return
        self._selector = selectors.DefaultSelector()
        # Self-pipe: in-process notifications must be able to interrupt a
        # scheduler blocked in select().  data=None marks the wakeup end.
        self._wakeup_send, self._wakeup_recv = socket.socketpair()
        self._wakeup_send.setblocking(False)
        self._wakeup_recv.setblocking(False)
        self._selector.register(self._wakeup_recv, selectors.EVENT_READ, None)

    def _watch_fd(self, fd: int, element) -> bool:
        if self._selector is None:
            return False
        try:
            self._selector.register(fd, selectors.EVENT_READ, element)
        except (KeyError, ValueError, OSError):
            return False
        return True

    def _unwatch_fd(self, fd: int) -> None:
        if self._selector is not None:
            try:
                self._selector.unregister(fd)
            except (KeyError, ValueError, OSError):
                pass

    def _drain_wakeup(self) -> None:
        if self._wakeup_recv is None:
            return
        while True:
            try:
                if not self._wakeup_recv.recv(4096):
                    return
            except (BlockingIOError, OSError):
                return

    def _prune_dead_fds(self) -> None:
        """Unregister fds whose sockets were closed under us (EBADF guard)."""
        for element, fd in list(self._fds.items()):
            try:
                os.fstat(fd)
            except OSError:
                self._unregister_fd(element)
                self._dirty.add(element)  # let its pump observe the EOF

    def _close_selector(self) -> None:
        with self._cond:
            selector, self._selector = self._selector, None
            send, self._wakeup_send = self._wakeup_send, None
            recv, self._wakeup_recv = self._wakeup_recv, None
            self._fds.clear()
            self._suspended.clear()
        for resource in (selector, send, recv):
            if resource is not None:
                try:
                    resource.close()
                except OSError:  # pragma: no cover - best effort
                    pass

    # -------------------------------------------------------------- scheduler

    def _loop(self) -> None:
        while not self._stopping:
            progress = self._round()
            with self._cond:
                if self._stopping:
                    return
                sleep_s = 0.0
                if not progress and not self._wake:
                    sleep_s = self._sleep_s()
                if self._selector is None:
                    if sleep_s > 0.0:
                        woken = self._cond.wait(sleep_s)
                        if not woken and sleep_s >= self._heartbeat_s:
                            # A full heartbeat passed with no notification
                            # at all: rescan everything.  This turns any
                            # lost wakeup — a bug, or a listener raced with
                            # teardown — into a bounded hiccup instead of a
                            # stalled stream.  Timer-bounded sleeps
                            # (< heartbeat) wake for their deadline and
                            # skip this.
                            self._scan_all = True
                    self._wake = False
                    continue
                # Selectable sockets registered: the idle wait moves to the
                # selector so a readable socket is itself a wakeup.  The
                # _selecting flag closes the notify race — a notifier that
                # runs before it is set leaves _wake=True (observed above);
                # one that runs after it writes the self-pipe.
                self._selecting = sleep_s > 0.0
                selector = self._selector  # local ref: a shutdown whose
                # join() timed out may null the attribute concurrently
            if not self._selecting:
                with self._cond:
                    self._wake = False
                continue
            try:
                events = selector.select(sleep_s)
            except (OSError, ValueError):
                # EBADF from a socket closed under us, or the selector
                # itself closed by a timed-out shutdown.
                events = []
                with self._cond:
                    self._prune_dead_fds()
            with self._cond:
                self._selecting = False
                woken = bool(self._wake)
                for key, _mask in events:
                    woken = True
                    if key.data is None:
                        self._drain_wakeup()
                    else:
                        self._dirty.add(key.data)
                        self._metric_fd_wakeups += 1
                if not woken and sleep_s >= self._heartbeat_s:
                    self._scan_all = True  # lost-wakeup safety net, as above
                self._wake = False

    def _sleep_s(self) -> float:
        """Idle sleep budget: the heartbeat, cut to the next timer deadline."""
        if not self._timers:
            return self._heartbeat_s
        return min(self._heartbeat_s,
                   max(self._timers[0][0] - time.monotonic(), 0.0))
