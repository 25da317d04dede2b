"""The asyncio engine — cooperative execution on an ``asyncio`` event loop.

:class:`AsyncioEngine` is the third execution engine: like
:class:`~repro.runtime.event.EventEngine` it multiplexes every cooperative
chain element onto a single scheduler, but the scheduler is an ``asyncio``
event loop (run on one daemon thread owned by the engine) instead of a
hand-rolled ``selectors`` wait.  The pump step itself is unchanged —
:meth:`repro.core.filter.Filter.pump` is already engine-agnostic — so the
engine is an *event-loop adapter*:

* stream readiness (the ``subscribe()`` callbacks the detachable streams
  and transport receivers already fire) is bridged onto the loop with
  ``call_soon_threadsafe``, marking the element dirty and waking the
  scheduler coroutine's :class:`asyncio.Event`;
* paced non-blocking sources park on native ``loop.call_later`` timers
  instead of a private timer wheel;
* cooperative elements exposing ``selectable_fileno()`` (UDP transport
  sources) are registered with ``loop.add_reader``, so socket readiness is
  a loop callback rather than a ``select`` round of our own.

The round — readiness, pump or park, retiring finished elements — is the
shared core in :mod:`repro.runtime.cooperative`, the same code the event
engine runs.  Because the data plane runs the same pump step under the same
readiness decision, the asyncio engine is byte-identical to the other two
engines (pinned by ``tests/runtime/test_engine_equivalence.py`` and
``tests/transport/test_equivalence.py``).  That includes the zero-copy
batch path: each loop wakeup moves a ``pump_budget`` of bytes-like chunks
by reference through :meth:`Filter.transform_chunks`, so the per-wakeup
costs here amortize exactly as the event engine's do.

What the adapter buys is *composability with asyncio applications*: the
:mod:`repro.ingress` HTTP/WebSocket front door and the awaitable stream
helpers (:mod:`repro.streams.awaitable`) speak asyncio natively, so a
proxy serving real network clients can run its filters on the same
concurrency substrate as its protocol handlers.  Elements that perform
blocking external I/O (``cooperative_capable = False``) still get a
dedicated thread, exactly as under the event engine — an event loop must
never block.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from typing import Dict, Optional

from .cooperative import DEFAULT_HEARTBEAT_S, CooperativeEngine


class AsyncioEngine(CooperativeEngine):
    """Cooperative scheduler running chain elements on an asyncio loop.

    One engine instance owns one event loop on one daemon thread (started
    lazily with the first cooperative element).  All scheduling state — the
    dirty set, the gated set, timers, fd readers — is confined to the loop
    thread; the thread-safe entry points (:meth:`notify_element`,
    :meth:`shutdown`) marshal onto the loop with
    ``call_soon_threadsafe``.
    """

    name = "asyncio"

    def __init__(self, heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        super().__init__(heartbeat_s)
        # Scheduler state is loop-thread-private, so the core's guard is a
        # no-op; the dirty set is racily *read* from notifier threads as a
        # de-duplication hint only.
        self._guard = contextlib.nullcontext()
        # Guards lazy loop start-up and the stopping flag; never held while
        # waiting on the loop.
        self._lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        # Paced sources parked on native loop timers: element -> TimerHandle.
        self._timers: Dict = {}

    # ------------------------------------------------------------- lifecycle

    def _adopt(self, element) -> None:
        with self._lock:
            self._check_open()
            self._ensure_loop()
            element.bind_engine(self)
        self._call_soon(self._admit, element)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the scheduler loop and join its thread (idempotent)."""
        with self._lock:
            self._stopping = True
            thread = self._thread
        self._call_soon(self._wake_loop)
        if thread is not None:
            thread.join(timeout=timeout)

    def notify_element(self, element) -> None:
        """Wake the scheduler to re-evaluate one element (thread-safe).

        This is the bridge from the synchronous world onto the loop: the
        detachable streams' ``subscribe()`` callbacks land here (via
        ``Filter._notify_engine``) and are marshalled onto the loop thread
        with ``call_soon_threadsafe``.  A racy membership pre-check keeps
        an already-dirty element from scheduling a redundant callback.

        Notifications fired *on* the loop thread — listeners firing inside
        a pump's own stream reads/writes, which is most of them — mutate
        the dirty set directly instead.  This is not just cheaper: the
        threadsafe path writes the loop's self-pipe, and that syscall
        releases the GIL mid-listener, handing control to e.g. a splicing
        ControlThread in the middle of a pump step.  The direct path keeps
        the pump step GIL-atomic at exactly the points the event engine
        does.
        """
        if self._on_loop_thread():
            self._dirty.add(element)
            self._wake_loop()
            return
        if element in self._dirty:
            return  # already marked; the pending round will pump it
        self._call_soon(self._mark_dirty, element)

    def _notify_recheck(self) -> None:
        if self._on_loop_thread():
            self._wake_loop()
            return
        self._call_soon(self._wake_loop)

    # --------------------------------------------------------- loop plumbing

    def _ensure_loop(self) -> None:
        """Start the loop thread if needed (caller holds ``self._lock``)."""
        if self._thread is not None and self._thread.is_alive():
            return
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._thread_main, args=(ready,),
            name=f"asyncio-engine-{id(self):x}", daemon=True)
        self._thread.start()
        ready.wait()

    def _thread_main(self, ready: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        # Created before the loop runs; asyncio.Event binds to the running
        # loop lazily on first await (Python >= 3.10 semantics).
        self._wake = asyncio.Event()
        ready.set()
        try:
            loop.run_until_complete(self._scheduler())
        finally:
            try:
                loop.close()
            except Exception:  # noqa: BLE001 - best effort during teardown
                pass

    def _on_loop_thread(self) -> bool:
        """True when the caller is running on this engine's loop thread."""
        thread = self._thread
        return thread is not None and threading.get_ident() == thread.ident

    def _call_soon(self, fn, *args) -> None:
        """Schedule ``fn`` on the loop thread; a no-op when no loop exists."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass  # loop already closed by shutdown

    def _mark_dirty(self, element) -> None:
        self._dirty.add(element)
        self._wake_loop()

    def _wake_loop(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # ------------------------------------------------- loop-thread callbacks

    def _admit(self, element) -> None:
        """Take ownership of a freshly bound element (loop thread)."""
        if element not in self._elements:
            self._enroll(element)
            self._wake_loop()

    def _timer_fire(self, element) -> None:
        """A paced source's deadline arrived (loop thread)."""
        self._timers.pop(element, None)
        self._metric_timer_fires += 1
        self._mark_dirty(element)

    def _fd_ready(self, element) -> None:
        """A registered fd became readable (loop thread)."""
        self._metric_fd_wakeups += 1
        self._mark_dirty(element)

    def _arm_timer(self, element, due: float) -> None:
        if element not in self._timers:
            self._timers[element] = self._loop.call_later(
                max(0.0, due - time.monotonic()), self._timer_fire, element)

    def _cancel_timer(self, element) -> None:
        timer = self._timers.pop(element, None)
        if timer is not None:
            timer.cancel()

    def _watch_fd(self, fd: int, element) -> bool:
        try:
            self._loop.add_reader(fd, self._fd_ready, element)
        except (OSError, ValueError):
            return False
        return True

    def _unwatch_fd(self, fd: int) -> None:
        try:
            self._loop.remove_reader(fd)
        except (OSError, ValueError):
            pass

    # ------------------------------------------------------------ inspection

    @property
    def loop(self) -> Optional[asyncio.AbstractEventLoop]:
        """The engine's event loop (None until the first element starts).

        Exposed so asyncio applications (the ingress layer, tests) can
        schedule their own coroutines next to the pump scheduler.
        """
        return self._loop

    # -------------------------------------------------------------- scheduler

    async def _scheduler(self) -> None:
        """The scheduler coroutine: pump rounds between awaitable waits."""
        while not self._stopping:
            progress = self._round()
            if self._stopping:
                break
            if progress or self._dirty or self._scan_all:
                # More work is already queued: yield one loop iteration so
                # reader/timer callbacks and other tasks interleave, then
                # run the next round without arming the heartbeat wait.
                self._wake.clear()
                await asyncio.sleep(0)
                continue
            try:
                await asyncio.wait_for(self._wake.wait(), self._heartbeat_s)
            except asyncio.TimeoutError:
                # A full heartbeat passed with no notification at all:
                # rescan everything.  This turns any lost wakeup — a bug,
                # or a listener raced with teardown — into a bounded
                # hiccup instead of a stalled stream.
                self._scan_all = True
            self._wake.clear()
        self._teardown()

    def _teardown(self) -> None:
        """Release loop-held resources before the loop exits."""
        for element in list(self._timers):
            self._cancel_timer(element)
        for element in list(self._fds):
            self._unregister_fd(element)
        self._dirty.clear()
        self._gated.clear()
