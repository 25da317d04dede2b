"""The cooperative scheduler core shared by the event and asyncio engines.

A cooperative engine multiplexes every *cooperative* chain element onto
one scheduler thread and pumps an element only when
:meth:`~repro.core.filter.Filter.readiness` says a step would make
progress.  :class:`CooperativeEngine` holds everything about that which
does not depend on how the scheduler waits:

* a **dirty set** of notified elements — each round pumps only those, so
  a round costs O(notified), not O(elements);
* a **gated set** of elements waiting on *another* element's progress (a
  full downstream buffer, output parked across a splice), rechecked every
  round;
* **fd suspension**: an element parked for a reason its socket knows
  nothing about (boundary hold, gate) has its readable fd taken off the
  wait primitive, or every idle wait would return at once — a busy spin;
* retiring finished elements, the heartbeat scan flag, and the scheduler
  metrics.

A subclass supplies only the wait, timer and fd primitives: the selector
and self-pipe of :class:`~repro.runtime.event.EventEngine`, or the
``call_later`` timers and ``add_reader`` fds of
:class:`~repro.runtime.asyncio_engine.AsyncioEngine`.  Elements that
block on external I/O (``cooperative_capable = False``) get a dedicated
thread under either, because a cooperative scheduler must never block.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..core.filter import HELD, IDLE, READY
from ..obs.metrics import register_engine as _obs_register_engine
from .base import EngineError, ExecutionEngine

#: Fallback wakeup period for the scheduler.  Every state change that can
#: make an element ready fires a notification, so this is a lost-wakeup
#: safety net, not a polling interval.
DEFAULT_HEARTBEAT_S = 0.5


class CooperativeEngine(ExecutionEngine):
    """One scheduler pumping many elements on their readiness.

    A subclass sets ``_guard``, which protects the state notifier threads
    touch (the dirty set, the element list, the fd maps) — a real lock for
    an engine whose notifications arrive on arbitrary threads, a null
    context for one that marshals them onto its scheduler thread first —
    and ``_timers``, its container of armed timers.  The gated set and the
    metrics are scheduler-thread-private.
    """

    def __init__(self, heartbeat_s: float = DEFAULT_HEARTBEAT_S) -> None:
        if heartbeat_s <= 0:
            raise EngineError("heartbeat_s must be positive")
        self._heartbeat_s = heartbeat_s
        self._stopping = False
        self._thread = None              # the scheduler thread
        self._elements: List = []        # cooperatively pumped elements
        self._dirty: set = set()
        self._scan_all = False
        self._gated: set = set()
        self._fds: Dict = {}             # element -> its readable fd
        self._suspended: set = set()     # elements whose fd is unwatched
        # Scheduler metrics: plain ints written only by the scheduler
        # thread (GIL-atomic reads from the scrape-time collector may lag
        # an in-flight round, which dashboards tolerate by design).
        self._metric_rounds = 0
        self._metric_pumps = 0
        self._metric_timer_fires = 0
        self._metric_fd_wakeups = 0
        self._metric_scan_all_rounds = 0
        _obs_register_engine(self)

    # ----------------------------------------------------- engine primitives

    def _adopt(self, element) -> None:
        """Bind a cooperative element and hand it to the scheduler."""
        raise NotImplementedError

    def _notify_recheck(self) -> None:
        """Wake the scheduler to recheck its gated set only (thread-safe)."""
        raise NotImplementedError

    def _watch_fd(self, fd: int, element) -> bool:
        """Make a readable ``fd`` mark ``element`` dirty; True on success."""
        raise NotImplementedError

    def _unwatch_fd(self, fd: int) -> None:
        """Stop watching ``fd``."""
        raise NotImplementedError

    def _ensure_fd_wait(self) -> None:
        """Create the fd wait primitive before the first fd is watched."""

    def _arm_timer(self, element, due: float) -> None:
        """Mark ``element`` dirty at monotonic time ``due``."""
        raise NotImplementedError

    def _cancel_timer(self, element) -> None:
        """Drop a retired element's timer, if the primitive needs it."""

    def _due_timers(self) -> Iterable:
        """Elements whose timers have fired, for timers polled per round."""
        return ()

    # ------------------------------------------------------------- lifecycle

    def start_element(self, element) -> None:
        """Adopt ``element``: pump cooperatively, or thread it if it blocks."""
        if getattr(element, "cooperative_capable", True):
            self._adopt(element)
            return
        self._check_open()
        # Blocking-I/O elements keep their dedicated thread; subscribe
        # their DIS so a threaded sink draining its buffer re-wakes any
        # upstream cooperative element gated on the high-water mark.  A
        # recheck-wake suffices — gated elements are candidates every
        # round — so this stays O(gated), not a full rescan per chunk.
        element.dis.subscribe(self._notify_recheck)
        element.start()

    def _check_open(self) -> None:
        # Refuse before binding: a half-bound element could never be
        # started on another engine (bind marks it started).
        if self._stopping:
            raise EngineError(f"engine {self.name!r} has been shut down")

    def _enroll(self, element) -> None:
        """Start scheduling a freshly bound element (under the guard)."""
        self._elements.append(element)
        self._dirty.add(element)
        self._register_fd(element)

    # ------------------------------------------------------------ inspection

    @property
    def managed_count(self) -> int:
        """Number of elements currently pumped by the scheduler."""
        return len(self._elements)

    @property
    def scheduler_alive(self) -> bool:
        """Whether the scheduler thread is currently running."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def metrics_snapshot(self) -> dict:
        """Counters/gauges for the scrape-time engine collector."""
        with self._guard:
            gauges = {
                "dirty_depth": len(self._dirty),
                "gated_depth": len(self._gated),
                "managed_elements": len(self._elements),
                "pending_timers": len(self._timers),
            }
        return {
            "counters": {
                "scheduler_rounds": self._metric_rounds,
                "elements_pumped": self._metric_pumps,
                "timer_fires": self._metric_timer_fires,
                "selector_wakeups": self._metric_fd_wakeups,
                "scan_all_rounds": self._metric_scan_all_rounds,
            },
            "gauges": gauges,
        }

    # ------------------------------------------------------------ the round

    def _round(self) -> bool:
        """Pump every ready candidate once and park the rest.

        Candidates are the dirty and gated sets plus fired timers (every
        element after a heartbeat with no notification).  A pump that
        consumed input or delivered output re-marks the affected elements
        through the stream listeners, so follow-on work lands back in the
        dirty set by itself.  Returns True when any pump made progress.
        """
        self._metric_rounds += 1
        with self._guard:
            if self._scan_all:
                candidates = list(self._elements)
                self._scan_all = False
                self._metric_scan_all_rounds += 1
            else:
                candidates = list(self._dirty | self._gated)
            self._dirty.clear()
        candidates.extend(self._due_timers())
        progress = False
        finished = []
        for element in candidates:
            if element.finished:
                finished.append(element)
                continue
            try:
                verdict = element.readiness()
                if verdict == READY:
                    self._gated.discard(element)
                    self._resume_fd(element)
                    self._metric_pumps += 1
                    progress = element.pump() or progress
                else:
                    self._park(element, verdict)
            except Exception:  # noqa: BLE001 - a dying element (teardown
                pass           # races on its streams) must not kill the
                               # scheduler; pump reports via element.error
            if element.finished:
                finished.append(element)
        if finished:
            with self._guard:
                for element in finished:
                    self._retire(element)
        return progress

    def _park(self, element, verdict: str) -> None:
        """File a not-ready element wherever its wake-up will come from.

        Held and gated elements come off the fd wait; gated ones are also
        rechecked every round, since their wake-up is another element's
        progress.  An idle paced source goes on a timer; any other idle
        element is left alone — its own stream, hold or stop notification
        re-marks it.
        """
        if verdict == IDLE:
            due = element.next_due_s()
            if due is not None:
                self._arm_timer(element, due)
            return
        if verdict != HELD:
            self._gated.add(element)
        self._suspend_fd(element)

    def _retire(self, element) -> None:
        """Forget a finished element (under the guard)."""
        self._gated.discard(element)
        self._dirty.discard(element)
        self._cancel_timer(element)
        self._unregister_fd(element)
        try:
            self._elements.remove(element)
        except ValueError:
            pass

    # ------------------------------------------------------------ fd waits

    def _register_fd(self, element) -> None:
        """Watch a cooperative element's readable fd (under the guard).

        Only elements exposing ``selectable_fileno()`` (UDP transport
        sources) have one; everything else signals readiness through the
        stream/receiver subscription hooks.
        """
        accessor = getattr(element, "selectable_fileno", None)
        if not callable(accessor):
            return
        try:
            fd = accessor()
        except Exception:  # noqa: BLE001 - a dying element must not kill admit
            return
        if fd is None:
            return
        self._ensure_fd_wait()
        if self._watch_fd(fd, element):
            self._fds[element] = fd

    def _unregister_fd(self, element) -> None:
        """Drop a retired element's fd (under the guard)."""
        fd = self._fds.pop(element, None)
        suspended = element in self._suspended
        self._suspended.discard(element)
        if fd is not None and not suspended:
            self._unwatch_fd(fd)

    def _suspend_fd(self, element) -> None:
        """Take a parked element's fd off the wait until it is next pumped."""
        if element not in self._fds:
            return
        with self._guard:
            fd = self._fds.get(element)
            if fd is None or element in self._suspended:
                return
            self._unwatch_fd(fd)
            self._suspended.add(element)

    def _resume_fd(self, element) -> None:
        """Put a previously suspended element's fd back on the wait."""
        if element not in self._suspended:
            return
        with self._guard:
            if element not in self._suspended:
                return
            self._suspended.discard(element)
            fd = self._fds.get(element)
            if fd is not None:
                self._watch_fd(fd, element)
