"""The thread-per-filter engine — the paper's original execution model.

Every chain element gets its own thread (``Filter.start``).  The thread
runs the same pump step the cooperative engines call, in a loop: when the
element is not ready it sleeps on the element's wake event, which every
readiness notification sets, or — gated on a full downstream buffer — on
that buffer's room.  Fully preemptive, it remains the default: for a
handful of streams its per-element isolation beats a shared scheduler.
"""

from __future__ import annotations

from ..obs.metrics import register_engine as _obs_register_engine
from .base import ExecutionEngine


class ThreadedEngine(ExecutionEngine):
    """One dedicated worker thread per chain element."""

    name = "threaded"

    def __init__(self) -> None:
        #: Element threads launched over this engine's lifetime (plain int,
        #: written only under the callers' composition locks).
        self.elements_started = 0
        _obs_register_engine(self)

    def start_element(self, element) -> None:
        """Launch ``element``'s dedicated thread."""
        element.start()
        self.elements_started += 1

    def metrics_snapshot(self) -> dict:
        """Counters/gauges for the scrape-time engine collector."""
        return {
            "counters": {"elements_started": self.elements_started},
            "gauges": {},
        }
