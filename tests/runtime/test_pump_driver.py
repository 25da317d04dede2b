"""The one pump path: a dedicated thread drives Filter.pump() like an engine.

Pins rules of the thread driver that no equivalence suite reaches: a
blocking producer is never batched (what it produced goes downstream
before it blocks again), a filter on its own thread waits for room in a
full downstream buffer instead of growing it without bound, and an
end-of-stream reached mid-splice waits for the reconnected partner.
"""

import sys
import threading
import time

import pytest

from repro.core import (
    CallableSource,
    CollectorSink,
    ControlThread,
    Filter,
    IterableSource,
)
from repro.core.filter import DETACHED
from repro.filters import PassthroughFilter
from repro.runtime import get_engine
from repro.streams import DetachableInputStream, DetachableOutputStream

ENGINES = ["threaded", "event", "asyncio"]


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


@pytest.mark.parametrize("engine_name", ENGINES)
def test_blocking_producer_delivers_before_it_blocks(engine_name):
    """A callable source that blocks after its first item must hand that
    item to the sink before the callback is released."""
    release = threading.Event()
    calls = []

    def produce():
        calls.append(None)
        if len(calls) == 1:
            return b"first"
        release.wait(timeout=10.0)
        return None

    engine = get_engine(engine_name)
    sink = CollectorSink()
    control = ControlThread(CallableSource(produce), sink, engine=engine)
    try:
        assert _wait_until(lambda: sink.data() == b"first")
        assert not release.is_set()
        assert len(calls) == 2  # the second call is the one blocking
    finally:
        release.set()
    assert control.wait_for_completion(timeout=10.0)
    assert sink.data() == b"first"
    control.shutdown()
    engine.shutdown()


class _CountingFilter(Filter):
    """A passthrough filter that counts its readiness checks."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.checks = 0

    def readiness(self):
        self.checks += 1
        return super().readiness()


def test_threaded_filter_waits_for_room_in_a_full_downstream():
    """Output overshoots a full downstream DIS by at most one pump step;
    the filter then sleeps (no spinning) and resumes, bytes intact, once
    the reader drains."""
    chunk, budget, capacity = 100, 4, 1000
    step = chunk * budget  # the most one pump step can emit
    filter_obj = _CountingFilter(chunk_size=chunk, pump_budget=budget)
    upstream = DetachableOutputStream("up")
    upstream.connect(filter_obj.dis)
    downstream = DetachableInputStream("down", capacity=capacity)
    filter_obj.dos.connect(downstream)
    filter_obj.start()

    payload = bytes(range(256)) * 40  # 10240 bytes, 102.4 chunks
    chunks = [payload[i:i + chunk] for i in range(0, len(payload), chunk)]
    upstream.write_many(chunks)

    assert _wait_until(lambda: downstream.available() >= capacity)
    time.sleep(0.2)  # give an unbounded writer the chance to run away
    assert capacity <= downstream.available() < capacity + step
    assert filter_obj.dis.available() > 0  # input left, but gated

    # Gated, the thread sleeps on the buffer's room: a handful of
    # readiness checks per 0.3 s, not thousands.
    checks_before = filter_obj.checks
    time.sleep(0.3)
    assert filter_obj.checks - checks_before < 50
    assert downstream.available() < capacity + step

    received = bytearray()
    peak = 0
    upstream.close()
    while True:
        peak = max(peak, downstream.available())
        data = downstream.read(chunk, timeout=5.0)
        if not data:
            break
        received += data
    assert bytes(received) == payload
    assert peak < capacity + step
    assert filter_obj.join(timeout=5.0)
    assert filter_obj.error is None


def test_end_of_stream_during_a_splice_reaches_the_new_partner():
    """A source exhausted while its DOS is paused must close the stream on
    the partner the splice reconnects — not on the one it took away."""
    gate = threading.Event()
    items = [b"a", b"b"]

    def produce():
        if items:
            return items.pop(0)
        gate.wait(timeout=10.0)
        return None

    source = CallableSource(produce)
    first = DetachableInputStream("first")
    second = DetachableInputStream("second")
    source.dos.connect(first)
    source.start()
    assert _wait_until(lambda: first.available() == 2)
    assert first.read(10) == b"ab"
    source.dos.pause(drain_timeout=5.0)
    gate.set()  # the source reaches end-of-stream mid-splice
    assert _wait_until(lambda: source.readiness() == DETACHED)
    assert not source.finished and not source.dos.closed
    source.dos.reconnect(second)
    assert source.join(timeout=5.0)
    assert second.read(10, timeout=5.0) == b""
    assert second.at_eof()
    assert not first.at_eof()


def test_threaded_chain_under_a_short_switch_interval():
    """One thread per element, handing the interpreter lock over every few
    microseconds, while filters are spliced in and out: every byte arrives
    once and in order."""
    chunks = [b"%05d;" % i for i in range(4000)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sink = CollectorSink()
        control = ControlThread(IterableSource(list(chunks), pacing_s=0.0002),
                                sink, auto_start=False, engine="threaded")
        for name in ("a", "b", "c"):
            control.add(PassthroughFilter(name=name))
        control.start()
        for round_no in range(5):
            control.add(PassthroughFilter(name=f"x{round_no}"), position=1)
            control.remove(f"x{round_no}")
        assert control.wait_for_completion(timeout=30.0)
        control.shutdown()
    finally:
        sys.setswitchinterval(previous)
    assert sink.data() == b"".join(chunks)
