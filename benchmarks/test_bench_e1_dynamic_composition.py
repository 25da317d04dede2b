"""E1 — dynamic composition on a running stream (Figure 4's central claim).

The paper's mechanism promises that filters can be inserted, deleted and
reordered on a *running* data stream without losing, duplicating or
reordering data and without disturbing the stream's endpoints.  This
benchmark measures:

* the latency of an insert and of a remove performed on a live stream
  (pause -> drain -> reconnect -> resume), and
* data integrity across a schedule of repeated reconfigurations, comparing
  the paper's pause-then-splice protocol with a deliberately naive splice
  (detach without draining) to show why ``pause()`` exists.
"""

from __future__ import annotations

import threading
import time


from repro.core import CollectorSink, ControlThread, IterableSource
from repro.filters import PassthroughFilter, UppercaseFilter
from repro.streams import DetachableInputStream, DetachableOutputStream

from benchutil import format_row, write_table

CHUNK_COUNT = 3000
CHUNKS = [f"chunk-{i:05d};".encode() for i in range(CHUNK_COUNT)]


def build_live_stream(pacing_s=0.0005):
    source = IterableSource(list(CHUNKS), pacing_s=pacing_s)
    sink = CollectorSink()
    control = ControlThread(source, sink, name="e1", auto_start=True)
    return control, sink


def test_e1_insert_remove_latency(benchmark):
    """Time one insert+remove cycle on a live stream."""
    control, sink = build_live_stream(pacing_s=0.0005)
    time.sleep(0.05)
    counter = {"i": 0}

    def insert_and_remove():
        name = f"pt-{counter['i']}"
        counter["i"] += 1
        control.add(PassthroughFilter(name=name), position=0)
        control.remove(name)

    benchmark.pedantic(insert_and_remove, rounds=20, iterations=1)
    assert control.wait_for_completion(timeout=60.0)
    data = sink.data()
    control.shutdown()
    assert data == b"".join(CHUNKS)


def test_e1_integrity_under_reconfiguration_schedule(benchmark):
    """Repeatedly insert/remove/reorder while data flows; nothing may be lost."""

    def run_schedule():
        # The stream must outlive the 1-s schedule: pacing is an absolute
        # schedule, so 3000 chunks at 0.5 ms take at least 1.5 s.  (A splice
        # racing the stream's natural end fails by design — there is no
        # stream left to splice into.)
        control, sink = build_live_stream(pacing_s=0.0005)
        operations = 0
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline and control.source.running:
            control.add(UppercaseFilter(name="u"), position=0)
            control.add(PassthroughFilter(name="p"))
            control.reorder(["p", "u"])
            control.remove("u")
            control.remove("p")
            operations += 5
        control.wait_for_completion(timeout=60.0)
        data = sink.data()
        control.shutdown()
        return operations, data

    operations, data = benchmark.pedantic(run_schedule, rounds=1, iterations=1)
    expected = b"".join(CHUNKS)
    lines = [
        "E1: dynamic composition integrity",
        f"reconfiguration operations while streaming: {operations}",
        f"bytes expected: {len(expected)}   bytes delivered: {len(data)}",
        f"content intact (case-insensitive): {data.lower() == expected.lower()}",
    ]
    write_table("e1_dynamic_composition", lines)
    assert len(data) == len(expected)
    assert data.lower() == expected.lower()
    assert operations >= 5


def test_e1_pause_splice_vs_naive_splice(benchmark):
    """Ablation: the drain-before-reconnect protocol vs a naive splice.

    A naive splice (detach the DOS while data is still buffered downstream,
    then reconnect through a new filter) strands whatever bytes were in
    flight.  The paper's pause() protocol waits for the buffer to drain and
    therefore never loses a byte.
    """

    def run(protocol: str) -> int:
        """Return the number of bytes lost by a mid-stream splice."""
        dos = DetachableOutputStream("src")
        dis = DetachableInputStream("dst", capacity=None)
        dos.connect(dis)
        total = 200
        consumed = bytearray()
        for i in range(total // 2):
            dos.write(f"{i:06d};".encode())
        # A slow reader drains in the background.
        stop = threading.Event()

        def reader():
            # A deliberately slow consumer: the splice always happens while
            # bytes are still buffered downstream.
            while not stop.is_set() or dis.available():
                data = dis.read(64) if dis.available() else b""
                if data:
                    consumed.extend(data)
                time.sleep(0.002)

        thread = threading.Thread(target=reader)
        thread.start()
        if protocol == "pause":
            dos.pause(drain_timeout=10.0)     # waits for the reader to drain
            dos.reconnect(dis)
        else:
            dos.detach()                      # naive: drop the link immediately
            dis.buffer.clear()                # in-flight bytes are stranded/lost
            dos.reconnect(dis)
        for i in range(total // 2, total):
            dos.write(f"{i:06d};".encode())
        time.sleep(0.05)
        stop.set()
        thread.join(timeout=5.0)
        expected = total * 7
        return expected - len(consumed)

    lost_pause = run("pause")
    lost_naive = run("naive")
    benchmark.pedantic(lambda: run("pause"), rounds=3, iterations=1)
    lines = [
        "E1 ablation: pause-then-splice vs naive splice (200 x 7-byte records)",
        format_row(["protocol", "bytes lost"], [20, 12]),
        format_row(["pause (paper)", lost_pause], [20, 12]),
        format_row(["naive detach", lost_naive], [20, 12]),
    ]
    write_table("e1_pause_vs_naive", lines)
    assert lost_pause == 0
    assert lost_naive > 0
