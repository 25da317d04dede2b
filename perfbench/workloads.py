"""The four benchmark workloads, their seeded inputs and their checks.

Every workload builds its inputs from the workload seed before timing,
drives the program only through its public API (``Proxy``,
``ControlThread``, ``repro.filters``, ``repro.transport``,
``repro.cluster``), and verifies every delivered byte: a digest mismatch
raises :class:`CorrectnessError`, which fails the run without reporting a
number.  Each workload returns a :class:`RunResult`.

Timings are reported as medians and high percentiles; set-up is repeated
several times per run and its median reported, so that work moved into
set-up shows in ``setup_s``.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cluster import ProxyCluster, ShardRing, StreamSpec, digest, pattern_packets
from repro.core import (
    ControlThread,
    IterableSource,
    PacketFilter,
    Proxy,
    SinkEndPoint,
    sequence_multiple_boundary,
)
from repro.core.registry import FilterSpec
from repro.filters import FecDecoderFilter, FecEncoderFilter
from repro.filters.passthrough import PacketPassthroughFilter
from repro.media.packetizer import MediaPacket, TYPE_AUDIO, TYPE_VIDEO
from repro.transport.endpoints import TransportSink, TransportSource
from repro.transport.udp import encode_datagram

MIB = 1024 * 1024
FEC_K = 4
FEC_N = 6
AUDIO_PAYLOAD = 320           # 20 ms of the paper's 8 kHz 16-bit audio
VIDEO_PACKET = 8192           # whole media packet, header included
VIDEO_POOL = 64               # distinct payloads the video packets draw from

#: Packets per bulk round.  A round is one stream from set-up to EOF; runs
#: repeat rounds until their time is up, so each round re-measures set-up.
AUDIO_ROUND_PACKETS = 8192
VIDEO_ROUND_PACKETS = 2048

#: live_udp_splice: 8 streams, a 4-packet burst (one FEC group) per stream
#: every 80 ms, bursts of different streams spread evenly over the period.
LIVE_STREAMS = 8
LIVE_BURST = FEC_K
LIVE_PERIOD_S = 0.080
LIVE_SPLICE_EVERY_S = 0.250
LIVE_SETUPS = 21
LIVE_WINDOW = 1000

#: cluster_fec: 2 workers, 2 streams each, 1 KiB pattern packets.
CLUSTER_WORKERS = 2
CLUSTER_STREAMS_PER_WORKER = 2
CLUSTER_PACKET = 1024
CLUSTER_ROUND_PACKETS = 8192
CLUSTER_SETUPS = 5
CLUSTER_SPLICES_PER_ROUND = 3

SPLICE_FILTER = "bench-splice"

#: The engine each workload runs on (None: the default, threaded engine).
#: On a shared host with few cores, the threaded engine's cross-core GIL
#: hand-offs between a chain's pump threads turned every stall of the
#: other core into a run-to-run spread of a quarter to a third of the
#: median for ``fec_video_lossy`` and of a fifth for ``cluster_fec``; the
#: single-threaded event engine runs the same chains at about a tenth.
ENGINES: Dict[str, Optional[str]] = {
    "fec_audio_bulk": None,
    "fec_video_lossy": "event",
    "live_udp_splice": "asyncio",
    "cluster_fec": "event",
}


class CorrectnessError(RuntimeError):
    """Delivered bytes differ from the seeded inputs: the run is invalid."""


@dataclass
class RunResult:
    """What one workload run measured."""

    packets: int = 0                     # source packets delivered and verified
    payload_bytes: int = 0               # their bytes
    window_s: float = 0.0                # timed window (sum over rounds)
    cpu_s: float = 0.0                   # process CPU charged to the packets
    latencies_ms: List[float] = field(default_factory=list)
    splices_ms: List[float] = field(default_factory=list)
    setups_s: List[float] = field(default_factory=list)
    splices_attempted: int = 0
    splices_failed: int = 0
    peak_rss_mib: float = 0.0
    #: Per round of a bulk workload, or per window of live packets:
    #: throughput MiB/s, latency p50 and p99.
    rounds: List[tuple] = field(default_factory=list)
    #: Workload-specific facts the traced run reconciles against.
    facts: Dict[str, Any] = field(default_factory=dict)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib() -> float:
    """High-water RSS of this process plus the largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def settle() -> None:
    """Collect garbage, then freeze what survives.

    The survivors are the inputs and any set-up, so later collections in
    the timed window do not rescan the benchmark's own long-lived objects.
    """
    gc.collect()
    gc.freeze()


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# --------------------------------------------------------------------------
# Sinks and bench-local filters
# --------------------------------------------------------------------------


class HashingSink(SinkEndPoint):
    """Hashes delivered packets on the fly, like a hash-stream writer.

    The digest is :func:`repro.cluster.digest` computed incrementally
    (length prefix, then payload, per packet), so it compares directly with
    the digest of the seeded inputs.  Each batch is stamped with its
    arrival time for the latency metrics.
    """

    def __init__(self, name: str) -> None:
        """Create a sink with an empty digest."""
        super().__init__(name=name, expect_frames=True)
        self._hash = hashlib.sha256()
        self.delivered = 0
        self.delivered_bytes = 0
        self.marks: List[tuple] = []

    def consume(self, data: bytes) -> None:
        """Hash one packet."""
        self._take([data])

    def consume_many(self, items) -> None:
        """Hash a batch of packets."""
        self._take(items)
        self.items_consumed += len(items)

    def _take(self, items) -> None:
        update = self._hash.update
        size = 0
        for packet in items:
            length = len(packet)
            update(length.to_bytes(4, "big"))
            update(packet)
            size += length
        self.delivered += len(items)
        self.delivered_bytes += size
        self.marks.append((self.delivered, time.perf_counter()))

    def hexdigest(self) -> str:
        """The digest of everything delivered so far."""
        return self._hash.hexdigest()


class MarkingSource(IterableSource):
    """An iterable source that stamps the time each batch is drawn.

    ``reached`` fires once ``signal_at`` items are drawn.  Drawing past
    ``hold_at`` waits for ``release``, so a splice started at ``signal_at``
    always finishes before the stream can end: it cannot race end-of-stream.
    When the splice is quick, as it is in nearly every round, the source
    never waits.
    """

    def __init__(self, items: List[bytes], name: str, signal_at: int,
                 hold_at: int) -> None:
        """Serve ``items`` as framed packets."""
        super().__init__(items, name=name, frame_output=True)
        self.drawn = 0
        self.marks: List[tuple] = []
        self.reached = threading.Event()
        self.release = threading.Event()
        self._signal_at = signal_at
        self._hold_at = hold_at

    def _room(self, wanted: int) -> int:
        if self.drawn >= self._hold_at and not self.release.is_set():
            self.release.wait(timeout=60.0)
        if self.drawn < self._hold_at:
            wanted = min(wanted, self._hold_at - self.drawn)
        return wanted

    def _stamp(self, count: int) -> None:
        self.drawn += count
        self.marks.append((self.drawn, time.perf_counter()))
        if self.drawn >= self._signal_at:
            self.reached.set()

    def produce(self) -> Optional[bytes]:
        """Draw one item and stamp it."""
        self._room(1)
        item = super().produce()
        if item is not None:
            self._stamp(1)
        return item

    def produce_many(self, max_items: int) -> Optional[List[bytes]]:
        """Draw a slice of items and stamp it."""
        batch = super().produce_many(self._room(max_items))
        if batch:
            self._stamp(len(batch))
        return batch


class ErasureFilter(PacketFilter):
    """Drops planned FEC packets: ``n - k`` of ``n`` in a seeded half of groups.

    The plan maps a group's ordinal in the stream to the packet indices to
    drop, so every group keeps ``k`` packets and stays recoverable.
    """

    fused_packet_batch = True

    def __init__(self, plan: Dict[int, frozenset], name: str) -> None:
        """Drop ``plan[group][index]`` packets of the encoded stream."""
        super().__init__(name=name)
        self._plan = plan
        self._position = 0

    def transform_packet(self, packet: bytes) -> List[bytes]:
        """Keep or drop one packet."""
        return self.transform_packets([packet])

    def transform_packets(self, packets: List[bytes]) -> List[bytes]:
        """Keep the packets the plan does not drop."""
        kept = []
        position = self._position
        plan = self._plan
        for packet in packets:
            drop = plan.get(position // FEC_N)
            if drop is None or position % FEC_N not in drop:
                kept.append(packet)
            position += 1
        self._position = position
        return kept


class ByteFlipFilter(PacketFilter):
    """Flips one byte of one packet: the benchmark's own corruption check."""

    def __init__(self, at_packet: int, name: str) -> None:
        """Corrupt the ``at_packet``-th packet that passes through."""
        super().__init__(name=name)
        self._at = at_packet
        self._seen = 0

    def transform_packet(self, packet: bytes) -> bytes:
        """Pass the packet, with one byte flipped if it is the chosen one."""
        self._seen += 1
        if self._seen - 1 != self._at:
            return packet
        data = bytearray(packet)
        data[-1] ^= 0xFF
        return bytes(data)


class TaggedEncoder(FecEncoderFilter):
    """A FEC encoder that remembers the sequence number of its first packet.

    That packet is the boundary packet a boundary-aware insert waited for.
    """

    def __init__(self, name: str) -> None:
        """Create a (6, 4) encoder."""
        super().__init__(k=FEC_K, n=FEC_N, name=name)
        self.first_sequence: Optional[int] = None

    def transform_packets(self, packets: List[bytes]) -> List[bytes]:
        """Encode a batch, noting the first packet ever seen."""
        if self.first_sequence is None and packets:
            self.first_sequence = MediaPacket.unpack(packets[0]).sequence
        return super().transform_packets(packets)

    def transform_packet(self, packet: bytes) -> List[bytes]:
        """Encode one packet, noting it if it is the first."""
        if self.first_sequence is None:
            self.first_sequence = MediaPacket.unpack(packet).sequence
        return super().transform_packet(packet)


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def audio_packets(rng: random.Random, count: int) -> List[bytes]:
    """``count`` sequenced 332-byte audio packets with random PCM."""
    return [MediaPacket(sequence=i, timestamp_ms=20 * i,
                        payload=rng.randbytes(AUDIO_PAYLOAD),
                        media_type=TYPE_AUDIO).pack()
            for i in range(count)]


def video_packets(rng: random.Random, count: int) -> List[bytes]:
    """``count`` 8 KiB video packets whose payloads come from a seeded pool."""
    pool = [rng.randbytes(VIDEO_PACKET - 12) for _ in range(VIDEO_POOL)]
    return [MediaPacket(sequence=i, timestamp_ms=40 * i,
                        payload=pool[rng.randrange(VIDEO_POOL)],
                        media_type=TYPE_VIDEO).pack()
            for i in range(count)]


def erasure_plan(rng: random.Random, groups: int) -> Dict[int, frozenset]:
    """Drop ``n - k`` packets in a seeded half of the groups."""
    plan = {}
    for group in range(groups):
        if rng.random() < 0.5:
            plan[group] = frozenset(rng.sample(range(FEC_N), FEC_N - FEC_K))
    return plan


def planned_repairs(plan: Dict[int, frozenset]) -> int:
    """Count the groups the decoder must repair: those that lost a data packet."""
    return sum(1 for drop in plan.values() if min(drop) < FEC_K)


def _latencies_ms(source_marks: List[tuple], sink_marks: List[tuple]) -> List[float]:
    """Per packet: sink batch arrival minus source batch draw, in ms."""
    latencies = []
    source = iter(source_marks)
    drawn, drawn_at = next(source)
    done = 0
    for delivered, arrived_at in sink_marks:
        for index in range(done, delivered):
            while index >= drawn:
                drawn, drawn_at = next(source)
            latencies.append((arrived_at - drawn_at) * 1000.0)
        done = delivered
    return latencies


# --------------------------------------------------------------------------
# Bulk in-process workloads
# --------------------------------------------------------------------------


def _no_spans() -> int:
    return 0


def _bulk_rounds(packets: List[bytes], seconds: float, result: RunResult,
                 make_middle: Callable[[int], List[Any]],
                 after_round: Callable[[List[Any]], None],
                 corrupt: bool, spans_ns: Callable[[], int],
                 engine: Optional[str]) -> None:
    """Run closed-loop rounds of ``packets`` until ``seconds`` have passed.

    Between rounds, outside the timed window, the cyclic garbage collector
    runs.  A shut-down proxy's objects form reference cycles (about a
    thousand objects per round, holding the round's buffers), so without
    the collection each round's megabytes stay resident until a full
    collection happens to run: ``fec_video_lossy`` then grows past 1 GiB
    in 20 s and slows down as it grows.  With it, ``peak_rss_mib`` is the
    footprint of one round.
    """
    expected = digest(packets)
    settle()
    deadline = time.perf_counter() + seconds
    round_no = 0
    while round_no < 2 or time.perf_counter() < deadline:
        round_no += 1
        _bulk_round(round_no, packets, expected, result, make_middle,
                    after_round, corrupt, spans_ns, engine)
        gc.collect()
    result.facts["rounds"] = round_no


def _bulk_round(round_no: int, packets: List[bytes], expected: str,
                result: RunResult, make_middle: Callable[[int], List[Any]],
                after_round: Callable[[List[Any]], None], corrupt: bool,
                spans_ns: Callable[[], int], engine: Optional[str]) -> None:
    """Run one round of a bulk workload on ``engine`` (None: the default).

    Build a proxy and one stream ``MarkingSource -> middle -> HashingSink``
    (set-up), start it (timed window), splice a packet passthrough in and
    out once a quarter of the packets are drawn, and wait for EOF.  The
    sink digest must equal the inputs'.
    """
    t_setup = time.perf_counter()
    proxy = Proxy(name=f"bulk-{round_no}", engine=engine)
    try:
        source = MarkingSource(packets, name=f"src-{round_no}",
                               signal_at=len(packets) // 4,
                               hold_at=3 * len(packets) // 4)
        sink = HashingSink(f"sink-{round_no}")
        control = proxy.add_stream(source, sink, name=f"s{round_no}",
                                   auto_start=False)
        middle = make_middle(round_no)
        for element in middle:
            control.add(element)
        if corrupt:
            control.add(ByteFlipFilter(len(packets) // 3, name="flip"))
        t_start = time.perf_counter()
        result.setups_s.append(t_start - t_setup)
        cpu0 = _cpu_s()
        span0 = spans_ns()
        control.start()
        _splice_pair(control, source, result)
        if not control.wait_for_completion(timeout=120.0):
            raise CorrectnessError(f"round {round_no} never reached EOF")
        t_end = time.perf_counter()
        result.cpu_s += _cpu_s() - cpu0
        result.facts["window_span_ns"] = (
            result.facts.get("window_span_ns", 0) + spans_ns() - span0)
    finally:
        proxy.shutdown()
    result.window_s += t_end - t_start
    if sink.delivered != len(packets) or sink.hexdigest() != expected:
        raise CorrectnessError(
            f"round {round_no}: delivered {sink.delivered} of "
            f"{len(packets)} packets, digest "
            f"{'matches' if sink.hexdigest() == expected else 'differs'}")
    result.packets += len(packets)
    result.payload_bytes += sink.delivered_bytes
    latencies = _latencies_ms(source.marks, sink.marks)
    result.rounds.append((sink.delivered_bytes / MIB / (t_end - t_start),
                          statistics.median(latencies),
                          percentile(latencies, 99)))
    after_round(middle)


def _splice_pair(control: ControlThread, source: MarkingSource,
                 result: RunResult) -> None:
    """A quarter into the round, splice a passthrough in and out again.

    The insert and the remove are timed together as one splice: on a
    saturated stream an insert waits for one buffer to drain and a remove
    for two, and timing them apart would mix two distributions.
    """
    try:
        if not source.reached.wait(timeout=60.0):
            return
        result.facts["threads"] = threading.active_count()
        result.splices_attempted += 1
        t0 = time.perf_counter()
        try:
            control.add(PacketPassthroughFilter(name=SPLICE_FILTER))
            control.remove(SPLICE_FILTER)
        except Exception:  # noqa: BLE001 - a raising splice is a failed op
            result.splices_failed += 1
            return
        result.splices_ms.append((time.perf_counter() - t0) * 1000.0)
    finally:
        source.release.set()


def _fec_rounds(packets: List[bytes], seconds: float, corrupt: bool,
                spans_ns: Callable[[], int],
                plan: Optional[Dict[int, frozenset]] = None,
                engine: Optional[str] = None) -> RunResult:
    """Bulk rounds through FEC(6,4), with the erasure filter when planned.

    Every round's decoder must repair exactly the groups the plan erased
    a data packet from (none without a plan).
    """
    result = RunResult()
    repairs = planned_repairs(plan) if plan else 0

    def middle(round_no: int) -> List[Any]:
        chain = [FecEncoderFilter(k=FEC_K, n=FEC_N, name=f"enc-{round_no}")]
        if plan:
            chain.append(ErasureFilter(plan, name=f"erasure-{round_no}"))
        chain.append(FecDecoderFilter(name=f"dec-{round_no}"))
        return chain

    def after(chain: List[Any]) -> None:
        repaired = chain[-1].decoder_stats.groups_repaired
        if repaired != repairs:
            raise CorrectnessError(
                f"decoder repaired {repaired} groups, the erasure plan "
                f"needs {repairs}")

    _bulk_rounds(packets, seconds, result, middle, after, corrupt, spans_ns,
                 engine)
    result.facts["planned_repairs"] = repairs * result.facts["rounds"]
    result.peak_rss_mib = peak_rss_mib()
    return result


def run_fec_audio_bulk(seed: int, seconds: float, corrupt: bool = False,
                       spans_ns: Callable[[], int] = _no_spans) -> RunResult:
    """Run the closed loop of audio packets through FEC(6,4) encode and decode."""
    packets = audio_packets(random.Random(seed), AUDIO_ROUND_PACKETS)
    return _fec_rounds(packets, seconds, corrupt, spans_ns)


def run_fec_video_lossy(seed: int, seconds: float, corrupt: bool = False,
                        spans_ns: Callable[[], int] = _no_spans) -> RunResult:
    """Run the closed loop of 8 KiB video packets through lossy FEC(6,4)."""
    rng = random.Random(seed)
    packets = video_packets(rng, VIDEO_ROUND_PACKETS)
    plan = erasure_plan(rng, VIDEO_ROUND_PACKETS // FEC_K)
    return _fec_rounds(packets, seconds, corrupt, spans_ns, plan,
                       ENGINES["fec_video_lossy"])


# --------------------------------------------------------------------------
# live_udp_splice: open loop on real UDP loopback under asyncio
# --------------------------------------------------------------------------


class LiveSink(HashingSink):
    """Checks in-order byte equality per packet and stamps arrival times."""

    def __init__(self, name: str, expected: List[bytes]) -> None:
        """Expect exactly ``expected``, in order."""
        super().__init__(name=name)
        self._expected = expected
        self.mismatches = 0
        self.arrivals: List[float] = []

    def _take(self, items) -> None:
        now = time.perf_counter()
        expected = self._expected
        index = self.delivered
        for packet in items:
            if index >= len(expected) or packet != expected[index]:
                self.mismatches += 1
            self.arrivals.append(now)
            index += 1
        super()._take(items)


class _LiveRig:
    """One proxy with the 8 live streams: the part a set-up builds."""

    def __init__(self, expected: List[List[bytes]], corrupt: bool) -> None:
        self.proxy = Proxy(name="live", engine=ENGINES["live_udp_splice"],
                           transport="udp")
        self.sinks: List[LiveSink] = []
        self.fec_streams: List[ControlThread] = []
        self.inserted: List[Optional[TaggedEncoder]] = [None] * LIVE_STREAMS
        self.inserts: List[tuple] = []
        self.inbound = []
        self.channels = []
        self.receivers = []
        for i in range(LIVE_STREAMS):
            inbound = self.proxy.open_channel(f"in-{i}")
            rx_in = inbound.join("proxy")
            middle = self.proxy.open_channel(f"mid-{i}")
            rx_mid = middle.join("decoder")
            self.inbound.append((inbound, rx_in.address))
            self.channels.extend([inbound, middle])
            self.receivers.extend([rx_in, rx_mid])
            self.fec_streams.append(self.proxy.add_stream(
                TransportSource(rx_in, name=f"in-src-{i}"),
                TransportSink(middle, name=f"mid-sink-{i}"),
                name=f"fec-{i}"))
            sink = LiveSink(f"live-sink-{i}", expected[i])
            decode = self.proxy.add_stream(
                TransportSource(rx_mid, name=f"mid-src-{i}"), sink,
                name=f"dec-{i}", auto_start=False)
            decode.add(FecDecoderFilter(name=f"dec-{i}"))
            if corrupt and i == 0:
                decode.add(ByteFlipFilter(len(expected[i]) // 3, name="flip"))
            decode.start()
            self.sinks.append(sink)

    def end_streams(self) -> None:
        """Close the inbound channels: end-of-stream for every stream."""
        for channel, _address in self.inbound:
            channel.close()

    def splice(self, stream: int, result: RunResult) -> None:
        """Insert the FEC encoder at the next group boundary, or remove it."""
        control = self.fec_streams[stream]
        result.splices_attempted += 1
        t_call = time.perf_counter()
        try:
            encoder = self.inserted[stream]
            if encoder is None:
                encoder = TaggedEncoder(name=f"fec-enc-{stream}")
                control.add(encoder, position=0,
                            boundary=sequence_multiple_boundary(LIVE_BURST))
                self.inserted[stream] = encoder
                self.inserts.append((stream, encoder, t_call,
                                     time.perf_counter()))
            else:
                control.remove(encoder)
                result.splices_ms.append((time.perf_counter() - t_call) * 1000.0)
                self.inserted[stream] = None
        except Exception:  # noqa: BLE001 - a raising splice is a failed op
            result.splices_failed += 1

    def insert_times_ms(self, sent_at: List[List[float]]) -> List[float]:
        """Time each insert from the later of the call and the boundary send.

        The boundary packet is the one the insert waited for; the wait for
        the next group is a property of the traffic, not of the program.
        """
        times = []
        for stream, encoder, t_call, t_done in self.inserts:
            burst = encoder.first_sequence // LIVE_BURST
            times.append((t_done - max(t_call, sent_at[stream][burst])) * 1000.0)
        return times

    def close(self) -> None:
        self.end_streams()
        self.proxy.shutdown()


def run_live_udp_splice(seed: int, seconds: float, corrupt: bool = False,
                        spans_ns: Callable[[], int] = _no_spans) -> RunResult:
    """Run the open loop: 8 live UDP streams, FEC spliced every 250 ms."""
    rng = random.Random(seed)
    bursts = int(max(2.0, seconds - 1.0) / LIVE_PERIOD_S)
    expected = [audio_packets(rng, bursts * LIVE_BURST)
                for _ in range(LIVE_STREAMS)]
    wires = [[encode_datagram(p) for p in packets] for packets in expected]
    result = RunResult()

    receivers = 0
    for attempt in range(LIVE_SETUPS):
        # The previous rig's garbage is collected outside the timed set-up.
        gc.collect()
        t0 = time.perf_counter()
        rig = _LiveRig(expected, corrupt)
        result.setups_s.append(time.perf_counter() - t0)
        receivers += len(rig.receivers)
        if attempt < LIVE_SETUPS - 1:
            rig.close()

    sent_at = [[0.0] * bursts for _ in range(LIVE_STREAMS)]
    lags_ms: List[float] = []
    settle()
    splicer_done = threading.Event()
    gen_cpu = [0.0]
    gen_error: List[BaseException] = []
    phase = LIVE_PERIOD_S / LIVE_STREAMS
    t_first = time.perf_counter() + 0.05

    def scheduled(stream: int, burst: int) -> float:
        return t_first + burst * LIVE_PERIOD_S + stream * phase

    def generate() -> None:
        cpu0 = time.thread_time()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for burst in range(bursts):
                first = burst * LIVE_BURST
                for stream, (_channel, address) in enumerate(rig.inbound):
                    due = scheduled(stream, burst)
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    now = time.perf_counter()
                    lags_ms.append((now - due) * 1000.0)
                    sent_at[stream][burst] = now
                    for wire in wires[stream][first:first + LIVE_BURST]:
                        sock.sendto(wire, address)
            # Every encoder is out by now; leave one burst interval after
            # the last splice before ending the streams.
            splicer_done.wait(timeout=60.0)
            time.sleep(LIVE_PERIOD_S)
            rig.end_streams()
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            gen_error.append(exc)
        finally:
            sock.close()
            gen_cpu[0] = time.thread_time() - cpu0

    cpu0 = _cpu_s()
    span0 = spans_ns()
    generator = threading.Thread(target=generate, name="bench-generator")
    generator.start()
    # Splices stop a second before the last burst and the final removals
    # follow at once, so no splice can race end-of-stream.
    last_splice_at = scheduled(0, bursts - 1) - 4 * LIVE_SPLICE_EVERY_S
    splice_no = 0
    try:
        while True:
            due = t_first + (splice_no + 0.5) * LIVE_SPLICE_EVERY_S
            if due > last_splice_at:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            stream = splice_no % LIVE_STREAMS
            if splice_no == LIVE_STREAMS:
                result.facts["threads"] = threading.active_count()
            splice_no += 1
            rig.splice(stream, result)
        for stream in range(LIVE_STREAMS):
            if rig.inserted[stream] is not None:
                rig.splice(stream, result)
    finally:
        splicer_done.set()
        generator.join(timeout=120.0)
    if gen_error:
        raise gen_error[0]
    for control in rig.proxy.streams.values():
        control.wait_for_completion(timeout=30.0)
    t_end = time.perf_counter()
    result.cpu_s = _cpu_s() - cpu0 - gen_cpu[0]
    result.facts["window_span_ns"] = spans_ns() - span0
    rig.proxy.shutdown()

    per_stream = bursts * LIVE_BURST
    timeline = []
    for stream, sink in enumerate(rig.sinks):
        if (sink.mismatches or sink.delivered != per_stream
                or sink.hexdigest() != digest(expected[stream])):
            raise CorrectnessError(
                f"stream {stream}: {sink.delivered} of {per_stream} packets "
                f"delivered, {sink.mismatches} out of order or altered")
        for index, arrived in enumerate(sink.arrivals):
            due = scheduled(stream, index // LIVE_BURST)
            timeline.append((due, (arrived - due) * 1000.0))
        result.packets += sink.delivered
        result.payload_bytes += sink.delivered_bytes
    # Latency percentiles per window of LIVE_WINDOW packets in send order,
    # reported as the median over windows: a p99 needs ten samples beyond
    # it, and one stall in one window must not decide the run's figure.
    timeline.sort()
    latencies = [latency for _due, latency in timeline]
    result.latencies_ms = latencies
    for start in range(0, len(latencies) - LIVE_WINDOW + 1, LIVE_WINDOW):
        window = latencies[start:start + LIVE_WINDOW]
        result.rounds.append((result.payload_bytes / MIB / (t_end - t_first),
                              statistics.median(window),
                              percentile(window, 99)))
    result.window_s = t_end - t_first
    result.peak_rss_mib = peak_rss_mib()
    result.splices_ms.extend(rig.insert_times_ms(sent_at))
    encoders = [encoder for _stream, encoder, _t0, _t1 in rig.inserts]
    parity = sum(enc.encoder_stats.parity_packets_out for enc in encoders)
    result.facts.update({
        "gen_lag_ms": lags_ms,
        "send_errors": sum(channel.send_errors for channel in rig.channels),
        "framing_errors": sum(rx.framing_errors for rx in rig.receivers),
        "packets_received": sum(rx.packets_received for rx in rig.receivers),
        "datagrams_expected": 2 * result.packets + parity,
        # Every receiver of every set-up may read one end-of-stream marker.
        "receivers": receivers,
        "encoder_payloads": sum(enc.encoder_stats.payloads_in
                                for enc in encoders),
    })
    return result


# --------------------------------------------------------------------------
# cluster_fec: two worker processes, two streams each
# --------------------------------------------------------------------------


def _names_on_workers(tag: str, per_worker: int) -> List[List[str]]:
    """Stream names the shard ring places ``per_worker`` on each worker.

    Consistent hashing balances only on average; probing the names against
    the same ring the cluster places with makes the split exact (a 3/1
    split costs about a fifth of the throughput).
    """
    ring = ShardRing(range(CLUSTER_WORKERS))
    placed: List[List[str]] = [[] for _ in range(CLUSTER_WORKERS)]
    candidate = 0
    while any(len(names) < per_worker for names in placed):
        name = f"{tag}-{candidate}"
        candidate += 1
        owner = ring.worker_for(name)
        if len(placed[owner]) < per_worker:
            placed[owner].append(name)
    return placed


def run_cluster_fec(seed: int, seconds: float, corrupt: bool = False,
                    spans_ns: Callable[[], int] = _no_spans) -> RunResult:
    """Run two workers, each hosting two FEC(6,4) streams of 1 KiB packets.

    Each worker also hosts one idle control stream.  The splices go there,
    while the data streams keep the workers saturated: an unpaced data
    stream can end at any moment, and a splice racing its end-of-stream
    would measure the race, not the splice.
    """
    result = RunResult()
    filters = [FilterSpec("fec-encoder", {"k": FEC_K, "n": FEC_N}),
               FilterSpec("fec-decoder")]
    round_seed = random.Random(seed)
    settle()
    cpu0 = _cpu_s() + _children_cpu_s()
    per_setup_s = seconds / CLUSTER_SETUPS
    round_no = 0
    for setup in range(CLUSTER_SETUPS):
        gc.collect()
        t_setup = time.perf_counter()
        cluster = ProxyCluster(workers=CLUSTER_WORKERS,
                               engine=ENGINES["cluster_fec"],
                               name=f"bench-{setup}")
        cluster.start()
        result.setups_s.append(time.perf_counter() - t_setup)
        try:
            controls = [names[0] for names in _names_on_workers(f"ctl{setup}", 1)]
            cluster.open_streams([StreamSpec(
                name, {"kind": "transport", "channel": name, "member": "ctl"},
                sink={"kind": "null"}) for name in controls])
            deadline = time.perf_counter() + per_setup_s
            rounds_here = 0
            while rounds_here < 1 or time.perf_counter() < deadline:
                rounds_here += 1
                round_no += 1
                _cluster_round(cluster, controls, round_no,
                               round_seed.getrandbits(32), filters, result,
                               corrupt)
            for name in controls:
                _close_cluster_stream(cluster, name)
        finally:
            cluster.shutdown()
    result.cpu_s = _cpu_s() + _children_cpu_s() - cpu0
    result.peak_rss_mib = peak_rss_mib()
    result.facts["rounds"] = round_no
    result.facts["setups"] = CLUSTER_SETUPS
    return result


def _close_cluster_stream(cluster: ProxyCluster, name: str) -> None:
    worker = cluster.worker(cluster.stream_worker(name))
    worker.request("stop-stream", stream=name)
    worker.streams.pop(name, None)


def _cluster_round(cluster: ProxyCluster, controls: List[str], round_no: int,
                   seed: int, filters: List[FilterSpec], result: RunResult,
                   corrupt: bool) -> None:
    names = [name for per_worker in _names_on_workers(
        f"r{round_no}", CLUSTER_STREAMS_PER_WORKER) for name in per_worker]
    specs = []
    expected = {}
    for index, name in enumerate(names):
        stream_seed = seed + index
        spec = StreamSpec.from_pattern(name, stream_seed, CLUSTER_ROUND_PACKETS,
                                       CLUSTER_PACKET)
        for filter_spec in filters:
            spec = spec.with_filter(filter_spec)
        specs.append(spec)
        packets = pattern_packets(stream_seed, CLUSTER_ROUND_PACKETS, CLUSTER_PACKET)
        if corrupt and index == 0:
            flipped = bytearray(packets[len(packets) // 3])
            flipped[-1] ^= 0xFF
            packets[len(packets) // 3] = bytes(flipped)
        expected[name] = digest(packets)
    t_open = time.perf_counter()
    placement = cluster.open_streams(specs)
    counts = [list(placement.values()).count(w) for w in range(CLUSTER_WORKERS)]
    if counts != [CLUSTER_STREAMS_PER_WORKER] * CLUSTER_WORKERS:
        raise CorrectnessError(f"streams placed {counts} per worker")
    result.facts["threads"] = threading.active_count()
    # Splice a packet passthrough into and out of each worker's control
    # stream over RPC while the data streams saturate the workers: the
    # cross-process control path under load.
    splice = FilterSpec("packet-passthrough", name=SPLICE_FILTER).to_dict()
    for _cycle in range(CLUSTER_SPLICES_PER_ROUND):
        for name in controls:
            worker = cluster.worker(cluster.stream_worker(name))
            result.splices_attempted += 1
            t0 = time.perf_counter()
            try:
                worker.request("splice-insert", filter=splice, streams=[name])
                worker.request("splice-remove", name=SPLICE_FILTER,
                               streams=[name])
            except Exception:  # noqa: BLE001 - a raising splice is a failed op
                result.splices_failed += 1
                continue
            result.splices_ms.append((time.perf_counter() - t0) * 1000.0)
    latencies = []
    for name in names:
        if not cluster.wait_stream(name, timeout=120.0):
            raise CorrectnessError(f"stream {name} never reached EOF")
        latencies.append((time.perf_counter() - t_open) * 1000.0)
    t_end = time.perf_counter()
    for name in names:
        reply = cluster.stream_result(name)
        if (reply["items"] != CLUSTER_ROUND_PACKETS
                or reply["digest"] != expected[name]):
            raise CorrectnessError(
                f"stream {name}: {reply['items']} of {CLUSTER_ROUND_PACKETS} "
                f"packets, digest {'matches' if reply['digest'] == expected[name] else 'differs'}")
        _close_cluster_stream(cluster, name)
    round_bytes = CLUSTER_ROUND_PACKETS * CLUSTER_PACKET * len(names)
    result.window_s += t_end - t_open
    result.packets += CLUSTER_ROUND_PACKETS * len(names)
    result.payload_bytes += round_bytes
    result.latencies_ms.extend(latencies)
    result.rounds.append((round_bytes / MIB / (t_end - t_open),
                          statistics.median(latencies),
                          percentile(latencies, 99)))


WORKLOADS: Dict[str, Callable[..., RunResult]] = {
    "fec_audio_bulk": run_fec_audio_bulk,
    "fec_video_lossy": run_fec_video_lossy,
    "live_udp_splice": run_live_udp_splice,
    "cluster_fec": run_cluster_fec,
}


def end_to_end(result: RunResult) -> Dict[str, float]:
    """The end-to-end metrics of one run, by name.

    Bulk workloads report the median over rounds of each round's
    throughput and latency percentiles, and the live workload the median
    over windows of its latency percentiles, so one round or window
    disturbed by the rest of the machine does not move the run's figure.
    """
    if result.rounds:
        mib_s, p50s, p99s = zip(*result.rounds)
        throughput = statistics.median(mib_s)
        latency_p50 = statistics.median(p50s)
        latency_p99 = statistics.median(p99s)
    else:
        throughput = result.payload_bytes / MIB / result.window_s
        latency_p50 = statistics.median(result.latencies_ms)
        latency_p99 = percentile(result.latencies_ms, 99)
    return {
        "throughput_mib_s": throughput,
        "cpu_us_per_pkt": result.cpu_s * 1e6 / result.packets,
        "latency_p50_ms": latency_p50,
        "latency_p99_ms": latency_p99,
        "splice_p50_ms": statistics.median(result.splices_ms),
        "splice_p90_ms": percentile(result.splices_ms, 90),
        "setup_s": statistics.median(result.setups_s),
        "peak_rss_mib": result.peak_rss_mib,
    }
