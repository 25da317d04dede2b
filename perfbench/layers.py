"""Per-layer metrics and the span-coverage check of a traced run.

Times are normalised per source packet (``*_us_per_pkt``) or per call, so
they do not depend on run length.  ``*_us_per_pkt`` values are self time
on the thread CPU clock: a layer's CPU time minus that of the layers it
called.  ``*_ms`` percentiles are wall time of single calls.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from typing import Any, Dict, List

#: Layer metrics that are not in BENCHMARK.json's ``per_layer`` list
#: because some workload never reaches their layer (they would read a
#: constant zero there); the traced run still prints them.
TABLE_ONLY = (
    "core.pump.us_per_pkt",
    "core.boundary_wait.ms_p50",
    "transport.send_many.us_per_pkt",
    "transport.send_batch.us_per_call",
    "transport.recv_batch.us_per_call",
    "cluster.start_s",
    "cluster.open_streams_ms",
    "cluster.drain_s",
    "cluster.rpc.ms_p50",
    "cluster.stream_result_ms",
    "gen.lag_p99_ms",
    "bench.sink.us_per_pkt",
)

#: Layers every workload must reach; a traced run that records no span
#: for one of them has lost a patch point.
ALWAYS_REACHED = (
    "streams.encode_frame", "streams.frame_feed", "streams.buffer_write",
    "streams.buffer_read", "streams.dos_pause", "fec.encode", "fec.decode",
    "fec.packet_pack", "fec.packet_unpack", "fec.gf_apply",
    "filters.fec_encoder", "filters.fec_decoder", "filters.transform",
    "core.splice_add", "core.splice_remove", "core.add_stream",
)

REACHED_BY = {
    "fec_video_lossy": ("core.pump",),
    "live_udp_splice": ("core.pump", "core.boundary_wait",
                        "transport.send_many", "transport.send_batch",
                        "transport.recv_batch"),
    "cluster_fec": ("core.pump", "cluster.start", "cluster.open_streams", "cluster.rpc",
                    "cluster.stream_result"),
}


def read_worker_dumps(directory: str) -> List[dict]:
    """The span totals each traced cluster worker wrote at exit."""
    dumps = []
    for path in sorted(glob.glob(os.path.join(directory, "worker-*.json"))):
        with open(path, encoding="utf-8") as f:
            dumps.append(json.load(f))
        os.remove(path)
    os.rmdir(directory)
    return dumps


def _combined(tracer, workers: List[dict]) -> Dict[str, Dict[str, Any]]:
    from tracing import merge_totals

    return merge_totals([tracer.totals(), *[w["totals"] for w in workers]])


def _fec(tracer, workers: List[dict]) -> Dict[str, int]:
    from tracing import fec_stats

    stats = dict(fec_stats(tracer))
    for worker in workers:
        for key, value in worker["fec"].items():
            stats[key] += value
    return stats


def layer_metrics(workload: str, result, tracer,
                  workers: List[dict]) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    from workloads import end_to_end, percentile

    totals = _combined(tracer, workers)
    packets = result.packets
    empty = {"calls": 0, "self_ns": 0, "items": 0, "zero": 0, "walls": []}

    def get(name: str) -> Dict[str, Any]:
        return totals.get(name, empty)

    def us_per_pkt(name: str) -> float:
        return get(name)["self_ns"] / 1000.0 / packets

    def calls_per_pkt(name: str) -> float:
        return get(name)["calls"] / packets

    def per_call(name: str, field: str, scale: float = 1.0) -> float:
        entry = get(name)
        return entry[field] * scale / entry["calls"] if entry["calls"] else 0.0

    def wall_ms_p50(name: str) -> float:
        walls = get(name)["walls"]
        return statistics.median(walls) / 1e6 if walls else 0.0

    fec = _fec(tracer, workers)
    span_ns = sum(entry["self_ns"] for entry in totals.values())
    cpu_ns = result.cpu_s * 1e9
    if workload == "cluster_fec":
        span_ns_charged = span_ns
    else:
        span_ns_charged = result.facts.get("window_span_ns", span_ns)
    gen_lags = result.facts.get("gen_lag_ms")
    e2e = end_to_end(result)
    recv = get("transport.recv_batch")
    return {
        "streams.encode_frame.calls_per_pkt": calls_per_pkt("streams.encode_frame"),
        "streams.encode_frame.us_per_pkt": us_per_pkt("streams.encode_frame"),
        "streams.frame_feed.calls_per_pkt": calls_per_pkt("streams.frame_feed"),
        "streams.frame_feed.us_per_pkt": us_per_pkt("streams.frame_feed"),
        "streams.buffer_write.us_per_pkt": us_per_pkt("streams.buffer_write"),
        "streams.buffer_read.us_per_pkt": us_per_pkt("streams.buffer_read"),
        "streams.buffer.chunks_per_call": per_call("streams.buffer_read", "items"),
        "streams.dos_pause.ms_p50": wall_ms_p50("streams.dos_pause"),
        "fec.encode.us_per_pkt": us_per_pkt("fec.encode"),
        "fec.decode.us_per_pkt": us_per_pkt("fec.decode"),
        "fec.packet_pack.us_per_pkt": us_per_pkt("fec.packet_pack"),
        "fec.packet_unpack.us_per_pkt": us_per_pkt("fec.packet_unpack"),
        "fec.gf_apply.us_per_pkt": us_per_pkt("fec.gf_apply"),
        "fec.gf_apply.kib_per_call": per_call("fec.gf_apply", "items", 1 / 1024),
        "fec.groups_repaired_ratio": (fec["groups_repaired"] / fec["groups_decoded"]
                                      if fec["groups_decoded"] else 0.0),
        "filters.fec_encoder.pkts_per_call": per_call("filters.fec_encoder", "items"),
        "filters.fec_decoder.pkts_per_call": per_call("filters.fec_decoder", "items"),
        "filters.transform.us_per_pkt": us_per_pkt("filters.transform"),
        "core.pump.calls_per_pkt": calls_per_pkt("core.pump"),
        "core.pump.us_per_pkt": us_per_pkt("core.pump"),
        "core.splice_add.ms_p50": wall_ms_p50("core.splice_add"),
        "core.splice_remove.ms_p50": wall_ms_p50("core.splice_remove"),
        "core.boundary_wait.ms_p50": wall_ms_p50("core.boundary_wait"),
        "core.add_stream.ms": wall_ms_p50("core.add_stream"),
        "runtime.threads": float(result.facts.get("threads", 0)),
        "other.us_per_pkt": (cpu_ns - span_ns_charged) / 1000.0 / packets,
        "transport.send_many.calls_per_pkt": calls_per_pkt("transport.send_many"),
        "transport.send_many.us_per_pkt": us_per_pkt("transport.send_many"),
        "transport.send_batch.us_per_call": per_call("transport.send_batch",
                                                     "self_ns", 1e-3),
        "transport.recv_batch.calls_per_pkt": calls_per_pkt("transport.recv_batch"),
        "transport.recv_batch.us_per_call": per_call("transport.recv_batch",
                                                     "self_ns", 1e-3),
        "transport.empty_recv_ratio": (recv["zero"] / recv["calls"]
                                       if recv["calls"] else 0.0),
        "transport.send_errors": float(result.facts.get("send_errors", 0)),
        "transport.framing_errors": float(result.facts.get("framing_errors", 0)),
        "cluster.start_s": wall_ms_p50("cluster.start") / 1000.0,
        "cluster.open_streams_ms": wall_ms_p50("cluster.open_streams"),
        "cluster.drain_s": wall_ms_p50("cluster.drain") / 1000.0,
        "cluster.rpc.calls": float(get("cluster.rpc")["calls"]),
        "cluster.rpc.ms_p50": wall_ms_p50("cluster.rpc"),
        "cluster.stream_result_ms": wall_ms_p50("cluster.stream_result"),
        "gen.lag_p99_ms": percentile(gen_lags, 99) if gen_lags else 0.0,
        "bench.sink.us_per_pkt": us_per_pkt("bench.sink"),
        "trace.throughput_mib_s": e2e["throughput_mib_s"],
        "trace.cpu_us_per_pkt": e2e["cpu_us_per_pkt"],
    }


def check_coverage(workload: str, result, tracer, workers: List[dict]) -> None:
    """Reconcile span counts with counts the program and the inputs fix.

    Raises :class:`tracing.TraceCoverageError` naming the first mismatch.
    """
    from tracing import TraceCoverageError

    totals = _combined(tracer, workers)
    fec = _fec(tracer, workers)
    packets = result.packets

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def items(name: str) -> int:
        return totals.get(name, {}).get("items", 0)

    for name in ALWAYS_REACHED + REACHED_BY.get(workload, ()):
        if not calls(name):
            raise TraceCoverageError(f"no span recorded for {name}")
    if workload == "cluster_fec" and len(workers) != 2 * result.facts["setups"]:
        raise TraceCoverageError(
            f"{len(workers)} worker dumps for {result.facts['setups']} "
            "two-worker clusters")

    # The encoder spans cover every packet the encoders were given: all
    # source packets, except on the live streams, where the encoder is in
    # the chain half of the time and the encoders' own counter decides.
    encoded = items("filters.fec_encoder")
    expected = (result.facts["encoder_payloads"]
                if workload == "live_udp_splice" else packets)
    if encoded != expected or items("fec.encode") != expected:
        raise TraceCoverageError(
            f"encoder spans saw {encoded} packets "
            f"({items('fec.encode')} in the group coder), expected {expected}")
    if fec["payloads_in"] != expected:
        raise TraceCoverageError(
            f"traced encoders counted {fec['payloads_in']} payloads, "
            f"expected {expected}")

    # Every hop frames its output: the source, the encoder and the decoder
    # at least, so fewer calls mean a module calls an unpatched copy.
    if calls("streams.encode_frame") < 3 * packets:
        raise TraceCoverageError(
            f"{calls('streams.encode_frame')} encode_frame spans for "
            f"{packets} packets through at least 3 framing hops")

    if fec["groups_repaired"] != result.facts.get("planned_repairs", 0):
        raise TraceCoverageError(
            f"decoders repaired {fec['groups_repaired']} groups, the "
            f"erasure plan needs {result.facts.get('planned_repairs', 0)}")

    if workload == "live_udp_splice":
        received = result.facts["packets_received"]
        if received != result.facts["datagrams_expected"]:
            raise TraceCoverageError(
                f"receivers took {received} datagrams, the traffic and the "
                f"encoders account for {result.facts['datagrams_expected']}")
        # recv_batch also returns end-of-stream markers (one per receiver)
        # and datagrams that fail framing.
        slack = result.facts["receivers"] + result.facts["framing_errors"]
        got = items("transport.recv_batch")
        if not received <= got <= received + slack:
            raise TraceCoverageError(
                f"recv_batch spans returned {got} datagrams for {received} "
                f"received payloads")
