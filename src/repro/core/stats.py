"""Per-filter and per-chain statistics.

Every filter counts the data it moves; the ControlThread aggregates those
counters into a chain-level snapshot that the ControlManager displays and
the benchmarks assert on (e.g. "no bytes were lost across a splice").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass
class FilterStats:
    """Counters maintained by every filter.

    Increments are plain-int ``+=`` on instance attributes: under the GIL
    each one is effectively atomic, and every counter is monotonic and
    written by the single thread that drives the filter, so the hot data
    path pays no lock round-trip per chunk.  ``snapshot`` reads may lag an
    in-flight increment by one chunk, which the consumers (the control
    plane's status displays and post-quiescence assertions) tolerate by
    design.

    ``budget_exhausted`` counts pump steps whose batched read returned a
    full ``pump_budget`` of chunks — the element had more input waiting
    than one step could move, the per-element backlog signal the metrics
    exporter surfaces.
    """

    chunks_in: int = 0
    chunks_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    packets_in: int = 0
    packets_out: int = 0
    errors: int = 0
    budget_exhausted: int = 0

    def record_input(self, nbytes: int, packets: int = 0) -> None:
        self.record_input_batch(nbytes, 1, packets)

    def record_input_batch(self, nbytes: int, chunks: int, packets: int = 0) -> None:
        """Account a whole input batch with one call (per-batch, not per-chunk)."""
        self.chunks_in += chunks
        self.bytes_in += nbytes
        self.packets_in += packets

    def record_output(self, nbytes: int, packets: int = 0) -> None:
        self.record_output_batch(nbytes, 1, packets)

    def record_output_batch(self, nbytes: int, chunks: int, packets: int = 0) -> None:
        """Account a whole output batch with one call (per-batch, not per-chunk)."""
        self.chunks_out += chunks
        self.bytes_out += nbytes
        self.packets_out += packets

    def record_error(self) -> None:
        self.errors += 1

    def record_budget_exhausted(self) -> None:
        self.budget_exhausted += 1

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of the counters (safe to serialise)."""
        return {
            "chunks_in": self.chunks_in,
            "chunks_out": self.chunks_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "packets_in": self.packets_in,
            "packets_out": self.packets_out,
            "errors": self.errors,
            "budget_exhausted": self.budget_exhausted,
        }


#: The fields a serialised ChainSnapshot must carry (see ``from_dict``).
_SNAPSHOT_FIELDS = (
    "stream_name",
    "filter_names",
    "filter_types",
    "filter_stats",
    "source_stats",
    "sink_stats",
    "running",
)


@dataclass
class ChainSnapshot:
    """A point-in-time view of a proxy stream's configuration and counters."""

    stream_name: str
    filter_names: List[str]
    filter_types: List[str]
    filter_stats: List[Dict[str, int]]
    source_stats: Dict[str, int]
    sink_stats: Dict[str, int]
    running: bool

    def to_dict(self) -> Dict[str, object]:
        """Serialise for the control protocol."""
        return {
            "stream_name": self.stream_name,
            "filter_names": list(self.filter_names),
            "filter_types": list(self.filter_types),
            "filter_stats": [dict(s) for s in self.filter_stats],
            "source_stats": dict(self.source_stats),
            "sink_stats": dict(self.sink_stats),
            "running": self.running,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ChainSnapshot":
        """Deserialise a :meth:`to_dict` payload — losslessly.

        A payload missing any snapshot field raises :class:`ValueError`
        naming the missing fields, so a truncated or mis-versioned control
        message fails loudly instead of silently reading as an empty,
        stopped stream.  ``from_dict(to_dict(s)) == s`` for every snapshot.
        """
        missing = [name for name in _SNAPSHOT_FIELDS if name not in payload]
        if missing:
            raise ValueError(
                f"chain snapshot payload is missing fields: {', '.join(missing)}"
            )
        return cls(
            stream_name=str(payload["stream_name"]),
            filter_names=[str(v) for v in payload["filter_names"]],
            filter_types=[str(v) for v in payload["filter_types"]],
            filter_stats=[
                {str(k): int(v) for k, v in stats.items()}
                for stats in payload["filter_stats"]
            ],
            source_stats={str(k): int(v) for k, v in payload["source_stats"].items()},
            sink_stats={str(k): int(v) for k, v in payload["sink_stats"].items()},
            running=bool(payload["running"]),
        )

    @classmethod
    def sum(cls, snapshots: "List[ChainSnapshot]",
            stream_name: str = "sum") -> "ChainSnapshot":
        """Add many snapshots into one fleet-wide total.

        Endpoint counters always sum.  Per-filter counters sum position-
        wise when every snapshot has the same ``filter_types`` chain (the
        steady state after a fleet-wide splice); heterogeneous chains drop
        the per-filter breakdown rather than adding unlike positions.
        ``running`` is true while any summed stream runs.
        """
        def _add(into: Dict[str, int], stats: Dict[str, int]) -> None:
            for key, value in stats.items():
                into[key] = into.get(key, 0) + int(value)

        source_stats: Dict[str, int] = {}
        sink_stats: Dict[str, int] = {}
        congruent = len({tuple(s.filter_types) for s in snapshots}) == 1
        filter_names = list(snapshots[0].filter_names) if congruent else []
        filter_types = list(snapshots[0].filter_types) if congruent else []
        filter_stats: List[Dict[str, int]] = [{} for _ in filter_types]
        running = False
        for snapshot in snapshots:
            _add(source_stats, snapshot.source_stats)
            _add(sink_stats, snapshot.sink_stats)
            if congruent:
                for into, stats in zip(filter_stats, snapshot.filter_stats):
                    _add(into, stats)
            running = running or snapshot.running
        return cls(stream_name=stream_name, filter_names=filter_names,
                   filter_types=filter_types, filter_stats=filter_stats,
                   source_stats=source_stats, sink_stats=sink_stats,
                   running=running)
