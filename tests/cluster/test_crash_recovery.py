"""Worker crash recovery: restart, shard reassignment, event-log evidence."""

import time

import pytest

from repro.cluster import ProxyCluster, StreamSpec
from repro.cluster.rpc import RpcConnectionClosed, RpcError
from repro.obs.events import (
    EVENT_WORKER_EXIT,
    EVENT_WORKER_RESTART,
    EVENT_WORKER_START,
    get_event_log,
)


def _wait_for_restart(handle, old_pid, timeout=20.0):
    """Wait for the restart to complete, not just for the new process.

    The new pid and connection appear before the restart replays the
    worker's streams; the worker-restart event is logged only after that.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if (handle.pid != old_pid and handle.connection is not None
                and get_event_log().records(event=EVENT_WORKER_RESTART,
                                            cid=handle.correlation_id)):
            return True
        time.sleep(0.05)
    return False


class TestCrashRecovery:
    def test_crashed_worker_restarts_and_replays_its_stream(self):
        with ProxyCluster(workers=2, name="crash-cluster") as cluster:
            # A paced stream long enough to still be mid-flight at the kill.
            spec = StreamSpec.from_pattern("victim", seed=7, packets=2000,
                                           packet_size=256, pacing_s=0.005)
            worker_id = cluster.open_stream(spec)
            handle = cluster.worker(worker_id)
            old_pid = handle.pid
            with pytest.raises((RpcConnectionClosed, RpcError, TimeoutError)):
                handle.request("crash", timeout=5.0)

            assert _wait_for_restart(handle, old_pid), "worker never restarted"
            assert handle.pid != old_pid
            assert handle.restarts == 1
            # The shard is live again and the stream was replayed from its
            # spec onto the fresh process (at-least-once semantics).
            assert not cluster.ring.is_down(worker_id)
            pong = handle.request("ping", timeout=10.0)
            assert "victim" in pong["streams"]

            # Event-log evidence: worker-exit and worker-restart for this
            # incident share one correlation id (the slot's), and that cid
            # traces back to the slot's worker-start.
            log = get_event_log()
            cid = handle.correlation_id
            exits = [r for r in log.records(event=EVENT_WORKER_EXIT)
                     if r["cid"] == cid]
            restarts = [r for r in log.records(event=EVENT_WORKER_RESTART)
                        if r["cid"] == cid]
            starts = [r for r in log.records(event=EVENT_WORKER_START)
                      if r["cid"] == cid]
            assert len(exits) == 1
            assert len(restarts) == 1
            assert len(starts) == 2  # original spawn + restart spawn
            assert exits[0]["worker"] == worker_id
            assert exits[0]["pid"] == old_pid
            assert "victim" in exits[0]["streams"]
            assert restarts[0]["worker"] == worker_id
            assert restarts[0]["pid"] == handle.pid
            assert "victim" in restarts[0]["replayed_streams"]
            cluster.shutdown(timeout=10.0, drain=False)

    def test_interim_reassignment_spills_to_live_worker(self):
        with ProxyCluster(workers=2, name="spill-cluster",
                          restart_workers=False) as cluster:
            # Find a stream id owned by worker 0, then kill worker 0.
            name = next(f"spill-{i}" for i in range(100)
                        if cluster.worker_for(f"spill-{i}") == 0)
            handle = cluster.worker(0)
            with pytest.raises((RpcConnectionClosed, RpcError, TimeoutError)):
                handle.request("crash", timeout=5.0)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not cluster.ring.is_down(0):
                time.sleep(0.05)
            assert cluster.ring.is_down(0)
            # With the shard down, placement spills to the ring successor.
            assert cluster.worker_for(name) == 1
            spec = StreamSpec.from_pattern(name, seed=3, packets=10,
                                           packet_size=64)
            assert cluster.open_stream(spec) == 1
            assert cluster.wait_stream(name, timeout=15.0)
            cluster.shutdown(timeout=10.0, drain=False)
