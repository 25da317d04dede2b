"""Run the benchmark: one workload per process, every delivered byte verified.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fec_audio_bulk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seconds 25            # every workload, one process each

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` the public layer boundaries are
wrapped in span recorders and the object carries the per-layer metrics
instead, after a table of every layer metric the workload touches and the
tracing overhead.  A run whose output differs from its seeded inputs exits
with status 1 and prints no result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Workloads must not inherit engine, transport, chaos, FEC backend, metrics
# or event-log settings from the environment: clear every REPRO_* variable
# before the program is first imported (cluster workers inherit the result).
for _key in [key for key in os.environ if key.startswith("REPRO_")]:
    del os.environ[_key]
if SRC not in sys.path:
    sys.path.insert(0, SRC)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

# The spawn start method re-imports this file in every cluster worker as
# __mp_main__; a traced run's workers install the span recorders here.
if __name__ == "__mp_main__":
    import tracing as _tracing

    if os.environ.get(_tracing.WORKER_TRACE_ENV):
        _tracing.trace_this_worker(os.environ[_tracing.WORKER_TRACE_ENV])

#: Every workload, in the order a full run executes them.
WORKLOAD_NAMES = ("fec_audio_bulk", "fec_video_lossy", "live_udp_splice",
                  "cluster_fec")

UNITS = {
    "throughput_mib_s": "MiB/s",
    "cpu_us_per_pkt": "us",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "splice_p50_ms": "ms",
    "splice_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def machine_facts(engine=None) -> dict:
    """Facts a reader needs to compare numbers across machines.

    ``engine`` is the workload's engine name (None: the default engine).
    """
    import numpy

    from repro.core import Proxy
    from repro.transport import vectored

    with Proxy(name="facts", engine=engine) as proxy:
        engine = proxy.engine.name
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": engine,
        "sendmmsg": vectored.available(),
        "recvmmsg": vectored.recv_available(),
    }


def _result_line(result, metrics: dict) -> dict:
    attempted = result.packets + result.splices_attempted
    return {
        "correct": True,
        "attempted": attempted,
        "failed": result.splices_failed,
        "metrics": metrics,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            corrupt: bool) -> int:
    """Run one workload in this process and print its result line."""
    import workloads

    manifest = _load_manifest()
    print("machine: " + json.dumps(machine_facts(workloads.ENGINES[workload])),
          flush=True)
    tracer = None
    worker_dir = None
    spans_ns = None
    if trace:
        import tracing

        os.makedirs(OUT, exist_ok=True)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        # The benchmark's own sink work is spanned too, so it is not
        # counted as the program's unattributed time.
        tracer.patch_method(workloads.HashingSink, "_take", "bench.sink")
        tracer.patch_method(workloads.LiveSink, "_take", "bench.sink")
        spans_ns = tracer.span_self_ns
        if workload == "cluster_fec":
            worker_dir = os.path.join(OUT, f"workers-{os.getpid()}")
            os.makedirs(worker_dir, exist_ok=True)
            os.environ[tracing.WORKER_TRACE_ENV] = worker_dir
    try:
        kwargs = {"spans_ns": spans_ns} if spans_ns else {}
        result = workloads.WORKLOADS[workload](seed, seconds, corrupt=corrupt,
                                               **kwargs)
    except workloads.CorrectnessError as exc:
        print(f"FAILED {workload}: {exc}", file=sys.stderr)
        return 1
    if not trace:
        e2e = workloads.end_to_end(result)
        gated = {entry["name"] for entry in manifest["end_to_end"]}
        for name, value in e2e.items():
            note = "" if name in gated else "  (reported, not gated)"
            print(f"{workload:16s} {name:18s} {value:12.4f} {UNITS[name]}{note}")
        metrics = {entry["name"]: {"value": e2e[entry["name"]],
                                   "unit": entry["unit"]}
                   for entry in manifest["end_to_end"]}
        print(json.dumps(_result_line(result, metrics)))
        return 0

    import layers

    tracer.remove_patches()
    workers = layers.read_worker_dumps(worker_dir) if worker_dir else []
    log_path = os.path.join(OUT, f"spans-{workload}.jsonl")
    kept = tracer.write_log(log_path)
    per_layer = layers.layer_metrics(workload, result, tracer, workers)
    try:
        layers.check_coverage(workload, result, tracer, workers)
    except tracing.TraceCoverageError as exc:
        print(f"TRACE COVERAGE FAILED {workload}: {exc}", file=sys.stderr)
        return 1
    for name, value in sorted(per_layer.items()):
        print(f"{workload:16s} {name:40s} {value:14.4f}")
    print(f"{workload:16s} span log: {kept} spans in "
          f"{os.path.relpath(log_path, ROOT)}")
    metrics = {entry["name"]: {"value": per_layer[entry["name"]],
                               "unit": entry["unit"]}
               for entry in manifest["per_layer"]}
    print(json.dumps(_result_line(result, metrics)))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in its own process, untraced then traced."""
    status = 0
    rows = []
    for workload in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload}: trace={trace} run failed "
                      f"(exit {proc.returncode})")
                status = 1
                break
            lines = proc.stdout.strip().splitlines()
            results[trace] = json.loads(lines[-1])["metrics"]
            if trace:
                print("\n".join(line for line in lines[:-1]
                                if not line.startswith("machine:")))
            elif not rows:
                print(lines[0])
        if 0 in results:
            rows.append((workload, results[0]))
        if 0 in results and 1 in results:
            for name in ("throughput_mib_s", "cpu_us_per_pkt"):
                plain = results[0][name]["value"]
                traced = results[1].get(f"trace.{name}")
                if traced:
                    print(f"{workload:16s} tracing overhead on {name}: "
                          f"{traced['value'] / plain:.2f}x")
    print()
    for workload, metrics in rows:
        for name, entry in metrics.items():
            print(f"{workload:16s} {name:18s} {entry['value']:12.4f} "
                  f"{entry['unit']}")
    return status


def main(argv=None) -> int:
    """Parse arguments and run one workload, or all of them."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one delivered byte (self-check: the run "
                             "must fail)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.corrupt)


def stop_children() -> None:
    """Stop and reap every process this run started, before it exits.

    Cluster workers are joined by ``ProxyCluster.shutdown``, but the
    ``spawn`` start method also starts multiprocessing's resource tracker,
    which would otherwise outlive this process by an unbounded time.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(multiprocessing, "resource_tracker", None)
    if tracker is not None:
        tracker._resource_tracker._stop()
    # Anything else still parented here (a library helper) is killed.
    me = os.getpid()
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid != me:
            continue
        try:
            os.kill(int(entry), signal.SIGKILL)
            os.waitpid(int(entry), 0)
        except (ProcessLookupError, ChildProcessError):
            pass


if __name__ == "__main__":
    # A terminated run still stops its children on the way out.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    try:
        code = main()
    finally:
        stop_children()
    sys.stdout.flush()
    # Daemon helper threads of the program must not delay the exit.
    if threading.active_count() > 1:
        os._exit(code)
    sys.exit(code)
