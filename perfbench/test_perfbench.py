"""Self-checks of the benchmark (run with ``python -m pytest perfbench``).

They show that a wrong answer cannot produce a number, that a lost patch
point fails the traced run loudly, and that the benchmark refuses to run
without the program it measures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["fec_audio_bulk", "live_udp_splice"])
def test_flipped_byte_fails_the_run_without_a_number(workload):
    """A bench-local byte flip makes the run exit 1 with no metrics."""
    proc = _run("--workload", workload, "--trace", "0", "--corrupt")
    assert proc.returncode == 1
    assert "FAILED" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_clean_run_reports_every_end_to_end_metric():
    """A clean run reports every gated metric, each above zero."""
    proc = _run("--workload", "fec_audio_bulk", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        names = {m["name"] for m in json.load(f)["end_to_end"]}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reconciles_spans_with_the_erasure_plan():
    """The traced lossy run passes its coverage check."""
    proc = _run("--workload", "fec_video_lossy", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = _result(proc)["metrics"]
    assert 0 < metrics["fec.groups_repaired_ratio"]["value"] < 1
    assert metrics["streams.encode_frame.calls_per_pkt"]["value"] >= 3


def test_every_layer_metric_is_listed_or_table_only():
    """Each layer metric is in per_layer or deliberately table-only."""
    import layers
    import tracing
    import workloads

    result = workloads.RunResult(packets=1, payload_bytes=1, window_s=1.0,
                                 cpu_s=1.0, splices_ms=[1.0], setups_s=[1.0],
                                 latencies_ms=[1.0])
    computed = set(layers.layer_metrics("fec_audio_bulk", result,
                                        tracing.Tracer(), []))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        listed = {m["name"] for m in json.load(f)["per_layer"]}
    assert listed | set(layers.TABLE_ONLY) == computed
    assert not listed & set(layers.TABLE_ONLY)


def test_function_imported_by_name_must_be_patched_where_it_is_called():
    """A patch that misses a module calling the function raises."""
    import repro  # noqa: F401 - loads the modules the tracer scans
    import tracing

    tracer = tracing.Tracer()
    try:
        with pytest.raises(tracing.TraceCoverageError):
            # repro.fec.packets never imports encode_frame: a patch point
            # that names it must fail instead of reading zero.
            tracer.patch_function("repro.streams.framing", "encode_frame",
                                  "streams.encode_frame",
                                  required=("repro.fec.packets",))
    finally:
        tracer.remove_patches()
    from repro.core import filter as core_filter
    from repro.streams import framing

    assert core_filter.encode_frame is framing.encode_frame


def test_moved_method_fails_the_patch():
    """A patch of a method that no longer exists raises."""
    import tracing
    from repro.core import Proxy

    with pytest.raises(tracing.TraceCoverageError):
        tracing.Tracer().patch_method(Proxy, "no_such_method", "core.x")


def test_refuses_to_run_without_the_program(tmp_path):
    """Without src/ next to it the benchmark exits non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "fec_audio_bulk", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


#: Runs the benchmark as a child of a Linux child subreaper, so processes
#: the run leaves behind are reparented here, counted, then killed.
_SUBREAPER = r"""
import ctypes, os, signal, subprocess, sys, time
ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
run = subprocess.run([sys.executable, *sys.argv[1:]], capture_output=True)
time.sleep(0.5)
left = []
for entry in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{entry}/stat") as f:
            ppid = int(f.read().rsplit(")", 1)[1].split()[1])
    except (OSError, ValueError, IndexError):
        continue
    if ppid == os.getpid():
        left.append(int(entry))
        os.kill(int(entry), signal.SIGKILL)
        os.waitpid(int(entry), 0)
print(run.returncode, len(left))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs a Linux child subreaper")
def test_cluster_run_leaves_no_process_behind():
    """Every process a cluster run starts has ended when it exits."""
    proc = subprocess.run(
        [sys.executable, "-c", _SUBREAPER, "perfbench/run.py",
         "--workload", "cluster_fec", "--seed", "3", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.stdout.split() == ["0", "0"], proc.stdout + proc.stderr
