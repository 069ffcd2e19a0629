"""Checks of the benchmark itself.  Run: ``pytest perfbench/test_harness.py``.

Every workload runs here for real with the smallest counts, so this takes
about a minute and about 600 MB of memory.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import harness
import run
import workloads

DECLARATION = harness.load_declaration()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_valid_and_within_limits():
    end_to_end = [m["name"] for m in DECLARATION["end_to_end"]]
    per_layer = [m["name"] for m in DECLARATION["per_layer"]]
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = end_to_end + per_layer + [w["name"] for w in DECLARATION["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    assert all(0 < m["bound"] <= 0.25 for m in DECLARATION["end_to_end"])
    setup = next(m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARATION["end_to_end"])


def test_declared_layers_match_the_workloads():
    assert [w["name"] for w in DECLARATION["workloads"]] == list(workloads.WORKLOADS)
    measured = {"host.gemm_peak_gflops"}
    for workload in workloads.WORKLOADS.values():
        measured.update(workload.layer_metrics)
    assert measured == {m["name"] for m in DECLARATION["per_layer"]}


def _small_run(name: str, trace: bool) -> workloads.Run:
    return workloads.Run(
        seed=1,
        seconds=0.0,
        trace=trace,
        count=2,
        # One child set-up on the cheap workload covers that path.
        setup_repeats=2 if name == "infer-vgg16" and not trace else 1,
        requests=5_000,
    )


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_declared_metric(name, trace):
    workload = workloads.WORKLOADS[name]
    result = workload.run(_small_run(name, trace))
    assert result.failed == 0, result.errors
    assert result.attempted >= 2
    metrics = run._emit(DECLARATION, workload, result, trace, gemm=1.0)
    kind = "per_layer" if trace else "end_to_end"
    assert list(metrics) == [m["name"] for m in DECLARATION[kind]]
    measured = set(workload.layer_metrics if trace else metrics)
    # This process imported repro long ago, and an overhead may read 0.
    measured -= {"setup.import_s", "trace.overhead_pct"}
    assert all(metrics[m]["value"] != 0 for m in measured)


def test_tampered_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"design": {"1": "0" * 64}}))
    monkeypatch.setattr(run, "EXPECTED", expected)
    code = run.main(["--workload", "design", "--seed", "1", "--seconds", "0", "--out", str(tmp_path)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False
    assert last["failed"] / last["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.DECLARATION, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_ref_clock_scales_cpu_time_by_the_calibration_around_it(monkeypatch):
    clock = harness.RefClock(["events"])
    passes = iter([0.004, 0.008, 0.012])
    monkeypatch.setattr(clock, "calibrate", lambda: next(passes))
    ticks = iter([10.0, 10.5, 20.0, 20.25])
    monkeypatch.setattr(harness.time, "process_time", lambda: next(ticks))
    with clock.interval() as first:
        pass
    with clock.interval() as second:
        pass
    reference = harness.KERNELS["events"][1]
    assert first == [pytest.approx(0.5 * reference / 0.006)]
    # The pass after the first interval is the second one's "before".
    assert second == [pytest.approx(0.25 * reference / 0.010)]


def test_compare_verdicts_on_synthetic_samples():
    parent = [100.0 + d for d in (-2, -1, -1, 0, 0, 0, 1, 1, 2, 0)]
    faster = [v - 10 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [100.0 + d for d in (-30, 25, -20, 30, 0, 15, -25, 20, 5, -10)]
    assert compare.host_verdict(parent, faster, 0.1, "lower") == "improved"
    assert compare.host_verdict(parent, list(parent), 0.1, "lower") == "unchanged"
    assert compare.host_verdict(parent, slower, 0.1, "lower") == "worse"
    assert compare.host_verdict(parent, slower, 0.1, "higher") == "improved"
    assert compare.host_verdict(parent, noisy, 0.1, "lower") == "unresolved"
    assert compare.host_verdict(parent[:9], faster[:9], 0.1, "lower") == "unresolved"
    # Spread above the bound, but every change run beats every parent run.
    assert compare.host_verdict(noisy, [v - 100 for v in noisy], 0.1, "lower") == "improved"
    assert compare.exact_verdict([1.0, 2.0], [1.0, 2.0], "higher") == "unchanged"
    assert compare.exact_verdict([1.0, 2.0], [1.5, 2.0], "higher") == "improved"
    assert compare.exact_verdict([1.0, 2.0], [1.5, 1.0], "higher") == "unresolved"
    assert compare.exact_verdict([1.0], [0.5], "higher") == "worse"
