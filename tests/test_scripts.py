"""The runnable experiments under scripts/ finish cleanly."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ouroboros.core import SMALL_CLOUD_CELLS

ROOT = Path(__file__).resolve().parent.parent


def test_verify_transport_families_passes():
    """Every family clears every checker, the normal-form zero test included."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_transport_families.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_uniqueness_probe_runs_a_small_grid():
    """The probe, the other caller of explore, finishes and prints the exact dimension per row."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_uniqueness_probe.py"),
         "--starts", "2", "--dims", "2,4", "--degrees", "1,2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = {tuple(map(int, line.split()[:2])): line.split() for line in proc.stdout.splitlines()
            if line.split()[:2] and all(t.isdigit() for t in line.split()[:2])}
    assert sorted(rows) == [(2, 1), (2, 2), (4, 1), (4, 2)]
    assert rows[(4, 2)][2] == "3"
    assert rows[(4, 1)][2] == "1"
    assert rows[(2, 2)][2] == "0"


def test_time_cli_times_every_determinism_command():
    """One round: a line per command with its median, exit code, whether it loaded numpy and its module count,
    under a header that names the bytecode regime."""
    cache = "present" if (ROOT / "src" / "ouroboros" / "__pycache__").is_dir() else "absent"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_cli.py"), "--repeats", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows, total = proc.stdout.splitlines()
    assert header.split()[:3] == ["median_s", "exit", "numpy"]
    written = "no" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "yes"
    assert header.endswith(f"(1 rounds; bytecode written: {written}; src/ouroboros/__pycache__ at start: {cache})")
    assert len(rows) == 8
    # check and pde, by --coeffs and by --expr, expect and version start without numpy; explore loads it
    assert [row.split()[4] for row in rows] == ["check", "check", "pde", "pde", "pde", "expect", "explore", "version"]
    assert [row.split()[2] for row in rows] == ["no"] * 6 + ["yes", "no"]
    assert [row.split()[1] for row in rows] == ["0", "0", "0", "1", "0", "0", "0", "0"]
    # modules imported beyond a bare interpreter: version imports the fewest, numpy makes explore's the most
    assert header.split()[3] == "modules"
    modules = [int(row.split()[3]) for row in rows]
    assert min(modules) == modules[-1] > 0
    assert all(modules[6] > count + 50 for count in modules[:6] + modules[7:])
    assert float(total.split()[0]) == pytest.approx(sum(float(row.split()[0]) for row in rows), abs=0.01)


def test_time_routes_times_both_containers_at_the_bound():
    """One round: a line per tree shape with both containers' times, then the numpy import."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_routes.py"), "--repeats", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows, last = proc.stdout.splitlines()
    assert header.split()[:4] == ["python_ms", "numpy_ms", "nodes", "samples"]
    assert [row.split()[4] for row in rows] == ["mean", "polynomial", "rational"]
    for row in rows:
        python_ms, numpy_ms, nodes, samples = row.split()[:4]
        assert float(python_ms) > 0 and float(numpy_ms) > 0
        assert int(samples) == SMALL_CLOUD_CELLS // (4 + int(nodes))  # on the bound, where _cloud still takes Python floats
    assert last.endswith("ms to import numpy in a fresh process")


def test_bench_json_keeps_each_run_of_a_workload(tmp_path):
    """A 1-s sampled-check run: the runtime record, the final JSON line and the tree's state, in BENCH_<label>.json."""
    pytest.importorskip("scipy")  # perfbench's runtime record reads scipy's version
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_json.py"),
         "--label", "smoke", "--workload", "sampled-check", "--seeds", "0", "--seconds", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert doc["label"] == "smoke" and doc["correct"] is True
    (run,) = doc["runs"]
    assert run["argv"][1:] == ["perfbench/run.py", "--workload", "sampled-check",
                               "--seed", "0", "--seconds", "1.0", "--trace", "0"]
    assert run["returncode"] == 0 and run["correct"] is True
    assert run["result"]["correct"] is True
    assert {"setup_s", "op_s.p50", "op_s.tail", "work_per_s", "s_per_ok", "peak_rss_mb", "ok_share"} <= set(
        run["result"]["metrics"])
    assert {"python", "numpy", "scipy", "nproc"} <= set(run["runtime"])
    assert run["git_head"] is None or len(run["git_head"]) == 40
    assert run["git_dirty"] in (None, True, False)


def test_bench_json_refuses_a_label_that_is_not_a_file_name(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_json.py"),
         "--label", "../out", "--workload", "sampled-check", "--seeds", "0", "--seconds", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 2 and "--label" in proc.stderr
