"""The runnable experiments under scripts/ finish cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    """One round: a line per command with its median, exit code and whether it loaded numpy."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "time_cli.py"), "--repeats", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows, total = proc.stdout.splitlines()
    assert header.split()[:3] == ["median_s", "exit", "numpy"]
    assert len(rows) == 8
    # check and pde, by --coeffs and by --expr, expect and version start without numpy; explore loads it
    assert [row.split()[4] for row in rows] == ["check", "check", "pde", "pde", "pde", "expect", "explore", "version"]
    assert [row.split()[2] for row in rows] == ["no"] * 6 + ["yes", "no"]
    assert [row.split()[1] for row in rows] == ["0", "0", "0", "1", "0", "0", "0", "0"]
    assert float(total.split()[0]) == pytest.approx(sum(float(row.split()[0]) for row in rows), abs=0.01)
