"""The runnable experiments under scripts/ finish cleanly."""

import os
import subprocess
import sys
from pathlib import Path

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
