#!/usr/bin/env python3
"""Run one perfbench workload once per seed and keep every run in BENCH_<label>.json.

Each seed runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` as a child process from the repository root. From each run the
file keeps the child's argv (the interpreter by its file name) and exit
code, its ``# runtime {...}`` record and its final JSON line, which holds
every end-to-end metric, next to ``git rev-parse HEAD`` and whether the tree
had uncommitted changes. Every run carries all of these, so the runs of
several files can be concatenated into one. The file is written to the
current directory. The exit code is 1 when any child failed or did not
report ``"correct": true``; that child's output then goes to standard error.

Usage: python3 scripts/bench_json.py --label L --workload W --seeds 0 1 2 --seconds S
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str | None:
    """The stripped output of a git command in the repository root; None when git cannot answer."""
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def last_json(lines: list[str]):
    """The JSON object on the last of ``lines``, or None when it holds none."""
    try:
        value = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


def run_seed(workload: str, seed: int, seconds: float, head: str | None, dirty: bool | None) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    argv[0] = Path(argv[0]).name  # the interpreter by its file name: the record names no local path
    lines = proc.stdout.splitlines()
    runtime = [line.removeprefix("# runtime ") for line in lines if line.startswith("# runtime ")]
    result = last_json(lines)
    record = {
        "argv": argv,
        "git_head": head,
        "git_dirty": dirty,
        "returncode": proc.returncode,
        "runtime": json.loads(runtime[-1]) if runtime else None,
        "result": result,
    }
    record["correct"] = proc.returncode == 0 and result is not None and result.get("correct") is True
    if not record["correct"]:
        print(f"{workload}, seed {seed}: exit {proc.returncode}, no \"correct\": true on the last line",
              file=sys.stderr)
        print(proc.stdout + proc.stderr, file=sys.stderr)
    return record


def positive(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--workload", required=True, help="a workload perfbench/run.py knows")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", required=True, type=positive, help="run length of each child")
    args = parser.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("--label may hold only letters, digits, '.', '_' and '-'")
    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    dirty = None if status is None else bool(status)
    runs = [run_seed(args.workload, seed, args.seconds, head, dirty) for seed in args.seeds]
    correct = all(run["correct"] for run in runs)
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps({"label": args.label, "correct": correct, "runs": runs}, indent=2, sort_keys=True) + "\n")
    print(f"{out}: {sum(run['correct'] for run in runs)} of {len(runs)} runs correct")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
