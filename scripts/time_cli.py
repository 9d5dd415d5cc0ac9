#!/usr/bin/env python3
"""Time the determinism commands of the acceptance tests as fresh processes.

Each command of update_golden.DETERMINISM_COMMANDS runs as
``python -m ouroboros ...`` with PYTHONPATH set to src/, once per round;
the rounds alternate the commands' order (forward, then backward), so a
drift in the host's speed spreads over all of them. Printed per command:
the median wall time over the rounds, the exit code, and whether it loaded
numpy, read from one untimed ``-X importtime`` run before the rounds. The
last line sums the medians, one pass over all commands.

Usage: python3 scripts/time_cli.py [--repeats N]
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

from update_golden import DETERMINISM_COMMANDS

ROOT = Path(__file__).resolve().parent.parent


def run(argv: list[str], env: dict, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-m", "ouroboros", *argv],
                          env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def import_probe(argv: list[str], env: dict) -> tuple[bool, int]:
    """Whether the command imports numpy, and its exit code."""
    proc = run(argv, env, ("-X", "importtime"))
    modules = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return "numpy" in modules, proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9, help="rounds over all commands (default 9)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    names = list(DETERMINISM_COMMANDS)
    probes = {name: import_probe(DETERMINISM_COMMANDS[name], env) for name in names}
    times: dict[str, list[float]] = {name: [] for name in names}
    for round_index in range(args.repeats):
        for name in names if round_index % 2 == 0 else reversed(names):
            start = time.perf_counter()
            run(DETERMINISM_COMMANDS[name], env)
            times[name].append(time.perf_counter() - start)
    print(f"{'median_s':>9}  exit  numpy  command ({args.repeats} rounds)")
    for name in names:
        numpy_loaded, code = probes[name]
        print(f"{statistics.median(times[name]):9.3f}  {code:4d}  {'yes' if numpy_loaded else 'no':>5}  "
              f"ouroboros {shlex.join(DETERMINISM_COMMANDS[name])}")
    print(f"{sum(statistics.median(t) for t in times.values()):9.3f}  total of the medians")
    return 0


if __name__ == "__main__":
    sys.exit(main())
