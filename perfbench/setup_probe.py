"""One fresh-process set-up of a workload, timed from outside by run.py.

Imports the package, builds the workload's inputs from the seed, and runs
its warm-up operation once. Exits 0 when the warm-up answered correctly.

    python3 perfbench/setup_probe.py --workload sampled-check --seed 1
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports the package)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.workload == "cli-gate":
        # the command line's own work, in this fresh process
        op = workloads.cli_in_process_ops(None)[-1]
    else:
        op = workloads.build(args.workload, args.seed, ROOT).warmup
    _, outcome = workloads.timed(op)
    return 0 if outcome.ok else 1


if __name__ == "__main__":
    sys.exit(main())
