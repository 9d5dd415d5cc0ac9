#!/usr/bin/env python3
"""Probe which polynomials solve the full system, exactly and by search.

For each dimension and degree it prints the exact dimension of the
polynomial solution set (0 means the mean is the only solution of that
degree) next to what the multi-start search converged to. The search is a
cross-check of the exact answer: other_candidate runs can only appear where
the dimension is positive, and n = 4 already has whole families of
non-mean solutions.

Usage: python3 scripts/run_uniqueness_probe.py [--starts 20] [--seed 0]
       [--dims 2,4] [--degrees 1,2,3] [--json out.json]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ouroboros.explorer import Classification, ExplorationConfig, explore


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--starts", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dims", default="2,4", help="comma-separated even dimensions")
    ap.add_argument("--degrees", default="1,2,3", help="comma-separated degrees")
    ap.add_argument("--json", help="write all reports to this file")
    args = ap.parse_args()

    dims = [int(t) for t in args.dims.split(",")]
    degrees = [int(t) for t in args.degrees.split(",")]

    print(f"{'n':>3} {'deg':>4} {'dim':>5} {'mean_like':>10} {'other':>6} {'stuck':>6}"
          "   sample candidate far from the mean")
    collected = {}
    for n in dims:
        for degree in degrees:
            cfg = ExplorationConfig(n=n, degree=degree, seed=args.seed, starts=args.starts)
            report = explore(cfg)
            counts = report.counts
            witness = ""
            for run in report.runs:
                if run.classification is Classification.OTHER_CANDIDATE:
                    head = ", ".join(f"{t:.4f}" for t in run.theta[: n + 1])
                    witness = f"theta[:~] = ({head}, ...), objective {run.objective:.2e}"
                    break
            print(f"{n:>3} {degree:>4} {report.solution_set.dimension:>5} {counts['mean_like']:>10} "
                  f"{counts['other_candidate']:>6} {counts['non_converged']:>6}   {witness}")
            collected[f"n{n}_d{degree}"] = report.to_dict()
    print("\ndim is exact: the solutions of each degree are the mean plus a space of that "
          "dimension; the counts are the search's cross-check")

    if args.json:
        Path(args.json).write_text(json.dumps(collected, sort_keys=True, indent=2))
        print(f"reports written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
