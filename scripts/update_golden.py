#!/usr/bin/env python3
"""Rewrite the golden envelopes under tests/golden/ from the current tree.

Each command of COMMANDS has one file, tests/golden/<name>.txt: the command
line, the exit code, and the stdout with the timestamp line removed. For
explore the runs are reduced to their labels, since theta depends on BLAS
summation order; the counts and the exact solution set stay. The commands
are the determinism commands of the acceptance tests and the commands whose
behaviour CHANGES.md records as found or mended. tests/test_golden.py runs
them afresh and diffs the files, so a change to any of these reports shows
in review as a change to a file here.

Usage: python3 scripts/update_golden.py
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# the determinism commands of the acceptance tests (criterion 10); scripts/time_cli.py times them
DETERMINISM_COMMANDS = {
    "check-coeffs": ["check", "--coeffs", "1/2,1/3,1/6"],
    "check-expr": ["check", "--expr", "(x1 + x2)/2", "--samples", "64", "--seed", "3"],
    "pde-coeffs-eq1": ["pde", "--coeffs", "1/4,1/4,1/4,1/4", "--equation", "I", "--beta", "4"],
    "pde-expr-eq2": ["pde", "--expr", "x1^2", "--equation", "II", "--n", "2"],
    "pde-coeffs-system": ["pde", "--coeffs", "1/2,1/2", "--equation", "system"],
    "expect": ["expect", "--values", "1,2,3", "--probs", "1/5,3/10,1/2"],
    "explore": ["explore", "--n", "2", "--degree", "1", "--starts", "3", "--samples", "60"],
    "version": ["version"],
}

COMMANDS = {
    **DETERMINISM_COMMANDS,
    # found or mended behaviour
    "pde-overflowing-constant": ["pde", "--expr", "1e308*x1-1e308*x2", "--equation", "II", "--n", "2"],
    "pde-overflowing-like-terms": [
        "pde", "--expr", "1e308*x1 + 1e308*x1 - 1e308*x1 - 1e308*x1 + x1 + x2", "--equation", "II", "--n", "2",
    ],
    "pde-leftover-of-float-coefficients": [
        "pde", "--expr", "(0.1*x1 + 0.3*x2)^2 - 0.01*x1^2 - 0.09*x2^2 - 0.06*x1*x2", "--equation", "II", "--n", "2",
    ],
    "pde-system-tolerance": [
        "pde", "--expr", "(x1+x2)/2 + 0.0000000001*(x1 - x2)", "--n", "2", "--equation", "system", "--tol", "1e-15",
    ],
    "pde-undefined-candidate": ["pde", "--expr", "1/(x1-x1)", "--equation", "II", "--n", "2"],
    "check-undefined-candidate": ["check", "--expr", "1/(x1-x1)"],
    "check-near-diagonal-identity": ["check", "--expr", "x1 + 0.0000000001*x1^2"],
    "check-exact-sum-in-full": ["check", "--coeffs", "1e-5000,1"],
    "check-overflowing-sum": ["check", "--coeffs", "1e308,1e308"],
    "check-n-below-coeffs": ["check", "--coeffs", "1/2,1/2", "--n", "1"],
    "check-coeffs-leading-minus": ["check", "--coeffs", "-1/2,3/2"],
    # a linear form and its expression take one residual path: the pairs must agree
    "pde-coeffs-round-off-residual": ["pde", "--coeffs", "0.1,0.10000000000000002", "--equation", "II", "--n", "2"],
    "pde-expr-round-off-residual": ["pde", "--expr", "0.1*x1+0.10000000000000002*x2", "--equation", "II", "--n", "2"],
    "pde-coeffs-overflowing-constant": ["pde", "--coeffs", "1e308,-1e308", "--equation", "II"],
    "pde-coeffs-overflowing-sum": ["pde", "--coeffs", "1e308,1e308", "--equation", "I", "--beta", "2"],
    "pde-expr-overflowing-sum": ["pde", "--expr", "1e308*x1+1e308*x2", "--equation", "I", "--beta", "2", "--n", "2"],
    "pde-coeffs-system-negative-origin": ["pde", "--coeffs=-1/2,-1/2", "--equation", "system"],
    "pde-coeffs-system-padded": ["pde", "--coeffs", "1/2,1/2", "--equation", "system", "--n", "4"],
    "pde-system-no-normal-form": [
        "pde", "--equation", "system", "--n", "4", "--expr", "(x1+x2+x3+x4)/4 + (x1-x3)/(1+((x1+x2+x3+x4)/4)^2)",
    ],
    "pde-no-normal-form": ["pde", "--expr", "x1/(1+x2^2)", "--equation", "II", "--n", "2"],
    # reports that a change of evaluation route, or an exact pde verdict, would move
    "check-overflowing-candidate": ["check", "--expr", "x1^400", "--radius", "10"],
    "pde-overflowing-candidate": ["pde", "--expr", "x1^400", "--equation", "II", "--n", "2", "--radius", "10"],
    "pde-near-solution-quadratic": ["pde", "--expr", "(x1+x2)/2 + 0.0000000001*x1^2", "--equation", "II", "--n", "2"],
}


def golden_text(argv: list[str]) -> str:
    """The command line, exit code and reduced stdout of one fresh ``ouroboros`` run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ouroboros", *argv], capture_output=True, text=True, env=env)
    out = proc.stdout
    if argv[0] == "explore" and out:
        doc = json.loads(out)
        del doc["manifest"]["timestamp"]
        doc["result"]["runs"] = [run["classification"] for run in doc["result"]["runs"]]
        out = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        out = "".join(line for line in out.splitlines(keepends=True) if '"timestamp"' not in line)
    return f"$ ouroboros {shlex.join(argv)}\nexit {proc.returncode}\n{out}"


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.txt").write_text(golden_text(argv))
        print(f"wrote tests/golden/{name}.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
