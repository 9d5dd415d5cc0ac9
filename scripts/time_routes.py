#!/usr/bin/env python3
"""Time one sampled check per cloud container at core.SMALL_CLOUD_CELLS.

For three tree shapes u in n = 4 variables, the cloud holds
SMALL_CLOUD_CELLS // (n + distinct nodes of u) samples, the most that
``_cloud`` still draws as Python float lists. ``check_system`` (both
residuals and self-application, the most work a sampled check does) runs on
that cloud once per round as Python float lists and once as numpy arrays,
in process with numpy already imported; the rounds alternate which
container goes first. Printed per shape: the median milliseconds of each.
The last line is the median cost of importing numpy in a fresh process
(``python -c "import numpy"`` less ``python -c pass``), which the Python
float lists save a command that needs no other array.

Usage: python3 scripts/time_routes.py [--repeats N]
"""

import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ouroboros import SampleDomain, check_system, core, parse
from ouroboros.expr import _shape

N = 4
SHAPES = {
    "mean": "(x1 + x2 + x3 + x4)/4",
    "polynomial": "(x1 + x2 + x3 + x4)/4 + (x1 - x3)^3*(x2 - x4) - 2*(x1 - x3)*(x2 - x4)^2 + (x1 - x3)^2/5",
    "rational": "(x1 + x2 + x3 + x4)/4 + (x1 - x3)/(1 + (x2 - x4)^2) - (x2 - x4)^3/(3 + (x1 - x3)^2)",
}


def timed_check(u, dom: SampleDomain, cells: int) -> float:
    """Seconds for one check_system with ``core.SMALL_CLOUD_CELLS`` set to ``cells``."""
    saved = core.SMALL_CLOUD_CELLS
    core.SMALL_CLOUD_CELLS = cells
    try:
        start = time.perf_counter()
        check_system(u, N, dom)
        return time.perf_counter() - start
    finally:
        core.SMALL_CLOUD_CELLS = saved


def numpy_import_s(repeats: int) -> float:
    def run(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        return time.perf_counter() - start

    return statistics.median(run("import numpy") - run("pass") for _ in range(repeats))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9, help="rounds per shape (default 9)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    bound = core.SMALL_CLOUD_CELLS
    print(f"{'python_ms':>9}  {'numpy_ms':>8}  {'nodes':>5}  {'samples':>7}  shape (n = {N}, {args.repeats} rounds)")
    for name, text in SHAPES.items():
        u = parse(text)
        size = _shape(u).size
        dom = SampleDomain(n=N, radius=2.0, seed=0, count=bound // (N + size))
        times: dict[int, list[float]] = {bound: [], 0: []}  # cells: the bound keeps Python floats, 0 numpy
        for round_index in range(args.repeats):
            for cells in (bound, 0) if round_index % 2 == 0 else (0, bound):
                times[cells].append(timed_check(u, dom, cells))
        python_ms, numpy_ms = (1e3 * statistics.median(times[cells]) for cells in (bound, 0))
        print(f"{python_ms:9.2f}  {numpy_ms:8.2f}  {size:5d}  {dom.count:7d}  {name}")
    print(f"{1e3 * numpy_import_s(args.repeats):9.1f}  ms to import numpy in a fresh process")
    return 0


if __name__ == "__main__":
    sys.exit(main())
