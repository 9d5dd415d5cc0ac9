"""Fixed reference jobs that measure how fast the host runs right now.

The benchmark shares a few cores of a busy host. The host's speed for the
same code drifts by 20-40 % over tens of seconds to minutes, more than a
regression bound, and a longer run does not average it away. So timed work
is bracketed by a yardstick: a fixed job that does not touch the package,
run right before and right after it. :func:`measure` returns the host's
slowness, the yardstick's time over its time on the machine the benchmark
was calibrated on (a 2-vCPU VM), and a time is reported at reference speed:

    wall seconds / mean(slowness before, slowness after)

On that machine, values read close to wall seconds. Fresh processes and
in-process work do not slow down together, so there are two kinds:

- ``process``: a fresh isolated interpreter that imports a fixed set of
  standard-library modules; for timings of fresh processes.
- ``inproc``: the geometric mean of two in-process parts, pure-Python
  recursive evaluation of fixed expression trees with the cyclic collector
  paused, and numpy ufuncs over the columns of a 100000 x 8 float64 array
  (6.4 MB, beyond L2) into preallocated buffers. Both allocate almost
  nothing, so what the package leaves on the heap does not change them.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import time

import numpy as np

# seconds of each job on the 2-vCPU VM the benchmark was calibrated on;
# only a unit conversion, the same on every commit
REF_S = {"process": 0.15, "interp": 0.025, "stream": 0.030}

# pure-Python and C-extension standard modules; none of the package's
_PROCESS_IMPORTS = ("import argparse, asyncio, csv, dataclasses, decimal, email.mime.multipart, "
                    "fractions, http.server, inspect, json, logging, pathlib, sqlite3, typing, "
                    "unittest, urllib.request, xml.etree.ElementTree")


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=0.0):
        self.op, self.left, self.right, self.value = op, left, right, value


def _tree(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node("var" if k % 3 else "const", value=float(k % 7) + 0.5)
    op = ("add", "mul", "sub")[k % 3]
    return _Node(op, _tree(depth - 1, 2 * k + 1), _tree(depth - 1, 2 * k + 2))


def _evaluate(node: _Node, env: dict) -> float:
    if node.op == "const":
        return node.value
    if node.op == "var":
        return env["x"] * node.value
    a, b = _evaluate(node.left, env), _evaluate(node.right, env)
    if node.op == "add":
        return a + b
    if node.op == "mul":
        return a * b * 0.5
    return a - b


# built once, so a measurement allocates almost nothing
_TREES = [_tree(12, i) for i in range(3)]
_ENVS = [{"x": 0.125 * k} for k in range(1, 8)]
_STREAM = np.random.default_rng(7).uniform(-2.0, 2.0, (100_000, 8))
_STREAM_OUT = np.empty((3, _STREAM.shape[0]))


def _interp() -> None:
    enabled = gc.isenabled()
    gc.disable()
    try:
        for root in _TREES:
            for env in _ENVS:
                _evaluate(root, env)
    finally:
        if enabled:
            gc.enable()


def _stream() -> None:
    x, (y, z, w) = _STREAM, _STREAM_OUT
    for _ in range(7):
        np.multiply(x[:, 0], x[:, 1], out=y)
        np.multiply(x[:, 2], x[:, 2], out=z)
        np.add(y, z, out=y)
        np.multiply(x[:, 3], x[:, 4], out=z)
        np.multiply(z, x[:, 5], out=z)
        np.subtract(y, z, out=y)
        np.sin(x[:, 6], out=w)
        np.multiply(w, x[:, 7], out=w)
        np.add(y, w, out=y)
        np.abs(y, out=y)
        float(y.max())


def _process() -> None:
    subprocess.run([sys.executable, "-I", "-c", _PROCESS_IMPORTS], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


JOBS = {"process": ("process",), "inproc": ("interp", "stream")}
_PARTS = {"process": _process, "interp": _interp, "stream": _stream}


def measure(kind: str) -> float:
    """The host's slowness now for ``kind`` of work: 1.0 on the calibration machine."""
    ratios = []
    for name in JOBS[kind]:
        start = time.perf_counter()
        _PARTS[name]()
        ratios.append((time.perf_counter() - start) / REF_S[name])
    return math.prod(ratios) ** (1.0 / len(ratios))


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work timed between two yardsticks, at reference speed."""
    return seconds / (0.5 * (before + after))
