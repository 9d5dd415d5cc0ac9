"""Benchmark of the ouroboros package: four workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sampled-check --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures the end-to-end metrics untraced; with
``--trace 1`` it measures the per-layer metrics in a traced run (see
tracing.py) next to an identical untraced one. Load is one caller in a
closed loop: the next operation starts when the previous one has ended.
Untraced times are reported at reference speed (see yardstick.py), next
to the wall-clock values. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it start with ``#`` and carry the runtime
record, the metrics under their per-workload names, and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "work_per_s": "1/s",
    "s_per_ok": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# the names each workload's end-to-end metrics carry in the report lines
ALIASES = {
    "cli-gate": {"op_s": "cli_wall_s", "work_per_s": "commands_per_s", "s_per_ok": "s_per_correct_command"},
    "sampled-check": {"op_s": "check_pass_s", "work_per_s": "samples_per_s", "s_per_ok": "s_per_correct_check"},
    "symbolic-pde": {"op_s": "pde_pass_s", "work_per_s": "checks_per_s", "s_per_ok": "s_per_correct_check"},
    "explore-search": {"op_s": "explore_pass_s", "work_per_s": "explore_starts_per_s",
                       "s_per_ok": "explore_s_per_solution"},
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flops_computed"):
        return "flop"
    if name.endswith("_bytes_computed"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that percentile.

    Below 11 samples no percentile qualifies and the maximum is returned.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def note(text: str) -> None:
    print(f"# {text}", flush=True)


# ---------------------------------------------------------------------------
# runtime record

def _cache_sizes() -> dict[str, int]:
    """L1d, L2 and L3 sizes of cpu0 in bytes, read from sysfs (read-only)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        factor = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        sizes[f"l{level}_bytes"] = int(size.rstrip("KM")) * factor
    return sizes


def runtime_record(workload) -> dict:
    import numpy
    import scipy

    sets = sorted({op.working_set_bytes for op in workload.ops if op.working_set_bytes})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {
            var: os.environ.get(var, "unset (library default, at most nproc)")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "caches_per_core": _cache_sizes(),
        "working_set_bytes": sets,
    }


# ---------------------------------------------------------------------------
# measurement

def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh processes that import the package and warm up: wall seconds, and
    the same at reference speed from ``process`` yardsticks run around each."""
    import yardstick
    from workloads import run_child

    raw, adjusted = [], []
    before = yardstick.measure("process")
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        code, _, _ = run_child([sys.executable, str(HERE / "setup_probe.py"),
                                "--workload", name, "--seed", str(seed)], ROOT)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up of {name} exited with code {code}")
        after = yardstick.measure("process")
        raw.append(elapsed)
        adjusted.append(yardstick.at_reference(elapsed, before, after))
        before = after
    return raw, adjusted


class Tally:
    """Timings and outcomes of the operations of a run."""

    def __init__(self):
        self.times: list[float] = []
        self.outcomes = []

    def add(self, elapsed, outcome):
        self.times.append(elapsed)
        self.outcomes.append(outcome)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def unexpected(self) -> list:
        return [o for o in self.outcomes if not o.ok and not o.known_defect]

    def result(self, metrics: dict) -> dict:
        return {
            "correct": bool(self.outcomes) and not self.unexpected,
            "attempted": len(self.outcomes),
            "failed": self.failed,
            "metrics": metrics,
        }


def run_pass(ops, order, tally: Tally) -> float:
    from workloads import timed

    start = time.perf_counter()
    for i in order:
        tally.add(*timed(ops[i]))
    return time.perf_counter() - start


def keep_going(started: float, chunk_walls: list[float], seconds: float) -> bool:
    """Start another chunk if it should end within half a chunk of the deadline."""
    estimate = statistics.median(chunk_walls)
    return time.perf_counter() - started + estimate <= seconds + 0.5 * estimate


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    import workloads
    import yardstick

    setup_raw, setup_adjusted = setup_seconds(name, seed)
    workload = workloads.build(name, seed, ROOT)
    note("runtime " + json.dumps(runtime_record(workload), sort_keys=True))
    workloads.timed(workload.warmup)

    # The timed unit is one command on cli-gate and one pass elsewhere: the
    # operations of a pass differ in cost five- to a hundredfold, and a
    # median over them would jump from one operation to the next. A
    # yardstick runs before the first unit and after every unit.
    kind = workload.yardstick
    measure = (lambda: yardstick.measure(kind)) if kind else lambda: 1.0
    tally = Tally()
    raw, adjusted, spans = [], [], []
    before = measure()
    slowness = [before]
    started = time.perf_counter()
    passes = 0
    while True:
        order = workload.pass_order(passes)
        passes += 1
        for unit in ([i] for i in order) if workload.per_op else [order]:
            start = time.perf_counter()
            elapsed = run_pass(workload.ops, unit, tally)
            after = measure()
            raw.append(elapsed)
            adjusted.append(yardstick.at_reference(elapsed, before, after))
            before = after
            slowness.append(after)
            spans.append(time.perf_counter() - start)
            if not keep_going(started, spans, seconds):
                break
        if not keep_going(started, spans, seconds):
            break
    outcomes = tally.outcomes
    work = sum(o.work for o in outcomes)
    successes = sum(o.successes for o in outcomes)
    if name == "cli-gate":
        peak_kb = max(o.rss_kb for o in outcomes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p_tail, percentile = tail(adjusted)
    values = {
        "setup_s": statistics.median(setup_adjusted),
        "op_s.p50": statistics.median(adjusted),
        "op_s.tail": p_tail,
        "work_per_s": work / sum(adjusted),
        "s_per_ok": sum(adjusted) / successes if successes else float("inf"),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_share": 1.0 - tally.failed / len(outcomes),
    }

    alias = ALIASES[name]
    unit_name = "command" if workload.per_op else f"pass over {len(workload.ops)} operations"
    note(f"{name}: {len(outcomes)} operations, {len(adjusted)} timed units (one {unit_name}), "
         f"{time.perf_counter() - started:.2f} s wall; work unit: {workload.work_unit}; "
         f"success unit: {workload.success_unit}")
    if kind:
        note(f"times are at reference speed; median host slowness from the {kind} yardstick "
             f"{statistics.median(slowness):.4f}")
    else:
        note("times are wall seconds")
    note("setup_s is at reference speed, from the process yardstick")
    note(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_adjusted)} "
         f"(wall {', '.join(f'{t:.4f}' for t in setup_raw)})")
    raw_tail, _ = tail(raw)
    note(f"{alias['op_s']}.p50 = {values['op_s.p50']:.6f} s, {alias['op_s']}.tail = {p_tail:.6f} s "
         f"(p{percentile:.1f} of {len(adjusted)} samples); wall: p50 {statistics.median(raw):.6f} s, "
         f"tail {raw_tail:.6f} s")
    note(f"{alias['work_per_s']} = {values['work_per_s']:.6g} 1/s; "
         f"{alias['s_per_ok']} = {values['s_per_ok']:.6g} s; wall: {work / sum(raw):.6g} 1/s, "
         f"{sum(raw) / max(successes, 1):.6g} s")
    known = sum(o.known_defect for o in outcomes)
    note(f"failed_share = {tally.failed}/{len(outcomes)} = {tally.failed / len(outcomes):.4f} "
         f"({known} of them the catalogued check_system false negative)")
    for outcome in tally.unexpected[:5]:
        note(f"UNEXPECTED FAILURE: {outcome.detail}")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    return tally.result(metrics)


def import_profile() -> dict[str, float]:
    """Interpreter start-up and per-package import self time, medians of fresh runs."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, packages = [], {"numpy": [], "scipy": [], "ouroboros": []}
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        bare.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ouroboros"],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        sums = dict.fromkeys(packages, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, module = (part.strip() for part in line[len("import time:"):].split("|"))
            top = module.split(".")[0]
            if top in sums:
                sums[top] += int(self_us) / 1e6
        for top, total in sums.items():
            packages[top].append(total)
    return {
        "import.python_s": statistics.median(bare),
        "import.numpy_s": statistics.median(packages["numpy"]),
        "import.scipy_s": statistics.median(packages["scipy"]),
        "import.ouroboros_self_s": statistics.median(packages["ouroboros"]),
    }


def share_check(label: str, part: float, whole: float) -> None:
    share = part / whole if whole > 0 else float("nan")
    verdict = "agrees" if share > 0.5 else "DISAGREES"
    note(f"share check ({label}): {part:.4f} s / {whole:.4f} s = {share:.3f}; "
         f"expected most (> 0.5): {verdict}")


def per_layer(name: str, seed: int, seconds: float) -> dict:
    import tracing
    import workloads

    imports = import_profile()
    if name == "cli-gate":
        workload = workloads.build_cli_gate(seed, ROOT, fresh=False)
        ops = workload.ops
    else:
        workload = workloads.build(name, seed, ROOT)
        # an in-process pass of the CLI commands rides along, so every layer
        # has a measured span on every workload
        ops = workload.ops + workloads.cli_in_process_ops(workloads.CliChecker(ROOT))
    note("runtime " + json.dumps(runtime_record(workload), sort_keys=True))
    workloads.timed(workload.warmup)
    order = list(range(len(ops)))

    tracer = tracing.Tracer()
    tally = Tally()
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        plain.append(run_pass(ops, order, tally))
        with tracing.traced(tracer):
            traced.append(run_pass(ops, order, tally))
        if not keep_going(started, [a + b for a, b in zip(plain, traced)], seconds):
            break
    values = dict(imports)
    values.update(tracing.layer_metrics(tracer, len(traced)))
    fd_seconds = tracer.counts["pde.fd_evaluate_many_s"] / len(traced)
    untraced, traced_wall = statistics.fmean(plain), statistics.fmean(traced)
    values["trace.overhead_s"] = traced_wall - untraced
    note(f"{name}: {len(traced)} traced and {len(plain)} untraced passes of {len(ops)} operations; "
         f"per-layer values are per pass; untraced pass {untraced:.4f} s, traced pass {traced_wall:.4f} s")

    if name == "cli-gate":
        fresh = workloads.build_cli_gate(seed, ROOT)
        fresh_tally = Tally()
        run_pass(fresh.ops, fresh.pass_order(0), fresh_tally)
        tally.outcomes += fresh_tally.outcomes
        imported = sum(v for k, v in imports.items() if k.startswith("import."))
        share_check("import.* of cli_wall_s.p50", imported, statistics.median(fresh_tally.times))
    elif name == "explore-search":
        share_check("explorer.lsq_self_s + explorer.problem_build_s of the traced pass",
                    values["explorer.lsq_self_s"] + values["explorer.problem_build_s"], traced_wall)
    elif name == "symbolic-pde":
        share_check("expr.differentiate_s + finite-difference evaluate_many of the traced pass",
                    values["expr.differentiate_s"] + fd_seconds, traced_wall)
    for missing in sorted(tracer.missing):
        note(f"not traced, the package has no {missing}: its spans read 0")
    for outcome in tally.unexpected[:5]:
        note(f"UNEXPECTED FAILURE: {outcome.detail}")
    metrics = {key: {"value": value, "unit": layer_unit(key)} for key, value in sorted(values.items())}
    return tally.result(metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-gate", "sampled-check", "symbolic-pde", "explore-search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ouroboros" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'ouroboros'} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    measure = per_layer if args.trace else end_to_end
    result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
