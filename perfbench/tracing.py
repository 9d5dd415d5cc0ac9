"""Spans around the package's cross-module calls, recorded from outside it.

:func:`traced` replaces, for the duration of a ``with`` block, each public
name that one module of the package calls in another with a wrapper that
records a span: its name, its duration, and the time its child spans
cover. Bindings are replaced in the namespaces of the calling modules (and
in the ``ouroboros`` package namespace the benchmark calls through), not
in the defining module, so recursion inside a module stays unwrapped.
Methods are wrapped on their class. Everything is restored on exit; no
source file is touched.

Spans are aggregated in memory as they close: per span name, the total
time, the self time (duration minus direct children) and the call count,
plus the counters the hooks add.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# span name, module defining (or first binding) the function, attribute,
# also wrap the binding in that module (for calls from inside it)
FUNCTIONS = (
    ("cli.main", "ouroboros.cli", "main", True),
    ("expr.parse", "ouroboros.expr", "parse", False),
    ("expr.to_string", "ouroboros.expr", "to_string", False),
    ("expr.evaluate_many", "ouroboros.expr", "evaluate_many", False),
    ("expr.differentiate", "ouroboros.expr", "differentiate", False),
    ("expr.constant_fold", "ouroboros.expr", "constant_fold", False),
    ("core.check_sampled", "ouroboros.core", "check_sampled", False),
    ("core.check_linear_exact", "ouroboros.core", "check_linear_exact", False),
    ("pde.check_residual", "ouroboros.pde", "check_residual", True),  # check_system calls it
    ("pde.check_system", "ouroboros.pde", "check_system", False),
    ("probability.check_expectation", "ouroboros.probability", "check_expectation_ouroboros", False),
    ("explorer.explore", "ouroboros.explorer", "explore", False),
    ("explorer.linear_case_exact", "ouroboros.explorer", "linear_case_exact", False),
    # scipy's, wherever explorer gets it from: a module-level binding or,
    # imported lazily, the scipy.optimize attribute itself
    ("explorer.lsq", "scipy.optimize", "least_squares", True),
)

# span name, module, class, method
METHODS = (
    ("core.samples", "ouroboros.core", "SampleDomain", "samples"),
    ("explorer.problem_build", "ouroboros.explorer", "ExplorationProblem", "__init__"),
    ("explorer.residuals", "ouroboros.explorer", "ExplorationProblem", "stacked_residuals"),
    ("explorer.jacobian", "ouroboros.explorer", "ExplorationProblem", "stacked_jacobian"),
    ("explorer.objective_full", "ouroboros.explorer", "ExplorationProblem", "objective_full"),
)


def count_nodes(expr) -> int:
    """Tree nodes of an expression, counted iteratively."""
    count, stack = 0, [expr]
    while stack:
        e = stack.pop()
        count += 1
        for name in ("left", "right", "operand", "base"):
            child = getattr(e, name, None)
            if child is not None:
                stack.append(child)
    return count


class _Span:
    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.stack: list[_Span] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.missing: set[str] = set()  # names the package no longer has; their spans read 0
        self._nodes: dict[int, tuple[object, int]] = {}

    def wrap(self, name: str, fn, hook=None, with_caller: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_code if with_caller else None
            span = _Span(name)
            tracer.stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer.stack.pop()
                tracer.total[name] += duration
                tracer.self_time[name] += duration - span.child
                tracer.calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1].child += duration
            if hook is not None:
                hook(tracer, args, result, duration, caller)
            return result

        return wrapper

    def inside(self, name: str) -> bool:
        return any(span.name == name for span in self.stack)

    def node_count(self, expr) -> int:
        cached = self._nodes.get(id(expr))
        if cached is None or cached[0] is not expr:
            cached = (expr, count_nodes(expr))
            self._nodes[id(expr)] = cached
        return cached[1]


# -- hooks: counters recorded where the work happens --------------------------

def _on_evaluate_many(tracer, args, result, duration, caller):
    expr, points = args[0], args[1]
    rows = len(points)
    tracer.counts["expr.evaluate_many_points"] += rows
    tracer.counts["expr.node_evals"] += tracer.node_count(expr) * rows
    if caller is not None and caller.co_filename.endswith("pde.py"):
        tracer.counts["pde.evaluate_many_points"] += rows
        if caller.co_name == "_fd_partials":
            tracer.counts["pde.fd_evaluate_many_s"] += duration


def _on_samples(tracer, args, result, duration, caller):
    tracer.counts["core.samples_points"] += len(result)


def _on_least_squares(tracer, args, result, duration, caller):
    tracer.counts["explorer.nfev"] += result.nfev
    tracer.counts["explorer.njev"] += result.njev


def _on_jacobian(tracer, args, result, duration, caller):
    # Golub & Van Loan's R-SVD count for U1, S and V of an m x k matrix;
    # trf takes one SVD of every Jacobian it evaluates
    m, k = result.shape
    tracer.counts["explorer.svd_flops_computed"] += 6 * m * k * k + 20 * k**3


def _on_problem_build(tracer, args, result, duration, caller):
    problem = args[0]
    rows = problem.points.shape[0]
    tracer.counts["explorer.problem_build_rows"] += rows
    # value matrix plus n derivative matrices, float64
    tracer.counts["explorer.design_bytes_computed"] += rows * problem.size * (problem.config.n + 1) * 8


def _on_objective_full(tracer, args, result, duration, caller):
    if not tracer.inside("explorer.lsq"):
        tracer.counts["explorer.objective_full_outside_s"] += duration


def _on_explore(tracer, args, result, duration, caller):
    counts = result.counts
    tracer.counts["explorer.starts"] += len(result.runs)
    tracer.counts["explorer.converged"] += counts["mean_like"] + counts["other_candidate"]


HOOKS = {
    "expr.evaluate_many": _on_evaluate_many,
    "core.samples": _on_samples,
    "explorer.lsq": _on_least_squares,
    "explorer.jacobian": _on_jacobian,
    "explorer.problem_build": _on_problem_build,
    "explorer.objective_full": _on_objective_full,
    "explorer.explore": _on_explore,
}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every name in FUNCTIONS and METHODS; restore them on exit."""
    namespaces = [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "ouroboros" or name.startswith("ouroboros."))
    ]
    saved: list[tuple[object, str, object]] = []
    try:
        for span, module_name, attr, own_module in FUNCTIONS:
            home = importlib.import_module(module_name)
            original = getattr(home, attr, None)
            if original is None:
                tracer.missing.add(f"{module_name}.{attr}")
                continue
            wrapper = tracer.wrap(span, original, HOOKS.get(span), with_caller=span == "expr.evaluate_many")
            targets = [m for m in namespaces if m is not home and m.__dict__.get(attr) is original]
            for module in targets + ([home] if own_module else []):
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        for span, module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                tracer.missing.add(f"{module_name}.{cls_name}.{attr}")
                continue
            saved.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(span, original, HOOKS.get(span)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer values per traced unit (one pass of the workload)."""
    t, s, c, k = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    starts = k["explorer.starts"]
    values = {
        "cli.main_s": t["cli.main"],
        "cli.main_self_s": s["cli.main"],
        "expr.evaluate_many_s": t["expr.evaluate_many"],
        "expr.evaluate_many_calls": c["expr.evaluate_many"],
        "expr.evaluate_many_points": k["expr.evaluate_many_points"],
        "expr.node_evals": k["expr.node_evals"],
        "core.samples_s": t["core.samples"],
        "core.samples_points": k["core.samples_points"],
        "expr.parse_s": t["expr.parse"],
        "expr.parse_calls": c["expr.parse"],
        "expr.differentiate_s": t["expr.differentiate"],
        "expr.differentiate_calls": c["expr.differentiate"],
        "expr.constant_fold_s": t["expr.constant_fold"],
        "expr.to_string_s": t["expr.to_string"],
        "pde.check_residual_self_s": s["pde.check_residual"],
        "pde.check_system_self_s": s["pde.check_system"],
        "pde.evaluate_many_points": k["pde.evaluate_many_points"],
        "core.check_sampled_self_s": s["core.check_sampled"],
        "core.check_linear_exact_s": t["core.check_linear_exact"],
        "probability.check_expectation_s": t["probability.check_expectation"],
        "explorer.linear_case_exact_s": t["explorer.linear_case_exact"],
        "explorer.lsq_s": t["explorer.lsq"],
        "explorer.lsq_self_s": s["explorer.lsq"],
        "explorer.jacobian_s": t["explorer.jacobian"],
        "explorer.residuals_s": t["explorer.residuals"],
        "explorer.nfev": k["explorer.nfev"],
        "explorer.njev": k["explorer.njev"],
        "explorer.problem_build_s": t["explorer.problem_build"],
        "explorer.problem_builds": c["explorer.problem_build"],
        "explorer.problem_build_rows": k["explorer.problem_build_rows"],
        "explorer.objective_full_s": k["explorer.objective_full_outside_s"],
        "explorer.svd_flops_computed": k["explorer.svd_flops_computed"],
        "explorer.design_bytes_computed": k["explorer.design_bytes_computed"],
    }
    out = {name: value / units for name, value in values.items()}
    out["explorer.converged_ratio"] = k["explorer.converged"] / starts if starts else 0.0
    return out
