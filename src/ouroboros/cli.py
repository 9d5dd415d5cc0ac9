"""Command line front end.

Subcommands:

    check    self-application identity for a linear form or an expression
    pde      residual of equation I or II, or the full system check
    expect   expectation idempotence for a finite random variable
    explore  exact polynomial solution set, cross-checked by a multi-start search
    version  package version

Every subcommand prints one JSON envelope to stdout:

    {"manifest": {"command", "config", "seed", "version", "timestamp"},
     "result": ...}

Keys are sorted and the layout is fixed, so two runs with the same inputs
produce byte-identical output except for the manifest timestamp. A float
that is not finite (an overflow, or no value) is written as null. Exit code
0 means the checked property holds (or, for explore, that the search
completed); 1 means it fails; 2 means the invocation or its inputs were
unusable, an expression nested more than ``expr.MAX_DEPTH`` levels deep
included; 3 means the program itself failed, reported as one
``internal error: <Type>: <message>`` line. Diagnostics go to stderr, never
into the envelope.

A JSON config file (--config) supplies defaults for the subcommand's
options under their flag names with underscores, e.g. {"samples": 500};
explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import __version__
from .core import EXACT_TOL, SAMPLED_TOL, LinearForm, SampleDomain, check_linear_exact, check_sampled
from .expr import EvaluationError, ParseError, dimension, parse, to_string
from .explorer import ExplorationConfig, explore
from .pde import RESIDUAL_TOL, PdeKind, PdeSpec, check_residual, check_system
from .probability import DiscreteRandomVariable, check_expectation_ouroboros

_CHECK_DEFAULTS = {
    "coeffs": None,
    "expr": None,
    "n": None,
    "samples": 200,
    "radius": 2.0,
    "seed": 0,
    "tol": None,
}
_PDE_DEFAULTS = {
    "coeffs": None,
    "expr": None,
    "equation": None,
    "beta": None,
    "n": None,
    "samples": 200,
    "radius": 2.0,
    "seed": 0,
    "tol": RESIDUAL_TOL,
}
_EXPECT_DEFAULTS = {"values": None, "probs": None}
_EXPLORE_DEFAULTS = {
    "n": None,
    "degree": None,
    "samples": None,
    "radius": 2.0,
    "seed": 0,
    "starts": 20,
    "weight_eq1": 1.0,
    "weight_eq2": 1.0,
    "weight_ouroboros": 1.0,
    "max_iterations": 100,
    "tol": 1e-15,
    "init": "random",
    "csv": None,
}


class InputError(Exception):
    """Unusable invocation: bad flags, bad grammar, bad config file."""


def parse_fractions(text: str, what: str) -> list[Fraction]:
    """Comma-separated numbers as exact fractions; accepts 1/2, 0.25, 2.5e-1."""
    out = []
    for raw in text.split(","):
        tok = raw.strip()
        if not tok:
            raise InputError(f"empty entry in {what}: {text!r}")
        try:
            out.append(Fraction(tok))
            continue
        except (ValueError, ZeroDivisionError):
            pass
        try:
            out.append(Fraction(Decimal(tok)))
        except (InvalidOperation, ValueError) as exc:
            raise InputError(f"cannot read {tok!r} in {what} as a number") from exc
    if not out:
        raise InputError(f"{what} is empty")
    return out


def _to_floats(fracs: list[Fraction], what: str) -> tuple[float, ...]:
    """Exact fractions as floats; one beyond the float range is unusable input."""
    try:
        return tuple(float(f) for f in fracs)  # raises rather than round to inf
    except OverflowError as exc:
        raise InputError(f"{what} holds a number too large for a float") from exc


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InputError("config file must hold a JSON object")
    return loaded


def _resolve_options(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    file_values = _load_config_file(getattr(args, "config", None))
    unknown = set(file_values) - set(defaults)
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = dict(defaults)
    resolved.update(file_values)
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    return resolved


def _envelope(command: str, config: dict, seed: int | None, result: dict) -> dict:
    return {
        "manifest": {
            "command": command,
            "config": config,
            "seed": seed,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
        "result": result,
    }


def _emit(envelope: dict) -> None:
    """Print the envelope as JSON (RFC 8259), with null for each non-finite float."""
    print(json.dumps(_finite_or_null(envelope), sort_keys=True, indent=2, allow_nan=False))


def _finite_or_null(value):
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _require(options: dict, key: str, command: str):
    if options[key] is None:
        raise InputError(f"'{command}' needs --{key.replace('_', '-')}")
    return options[key]


def _parse_expression(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        raise InputError(f"cannot parse expression: {exc}") from exc


# -- subcommand handlers ------------------------------------------------------


def _run_check(args: argparse.Namespace) -> int:
    opts = _resolve_options(args, _CHECK_DEFAULTS)
    if (opts["coeffs"] is None) == (opts["expr"] is None):
        raise InputError("'check' needs exactly one of --coeffs or --expr")

    if opts["coeffs"] is not None:
        fracs = parse_fractions(opts["coeffs"], "--coeffs")
        form = LinearForm(_to_floats(fracs, "--coeffs"))
        tol = EXACT_TOL if opts["tol"] is None else float(opts["tol"])
        report = check_linear_exact(form, tol=tol)
        config = {"coeffs": [str(f) for f in fracs], "tol": tol}
        result = {
            "mode": "exact",
            "n": len(fracs),
            "coefficients": [float(f) for f in fracs],
            "coefficient_sum": form.coefficient_sum(),
            "coefficient_sum_exact": str(sum(fracs)),
            "report": report.to_dict(),
        }
        _emit(_envelope("check", config, None, result))
        return 0 if report.holds else 1

    expr = _parse_expression(opts["expr"])
    n = opts["n"] if opts["n"] is not None else dimension(expr)
    if n < 1:
        raise InputError("the expression has no variables; give --n explicitly")
    tol = SAMPLED_TOL if opts["tol"] is None else float(opts["tol"])
    dom = SampleDomain(n=n, radius=float(opts["radius"]), seed=int(opts["seed"]), count=int(opts["samples"]))
    report = check_sampled(expr, dom, tol=tol)
    config = {
        "expr": to_string(expr),
        "n": n,
        "samples": dom.count,
        "radius": dom.radius,
        "seed": dom.seed,
        "tol": tol,
    }
    result = {
        "mode": "sampled",
        "n": n,
        "expression": to_string(expr),
        "report": report.to_dict(),
    }
    _emit(_envelope("check", config, dom.seed, result))
    return 0 if report.holds else 1


def _run_pde(args: argparse.Namespace) -> int:
    opts = _resolve_options(args, _PDE_DEFAULTS)
    equation = _require(opts, "equation", "pde")
    if (opts["coeffs"] is None) == (opts["expr"] is None):
        raise InputError("'pde' needs exactly one of --coeffs or --expr")

    form = None
    if opts["coeffs"] is not None:
        fracs = parse_fractions(opts["coeffs"], "--coeffs")
        form = LinearForm(_to_floats(fracs, "--coeffs"))
        expr = form.to_expr()
        source = opts["coeffs"]
    else:
        expr = _parse_expression(opts["expr"])
        source = opts["expr"]

    n = opts["n"] if opts["n"] is not None else (len(form.coeffs) if form else dimension(expr))
    if n < 1:
        raise InputError("the expression has no variables; give --n explicitly")
    tol = float(opts["tol"])
    dom = SampleDomain(n=n, radius=float(opts["radius"]), seed=int(opts["seed"]), count=int(opts["samples"]))
    config = {
        "input": source,
        "equation": equation,
        "beta": opts["beta"],
        "n": n,
        "samples": dom.count,
        "radius": dom.radius,
        "seed": dom.seed,
        "tol": tol,
    }

    if equation == "system":
        if opts["beta"] is not None:
            raise InputError("--beta does not apply to the system check")
        report = _evaluated(check_system, form if form is not None else expr, n, dom)
        result = {
            "mode": "system",
            "n": n,
            "expression": to_string(expr),
            "report": report.to_dict(),
        }
        _emit(_envelope("pde", config, dom.seed, result))
        return 0 if report.all_hold else 1

    if equation == "I":
        beta = _require(opts, "beta", "pde --equation I")
        spec = PdeSpec(PdeKind.EQ_I, n=n, beta=int(beta))
    else:
        if opts["beta"] is not None:
            raise InputError("--beta only applies to equation I")
        spec = PdeSpec(PdeKind.EQ_II, n=n)
    report = _evaluated(check_residual, expr, spec, dom)
    result = {
        "mode": "residual",
        "equation": equation,
        "n": n,
        "beta": spec.beta,
        "expression": to_string(expr),
        "report": report.to_dict(),
        "passes": report.passes(tol),
    }
    _emit(_envelope("pde", config, dom.seed, result))
    return 0 if report.passes(tol) else 1


def _evaluated(check, *args):
    """Run a residual or system check; u without a value where it is needed is unusable input."""
    try:
        return check(*args)
    except EvaluationError as exc:
        raise InputError(f"u cannot be evaluated: {exc}") from exc


def _run_expect(args: argparse.Namespace) -> int:
    opts = _resolve_options(args, _EXPECT_DEFAULTS)
    values = parse_fractions(_require(opts, "values", "expect"), "--values")
    probs = parse_fractions(_require(opts, "probs", "expect"), "--probs")
    rv = DiscreteRandomVariable(
        values=_to_floats(values, "--values"),
        probs=_to_floats(probs, "--probs"),
    )
    report = check_expectation_ouroboros(rv)
    config = {"values": [str(v) for v in values], "probs": [str(p) for p in probs]}
    result = {
        "values": [float(v) for v in values],
        "probabilities": [float(p) for p in probs],
        "probability_sum_exact": str(sum(probs)),
        "report": report.to_dict(),
    }
    _emit(_envelope("expect", config, None, result))
    return 0 if report.holds else 1


def _run_explore(args: argparse.Namespace) -> int:
    opts = _resolve_options(args, _EXPLORE_DEFAULTS)
    csv_path = opts.pop("csv")
    config = ExplorationConfig(
        n=int(_require(opts, "n", "explore")),
        degree=int(_require(opts, "degree", "explore")),
        samples=None if opts["samples"] is None else int(opts["samples"]),
        radius=float(opts["radius"]),
        seed=int(opts["seed"]),
        starts=int(opts["starts"]),
        weight_eq1=float(opts["weight_eq1"]),
        weight_eq2=float(opts["weight_eq2"]),
        weight_ouroboros=float(opts["weight_ouroboros"]),
        max_iterations=int(opts["max_iterations"]),
        tol=float(opts["tol"]),
        init=str(opts["init"]),
    )
    report = explore(config)
    if csv_path is not None:
        _write_runs_csv(csv_path, report)
        print(f"runs table written to {csv_path}", file=sys.stderr)
    _emit(_envelope("explore", config.to_dict(), config.seed, report.to_dict()))
    return 0


def _write_runs_csv(path: str, report) -> None:
    fields = [
        "start", "init", "classification", "converged", "objective",
        "residual_eq1", "residual_eq2", "residual_ouroboros",
        "distance_to_mean", "distance_to_solution_set", "n_evaluations",
        "n_jacobian_evaluations", "solver_status", "theta",
    ]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for run in report.runs:
                row = run.to_dict()
                row["theta"] = ";".join(repr(t) for t in run.theta)
                writer.writerow(row)
    except OSError as exc:
        raise InputError(f"cannot write csv file: {exc}") from exc


def _run_version(args: argparse.Namespace) -> int:
    _emit(_envelope("version", {}, None, {"version": __version__}))
    return 0


# -- parser wiring ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ouroboros",
        description="check and search for functions that reproduce themselves under self-application",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with option defaults; flags override it")

    p_check = sub.add_parser("check", help="self-application identity")
    p_check.add_argument("--coeffs", help="comma-separated coefficients of a linear form, fractions allowed")
    p_check.add_argument("--expr", help="expression in x1..xn, e.g. '(x1 + x2)/2'")
    p_check.add_argument("--n", type=int, help="dimension; defaults to the largest variable index")
    p_check.add_argument("--samples", type=int, help="sample count for expression checks")
    p_check.add_argument("--radius", type=float, help="half-width of the sampling box")
    p_check.add_argument("--seed", type=int, help="sampling seed")
    p_check.add_argument("--tol", type=float, help="tolerance override")
    add_config(p_check)
    p_check.set_defaults(handler=_run_check)

    p_pde = sub.add_parser("pde", help="transport equation residuals and the full system")
    p_pde.add_argument("--coeffs", help="linear form coefficients, fractions allowed")
    p_pde.add_argument("--expr", help="expression in x1..xn")
    p_pde.add_argument("--equation", choices=["I", "II", "system"], help="which check to run")
    p_pde.add_argument("--beta", type=int, help="head length for equation I (1..n)")
    p_pde.add_argument("--n", type=int, help="dimension; defaults to the largest variable index")
    p_pde.add_argument("--samples", type=int, help="sample count for residual bounds")
    p_pde.add_argument("--radius", type=float, help="half-width of the sampling box")
    p_pde.add_argument("--seed", type=int, help="sampling seed")
    p_pde.add_argument("--tol", type=float, help="residual tolerance")
    add_config(p_pde)
    p_pde.set_defaults(handler=_run_pde)

    p_exp = sub.add_parser("expect", help="expectation idempotence for a finite random variable")
    p_exp.add_argument("--values", help="comma-separated outcomes, fractions allowed")
    p_exp.add_argument("--probs", help="comma-separated probabilities, fractions allowed")
    add_config(p_exp)
    p_exp.set_defaults(handler=_run_expect)

    p_explore = sub.add_parser("explore", help="exact solution set and multi-start search over polynomials")
    p_explore.add_argument("--n", type=int, help="dimension, even")
    p_explore.add_argument("--degree", type=int, help="polynomial degree of the candidates")
    p_explore.add_argument("--samples", type=int, help="sample count; default scales with the basis")
    p_explore.add_argument("--radius", type=float, help="half-width of the sampling box")
    p_explore.add_argument("--seed", type=int, help="seed for samples and starts")
    p_explore.add_argument("--starts", type=int, help="number of optimisation starts")
    p_explore.add_argument("--weight-eq1", dest="weight_eq1", type=float, help="weight of the equation I term")
    p_explore.add_argument("--weight-eq2", dest="weight_eq2", type=float, help="weight of the equation II term")
    p_explore.add_argument(
        "--weight-ouroboros", dest="weight_ouroboros", type=float, help="weight of the self-application term"
    )
    p_explore.add_argument(
        "--max-iterations", dest="max_iterations", type=int, help="evaluation budget per start"
    )
    p_explore.add_argument("--tol", type=float, help="optimiser convergence tolerance")
    p_explore.add_argument("--init", choices=["random", "mean"], help="start vectors: Gaussian or the mean")
    p_explore.add_argument("--csv", help="also write the per-run table to this path")
    add_config(p_explore)
    p_explore.set_defaults(handler=_run_explore)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(handler=_run_version)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not pass for a "fails" verdict
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
