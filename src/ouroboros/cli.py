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
included. A candidate u with no value where a check needs one, such as
``1/(x1-x1)``, is unusable input for both ``check`` and ``pde``: ``check``
still prints its envelope, with verdict ``error`` (also given when u's value
at a sample is not finite), and ``pde`` prints none. 3 means the program
itself failed, reported as one ``internal error: <Type>: <message>`` line.
Diagnostics go to stderr, never into the envelope.

A JSON config file (--config) supplies defaults for the subcommand's
options under their flag names with underscores, e.g. {"samples": 500};
explicit flags win over the file. A value means what the same text after its
flag means: {"n": "4"} is --n 4, a value the flag would refuse, such as
{"seed": 1.5}, is unusable input, and null means not given.

A value may begin with "-": ``--coeffs -1/2,3/2``, ``--expr -x1+2*x2`` and
``--tol -1e-3`` give the flag that value, as the ``--flag=value`` form does.
An argument that begins with one "-" is a value unless it names a registered
option: ``-h``, which argparse also reads in ``-h`` followed by more text.

Start-up, not the check, sets a command's wall time: the checks take
2-6 ms. Each handler imports what it needs. Only ``explore`` and a sampled
check whose cloud is past ``core.SMALL_CLOUD_CELLS`` import numpy: up to
that bound, samples times (n plus the nodes of u), ``check --expr`` and
``pde --expr`` draw and check their cloud on Python floats, to the bits
numpy gives. At the default 200 samples that covers every u of up to about
100 nodes. ``check`` and ``pde`` by ``--coeffs`` or ``--expr``, ``expect``
and ``version`` take about 0.12-0.15 s in a fresh process and ``explore``
about 0.26 s (medians of 3 runs of ``scripts/time_cli.py``, 9 alternating
rounds each, 2-CPU VM, Python 3.11.7, numpy 2.4.6). These numbers are taken with
``__pycache__`` present: without written bytecode
(``PYTHONDONTWRITEBYTECODE=1`` on a fresh checkout) every run compiles the
package again, which adds about 0.01-0.05 s.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from datetime import datetime, timezone
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .core import (
    EXACT_TOL,
    RESIDUAL_TOL,
    SAMPLED_TOL,
    LinearForm,
    SampleDomain,
    Verdict,
    check_linear_exact,
    check_sampled,
)
from .expr import EvaluationError, Expr, ParseError, dimension, parse, to_string
from .probability import DiscreteRandomVariable, check_expectation_ouroboros

class Option(NamedTuple):
    """One option of a subcommand: its flag, config key, type, default and help."""

    name: str
    type: type
    default: object
    help: str
    choices: tuple | None = None


_CHECK_OPTIONS = (
    Option("coeffs", str, None, "comma-separated coefficients of a linear form, fractions allowed"),
    Option("expr", str, None, "expression in x1..xn, e.g. '(x1 + x2)/2'"),
    Option("n", int, None, "dimension, at least the --coeffs length; defaults to it or the largest variable index"),
    Option("samples", int, 200, "sample count for expression checks"),
    Option("radius", float, 2.0, "half-width of the sampling box"),
    Option("seed", int, 0, "sampling seed"),
    Option("tol", float, None, "tolerance override"),
)
_PDE_OPTIONS = (
    Option("coeffs", str, None, "linear form coefficients, fractions allowed"),
    Option("expr", str, None, "expression in x1..xn"),
    Option("equation", str, None, "which check to run", ("I", "II", "system")),
    Option("beta", int, None, "head length for equation I (1..n)"),
    Option("n", int, None, "dimension, at least the --coeffs length; defaults to it or the largest variable index"),
    Option("samples", int, 200, "sample count for residual bounds"),
    Option("radius", float, 2.0, "half-width of the sampling box"),
    Option("seed", int, 0, "sampling seed"),
    Option("tol", float, RESIDUAL_TOL, "residual tolerance"),
)
_EXPECT_OPTIONS = (
    Option("values", str, None, "comma-separated outcomes, fractions allowed"),
    Option("probs", str, None, "comma-separated probabilities, fractions allowed"),
)
# explore's defaults are ExplorationConfig's; a row here only names and reads its setting
_EXPLORE_OPTIONS = (
    Option("n", int, None, "dimension, even"),
    Option("degree", int, None, "polynomial degree of the candidates"),
    Option("samples", int, None, "sample count; default scales with the basis"),
    Option("radius", float, None, "half-width of the sampling box"),
    Option("seed", int, None, "seed for samples and starts"),
    Option("starts", int, None, "number of optimisation starts"),
    Option("max_iterations", int, None, "evaluation budget per start"),
    Option("tol", float, None, "optimiser convergence tolerance"),
    Option("csv", str, None, "also write the per-run table to this path"),
)

# argparse reads "-1/2,3/2", "-x1+2*x2" and, on Python 3.10 and 3.11, "-1e-3" as flags: an
# argument that starts with one "-" is a value unless it names a registered option. Only -h is
# registered with one "-", before this matcher is set, and argparse looks options up first
_DASHED_VALUE = re.compile(r"-(?!-)")
# PEP 515 digit grouping, which Fraction reads only from Python 3.11 on: an underscore between two digits
_STRAY_UNDERSCORE = re.compile(r"(?<![0-9])_|_(?![0-9])")
# Fraction builds 10**exponent; an exponent of five or more digits, far outside the float range, is refused first
_HUGE_EXPONENT = re.compile(r"[eE][-+]?0*[1-9]\d{4}")


class InputError(Exception):
    """Unusable invocation: bad flags, bad grammar, bad config file."""


def parse_fractions(text: str, what: str) -> list[Fraction]:
    """Comma-separated numbers as exact fractions; accepts 1/2, 0.25, 2.5e-1 and 1_000."""
    out = []
    for raw in text.split(","):
        tok = raw.strip()
        if not tok:
            raise InputError(f"empty entry in {what}: {text!r}")
        number = tok if _STRAY_UNDERSCORE.search(tok) else tok.replace("_", "")
        if _HUGE_EXPONENT.search(number):
            raise InputError(f"the exponent of {tok!r} in {what} has more than four digits")
        try:
            out.append(Fraction(number))
        except (ValueError, ZeroDivisionError) as exc:
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


def _exact_text(value: Fraction) -> str:
    """``str(value)`` at any length: Decimal prints integers past the interpreter's 4300-digit limit."""
    numerator, denominator = (str(Decimal(part)) for part in value.as_integer_ratio())
    return numerator if denominator == "1" else f"{numerator}/{denominator}"


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


def _resolve_options(args: argparse.Namespace, options: tuple[Option, ...]) -> dict:
    """Table defaults, overridden by the config file, overridden by explicit flags."""
    file_values = _load_config_file(args.config)
    unknown = set(file_values) - {opt.name for opt in options}
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved = {}
    for opt in options:
        in_file = file_values.get(opt.name)
        resolved[opt.name] = opt.default if in_file is None else _read_config_value(opt, str(in_file))
        if getattr(args, opt.name) is not None:
            resolved[opt.name] = getattr(args, opt.name)
    return resolved


def _read_config_value(opt: Option, text: str):
    """A config file value, read as the same text after its flag would be."""
    try:
        value = opt.type(text)
    except ValueError:
        raise InputError(f"config key {opt.name}: cannot read {text!r} as {opt.type.__name__}") from None
    if opt.choices is not None and value not in opt.choices:
        raise InputError(f"config key {opt.name}: {text!r} is not one of {', '.join(opt.choices)}")
    return value


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


class Candidate(NamedTuple):
    """The u of a check or pde command: a linear form from --coeffs, or a parsed --expr."""

    fracs: list[Fraction] | None  # the --coeffs entries, exactly; None for --expr
    form: LinearForm | None
    expr: Expr | None  # None for --coeffs, which is checked without a tree
    source: str  # the option's text
    n_given: int | None

    @property
    def n(self) -> int:
        """--n, by default the form's length or the largest variable index."""
        n = self.n_given
        if n is None:
            n = len(self.fracs) if self.fracs is not None else dimension(self.expr)
            if n < 1:
                raise InputError("the expression has no variables; give --n explicitly")
        elif n < 1:
            raise InputError(f"--n must be at least 1, got {n}")
        elif self.fracs is not None and n < len(self.fracs):
            raise InputError(f"--n {n} is below the {len(self.fracs)} entries of --coeffs")
        return n


def _read_candidate(opts: dict, command: str) -> Candidate:
    if (opts["coeffs"] is None) == (opts["expr"] is None):
        raise InputError(f"'{command}' needs exactly one of --coeffs or --expr")
    if opts["coeffs"] is not None:
        fracs = parse_fractions(opts["coeffs"], "--coeffs")
        form = LinearForm(_to_floats(fracs, "--coeffs"))
        return Candidate(fracs, form, None, opts["coeffs"], opts["n"])
    return Candidate(None, None, _parse_expression(opts["expr"]), opts["expr"], opts["n"])


# -- subcommand handlers ------------------------------------------------------


def _run_check(args: argparse.Namespace) -> int:
    opts = _resolve_options(args, _CHECK_OPTIONS)
    u = _read_candidate(opts, "check")

    if u.form is not None:
        tol = EXACT_TOL if opts["tol"] is None else opts["tol"]
        report = check_linear_exact(u.form, tol=tol)
        config = {"coeffs": [_exact_text(f) for f in u.fracs], "n": u.n, "tol": tol}
        result = {
            "mode": "exact",
            "n": u.n,
            "coefficients": [float(f) for f in u.fracs],
            "coefficient_sum": u.form.coefficient_sum(),
            "coefficient_sum_exact": _exact_text(sum(u.fracs)),
            "report": report.to_dict(),
        }
        _emit(_envelope("check", config, None, result))
        return 0 if report.holds else 1

    n = u.n
    tol = SAMPLED_TOL if opts["tol"] is None else opts["tol"]
    dom = SampleDomain(n=n, radius=opts["radius"], seed=opts["seed"], count=opts["samples"])
    report = check_sampled(u.expr, dom, tol=tol)
    config = {
        "expr": to_string(u.expr),
        "n": n,
        "samples": dom.count,
        "radius": dom.radius,
        "seed": dom.seed,
        "tol": tol,
    }
    result = {
        "mode": "sampled",
        "n": n,
        "expression": to_string(u.expr),
        "report": report.to_dict(),
    }
    _emit(_envelope("check", config, dom.seed, result))
    if report.verdict is Verdict.ERROR:
        print(f"error: u cannot be evaluated: {report.error}", file=sys.stderr)
        return 2
    return 0 if report.holds else 1


def _run_pde(args: argparse.Namespace) -> int:
    from .pde import PdeKind, PdeSpec, check_residual, check_system

    opts = _resolve_options(args, _PDE_OPTIONS)
    equation = _require(opts, "equation", "pde")
    u = _read_candidate(opts, "pde")
    n = u.n
    tol = opts["tol"]
    dom = SampleDomain(n=n, radius=opts["radius"], seed=opts["seed"], count=opts["samples"])
    config = {
        "input": u.source,
        "equation": equation,
        "beta": opts["beta"],
        "n": n,
        "samples": dom.count,
        "radius": dom.radius,
        "seed": dom.seed,
        "tol": tol,
    }

    candidate = u.form if u.form is not None else u.expr  # a linear form is decided on its coefficients
    if equation == "system":
        if opts["beta"] is not None:
            raise InputError("--beta does not apply to the system check")
        report = _evaluated(check_system, candidate, n, dom)
        result = {"mode": "system", "report": report.to_dict(tol)}
    else:
        if equation == "I":
            spec = PdeSpec(PdeKind.EQ_I, n=n, beta=_require(opts, "beta", "pde --equation I"))
        elif opts["beta"] is not None:
            raise InputError("--beta only applies to equation I")
        else:
            spec = PdeSpec(PdeKind.EQ_II, n=n)
        report = _evaluated(check_residual, candidate, spec, dom)
        result = {"mode": "residual", "equation": equation, "beta": spec.beta, "report": report.to_dict()}
    expression = to_string(u.expr if u.form is None else u.form.to_expr())
    result.update(n=n, expression=expression, passes=report.passes(tol))
    _emit(_envelope("pde", config, dom.seed, result))
    return 0 if result["passes"] else 1


def _evaluated(check, *args):
    """Run a residual or system check; u without a value where it is needed is unusable input."""
    try:
        return check(*args)
    except EvaluationError as exc:
        raise InputError(f"u cannot be evaluated: {exc}") from exc


def _run_expect(args: argparse.Namespace) -> int:
    opts = _resolve_options(args, _EXPECT_OPTIONS)
    values = parse_fractions(_require(opts, "values", "expect"), "--values")
    probs = parse_fractions(_require(opts, "probs", "expect"), "--probs")
    rv = DiscreteRandomVariable(
        values=_to_floats(values, "--values"),
        probs=_to_floats(probs, "--probs"),
    )
    report = check_expectation_ouroboros(rv)
    config = {"values": [_exact_text(v) for v in values], "probs": [_exact_text(p) for p in probs]}
    result = {
        "values": [float(v) for v in values],
        "probabilities": [float(p) for p in probs],
        "probability_sum_exact": _exact_text(sum(probs)),
        "report": report.to_dict(),
    }
    _emit(_envelope("expect", config, None, result))
    return 0 if report.holds else 1


def _run_explore(args: argparse.Namespace) -> int:
    from .explorer import ExplorationConfig, explore

    opts = _resolve_options(args, _EXPLORE_OPTIONS)
    csv_path = opts.pop("csv")
    _require(opts, "n", "explore")
    _require(opts, "degree", "explore")
    config = ExplorationConfig(**{key: value for key, value in opts.items() if value is not None})
    report = explore(config)
    if csv_path is not None:
        _write_runs_csv(csv_path, report)
        print(f"runs table written to {csv_path}", file=sys.stderr)
    _emit(_envelope("explore", config.to_dict(), config.seed, report.to_dict()))
    return 0


def _write_runs_csv(path: str, report) -> None:
    fields = [
        "start", "classification", "converged", "objective",
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

    commands = (
        ("check", "self-application identity", _CHECK_OPTIONS, _run_check),
        ("pde", "transport equation residuals and the full system", _PDE_OPTIONS, _run_pde),
        ("expect", "expectation idempotence for a finite random variable", _EXPECT_OPTIONS, _run_expect),
        (
            "explore", "exact solution set and multi-start search over polynomials",
            _EXPLORE_OPTIONS, _run_explore,
        ),
    )
    for command, help_text, options, handler in commands:
        p = sub.add_parser(command, help=help_text)
        p._negative_number_matcher = _DASHED_VALUE
        for opt in options:
            flag = "--" + opt.name.replace("_", "-")
            p.add_argument(flag, type=opt.type, choices=opt.choices, help=opt.help)
        p.add_argument("--config", help="JSON file with option defaults; flags override it")
        p.set_defaults(handler=handler)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(handler=_run_version)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not pass for a "fails" verdict
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
