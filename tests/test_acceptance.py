"""Acceptance gate: ten seeded end-to-end criteria, one test per criterion.

Each test prints a single CRITERION line on success (visible with -s and in
the -v test listing through its name), pins its tolerances inline, and uses
counter-based seeding so reruns are bit-identical. Everything here runs at
desk scale; the whole module stays well under a minute.
"""

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ouroboros.core import (
    LinearForm,
    SampleDomain,
    Verdict,
    check_linear_exact,
    check_sampled,
    diagonal_self_apply,
)
from ouroboros.expr import (
    Add,
    Const,
    Mul,
    Neg,
    ParseError,
    Pow,
    Var,
    add,
    differentiate,
    evaluate,
    mul,
    parse,
    power,
    to_string,
)
from ouroboros.explorer import (
    ExplorationConfig,
    ExplorationProblem,
    explore,
    mean_theta,
    monomial_exponents,
    solution_set,
)
from ouroboros.families import head_average_solution
from ouroboros.pde import (
    PdeKind,
    PdeSpec,
    check_alternating_balance,
    check_residual,
    verify_mean_system,
)
from ouroboros.probability import (
    DiscreteRandomVariable,
    SimpleRandomVariable,
    check_expectation_ouroboros,
    lebesgue_integral,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def rng_for(criterion: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=1000 + criterion))


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "ouroboros", *args], capture_output=True, text=True
    )


def test_criterion_01_unit_sum_forms_hold_exactly_and_on_samples():
    """1000 rescaled coefficient vectors: exact check holds, sampled deviation <= 1e-9."""
    rng = rng_for(1)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 11))
        raw = rng.uniform(-5, 5, size=n)
        while abs(math.fsum(raw)) < 0.5:
            raw = rng.uniform(-5, 5, size=n)
        form = LinearForm(tuple(float(c) / math.fsum(raw) for c in raw))
        assert check_linear_exact(form).holds, (i, form.coeffs)
        dom = SampleDomain(n=n, radius=10.0, seed=i, count=200)
        report = check_sampled(form.to_expr(), dom)
        assert report.verdict is Verdict.HOLDS_SAMPLED, (i, form.coeffs)
        assert report.max_deviation <= 1e-9, (i, report.max_deviation)
        worst = max(worst, report.max_deviation)
    print(f"CRITERION 1: PASS - 1000/1000 rescaled forms hold, "
          f"worst sampled deviation {worst:.3e} <= 1e-9")


def test_criterion_02_off_sum_forms_fail_with_working_witnesses():
    """1000 vectors with |sum - 1| >= 0.01: sampled check fails, witness beats 1e-6."""
    rng = rng_for(2)
    checked = 0
    for i in range(1000):
        n = int(rng.integers(1, 11))
        coeffs = rng.uniform(-5, 5, size=n)
        while abs(math.fsum(coeffs) - 1.0) < 0.01 or np.abs(coeffs).max() < 0.01:
            coeffs = rng.uniform(-5, 5, size=n)
        form = LinearForm(tuple(float(c) for c in coeffs))
        dom = SampleDomain(n=n, radius=10.0, seed=i, count=200)
        report = check_sampled(form.to_expr(), dom)
        assert report.verdict is Verdict.FAILS, (i, form.coeffs)
        y, fy = diagonal_self_apply(form.to_expr(), report.witness)
        assert abs(fy - y) > 1e-6, (i, form.coeffs, report.witness)
        checked += 1
    print(f"CRITERION 2: PASS - {checked}/1000 off-sum forms fail with witnesses "
          f"violating the identity by more than 1e-6")


def test_criterion_03_expectation_recomposes_and_one_piece_integrals_are_exact():
    """1000 random variables: |E[E[X]] - E[X]| <= 1e-12; 100 one-piece integrals exact."""
    rng = rng_for(3)
    for i in range(1000):
        size = int(rng.integers(1, 21))
        values = tuple(float(v) for v in rng.uniform(-100, 100, size=size))
        weights = rng.uniform(0.01, 1.0, size=size)
        probs = list(weights / math.fsum(weights))
        probs[int(np.argmax(probs))] += 1.0 - math.fsum(probs)
        report = check_expectation_ouroboros(
            DiscreteRandomVariable(values, tuple(probs))
        )
        assert report.holds and report.deviation <= 1e-12, (i, report.deviation)
    exact = 0
    for level in rng.uniform(-1e6, 1e6, size=100):
        level = float(level)
        if lebesgue_integral(SimpleRandomVariable(((level, 1.0),))) == level:
            exact += 1
    assert exact == 100
    print("CRITERION 3: PASS - 1000/1000 recompositions within 1e-12 "
          "and 100/100 one-piece integrals equal their level exactly")


def test_criterion_04_head_average_family_solves_the_head_equation():
    """200 seeded solutions: residual symbolically zero and <= 1e-12 on 100 points."""
    rng = rng_for(4)
    for i in range(200):
        n = int(rng.integers(2, 9))
        beta = int(rng.integers(1, n))
        body = tuple(float(c) for c in rng.uniform(-5, 5, size=n - 1))
        sol = head_average_solution(body, beta)
        dom = SampleDomain(n=n, radius=2.0, seed=i, count=100)
        report = check_residual(sol.to_expr(), PdeSpec(PdeKind.EQ_I, n=n, beta=beta), dom)
        assert report.symbolic_zero, (i, n, beta, body)
        assert report.max_abs_residual <= 1e-12, (i, report.max_abs_residual)
    print("CRITERION 4: PASS - 200/200 head-average solutions have symbolically "
          "zero residuals, bounded by 1e-12 at 100 points each")


def test_criterion_05_balance_criterion_matches_the_alternating_equation():
    """500 even-n forms: sum criterion and symbolic residual agree in both directions."""
    rng = rng_for(5)
    disagreements = 0
    holds_count = 0
    for i in range(500):
        n = 2 * int(rng.integers(1, 5))
        coeffs = [float(c) for c in rng.uniform(-5, 5, size=n)]
        if i % 2 == 0:
            coeffs[-1] += math.fsum(coeffs[0::2]) - math.fsum(coeffs[1::2])
        balance = check_alternating_balance(coeffs)
        dom = SampleDomain(n=n, radius=2.0, seed=i, count=16)
        residual = check_residual(
            LinearForm(tuple(coeffs)).to_expr(), PdeSpec(PdeKind.EQ_II, n=n), dom
        )
        disagreements += balance.holds != residual.symbolic_zero
        holds_count += balance.holds
    assert disagreements == 0
    assert 200 <= holds_count <= 300  # both directions genuinely exercised
    print(f"CRITERION 5: PASS - 500/500 verdicts agree (0 disagreements, "
          f"{holds_count} balanced / {500 - holds_count} unbalanced)")


def test_criterion_06_the_mean_passes_the_full_system():
    """n in {2, 4, 6, 8}: all four sub-verdicts are true."""
    for n in (2, 4, 6, 8):
        report = verify_mean_system(n)
        assert report.eq1.symbolic_zero, n
        assert report.eq2.symbolic_zero, n
        assert report.zero_at_origin and report.origin_value == 0.0, n
        assert report.ouroboros.verdict is Verdict.HOLDS_EXACT, n
        assert report.all_hold, n
    print("CRITERION 6: PASS - the mean satisfies both equations, the origin "
          "condition, and the self-application identity at n = 2, 4, 6, 8")


def test_criterion_07_symbolic_derivatives_match_finite_differences():
    """200 polynomials, 10 points each: |symbolic - central difference| <= 1e-6 relative."""
    rng = rng_for(7)
    from ouroboros.pde import finite_difference
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(1, 6))
        degree = int(rng.integers(1, 5))
        basis = monomial_exponents(n, degree)
        count = int(rng.integers(1, 13))
        chosen = rng.choice(len(basis), size=min(count, len(basis)), replace=False)
        poly = Const(0.0)
        for j in chosen:
            term = Const(float(rng.uniform(-5, 5)))
            for axis, exponent in enumerate(basis[int(j)]):
                if exponent:
                    term = mul(term, power(Var(axis + 1), exponent))
            poly = add(poly, term)
        k = int(rng.integers(1, n + 1))
        deriv = differentiate(poly, k)
        for point in rng.uniform(-2, 2, size=(10, n)):
            x = tuple(float(v) for v in point)
            sym = evaluate(deriv, x)
            fd = finite_difference(poly, k, x)  # h = 1e-5
            rel = abs(sym - fd) / max(1.0, abs(sym), abs(fd))
            worst = max(worst, rel)
            assert rel <= 1e-6, (i, x, sym, fd)
    print(f"CRITERION 7: PASS - 2000 derivative evaluations agree within 1e-6 "
          f"relative (worst {worst:.3e})")


def _random_tree(r: random.Random, depth: int):
    if depth == 0 or r.random() < 0.3:
        if r.random() < 0.5:
            return Const(round(r.uniform(-9, 9), 3))
        return Var(r.randint(1, 3))
    kind = r.choice(["add", "sub", "mul", "div", "neg", "pow"])
    if kind == "neg":
        return Neg(_random_tree(r, depth - 1))
    if kind == "pow":
        return Pow(_random_tree(r, depth - 1), r.randint(0, 4))
    left = _random_tree(r, depth - 1)
    right = _random_tree(r, depth - 1)
    node, sign = {"add": (Add, 1), "sub": (Add, -1), "mul": (Mul, 1), "div": (Mul, -1)}[kind]
    return node(((1, left), (sign, right)))


MALFORMED = [
    "", "   ", "x", "x0", "y1", "1 +", "+ 1", "(1", "1)", "()",
    "1 ++ 2", "2^", "2^x1", "2^-3", "2^3^4", "1..5", "1.2.3", "x1 x2",
    "3 @ 4", "x1 + (2 * )",
]


def test_criterion_08_parser_round_trips_and_rejects_malformed_input():
    """200 generated expressions round-trip structurally; 20 bad inputs error with positions."""
    r = random.Random(1008)
    for i in range(200):
        tree = _random_tree(r, depth=4)
        printed = to_string(tree)
        reparsed = parse(printed)
        assert reparsed == tree, (i, printed)
    assert len(MALFORMED) == 20
    for text in MALFORMED:
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert isinstance(excinfo.value.position, int)
        assert 0 <= excinfo.value.position <= len(text) + 1
    print("CRITERION 8: PASS - 200/200 structural round-trips and 20/20 "
          "malformed inputs raised positioned syntax errors")


def test_criterion_09_search_is_sound_and_makes_no_uniqueness_claim():
    """Mean objective <= 1e-12; gradients within 1e-5; d = 1 lands in the exact set;
    the reference CLI search finishes under 60 s with schema-valid, claim-free output."""
    for n in (2, 4):
        for degree in (1, 2, 3):
            cfg = ExplorationConfig(n=n, degree=degree, seed=7)
            dom = SampleDomain(n=n, radius=2.0, seed=7, count=cfg.resolved_samples)
            value, _ = ExplorationProblem(cfg, dom.samples()).objective_full(mean_theta(n, degree))
            assert value <= 1e-12, (n, degree, value)

    rng = rng_for(9)
    h = 1e-6
    for case in range(50):
        n = 2 if case % 2 == 0 else 4
        cfg = ExplorationConfig(n=n, degree=2, seed=case, samples=50)
        dom = SampleDomain(n=n, radius=2.0, seed=case, count=50)
        problem = ExplorationProblem(cfg, dom.samples())
        theta = rng.standard_normal(problem.size)
        _, grad = problem.objective_full(theta)
        for j in range(problem.size):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            fd = (problem.objective_full(up)[0] - problem.objective_full(down)[0]) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd)), (case, j, grad[j], fd)

    for n in (2, 4):
        report = explore(ExplorationConfig(n=n, degree=1, seed=5, starts=10))
        exact = solution_set(n, 1)
        for run in report.runs:
            if run.converged:
                assert exact.distance(run.theta) <= 1e-6, (n, run.theta)

    started = time.monotonic()
    proc = run_cli(["explore", "--n", "2", "--degree", "2", "--starts", "20", "--seed", "42"])
    elapsed = time.monotonic() - started
    assert proc.returncode == 0
    assert elapsed < 60.0, elapsed
    doc = json.loads(proc.stdout)
    errors = list(VALIDATOR.iter_errors(doc))
    assert not errors, errors[:2]
    runs = doc["result"]["runs"]
    assert len(runs) == 20 and all("classification" in run for run in runs)
    assert "unique" not in proc.stdout.lower()
    print(f"CRITERION 9: PASS - mean objective <= 1e-12 on the grid, 50 gradient "
          f"checks within 1e-5, degree-1 runs inside the exact set, reference "
          f"search in {elapsed:.1f}s with schema-valid, claim-free output")


DETERMINISM_COMMANDS = [
    ["check", "--coeffs", "1/2,1/3,1/6"],
    ["check", "--expr", "(x1 + x2)/2", "--samples", "64", "--seed", "3"],
    ["pde", "--coeffs", "1/4,1/4,1/4,1/4", "--equation", "I", "--beta", "4"],
    ["pde", "--expr", "x1^2", "--equation", "II", "--n", "2"],
    ["pde", "--coeffs", "1/2,1/2", "--equation", "system"],
    ["expect", "--values", "1,2,3", "--probs", "1/5,3/10,1/2"],
    ["explore", "--n", "2", "--degree", "1", "--starts", "3", "--samples", "60"],
    ["version"],
]


def test_criterion_10_cli_reports_are_deterministic_modulo_the_timestamp():
    """Every subcommand, run twice with identical argv, is byte-identical past the timestamp."""
    for args in DETERMINISM_COMMANDS:
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode, args
        strip = lambda out: [l for l in out.splitlines() if '"timestamp"' not in l]
        assert strip(first.stdout) == strip(second.stdout), args
        ts_lines = [l for l in first.stdout.splitlines() if '"timestamp"' in l]
        assert len(ts_lines) == 1, args
    print(f"CRITERION 10: PASS - {len(DETERMINISM_COMMANDS)} commands byte-identical "
          f"across reruns once the single timestamp line is removed")
