"""Exact solution set and multi-start search: objective machinery, classification."""

import ctypes
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouroboros import explorer
from ouroboros.core import SampleDomain, check_sampled
from ouroboros.expr import evaluate, evaluate_many, parse
from ouroboros.explorer import (
    SET_DISTANCE_TOL,
    Classification,
    ExplorationConfig,
    ExplorationProblem,
    basis_size,
    explore,
    mean_theta,
    monomial_exponents,
    solution_set,
)
from ouroboros.pde import PdeKind, PdeSpec, check_residual, check_system, system_specs
from ouroboros.poly import combine, derivative, expand
from test_poly import reference_times


def polynomial_expr(theta, n, degree):
    """sum(theta_j * x^alpha_j) over the graded basis, parsed from exact text."""
    return parse(" + ".join(
        repr(float(c)) + "".join(f"*x{i + 1}^{a}" for i, a in enumerate(alpha) if a)
        for c, alpha in zip(theta, monomial_exponents(n, degree))
    ))


def make_problem(n=4, degree=2, seed=11, count=50):
    cfg = ExplorationConfig(n=n, degree=degree, seed=seed, samples=count)
    dom = SampleDomain(n=n, radius=cfg.radius, seed=seed, count=count)
    return cfg, ExplorationProblem(cfg, dom.samples())


class TestBasis:
    def test_graded_order_is_pinned(self):
        assert monomial_exponents(2, 2) == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        ]

    def test_size_matches_the_binomial_count(self):
        assert basis_size(2, 2) == 6
        assert basis_size(4, 3) == 35
        for n in (1, 2, 3, 5):
            for d in (0, 1, 2, 4):
                assert len(monomial_exponents(n, d)) == basis_size(n, d)

    def test_mean_theta_puts_equal_weight_on_degree_one(self):
        theta = mean_theta(4, 2)
        assert theta[0] == 0.0
        assert np.all(theta[1:5] == 0.25)
        assert np.all(theta[5:] == 0.0)

    def test_ansatz_expression_matches_the_design_matrix(self):
        cfg, problem = make_problem(n=4, degree=2, count=10)
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(problem.size)
        u = polynomial_expr(theta, 4, 2)
        direct = problem.phi_matrix @ theta
        for i, point in enumerate(problem.points):
            via_expr = evaluate(u, tuple(point))
            assert via_expr == pytest.approx(direct[i], rel=1e-12, abs=1e-12)


class TestConfig:
    def test_odd_dimension_is_rejected(self):
        with pytest.raises(ValueError):
            ExplorationConfig(n=3, degree=2)

    def test_bad_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            ExplorationConfig(n=2, degree=0)
        with pytest.raises(ValueError):
            ExplorationConfig(n=2, degree=1, starts=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError):
            ExplorationConfig(n=2, degree=1, tol=tol)

    def test_to_dict_is_every_field_with_the_sample_budget_resolved(self):
        config = ExplorationConfig(n=4, degree=3, seed=5)
        assert config.to_dict() == {
            "n": 4, "degree": 3, "samples": 350, "radius": 2.0, "seed": 5,
            "starts": 20, "max_iterations": 100, "tol": 1e-15,
        }

    def test_default_sample_budget_scales_with_the_basis(self):
        assert ExplorationConfig(n=2, degree=2).resolved_samples == 200
        assert ExplorationConfig(n=4, degree=3).resolved_samples == 350


class TestObjective:
    def test_zero_at_the_mean(self):
        for n in (2, 4):
            for degree in (1, 2, 3):
                cfg = ExplorationConfig(n=n, degree=degree, seed=7)
                dom = SampleDomain(n=n, radius=2.0, seed=7, count=cfg.resolved_samples)
                value, _ = ExplorationProblem(cfg, dom.samples()).objective_full(mean_theta(n, degree))
                assert value <= 1e-12

    def test_positive_away_from_solutions(self):
        cfg, problem = make_problem(n=2, degree=2)
        theta = mean_theta(2, 2)
        theta[3] += 0.5  # bend the candidate
        value, _ = problem.objective_full(theta)
        assert value > 1e-4

    def test_gradient_matches_finite_differences(self):
        cfg, problem = make_problem()
        rng = np.random.default_rng(3)
        theta = rng.standard_normal(problem.size)
        _, grad = problem.objective_full(theta)
        h = 1e-6
        for j in range(problem.size):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            fd = (problem.objective_full(up)[0] - problem.objective_full(down)[0]) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_normal_equations_carry_the_objective(self):
        cfg, problem = make_problem()
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(problem.size - 2)
        value, _, _ = problem.normal_equations(phi)
        assert value == pytest.approx(problem.objective_full(problem.embed(phi))[0], rel=1e-12)
        assert value == pytest.approx(problem.objective(problem.embed(phi)), rel=1e-12)

    def test_free_gradient_matches_finite_differences(self):
        """J^T r is half the objective's gradient over the free coordinates."""
        cfg, problem = make_problem(count=20)
        rng = np.random.default_rng(8)
        phi = rng.standard_normal(problem.size - 2)
        _, gradient, _ = problem.normal_equations(phi)
        h = 1e-6
        fd = np.empty_like(phi)
        for j in range(phi.size):
            up, down = phi.copy(), phi.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (problem.objective(problem.embed(up)) - problem.objective(problem.embed(down))) / (4 * h)
        assert np.abs(fd - gradient).max() <= 1e-5 * (1 + np.abs(fd).max())

    @given(st.lists(st.floats(min_value=-2, max_value=2, allow_nan=False), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_embedding_always_lands_on_the_constraints(self, phi):
        cfg, problem = make_problem(n=2, degree=2, count=5)
        theta = problem.embed(np.array(phi))
        assert theta[0] == 0.0
        assert theta.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(problem.reduce(theta), np.array(phi))

    def test_operator_matrices_match_per_column_derivatives(self):
        """a1 and a2 equal, bit for bit, their definition column by column, each
        lowered monomial evaluated as the tree x1^a1*x2^a2*..."""
        for n, degree in ((2, 1), (4, 3), (6, 2)):
            cfg, problem = make_problem(n=n, degree=degree, count=40)
            partials = []
            for k in range(n):
                cols = []
                for alpha in problem.exponents:
                    lowered = list(alpha)
                    lowered[k] = max(alpha[k] - 1, 0)
                    text = "*".join(f"x{i}^{a}" for i, a in enumerate(lowered, 1) if a) or "1"
                    cols.append(alpha[k] * evaluate_many(parse(text), problem.points))
                partials.append(np.column_stack(cols))
            signs = [(-1.0) ** k for k in range(1, n + 1)]
            assert np.array_equal(problem.a1, sum(partials) - n * partials[-1])
            assert np.array_equal(problem.a2, sum(s * d for s, d in zip(signs, partials)))

    def test_residual_matrices_agree_with_the_symbolic_route(self):
        cfg, problem = make_problem(n=4, degree=2, count=30)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(problem.size)
        u = polynomial_expr(theta, 4, 2)
        dom = SampleDomain(n=4, radius=2.0, seed=11, count=30)
        r1, r2, y, powers, s, o = problem.residual_parts(theta)
        for spec, matrix_abs in (
            (PdeSpec(PdeKind.EQ_I, n=4, beta=4), np.abs(r1).max()),
            (PdeSpec(PdeKind.EQ_II, n=4), np.abs(r2).max()),
        ):
            symbolic = check_residual(u, spec, dom).max_abs_residual
            assert matrix_abs == pytest.approx(symbolic, rel=1e-9, abs=1e-9)

    def test_defect_agrees_with_direct_self_application(self):
        cfg, problem = make_problem(n=2, degree=3, count=8)
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(problem.size)
        u = polynomial_expr(theta, 2, 3)
        _, _, _, _, _, o = problem.residual_parts(theta)
        for i, point in enumerate(problem.points):
            y = evaluate(u, tuple(point))
            defect = evaluate(u, (y, y)) - y
            assert o[i] == pytest.approx(defect, rel=1e-9, abs=1e-9)


def unreduced_stack(problem, phi):
    """Residuals and Jacobian over the free coordinates, all 3N rows, from the definitions.

    r = [a1 theta; a2 theta; o] / sqrt(N), and d o / d theta_j is
    y^deg(j) + (p'(y) - 1) * phi_j with p(t) = sum_g s_g t^g.
    """
    count = problem.points.shape[0]
    theta = problem.embed(phi)
    y = problem.phi_matrix @ theta
    s = np.array([sum(t for t, alpha in zip(theta, problem.exponents) if sum(alpha) == g)
                  for g in range(problem.config.degree + 1)])
    o = np.polynomial.polynomial.polyval(y, s) - y
    slope = np.polynomial.polynomial.polyval(y, np.polynomial.polynomial.polyder(s))
    degrees = np.array([sum(alpha) for alpha in problem.exponents])
    jac_o = y[:, None] ** degrees[None, :] + (slope - 1.0)[:, None] * problem.phi_matrix
    r = np.concatenate([problem.a1 @ theta, problem.a2 @ theta, o]) / math.sqrt(count)
    jac = np.vstack([problem.a1, problem.a2, jac_o]) / math.sqrt(count)
    return r, jac[:, problem.free] - jac[:, -1:]


class TestNormalEquations:
    """One Levenberg-Marquardt step needs J^T r and J^T J; they are those of the 3N residual rows."""

    @pytest.mark.parametrize("n,degree", [(4, 2), (6, 3)])
    def test_normal_equations_match_the_unreduced_form(self, n, degree):
        cfg = ExplorationConfig(n=n, degree=degree, seed=4)
        dom = SampleDomain(n=n, radius=cfg.radius, seed=4, count=cfg.resolved_samples)
        problem = ExplorationProblem(cfg, dom.samples())
        count = cfg.resolved_samples
        rng = np.random.default_rng(n * 10 + degree)
        for scale in (1.0, 1e-3):
            phi = problem.reduce(mean_theta(n, degree)) + scale * rng.standard_normal(problem.size - 2)
            value, gradient, gauss_newton = problem.normal_equations(phi)
            r, jac = unreduced_stack(problem, phi)
            linear = jac[: 2 * count]
            for ours, unreduced in (
                (gauss_newton, jac.T @ jac),
                (gradient, jac.T @ r),
                (value, r @ r),
                # the linear blocks alone, the share formed once
                (problem.linear_gauss_newton, linear.T @ linear),
            ):
                assert np.abs(ours - unreduced).max() <= 1e-12 * np.abs(unreduced).max()

    def test_normal_equations_are_square_in_the_free_coordinates(self):
        for n, degree in ((2, 1), (4, 2), (4, 3), (6, 3)):
            cfg = ExplorationConfig(n=n, degree=degree, seed=0)
            dom = SampleDomain(n=n, radius=cfg.radius, seed=0, count=cfg.resolved_samples)
            problem = ExplorationProblem(cfg, dom.samples())
            _, gradient, gauss_newton = problem.normal_equations(problem.reduce(mean_theta(n, degree)))
            assert gradient.shape == (problem.size - 2,)
            assert gauss_newton.shape == (problem.size - 2, problem.size - 2)
            assert np.array_equal(gauss_newton, gauss_newton.T)


class TestExplore:
    def test_two_dimensional_search_always_finds_the_mean(self):
        report = explore(ExplorationConfig(n=2, degree=2, seed=42, starts=8))
        assert report.counts["mean_like"] == 8
        for run in report.runs:
            assert run.converged
            assert run.objective <= 1e-10
            assert run.distance_to_mean <= 1e-3

    def test_reports_are_deterministic(self):
        a = explore(ExplorationConfig(n=2, degree=2, seed=42, starts=4))
        b = explore(ExplorationConfig(n=2, degree=2, seed=42, starts=4))
        assert a.to_json() == b.to_json()

    def test_four_dimensional_candidates_are_genuine(self):
        """Anything reported as a non-mean solution lies in the exact set and holds on fresh samples."""
        report = explore(ExplorationConfig(n=4, degree=2, seed=0, starts=6))
        found = [r for r in report.runs if r.classification is Classification.OTHER_CANDIDATE]
        assert found, "n = 4 has a whole line of linear solutions; some start should hit it"
        for run in found:
            assert run.distance_to_solution_set <= SET_DISTANCE_TOL
            dom = SampleDomain(n=4, radius=2.0, seed=99, count=400)
            assert check_sampled(polynomial_expr(run.theta, 4, 2), dom).holds

    def test_four_dimensional_candidates_pass_the_system_check(self):
        """Each of those candidates solves the whole system exactly, not just on samples."""
        report = explore(ExplorationConfig(n=4, degree=2, seed=0, starts=6))
        found = [r for r in report.runs if r.classification is Classification.OTHER_CANDIDATE]
        assert len(found) == 6
        dom = SampleDomain(n=4, radius=2.0, seed=3, count=64)
        for run in found:
            system = check_system(polynomial_expr(run.theta, 4, 2), 4, dom)
            assert system.eq1.symbolic_zero and system.eq2.symbolic_zero, run.theta
            assert system.all_hold, run.theta

    def test_degree_one_runs_land_in_the_exact_solution_set(self):
        report = explore(ExplorationConfig(n=4, degree=1, seed=5, starts=6))
        exact = solution_set(4, 1)
        for run in report.runs:
            if run.converged:
                assert exact.distance(run.theta) <= 1e-6

    def test_runs_say_why_the_solver_stopped(self):
        capped = explore(ExplorationConfig(n=4, degree=3, seed=0, starts=3, max_iterations=3))
        for run in capped.runs:
            assert run.solver_status == 0  # the evaluation cap
            assert run.n_evaluations == 3
        finished = explore(ExplorationConfig(n=2, degree=2, seed=42, starts=4))
        for run in finished.runs:
            assert run.solver_status in (1, 2, 3)  # a tolerance
            assert 1 <= run.n_jacobian_evaluations <= run.n_evaluations
            assert run.to_dict()["solver_status"] == run.solver_status

    @pytest.mark.parametrize("n,degree,starts", [(2, 3, 8), (4, 3, 10), (6, 3, 3)])
    def test_no_run_ends_above_its_start(self, n, degree, starts):
        """Only a step that lowers the objective is taken, so no run ends worse than it began."""
        config = ExplorationConfig(n=n, degree=degree, seed=1, starts=starts)
        report = explore(config)
        dom = SampleDomain(n=n, radius=config.radius, seed=1, count=config.resolved_samples)
        problem = ExplorationProblem(config, dom.samples())
        # the start stream: Philox key [seed, 1], one standard normal per free coordinate
        rng = np.random.Generator(np.random.Philox(key=np.array([config.seed, 1], dtype=np.uint64)))
        for run, phi in zip(report.runs, rng.standard_normal((starts, problem.size - 2))):
            assert run.objective <= problem.objective(problem.embed(phi))

    @pytest.mark.parametrize("seed", [3, 2**64 - 1])
    def test_starts_draw_from_their_own_philox_key(self, seed):
        """A run capped at one evaluation stays at its start: Philox [seed, 1], not the cloud's [seed, 0]."""
        config = ExplorationConfig(n=4, degree=2, seed=seed, starts=4, max_iterations=1)
        report = explore(config)
        dom = SampleDomain(n=4, radius=2.0, seed=seed, count=config.resolved_samples)
        problem = ExplorationProblem(config, dom.samples())
        key = np.array([seed, 1], dtype=np.uint64)
        starts = np.random.Generator(np.random.Philox(key=key)).standard_normal((4, problem.size - 2))
        for run, phi in zip(report.runs, starts):
            assert run.solver_status == 0 and run.n_evaluations == 1
            assert run.theta == tuple(problem.embed(phi))

    def test_counts_add_up_and_notes_are_present(self):
        report = explore(ExplorationConfig(n=2, degree=1, seed=9, starts=5))
        assert sum(report.counts.values()) == 5
        d = report.to_dict()
        assert any("nonconstant" in note for note in d["notes"])
        assert d["basis"]["size"] == basis_size(2, 1)

    def test_mean_like_never_claims_an_unconverged_run(self):
        report = explore(ExplorationConfig(n=2, degree=3, seed=0, starts=8))
        for run in report.runs:
            if run.classification is Classification.MEAN_LIKE:
                assert run.objective <= 1e-10
            if not run.converged:
                assert run.classification is Classification.NON_CONVERGED

    def test_a_run_stopped_short_of_the_set_is_non_converged(self):
        """Capped at 15 evaluations, some runs reach the mean and some stop short; only the distance decides."""
        report = explore(ExplorationConfig(n=2, degree=3, seed=0, starts=8, max_iterations=15))
        assert report.counts["mean_like"] and report.counts["non_converged"]
        for run in report.runs:
            on_set = run.distance_to_solution_set <= SET_DISTANCE_TOL
            assert (run.classification is Classification.MEAN_LIKE) is on_set
            assert run.objective <= 1e-10 or not on_set

    def test_search_runs_blas_on_one_thread_and_restores_the_count(self, monkeypatch):
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        names = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads")
        name = next((name for name in names if hasattr(lib, name.format("get"))), None)
        if name is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS with thread control")
        get_threads = getattr(lib, name.format("get"))
        before, seen = get_threads(), []

        def recording(problem, phi):
            seen.append(get_threads())
            raise ZeroDivisionError

        monkeypatch.setattr(explorer, "_levenberg_marquardt", recording)
        with pytest.raises(ZeroDivisionError):
            explore(ExplorationConfig(n=2, degree=1, starts=1))
        assert seen == [1] and get_threads() == before


def exact_residuals(theta, n, degree):
    """E1, E2 and the diagonal sums s_g of theta, all in Fraction arithmetic."""
    exponents = monomial_exponents(n, degree)
    u = {alpha: c for alpha, c in zip(exponents, theta) if c}
    e1, e2 = (combine((w, derivative(u, k)) for k, w in spec.terms()) for spec in system_specs(n))
    sums = [sum((c for alpha, c in zip(exponents, theta) if sum(alpha) == g), Fraction(0))
            for g in range(degree + 1)]
    return e1, e2, sums


# -- the elimination route: the oracle for solution_set's closed-form basis ---

def eliminated_basis(n, degree):
    """The homogeneous solutions of degree <= ``degree`` by exact elimination.

    For u = sum(theta_j * x^alpha_j) each condition is linear in theta.
    Equations I (beta = n) and II send the degree-g coefficients to degree
    g - 1, and the diagonal-sum row of degree g reads degree g only, so the
    system splits into one block per degree.
    """
    exponents = monomial_exponents(n, degree)
    specs = system_specs(n)
    blocks: dict[int, list[int]] = {}
    for j, alpha in enumerate(exponents):
        blocks.setdefault(sum(alpha), []).append(j)
    basis = []
    for columns in blocks.values():
        # one row per (equation, lowered monomial): that coefficient of the residual
        rows: dict[tuple, dict[int, int]] = {}
        for j in columns:
            for e, spec in enumerate(specs):
                residual = combine((weight, derivative({exponents[j]: 1}, k)) for k, weight in spec.terms())
                for lowered, c in residual.items():
                    rows.setdefault((e, lowered), {})[j] = c
        diagonal = dict.fromkeys(columns, 1)  # s_g, zero in the homogeneous part
        for vector in _null_space([diagonal, *rows.values()], columns):
            basis.append(tuple(vector.get(j, Fraction(0)) for j in range(len(exponents))))
    return basis


def _null_space(rows, columns) -> list[dict[int, Fraction]]:
    """Basis of {v : row . v = 0 for every row}, rows and vectors sparse.

    Gauss-Jordan elimination: every kept row has a 1 in its pivot column and
    0 in every other pivot column, so each free column gives one vector.
    """
    reduced: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = {j: Fraction(c) for j, c in row.items()}
        for pivot, kept in reduced.items():
            _eliminate(row, kept, pivot)
        if not row:
            continue
        pivot = min(row)
        lead = row[pivot]
        row = {j: c / lead for j, c in row.items()}
        for kept in reduced.values():
            _eliminate(kept, row, pivot)
        reduced[pivot] = row
    return [
        {free: Fraction(1), **{p: -kept[free] for p, kept in reduced.items() if free in kept}}
        for free in columns
        if free not in reduced
    ]


def _eliminate(row: dict[int, Fraction], kept: dict[int, Fraction], pivot: int) -> None:
    """Subtract the multiple of ``kept`` (1 at ``pivot``) that zeroes row[pivot], in place."""
    factor = row.get(pivot)
    if not factor:
        return
    for j, c in kept.items():
        value = row.get(j, 0) - factor * c
        if value:
            row[j] = value
        else:
            del row[j]


def exact_rank(vectors):
    """Rank of equal-length rational vectors: their length minus the null space of them as rows."""
    if not vectors:
        return 0
    size = len(vectors[0])
    return size - len(_null_space([{j: c for j, c in enumerate(v) if c} for v in vectors], range(size)))


SOLUTION_GRID = [(n, degree) for n in (2, 4, 6, 8) for degree in (1, 2, 3)] + [(4, 4), (6, 4)]


class TestSolutionSet:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_dimension_is_the_characteristics_count(self, n, degree):
        expected = 0 if n == 2 else math.comb(n - 2 + degree, degree) - (degree + 1)
        assert solution_set(n, degree).dimension == expected

    @pytest.mark.parametrize("n,degree", SOLUTION_GRID)
    def test_basis_spans_exactly_the_eliminated_null_space(self, n, degree):
        """Full rank, the characteristics count, and the oracle's span, all in Fractions."""
        basis = list(solution_set(n, degree).basis)
        oracle = eliminated_basis(n, degree)
        expected = 0 if n == 2 else math.comb(n - 2 + degree, degree) - (degree + 1)
        assert len(basis) == len(oracle) == expected
        assert exact_rank(basis) == exact_rank(oracle) == expected
        assert exact_rank(basis + oracle) == expected

    @pytest.mark.parametrize("n,degree", SOLUTION_GRID)
    def test_basis_is_the_tuple_keyed_product_basis(self, n, degree):
        """The packed product builds, vector for vector, the basis that exponent tuples build."""
        exponents = monomial_exponents(n, degree)
        units = exponents[1 : n + 1]
        forms = [dict.fromkeys(units, 1)] + [
            {units[first]: 1, units[j]: -1} for first in (0, 1) for j in range(first + 2, n - 1, 2)
        ]
        expected = []
        for power in monomial_exponents(len(forms), degree):
            if any(power[1:]):
                p = {exponents[0]: 1}
                for form, a in zip(forms, power):
                    for _ in range(a):
                        p = reference_times(p, form)
                expected.append(tuple(Fraction(p.get(alpha, 0)) for alpha in exponents))
        assert solution_set(n, degree).basis == tuple(expected)

    @pytest.mark.parametrize("n,degree", [(2, 3), (4, 3), (6, 2), (8, 2)])
    def test_basis_and_particular_satisfy_the_system_exactly(self, n, degree):
        exact = solution_set(n, degree)
        e1, e2, sums = exact_residuals(exact.particular, n, degree)
        assert e1 == {} and e2 == {}
        assert sums == [0, 1] + [0] * (degree - 1)
        for vector in exact.basis:
            assert all(isinstance(c, Fraction) for c in vector)
            e1, e2, sums = exact_residuals(vector, n, degree)
            assert e1 == {} and e2 == {}
            assert sums == [0] * (degree + 1)

    def test_membership_agrees_with_the_system_check(self):
        dom = SampleDomain(n=4, radius=2.0, seed=3, count=64)
        exact = solution_set(4, 2)
        for text, member in (
            ("(x1 - x3)^2 + (x1+x2+x3+x4)/4", True),
            ("(x1 - x3)*(x1+x2+x3+x4) + (x1+x2+x3+x4)/4", True),
            ("(x1 - x2)^2 + (x1+x2+x3+x4)/4", False),
        ):
            u = parse(text)
            form = expand(u, 4)
            theta = [form.get(alpha, 0.0) for alpha in monomial_exponents(4, 2)]
            distance = exact.distance(theta)
            assert (distance <= SET_DISTANCE_TOL) is member, (text, distance)
            assert check_system(u, 4, dom).all_hold is member, text
        assert exact.distance(mean_theta(4, 2)) == 0.0

    def test_bad_arguments_are_rejected(self):
        with pytest.raises(ValueError):
            solution_set(4, 0)
        with pytest.raises(ValueError):
            solution_set(0, 1)


class TestLinearCaseExact:
    def test_two_dimensions_pin_the_mean(self):
        exact = solution_set(2, 1)
        assert exact.dimension == 0
        assert exact.particular == (0, Fraction(1, 2), Fraction(1, 2))
        assert exact.distance((0.0, 0.5, 0.5)) <= SET_DISTANCE_TOL
        assert exact.distance((0.0, 0.6, 0.4)) > SET_DISTANCE_TOL

    def test_four_dimensions_have_a_line_of_solutions(self):
        exact = solution_set(4, 1)
        assert exact.dimension == 1
        direction = np.array(exact.basis[0], dtype=float)
        direction /= np.linalg.norm(direction)
        expected = np.array([0.0, 1.0, 0.0, -1.0, 0.0]) / np.sqrt(2.0)
        flipped = min(np.abs(direction - expected).max(), np.abs(direction + expected).max())
        assert flipped <= 1e-12
        assert exact.distance((0.0, 0.5, 0.25, 0.0, 0.25)) <= SET_DISTANCE_TOL
        assert exact.distance((0.0, 0.25, 0.5, 0.25, 0.0)) > SET_DISTANCE_TOL

    def test_members_satisfy_all_three_constraints(self):
        exact = solution_set(6, 1)
        c = [p + sum(Fraction(3, 10) * b[j] for b in exact.basis) for j, p in enumerate(exact.particular)][1:]
        assert sum(c) == 1
        assert sum(c) == 6 * c[-1]
        assert sum(c[0::2]) == sum(c[1::2])

    def test_odd_dimension_is_rejected(self):
        with pytest.raises(ValueError):
            solution_set(3, 1)
