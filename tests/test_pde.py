"""Transport equation residuals, the balance criterion, and the full system."""

import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ouroboros import pde
from ouroboros.core import LinearForm, SampleDomain, Verdict, check_sampled
from ouroboros.expr import Add, Const, EvaluationError, Mul, Var, _shape, evaluate, evaluate_many, parse, to_string
from ouroboros.families import arithmetic_mean, head_average_solution
from ouroboros.pde import (
    BLOCK_CELLS,
    BLOCK_ROWS,
    DEFAULT_FD_STEP,
    PdeKind,
    PdeSpec,
    check_alternating_balance,
    check_residual,
    check_system,
    finite_difference,
    residual_expr,
    system_specs,
    verify_mean_system,
    _fd_partials,
    _poly_values,
)
from ouroboros.poly import expand
from test_expr import expr_strategy, squared_sum_dag

DOM = SampleDomain(n=2, radius=2.0, seed=0, count=64)

coeff_values = st.floats(min_value=-3, max_value=3, allow_nan=False)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestPdeSpec:
    def test_equation_one_needs_beta_in_range(self):
        PdeSpec(PdeKind.EQ_I, n=4, beta=4)
        with pytest.raises(ValueError):
            PdeSpec(PdeKind.EQ_I, n=4)
        with pytest.raises(ValueError):
            PdeSpec(PdeKind.EQ_I, n=4, beta=5)
        with pytest.raises(ValueError):
            PdeSpec(PdeKind.EQ_I, n=4, beta=0)

    def test_equation_two_forbids_beta(self):
        PdeSpec(PdeKind.EQ_II, n=4)
        with pytest.raises(ValueError):
            PdeSpec(PdeKind.EQ_II, n=4, beta=2)

    @pytest.mark.parametrize("kind, n, beta", [
        (PdeKind.EQ_I, 4, 2.0),  # passed the range check, then terms() failed on range(1, 3.0)
        (PdeKind.EQ_I, 4.0, 2),
        (PdeKind.EQ_II, 4.0, None),
    ])
    def test_a_float_dimension_or_beta_is_refused_when_built(self, kind, n, beta):
        with pytest.raises(ValueError, match="must be an integer"):
            PdeSpec(kind, n=n, beta=beta)

    def test_terms_list_each_equation_once(self):
        assert PdeSpec(PdeKind.EQ_I, n=4, beta=2).terms() == [(1, 1), (2, 1), (4, -2)]
        assert PdeSpec(PdeKind.EQ_I, n=2, beta=2).terms() == [(1, 1), (2, 1), (2, -2)]
        assert PdeSpec(PdeKind.EQ_II, n=4).terms() == [(1, -1), (2, 1), (3, -1), (4, 1)]

    def test_direction_sums_the_weights_per_variable(self):
        assert PdeSpec(PdeKind.EQ_I, n=4, beta=2).direction() == [1.0, 1.0, 0.0, -2.0]
        assert PdeSpec(PdeKind.EQ_I, n=3, beta=3).direction() == [1.0, 1.0, -2.0]
        assert PdeSpec(PdeKind.EQ_I, n=1, beta=1).direction() == [0.0]
        assert PdeSpec(PdeKind.EQ_II, n=4).direction() == [-1.0, 1.0, -1.0, 1.0]


class TestResidualExpr:
    def test_left_minus_right_sign_for_equation_one(self):
        # u = x1 in n = 2: head sum is 1, right side 2 * du/dx2 = 0
        r = residual_expr(parse("x1"), PdeSpec(PdeKind.EQ_I, n=2, beta=2))
        assert evaluate(r, (0.3, -0.8)) == 1.0

    def test_alternating_signs_start_negative(self):
        spec = PdeSpec(PdeKind.EQ_II, n=2)
        assert evaluate(residual_expr(parse("x1"), spec), (0.1, 0.2)) == -1.0
        assert evaluate(residual_expr(parse("x2"), spec), (0.1, 0.2)) == 1.0

    def test_dimension_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            residual_expr(parse("x3"), PdeSpec(PdeKind.EQ_II, n=2))


class TestCheckResidual:
    def test_a_shared_dag_without_a_normal_form_is_checked_in_time_linear_in_its_nodes(self):
        """u = e/(x1 + 3), e = x1 + x2 squared by Mul(((1, e), (1, e))) 16 times: 2^16 paths to x1 + x2.

        u has no normal form, so the residual is u's derivative tree, built and
        evaluated once per distinct node. The DAG is neither hashed nor printed.
        """
        u = Mul(((1, squared_sum_dag(16)), (-1, Add(((1, Var(1)), (1, Const(3.0)))))))
        start = time.perf_counter()
        report = check_residual(u, PdeSpec(PdeKind.EQ_II, n=2), SampleDomain(n=2, radius=2.0, seed=0, count=200))
        seconds = time.perf_counter() - start
        assert report.note == "u has no polynomial normal form; sampled bound only"
        assert seconds < 1.0

    def test_solution_is_symbolically_zero(self):
        report = check_residual(
            arithmetic_mean(2).to_expr(), PdeSpec(PdeKind.EQ_I, n=2, beta=2), DOM
        )
        assert report.symbolic_zero
        assert report.residual_constant == pytest.approx(0.0, abs=1e-12)
        assert report.max_abs_residual <= 1e-12
        assert report.passes()

    def test_constant_nonzero_residual_is_reported(self):
        report = check_residual(parse("x1"), PdeSpec(PdeKind.EQ_I, n=2, beta=2), DOM)
        assert not report.symbolic_zero
        assert report.residual_constant == 1.0
        assert report.max_abs_residual == 1.0
        assert not report.passes()

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_a_tolerance_that_is_not_finite_and_non_negative_is_rejected(self, tol):
        report = check_residual(parse("x1^2"), PdeSpec(PdeKind.EQ_I, n=2, beta=2), DOM)
        with pytest.raises(ValueError):
            report.passes(tol)

    def test_nonconstant_residual_reports_the_sampled_bound(self):
        report = check_residual(parse("x1^2"), PdeSpec(PdeKind.EQ_I, n=2, beta=2), DOM)
        assert not report.symbolic_zero
        assert report.residual_constant is None
        assert report.note is not None and "sampled" in report.note
        # residual is 2*x1, so the bound is twice the largest |x1| drawn
        largest = max(abs(x) for x in DOM.samples()[:, 0])
        assert report.max_abs_residual == pytest.approx(2 * largest, rel=1e-12)

    def test_like_terms_cancel_in_the_normal_form(self):
        """(x1 + x2)^2 solves equation II; its residual only cancels once expanded."""
        report = check_residual(parse("(x1 + x2)^2"), PdeSpec(PdeKind.EQ_II, n=2), DOM)
        assert report.symbolic_zero
        assert report.residual_constant == 0.0
        assert report.note is None

    @pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14])
    def test_symbolic_zero_does_not_depend_on_the_scale_of_u(self, scale):
        """Round-off left by cancellation is zero at any scale; a small residual is not."""
        eq2 = PdeSpec(PdeKind.EQ_II, n=4)
        dom = SampleDomain(n=4, radius=2.0, seed=0, count=64)
        # the x1 coefficient of this residual cancels to round-off, not to 0.0
        solves = check_residual(parse(f"{scale!r}*(0.1*(x1 - x3)^2 + 0.3*(x1 + x2)^2)"), eq2, dom)
        assert solves.symbolic_zero
        fails = check_residual(parse(f"{scale!r}*x1^40"), eq2, dom)
        assert not fails.symbolic_zero
        assert fails.residual_constant is None
        tiny_constant = check_residual(parse(f"{scale!r}*x1"), eq2, dom)
        assert not tiny_constant.symbolic_zero
        assert tiny_constant.residual_constant == -scale

    def test_finite_difference_route_confirms_the_symbolic_one(self):
        for text in ["x1^2", "x1*x2 + x2^2", "(x1 + x2)^2"]:
            report = check_residual(parse(text), PdeSpec(PdeKind.EQ_II, n=2), DOM)
            assert report.max_abs_residual_fd == pytest.approx(
                report.max_abs_residual, rel=1e-5, abs=1e-6
            )

    def test_symbolic_zero_implies_tiny_fd_residual(self):
        report = check_residual(
            arithmetic_mean(4).to_expr(), PdeSpec(PdeKind.EQ_I, n=4, beta=4),
            SampleDomain(n=4, radius=2.0, seed=1, count=64),
        )
        assert report.symbolic_zero
        assert report.max_abs_residual_fd <= 1e-9

    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(min_value=1, max_value=n - 1),
                st.lists(coeff_values, min_size=n - 1, max_size=n - 1),
            )
        )
    )
    @example((3, 2, [1e-320, 3e-321]))  # subnormal: the round-off is absolute
    @settings(max_examples=80, deadline=None)
    def test_head_average_family_passes_for_every_beta(self, nbc):
        n, beta, body = nbc
        sol = head_average_solution(tuple(body), beta)
        dom = SampleDomain(n=n, radius=2.0, seed=5, count=32)
        report = check_residual(sol.to_expr(), PdeSpec(PdeKind.EQ_I, n=n, beta=beta), dom)
        assert report.symbolic_zero
        assert report.max_abs_residual <= 1e-12


def equation_specs(n: int):
    """Equation II and equation I at every beta, in dimension n."""
    return st.sampled_from([PdeSpec(PdeKind.EQ_II, n=n)] + [
        PdeSpec(PdeKind.EQ_I, n=n, beta=beta) for beta in range(1, n + 1)
    ])


def forms_and_specs():
    """(coefficients, spec, balance): n in 1..10 coefficients and an equation in dimension n."""
    return st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(
            st.lists(coeff_values, min_size=n, max_size=n), equation_specs(n), st.booleans()
        )
    )


class TestLinearRoute:
    """A linear form's residual is the constant sum(w_k * c_k), decided on the coefficients."""

    @given(forms_and_specs())
    @example(([1e-320, 3e-321, 1e-320], PdeSpec(PdeKind.EQ_II, n=3), False))  # subnormal
    @example(([1.0, 2.0], PdeSpec(PdeKind.EQ_I, n=2, beta=1), True))
    @settings(max_examples=300, deadline=None)
    def test_the_exact_route_agrees_with_the_normal_form(self, case):
        coeffs, spec, balance = case
        first = sum(weight for k, weight in spec.terms() if k == 1)
        if balance and first:  # cancel the residual through c_1, up to round-off
            coeffs[0] -= math.fsum(weight * coeffs[k - 1] for k, weight in spec.terms()) / first
        form = LinearForm(tuple(coeffs))
        dom = SampleDomain(n=spec.n, radius=2.0, seed=4, count=16)
        exact = check_residual(form, spec, dom)
        normal = check_residual(form.to_expr(), spec, dom)
        terms = [weight * Fraction(coeffs[k - 1]) for k, weight in spec.terms()]
        residual, size = sum(terms), sum(map(abs, terms))
        slack = 4 * sys.float_info.epsilon * size
        assert abs(exact.residual_constant - normal.residual_constant) <= slack
        assert (exact.samples_used, exact.note) == (0, pde.LINEAR_NOTE)
        assert math.isnan(exact.max_abs_residual_fd)
        decided = (exact.symbolic_zero, exact.residual_constant, exact.max_abs_residual)
        assert decided == (normal.symbolic_zero, normal.residual_constant, normal.max_abs_residual)
        threshold = Fraction(pde.SYMBOLIC_ZERO_TOL) * size + Fraction(sys.float_info.min)
        if abs(abs(residual) - threshold) > slack:
            assert exact.symbolic_zero == normal.symbolic_zero
        if abs(abs(residual) - Fraction(pde.RESIDUAL_TOL)) > slack:
            assert exact.passes() == normal.passes()

    def test_dom_is_never_sampled_nor_u_expanded(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a linear form took the sampled route")

        monkeypatch.setattr(SampleDomain, "samples", refuse)
        monkeypatch.setattr(pde, "_expand", refuse)
        dom = SampleDomain(n=4, radius=2.0, seed=0, count=200)
        assert check_residual(arithmetic_mean(4), PdeSpec(PdeKind.EQ_I, n=4, beta=4), dom).symbolic_zero
        assert check_system(arithmetic_mean(4), 4, dom).all_hold

    def test_a_short_form_is_padded_with_zeros(self):
        dom = SampleDomain(n=4, radius=2.0, seed=0, count=8)
        form = LinearForm((0.5, 0.5))
        assert check_residual(form, PdeSpec(PdeKind.EQ_II, n=4), dom).symbolic_zero
        head = check_residual(form, PdeSpec(PdeKind.EQ_I, n=4, beta=4), dom)
        assert (head.symbolic_zero, head.residual_constant) == (False, 1.0)
        report = check_system(form, 4, dom)
        assert report.eq2.symbolic_zero and report.ouroboros.holds and report.zero_at_origin
        assert not report.all_hold

    def test_a_long_form_is_rejected(self):
        with pytest.raises(ValueError, match="x3"):
            check_residual(LinearForm((0.5, 0.25, 0.25)), PdeSpec(PdeKind.EQ_II, n=2), DOM)

    @pytest.mark.parametrize("coeffs, spec, zero, constant", [
        ((1e308, 1e308), PdeSpec(PdeKind.EQ_I, n=2, beta=2), True, 0.0),
        ((1e308, -1e308), PdeSpec(PdeKind.EQ_II, n=2), False, -math.inf),
        ((1e308, 1e308, 1e300, 0.0), PdeSpec(PdeKind.EQ_II, n=4), False, -1e300),
        ((1e308, 1e308, 1e308, 1e308), PdeSpec(PdeKind.EQ_II, n=4), True, 0.0),
    ])
    def test_sums_past_the_float_range_are_exact(self, coeffs, spec, zero, constant):
        dom = SampleDomain(n=spec.n, radius=2.0, seed=0, count=8)
        report = check_residual(LinearForm(coeffs), spec, dom)
        assert (report.symbolic_zero, report.residual_constant) == (zero, constant)
        assert report.passes() is zero

    def test_long_forms_cost_no_normal_form(self):
        """1500 coefficients: the exact sums, not a 1500-variable normal form."""
        form = LinearForm((1 / 1500,) * 1500)
        dom = SampleDomain(n=1500, radius=2.0, seed=0, count=5)
        assert check_residual(form, PdeSpec(PdeKind.EQ_II, n=1500), dom).symbolic_zero
        assert check_system(form, 1500, dom).all_hold


def powers_of_linear_forms():
    """n, and terms (c, a, p) of u = sum(c * (a . x)^p): like terms meet on expansion."""
    return st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    coeff_values,
                    st.lists(coeff_values, min_size=n, max_size=n),
                    st.integers(min_value=1, max_value=4),
                ),
                min_size=1,
                max_size=4,
            ),
        )
    )


class TestResidualRoutes:
    """The residual's normal form, the derivative tree, and finite differences of u."""

    @given(powers_of_linear_forms(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_normal_form_values_match_the_derivative_tree(self, nterms, equation_one):
        n, terms = nterms
        spec = PdeSpec(PdeKind.EQ_I, n=n, beta=n) if equation_one else PdeSpec(PdeKind.EQ_II, n=n)
        u = parse(" + ".join(
            f"({c!r})*(" + " + ".join(f"({a_i!r})*x{i}" for i, a_i in enumerate(a, 1)) + f")^{p}"
            for c, a, p in terms
        ))
        dom = SampleDomain(n=n, radius=2.0, seed=4, count=64)
        points = dom.samples()
        tree = evaluate_many(residual_expr(u, spec), points)
        # the residual with every sign dropped, at |x|, bounds every term of both routes
        sign_free = sum(
            abs(c) * p * (np.abs(points) @ np.abs(a)) ** (p - 1)
            * sum(abs(w * a[k - 1]) for k, w in spec.terms())
            for c, a, p in terms
        )
        report = check_residual(u, spec, dom)
        assert report.note != "u has no polynomial normal form; sampled bound only"
        gap = abs(report.max_abs_residual - np.abs(tree).max())
        assert gap <= 1e-12 * (1.0 + sign_free.max())

    def test_normal_form_values_cover_every_block(self):
        points = SampleDomain(n=2, radius=2.0, seed=6, count=2 * BLOCK_ROWS + 3).samples()
        x1, x2 = points.T
        p = {(1, 0): 2.0, (0, 2): -3.0, (0, 0): 0.5}
        exact = 2.0 * x1 - 3.0 * (x2 * x2) + 0.5
        bound = 4 * sys.float_info.epsilon * (2.0 * abs(x1) + 3.0 * x2 * x2 + 0.5)
        assert np.all(np.abs(_poly_values(p, list(points.T)) - exact) <= bound)

    def test_round_off_coefficients_are_not_evaluated(self, monkeypatch):
        """Only the coefficients the rule keeps reach the samples; a zero residual reads 0."""
        spec = PdeSpec(PdeKind.EQ_II, n=2)
        cubic = "(x1 + x2)^3/3"
        form = expand(parse(cubic), 2)
        zero, value = pde._exact_sum([(-3, form[(3, 0)]), (1, form[(2, 1)])])  # the x1^2 coefficient
        assert zero and value != 0.0  # round-off, not an exact zero
        evaluated = []
        monkeypatch.setattr(pde, "_poly_values", lambda p, points: evaluated.append(dict(p)) or _poly_values(p, points))
        report = check_residual(parse(cubic), spec, DOM)
        assert report.symbolic_zero and report.max_abs_residual == 0.0 and evaluated == [{}]
        report = check_residual(parse(cubic + " + 0.1*x1*x1"), spec, DOM)
        assert evaluated[1] == {(1, 0): -0.2}
        assert report.max_abs_residual == np.abs(-0.2 * DOM.samples()[:, 0]).max()

    def test_u_without_a_normal_form_keeps_the_tree_route(self):
        u = parse("x1/x2 + x2^2")
        spec = PdeSpec(PdeKind.EQ_II, n=2)
        report = check_residual(u, spec, DOM)
        assert report.note == "u has no polynomial normal form; sampled bound only"
        assert not report.symbolic_zero
        assert report.residual_constant is None
        tree = evaluate_many(residual_expr(u, spec), DOM.samples())
        assert report.max_abs_residual == np.abs(tree).max()

    @pytest.mark.parametrize("specs", [
        [PdeSpec(PdeKind.EQ_II, n=2)],
        [PdeSpec(PdeKind.EQ_I, n=3, beta=3)],  # k = 3 is listed twice
        [PdeSpec(PdeKind.EQ_I, n=4, beta=2)],
        list(system_specs(2)),
        list(system_specs(8)),
    ], ids=lambda specs: "+".join(map(str, specs)))
    def test_blocked_differences_equal_the_per_shift_loop(self, specs):
        """Bit for bit, on clouds spanning several blocks with a ragged last one: one
        direction (2 shifts, as check_residual takes it) and two (4, as check_system)."""
        n = specs[0].n
        u = parse("x1^3*x2 - 2*x1*x2^2/3 + 1/(3 + x1^2) + x2*x" + str(n))
        directions = [spec.direction() for spec in specs]
        h = DEFAULT_FD_STEP
        count = 3 * (BLOCK_ROWS // (2 * len(directions))) + 7
        dom = SampleDomain(n=n, radius=2.0, seed=9, count=count)
        points = dom.samples()
        blocked = np.array(_fd_partials(u, list(points.T), directions, h, _shape(u).shared))
        assert blocked.shape == (len(directions), count)
        assert np.array_equal(blocked, per_direction_loop(u, points, directions, h))
        for spec, got in zip(specs, blocked):
            assert check_residual(u, spec, dom).max_abs_residual_fd == np.abs(got).max()
        if len(specs) == 2:
            report = check_system(u, n, dom)
            assert [report.eq1.max_abs_residual_fd, report.eq2.max_abs_residual_fd] == list(np.abs(blocked).max(axis=1))

    @pytest.mark.parametrize("system, k, weight", [
        (False, 1, 1), (False, 1, -1), (False, 2, 1), (False, 2, -1),
        (True, 1, 1),  # x + s*v1 in x1, v1 = (1, 1, 1, -3), s = h/3; v2's shifts move x1 by h
    ])
    def test_zero_divisor_at_a_shift_names_the_shifted_sample(self, system, k, weight):
        """Hit only at one shift of one sample in the third block: x + s*w or x - s*w,
        w = (-1, 1), of check_residual's two shifts, or x + s*v1 of check_system's four."""
        n, shifts = (4, 4) if system else (2, 2)
        rows = BLOCK_ROWS // shifts
        sample = 2 * rows + 5
        dom = SampleDomain(n=n, radius=2.0, seed=2, count=3 * rows + 7)
        step = DEFAULT_FD_STEP / (3.0 if system else 1.0)
        pole = float(dom.samples()[sample, k - 1] + weight * step)
        u = parse(f"1/(x{k} - ({pole!r}))")
        with pytest.raises(EvaluationError) as exc:
            if system:
                check_system(u, n, dom)
            else:
                check_residual(u, PdeSpec(PdeKind.EQ_II, n=n), dom)
        assert exc.value.sample_index == sample
        assert str(exc.value) == f"division by zero (sample {sample})"

    def test_the_difference_step_does_not_grow_with_w(self):
        """u = x_n^3 against I at beta = n = 1500, w_n = 1 - n: a step of h along w
        would be off by h^2 * |w_n|^3 = 0.34; the step h / max|w_k| is off by h^2 * |w_n|."""
        n = 1500
        dom = SampleDomain(n=n, radius=2.0, seed=0, count=200)
        report = check_residual(parse(f"x{n}^3"), PdeSpec(PdeKind.EQ_I, n=n, beta=n), dom)
        assert abs(report.max_abs_residual_fd - report.max_abs_residual) <= 1e-6

    @pytest.mark.parametrize("equations", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 40, 600, 1500, 40000])
    def test_blocks_are_bounded_by_rows_and_by_cells(self, monkeypatch, n, equations):
        """Up to n = 8 a block holds BLOCK_ROWS // shifts samples; wider ones stay within
        BLOCK_CELLS, down to one sample's shifts. Shifts are 2 per direction: 2 for
        check_residual, 4 for check_system."""
        shapes = []

        def recording(u, stacked, shared):
            shapes.append((len(stacked[0]), len(stacked)))
            return np.zeros(len(stacked[0]))

        monkeypatch.setattr(pde, "_evaluate_columns", recording)
        directions = [spec.direction() for spec in system_specs(n)][:equations]
        shifts = 2 * len(directions)
        count = 3 * max(1, BLOCK_CELLS // (shifts * n)) + 1
        fd = np.array(_fd_partials(parse("x1"), list(np.zeros((count, n)).T), directions, DEFAULT_FD_STEP, set()))
        assert fd.shape == (len(directions), count)
        samples = [rows // shifts for rows, _ in shapes]
        assert all(rows == shifts * s and width == n for (rows, width), s in zip(shapes, samples))
        assert sum(samples) == count and len(set(samples[:-1])) == 1
        if n <= 8:
            assert samples[0] == BLOCK_ROWS // shifts
        assert all(rows <= BLOCK_ROWS for rows, _ in shapes)
        assert all(rows * n <= BLOCK_CELLS or s == 1 for (rows, _), s in zip(shapes, samples))
        assert (samples[0] + 1) * shifts * n > min(BLOCK_CELLS, BLOCK_ROWS * n)  # no smaller than needed


def along(w, h):
    """The step s = h / max|w_k| (h for w = 0) that _fd_partials takes along w, and the shift s*w."""
    w = np.array(w, dtype=float)
    s = h / (np.abs(w).max() or 1.0)
    return s, s * w


def per_direction_loop(u, points, directions, h):
    """(evaluate_many(u, x + s*w) - evaluate_many(u, x - s*w)) / (2s), one row per w."""
    rows = []
    for w in directions:
        s, shift = along(w, h)
        up, down = evaluate_many(u, points + shift), evaluate_many(u, points - shift)
        with np.errstate(over="ignore", invalid="ignore"):
            rows.append((up - down) / (2.0 * s))
    return np.array(rows)


class TestDirectionalDifferences:
    """_fd_partials on one block against the per-direction loop and the derivative along w."""

    @pytest.mark.parametrize("text", [
        "x1*x1 + x1",  # one variable read twice
        "2*x1*x2 - 3*x3",  # a leading constant factor
        "(x1 + x2)^0 + x2^1*x1^1 + (x1 - x3)^1",
        "-x1*x2 - -(x3 + 1) + -(x1 + x2)^2",
        "x1/(2 + x2)*x3/(x3^2 + 1)",  # divided factors
        "x3^2 + 4 + x2",  # a term in x2 alone, which w = (1, 0, -1) does not move
        "x3*(x3 + 1)",  # one variable only
    ])
    @pytest.mark.parametrize("specs", [
        [PdeSpec(PdeKind.EQ_II, n=3)],  # w = (-1, 1, -1)
        [PdeSpec(PdeKind.EQ_I, n=3, beta=1)],  # w = (1, 0, -1)
        list(system_specs(3)),  # v1 = (1, 1, -2), v2 = (-1, 1, -1)
    ], ids=lambda specs: "+".join(map(str, specs)))
    def test_differences_leave_the_points_alone_and_follow_w(self, text, specs):
        """Bit for bit the loop's, the same again on a second call, and within
        truncation and round-off of the residual sum(w_k * du/dx_k)."""
        pts = np.random.default_rng(3).uniform(-1, 1, size=(50, 3))
        before = pts.copy()
        u = parse(text)
        directions = [spec.direction() for spec in specs]
        got = np.array(_fd_partials(u, list(pts.T), directions, DEFAULT_FD_STEP, _shape(u).shared))
        assert np.array_equal(pts, before)
        assert got.tobytes() == per_direction_loop(u, pts, directions, DEFAULT_FD_STEP).tobytes()
        assert np.array(_fd_partials(u, list(pts.T), directions, DEFAULT_FD_STEP, _shape(u).shared)).tobytes() == got.tobytes()
        for spec, row in zip(specs, got):
            exact = evaluate_many(residual_expr(u, spec), pts)
            assert np.all(np.abs(row - exact) <= 1e-8 * (1.0 + np.abs(exact)))

    @given(
        expr_strategy(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([[[1.0, 1.0, -2.0]], [[-1.0, 1.0, -1.0]], [[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_direction_loop(self, e, seed, directions):
        """Values bit for bit, inf and nan included; where the loop meets a zero divisor,
        so do the stacked shifts, at a sample one of whose shifts has it."""
        pts = np.random.default_rng(seed).uniform(-3, 3, size=(6, 3))
        h = 0.5
        try:
            want = per_direction_loop(e, pts, directions, h)
        except EvaluationError:
            with pytest.raises(EvaluationError) as got:
                _fd_partials(e, list(pts.T), directions, h, _shape(e).shared)
            i = got.value.sample_index
            hits = 0
            for w in directions:
                for sign in (1.0, -1.0):
                    try:
                        evaluate_many(e, pts[i:i + 1] + sign * along(w, h)[1])
                    except EvaluationError:
                        hits += 1
            assert hits > 0
            return
        assert np.array(_fd_partials(e, list(pts.T), directions, h, _shape(e).shared)).tobytes() == want.tobytes()

    def test_a_zero_divisor_is_named_at_the_first_shift_in_order(self):
        """Zero at x - h*w1 of row 4 and at x + h*w2 of row 1: both shifts along w1
        come before those along w2, so row 4 is named."""
        pts = np.random.default_rng(0).uniform(-2, 2, size=(6, 2))
        h = 0.25
        directions = [[1.0, 0.0], [0.0, 1.0]]
        u = parse(f"1/((x1 - ({float(pts[4, 0] - h)!r}))*(x2 - ({float(pts[1, 1] + h)!r})))")
        with pytest.raises(EvaluationError) as got:
            _fd_partials(u, list(pts.T), directions, h, _shape(u).shared)
        assert got.value.sample_index == 4
        with pytest.raises(EvaluationError) as swapped:
            _fd_partials(u, list(pts.T), directions[::-1], h, _shape(u).shared)
        assert swapped.value.sample_index == 1


class TestAlternatingBalance:
    def test_balanced_pairs_hold(self):
        assert check_alternating_balance((1.0, 1.0)).holds
        assert check_alternating_balance((0.7, 0.3, 0.1, 0.5)).holds

    def test_unbalanced_pairs_fail_with_both_sums(self):
        report = check_alternating_balance((1.0, 0.0))
        assert not report.holds
        assert report.odd_sum == 1.0
        assert report.even_sum == 0.0

    def test_odd_dimension_is_rejected(self):
        with pytest.raises(ValueError):
            check_alternating_balance((1.0, 2.0, 3.0))

    @pytest.mark.parametrize("coeffs", [(math.inf, 0.0), (math.nan, 1.0), (math.inf, math.inf)])
    def test_non_finite_coefficients_are_rejected(self, coeffs):
        """(inf, 0) once held: inf - 0 passed as round-off of a sum of size inf."""
        with pytest.raises(ValueError, match="finite"):
            check_alternating_balance(coeffs)

    def test_tiny_imbalance_is_not_round_off(self):
        """1e-13*x1 does not solve equation II, however small its residual."""
        assert not check_alternating_balance((1e-13, 0.0)).holds
        assert check_alternating_balance((1e-13, 1e-13)).holds

    @pytest.mark.parametrize("coeffs, holds, odd_sum, even_sum", [
        ((1e308, 1e308), True, 1e308, 1e308),
        ((1e308, -1e308), False, 1e308, -1e308),
        ((1e308, 1e308, 1e308, 1e308), True, math.inf, math.inf),
        ((-1e308, 0.0, -1e308, 0.0), False, -math.inf, 0.0),
    ])
    def test_sums_past_the_float_range_do_not_crash(self, coeffs, holds, odd_sum, even_sum):
        report = check_alternating_balance(coeffs)
        assert (report.holds, report.odd_sum, report.even_sum) == (holds, odd_sum, even_sum)

    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_sums_are_rounded_as_fsum_rounds_them(self, pairs):
        """Bit for bit equal to math.fsum wherever fsum answers."""
        report = check_alternating_balance([c for pair in pairs for c in pair])
        for got, column in ((report.odd_sum, 0), (report.even_sum, 1)):
            try:
                expected = math.fsum(pair[column] for pair in pairs)
            except OverflowError:
                continue
            assert got == expected and math.copysign(1, got) == math.copysign(1, expected)

    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda half: st.lists(coeff_values, min_size=2 * half, max_size=2 * half)
        ),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_balance_matches_the_equation_exactly(self, coeffs, make_balanced):
        """Two routes to one fact: the sum criterion vs the residual's normal form."""
        if make_balanced:
            old = coeffs[-1]
            coeffs[-1] += math.fsum(coeffs[0::2]) - math.fsum(coeffs[1::2])
            if not math.isfinite(coeffs[-1]):
                return
            # the update rounds at the scale of the old coefficients; when those
            # dwarf the new ones ([2.4e-172, 1.0] becomes [2.4e-172, 0.0]), the
            # form is not balanced to the round-off of its own coefficients
            size = math.fsum(map(abs, coeffs))
            if 4 * sys.float_info.epsilon * (abs(old) + size) > 1e-12 * size + sys.float_info.min:
                return
        else:
            gap = abs(math.fsum(coeffs[0::2]) - math.fsum(coeffs[1::2]))
            if gap < 1e-6:
                return  # too close to the knife edge for two float routes
        n = len(coeffs)
        balance = check_alternating_balance(coeffs)
        dom = SampleDomain(n=n, radius=2.0, seed=3, count=16)
        residual = check_residual(
            LinearForm(tuple(coeffs)).to_expr(), PdeSpec(PdeKind.EQ_II, n=n), dom
        )
        assert balance.holds == residual.symbolic_zero == make_balanced


class TestFiniteDifference:
    def test_quadratic_slope(self):
        assert finite_difference(parse("x1^2"), 1, (3.0,)) == pytest.approx(6.0, abs=1e-9)

    def test_constants_have_zero_slope(self):
        assert finite_difference(parse("7"), 1, (0.5,)) == 0.0

    def test_mean_slope_is_one_over_n(self):
        f = arithmetic_mean(4).to_expr()
        got = finite_difference(f, 2, (0.1, 0.2, 0.3, 0.4))
        assert got == pytest.approx(0.25, abs=1e-10)


class TestSystem:
    def test_mean_passes_everything(self):
        for n in (2, 4, 6, 8):
            report = verify_mean_system(n)
            assert report.all_hold
            assert report.eq1.symbolic_zero
            assert report.eq2.symbolic_zero
            assert report.origin_value == 0.0
            assert report.ouroboros.verdict is Verdict.HOLDS_EXACT

    def test_odd_dimension_is_rejected(self):
        with pytest.raises(ValueError):
            verify_mean_system(3)

    def test_unbalanced_tail_fails_only_the_head_equation(self):
        """Self-replicating, balanced, zero at 0, but the tail slope is off."""
        dom = SampleDomain(n=4, radius=2.0, seed=0, count=32)
        report = check_system(LinearForm((0.7, 0.3, -0.2, 0.2)), 4, dom)
        assert report.zero_at_origin
        assert report.ouroboros.holds
        assert report.eq2.symbolic_zero
        assert not report.eq1.symbolic_zero
        assert report.eq1.residual_constant == pytest.approx(0.2, rel=1e-12)
        assert not report.all_hold

    def test_projection_breaks_both_equations_but_nothing_else(self):
        dom = SampleDomain(n=2, radius=2.0, seed=0, count=32)
        report = check_system(parse("x1"), 2, dom)
        assert report.zero_at_origin
        assert report.ouroboros.holds
        assert report.eq2.residual_constant == -1.0
        assert not report.eq1.symbolic_zero
        assert not report.all_hold

    def test_linear_form_input_uses_the_exact_route(self):
        dom = SampleDomain(n=4, radius=2.0, seed=0, count=32)
        report = check_system(arithmetic_mean(4), 4, dom)
        assert report.ouroboros.verdict is Verdict.HOLDS_EXACT

    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda half: st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0]), min_size=2 * half, max_size=2 * half)
    ))
    @example([-0.5, -0.5])  # pde --coeffs=-1/2,-1/2 --equation system prints -0.0
    @example([-1.0, 2.0])
    @example([0.0, 0.0])
    @example([-0.0, -0.0])
    @example([-0.0, -2.0])
    @settings(max_examples=100, deadline=None)
    def test_linear_origin_value_is_the_expression_value_at_the_origin(self, coeffs):
        """The same float as evaluating u.to_expr() at 0, sign of zero included."""
        form = LinearForm(coeffs)
        n = form.n
        report = check_system(form, n, SampleDomain(n=n, radius=2.0, seed=0, count=8))
        want = evaluate(form.to_expr(), (0.0,) * n)
        assert want == 0.0 and report.origin_value == 0.0
        assert math.copysign(1.0, report.origin_value) == math.copysign(1.0, want)

    def test_expression_input_uses_the_sampled_route(self):
        dom = SampleDomain(n=2, radius=2.0, seed=0, count=32)
        report = check_system(arithmetic_mean(2).to_expr(), 2, dom)
        assert report.ouroboros.verdict is Verdict.HOLDS_SAMPLED
        assert report.all_hold

    def test_domain_dimension_must_match(self):
        dom = SampleDomain(n=3, radius=2.0, seed=0, count=8)
        with pytest.raises(ValueError):
            check_system(parse("x1"), 2, dom)

    def test_variables_beyond_the_dimension_are_rejected(self):
        dom = SampleDomain(n=2, radius=2.0, seed=0, count=8)
        with pytest.raises(ValueError, match="x3"):
            check_system(parse("x1 + x3"), 2, dom)
        with pytest.raises(ValueError, match="x3"):
            check_system(LinearForm((0.5, 0.25, 0.25)), 2, dom)
        with pytest.raises(ValueError, match="x3"):
            check_residual(parse("x1/x3"), PdeSpec(PdeKind.EQ_II, n=2), DOM)

    def test_u_past_the_dimension_is_refused_before_sampling(self, monkeypatch):
        """check_system words it as check_residual does; check_sampled keeps its own words."""
        def refuse(*args):
            raise AssertionError("samples drawn for a u that does not fit")

        monkeypatch.setattr(SampleDomain, "samples", refuse)
        dom = SampleDomain(n=4, radius=2.0, seed=0, count=8)
        u = parse("x1 + x5")
        for check in (lambda: check_system(u, 4, dom), lambda: check_residual(u, PdeSpec(PdeKind.EQ_II, n=4), dom)):
            with pytest.raises(ValueError) as exc:
                check()
            assert str(exc.value) == "u uses x5 but the equation has n=4"
        with pytest.raises(ValueError) as exc:
            check_sampled(u, dom)
        assert str(exc.value) == "expression uses x5 but the domain has n=4"

    @pytest.mark.parametrize("u", ["(x1 + x2 + x3 + x4)/4 + (x1 - x3)^2", "x1/(1 + x2^2)"])
    def test_both_equations_share_one_set_of_differences(self, monkeypatch, u):
        """One _fd_partials call differences u along v1 (equation I at beta = n) and v2 (II)."""
        calls, fd_partials = [], pde._fd_partials

        def counted(*args):
            calls.append(args[2])  # the directions differenced
            return fd_partials(*args)

        monkeypatch.setattr(pde, "_fd_partials", counted)
        dom = SampleDomain(n=4, radius=2.0, seed=0, count=32)
        report = check_system(parse(u), 4, dom)
        assert calls == [[[1.0, 1.0, 1.0, -3.0], [-1.0, 1.0, -1.0, 1.0]]]
        monkeypatch.undo()
        for spec, got in zip(system_specs(4), (report.eq1, report.eq2)):
            assert got == check_residual(parse(u), spec, dom)

    def test_report_round_trips_through_dict(self):
        report = verify_mean_system(2)
        d = report.to_dict()
        assert d["all_hold"] is True
        assert d["eq1"]["symbolic_zero"] is True
        assert d["ouroboros"]["verdict"] == "holds_exact"


class TestResidualPrinting:
    def test_folded_residual_of_a_square_is_linear(self):
        r = residual_expr(parse("x1^2"), PdeSpec(PdeKind.EQ_I, n=2, beta=2))
        assert to_string(r) == "2*x1"
        assert expand(r, 2) == {(1, 0): 2.0}
