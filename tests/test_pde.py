"""Transport equation residuals, the balance criterion, and the full system."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ouroboros import pde
from ouroboros.core import LinearForm, SampleDomain, Verdict
from ouroboros.expr import EvaluationError, evaluate, evaluate_many, parse, to_string
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

DOM = SampleDomain(n=2, radius=2.0, seed=0, count=64)

coeff_values = st.floats(min_value=-3, max_value=3, allow_nan=False)


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

    def test_terms_list_each_equation_once(self):
        assert PdeSpec(PdeKind.EQ_I, n=4, beta=2).terms() == [(1, 1), (2, 1), (4, -2)]
        assert PdeSpec(PdeKind.EQ_I, n=2, beta=2).terms() == [(1, 1), (2, 1), (2, -2)]
        assert PdeSpec(PdeKind.EQ_II, n=4).terms() == [(1, -1), (2, 1), (3, -1), (4, 1)]


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
        assert np.all(np.abs(_poly_values(p, points) - exact) <= bound)

    def test_u_without_a_normal_form_keeps_the_tree_route(self):
        u = parse("x1/x2 + x2^2")
        spec = PdeSpec(PdeKind.EQ_II, n=2)
        report = check_residual(u, spec, DOM)
        assert report.note == "u has no polynomial normal form; sampled bound only"
        assert not report.symbolic_zero
        assert report.residual_constant is None
        tree = evaluate_many(residual_expr(u, spec), DOM.samples())
        assert report.max_abs_residual == np.abs(tree).max()

    @pytest.mark.parametrize("spec", [
        PdeSpec(PdeKind.EQ_II, n=2),
        PdeSpec(PdeKind.EQ_I, n=3, beta=3),  # k = 3 is listed twice
        PdeSpec(PdeKind.EQ_I, n=4, beta=2),
    ], ids=str)
    def test_blocked_differences_equal_the_per_shift_loop(self, spec):
        """Bit for bit, on clouds spanning several blocks with a ragged last one."""
        u = parse("x1^3*x2 - 2*x1*x2^2/3 + 1/(3 + x1^2) + x2*x" + str(spec.n))
        ks = sorted({k for k, _ in spec.terms()})
        rows = BLOCK_ROWS // (2 * len(ks))
        dom = SampleDomain(n=spec.n, radius=2.0, seed=9, count=3 * rows + 7)
        points = dom.samples()
        h = DEFAULT_FD_STEP

        def per_shift(k):
            up, down = points.copy(), points.copy()
            up[:, k - 1] += h
            down[:, k - 1] -= h
            return (evaluate_many(u, up) - evaluate_many(u, down)) / (2.0 * h)

        blocked = _fd_partials(u, points, ks, h)
        assert sorted(blocked) == ks
        for k in ks:
            assert np.array_equal(blocked[k], per_shift(k))
        fd = sum(weight * per_shift(k) for k, weight in spec.terms())
        assert check_residual(u, spec, dom).max_abs_residual_fd == np.abs(fd).max()

    @pytest.mark.parametrize("k,sign", [(1, 1), (1, -1), (2, 1), (2, -1)])
    def test_zero_divisor_at_a_shift_names_the_shifted_sample(self, k, sign):
        """Hit only at x + h*e_k (or - h) of one sample in the third block."""
        spec = PdeSpec(PdeKind.EQ_II, n=2)
        rows = BLOCK_ROWS // 4
        dom = SampleDomain(n=2, radius=2.0, seed=2, count=3 * rows + 7)
        sample = 2 * rows + 5
        pole = float(dom.samples()[sample, k - 1] + sign * DEFAULT_FD_STEP)
        u = parse(f"1/(x{k} - ({pole!r}))")
        with pytest.raises(EvaluationError) as exc:
            check_residual(u, spec, dom)
        assert exc.value.sample_index == sample
        assert str(exc.value) == f"division by zero (sample {sample})"

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 40, 600])
    def test_blocks_are_bounded_by_rows_and_by_cells(self, monkeypatch, n):
        """Up to n = 8 a block holds BLOCK_ROWS // shifts samples; wider ones stay within
        BLOCK_CELLS, down to one sample's shifts."""
        shapes = []

        def recording(u, stacked):
            shapes.append(stacked.shape)
            return np.zeros(len(stacked))

        monkeypatch.setattr(pde, "evaluate_many", recording)
        shifts = 2 * n
        count = 3 * (BLOCK_ROWS // shifts) + 1
        partials = _fd_partials(parse("x1"), np.zeros((count, n)), list(range(1, n + 1)), DEFAULT_FD_STEP)
        assert sorted(partials) == list(range(1, n + 1))
        samples = [rows // shifts for rows, _ in shapes]
        assert all(rows == shifts * s and width == n for (rows, width), s in zip(shapes, samples))
        assert sum(samples) == count and len(set(samples[:-1])) == 1
        if n <= 8:
            assert samples[0] == BLOCK_ROWS // shifts
        assert all(rows <= BLOCK_ROWS for rows, _ in shapes)
        assert all(rows * n <= BLOCK_CELLS or s == 1 for (rows, _), s in zip(shapes, samples))
        assert (samples[0] + 1) * shifts * n > min(BLOCK_CELLS, BLOCK_ROWS * n)  # no smaller than needed


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

    def test_tiny_imbalance_is_not_round_off(self):
        """1e-13*x1 does not solve equation II, however small its residual."""
        assert not check_alternating_balance((1e-13, 0.0)).holds
        assert check_alternating_balance((1e-13, 1e-13)).holds

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

    @pytest.mark.parametrize("u", ["(x1 + x2 + x3 + x4)/4 + (x1 - x3)^2", "x1/(1 + x2^2)"])
    def test_both_equations_share_one_set_of_differences(self, monkeypatch, u):
        """Equation I at beta = n and equation II both use k = 1..n: one _fd_partials call."""
        calls, fd_partials = [], pde._fd_partials

        def counted(*args):
            calls.append(args[2])  # the ks differenced
            return fd_partials(*args)

        monkeypatch.setattr(pde, "_fd_partials", counted)
        dom = SampleDomain(n=4, radius=2.0, seed=0, count=32)
        report = check_system(parse(u), 4, dom)
        assert calls == [[1, 2, 3, 4]]
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
