"""Self-application checks: exact coefficient route and sampled route."""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ouroboros.core import (
    EXACT_TOL,
    SAMPLED_TOL,
    SYMBOLIC_ZERO_TOL,
    LinearForm,
    SampleDomain,
    Verdict,
    check_linear_exact,
    check_sampled,
    diagonal_self_apply,
    _exact_sum,
)
from ouroboros.expr import Const, Var, add, evaluate, mul, parse

finite_coeffs = st.lists(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    min_size=1,
    max_size=8,
)


OVERFLOWING = [(1, 1e308), (1, 1e308), (-2, 1e308)]  # float partial sums overflow; the exact sum is 0


class TestExactSum:
    """The one round-off rule: |R| <= SYMBOLIC_ZERO_TOL * S + the smallest normal float, on exact sums."""

    @pytest.mark.parametrize("pairs, round_off, value", [
        ([(1, math.inf)], False, math.inf),
        ([(-1, math.inf), (1, 1.0)], False, -math.inf),
        ([(1, math.nan), (1, 1.0)], False, math.nan),
        (OVERFLOWING, True, 0.0),
        (OVERFLOWING + [(1, 1e296)], True, 1e296),  # below 1e-12 times a size past the float range
        (OVERFLOWING + [(1, 1e300)], False, 1e300),
        ([(1, 0.5), (-1, 0.5 - 1e-13)], True, 0.5 - (0.5 - 1e-13)),  # 1e-13 against a size of 1
        ([(1, 0.5), (-1, 0.5 - 1e-11)], False, 0.5 - (0.5 - 1e-11)),
    ])
    def test_only_finite_round_off_is_negligible(self, pairs, round_off, value):
        got_round_off, got = _exact_sum(pairs)
        assert got_round_off is round_off
        assert got == value or (math.isnan(got) and math.isnan(value))

    @pytest.mark.parametrize("pairs, value", [
        ([(1, 1e308), (1, 1e308)], math.inf),
        ([(-1, 1e308), (-1, 1e308)], -math.inf),
        ([(3, 1e308), (-2, 1e308)], 1e308),
        ([], 0.0),
    ])
    def test_the_sum_is_rounded_once_and_overflows_to_inf(self, pairs, value):
        assert _exact_sum(pairs)[1] == value

    @given(
        st.lists(st.tuples(
            st.integers(min_value=-(10**6), max_value=10**6),
            st.floats(min_value=-1e308, max_value=1e308),  # subnormals included
        ), max_size=8),
        st.booleans(),
        st.floats(min_value=-1e308, max_value=1e308),
    )
    @example([(1, 1.0)], True, 1e-12)
    @example([(1, 5e-324)], False, 0.0)
    @settings(max_examples=400, deadline=None)
    def test_matches_the_fraction_reference(self, pairs, cancel, extra):
        """Equal to the rule evaluated on Fractions; cancelled pairs plus a remainder reach the knife edge."""
        if cancel:
            pairs = pairs + [(-w, c) for w, c in pairs] + [(1, extra)]
        terms = [Fraction(w) * Fraction(c) for w, c in pairs]
        total, size = sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))
        try:
            value = float(total)
        except OverflowError:
            value = math.inf if total > 0 else -math.inf
        round_off = abs(total) <= Fraction(SYMBOLIC_ZERO_TOL) * size + Fraction(sys.float_info.min)
        assert _exact_sum(pairs) == (round_off, value)


class TestLinearForm:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            LinearForm(())
        with pytest.raises(ValueError):
            LinearForm((1.0, float("nan")))

    def test_coefficient_sum_is_compensated(self):
        # naive left-to-right summation would drown the small terms
        form = LinearForm((1e16, 1.0, -1e16))
        assert form.coefficient_sum() == 1.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_coefficient_sum_equals_fsum_where_fsum_answers(self, coeffs):
        """Both round the exact sum once, so they agree bit for bit."""
        try:
            expected = math.fsum(coeffs)
        except OverflowError:
            return  # fsum has no answer; see test_coefficient_sum_past_the_float_range
        assert LinearForm(tuple(coeffs)).coefficient_sum() == expected

    @pytest.mark.parametrize("coeffs,total", [
        ((1e308, 1e308), math.inf),
        ((-1e308, -1e308), -math.inf),
        ((1e308, 1e308, -1e308), 1e308),
        ((sys.float_info.max, sys.float_info.max, -sys.float_info.max, 1.0), sys.float_info.max),
    ])
    def test_coefficient_sum_past_the_float_range(self, coeffs, total):
        """No intermediate overflow: only a sum that is itself too large is infinite."""
        assert LinearForm(coeffs).coefficient_sum() == total

    @given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0]), min_size=1, max_size=8))
    @example([0.0, 0.0, 0.0])
    @example([-0.0, -0.0])
    @example([1.0, 1.0])
    @example([0.0, 2.5, -0.0])
    @example([1.0])
    @example([0.5, -0.25, 1.0, 0.0, -1.0])
    @settings(max_examples=200)
    def test_the_tree_equals_the_chain_of_binary_sums(self, coeffs):
        """One flat Add, equal to folding add(terms, c_k*x_k) term by term."""
        chain = mul(Const(coeffs[0]), Var(1))
        for k in range(1, len(coeffs)):
            chain = add(chain, mul(Const(coeffs[k]), Var(k + 1)))
        assert LinearForm(tuple(coeffs)).to_expr() == chain

    def test_expression_route_agrees_with_direct_evaluation(self):
        form = LinearForm((0.5, -0.25, 0.75))
        x = (1.3, -2.1, 0.7)
        direct = form.evaluate(x)
        via_expr = evaluate(form.to_expr(), x)
        assert via_expr == pytest.approx(direct, rel=1e-12, abs=1e-15)


class TestExactCheck:
    def test_unit_sum_fractions_hold(self):
        report = check_linear_exact(LinearForm((0.5, 1/3, 1/6)))
        assert report.verdict is Verdict.HOLDS_EXACT
        assert report.holds
        assert report.samples_used == 0

    def test_sum_above_one_fails_with_witness(self):
        report = check_linear_exact(LinearForm((0.6, 0.6)))
        assert report.verdict is Verdict.FAILS
        assert report.max_deviation == pytest.approx(0.2, rel=1e-12)
        assert report.witness is not None
        # the witness must actually break the identity
        f = LinearForm((0.6, 0.6))
        y = f.evaluate(report.witness)
        yy = f.evaluate((y,) * 2)
        assert abs(yy - y) > EXACT_TOL

    def test_all_zero_coefficients_hold_as_the_zero_function(self):
        """sum(c) = 0, yet f = 0 maps its own output to itself."""
        report = check_linear_exact(LinearForm((0.0, 0.0, 0.0)))
        assert report.verdict is Verdict.HOLDS_EXACT
        assert report.max_deviation == 0.0

    def test_near_miss_within_tolerance_holds(self):
        report = check_linear_exact(LinearForm((0.5, 0.5 + 5e-13)))
        assert report.holds

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_a_tolerance_that_is_not_finite_and_non_negative_is_rejected(self, tol):
        """An infinite tolerance let 0.6 + 0.6 hold; a NaN one fails every comparison."""
        with pytest.raises(ValueError):
            check_linear_exact(LinearForm((0.6, 0.6)), tol=tol)

    @given(finite_coeffs)
    @settings(max_examples=200)
    def test_rescaled_coefficients_always_hold(self, coeffs):
        total = math.fsum(coeffs)
        if abs(total) < 0.3:
            return
        form = LinearForm(tuple(c / total for c in coeffs))
        assert check_linear_exact(form).holds

    @given(finite_coeffs)
    @settings(max_examples=200)
    def test_verdict_tracks_the_coefficient_sum(self, coeffs):
        form = LinearForm(tuple(coeffs))
        report = check_linear_exact(form)
        deviation = abs(form.coefficient_sum() - 1.0)
        zero_within_tol = all(abs(c) <= EXACT_TOL for c in coeffs)
        if zero_within_tol or deviation <= EXACT_TOL:
            assert report.holds
        else:
            assert report.verdict is Verdict.FAILS


class TestSampleDomain:
    def test_samples_are_reproducible_and_pinned(self):
        got = SampleDomain(n=2, radius=2.0, seed=0, count=3).samples()
        pinned = np.array([
            [-1.9538129828546738, -1.0338032137491275],
            [-1.5542965779402471, 0.25765848642853495],
            [0.009518417094021459, -0.8895776924617858],
        ])
        assert got.tolist() == pinned.tolist()

    def test_different_seeds_differ(self):
        a = SampleDomain(n=2, radius=2.0, seed=0, count=16).samples()
        b = SampleDomain(n=2, radius=2.0, seed=1, count=16).samples()
        assert not np.array_equal(a, b)

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100)
    def test_samples_respect_the_box(self, n, seed, count):
        dom = SampleDomain(n=n, radius=1.5, seed=seed, count=count)
        pts = dom.samples()
        assert pts.shape == (count, n)
        assert np.all(np.abs(pts) <= 1.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SampleDomain(n=0, radius=1.0, seed=0, count=1)
        with pytest.raises(ValueError):
            SampleDomain(n=1, radius=-1.0, seed=0, count=1)
        with pytest.raises(ValueError):
            SampleDomain(n=1, radius=1.0, seed=0, count=0)

    def test_a_radius_whose_box_width_overflows_is_refused(self):
        """uniform(-r, r) needs 2r finite; past half the largest float it is refused as input."""
        with pytest.raises(ValueError, match="at most half the largest float"):
            SampleDomain(n=1, radius=1e308, seed=0, count=1)
        widest = SampleDomain(n=2, radius=8.9e307, seed=0, count=4)
        assert np.all(np.abs(widest.samples()) <= 8.9e307)
        assert np.array(widest._columns()).T.tobytes() == widest.samples().tobytes()


class TestSampledCheck:
    def test_mean_expression_holds(self):
        dom = SampleDomain(n=2, radius=2.0, seed=0, count=100)
        report = check_sampled(parse("(x1 + x2)/2"), dom)
        assert report.verdict is Verdict.HOLDS_SAMPLED
        assert report.samples_used == 100
        assert report.range_contained is True

    def test_square_fails_and_the_witness_violates_the_bound(self):
        dom = SampleDomain(n=1, radius=2.0, seed=0, count=100)
        f = parse("x1^2")
        report = check_sampled(f, dom)
        assert report.verdict is Verdict.FAILS
        y, yy = diagonal_self_apply(f, report.witness)
        assert abs(yy - y) > SAMPLED_TOL * (1.0 + abs(y))

    def test_division_by_zero_gives_the_error_verdict(self):
        dom = SampleDomain(n=1, radius=2.0, seed=0, count=10)
        report = check_sampled(parse("1/(x1 - x1)"), dom)
        assert report.verdict is Verdict.ERROR
        assert report.error is not None
        assert report.samples_used == 1
        assert not report.holds

    def test_overflow_gives_the_error_verdict(self):
        dom = SampleDomain(n=1, radius=2.0, seed=0, count=50)
        report = check_sampled(parse("x1^9999"), dom)
        assert report.verdict is Verdict.ERROR

    def test_dimension_mismatch_is_rejected(self):
        dom = SampleDomain(n=1, radius=2.0, seed=0, count=10)
        with pytest.raises(ValueError):
            check_sampled(parse("x1 + x2"), dom)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_a_tolerance_that_is_not_finite_and_non_negative_is_rejected(self, tol):
        dom = SampleDomain(n=1, radius=2.0, seed=0, count=10)
        with pytest.raises(ValueError):
            check_sampled(parse("x1^2"), dom, tol=tol)

    def test_repeated_runs_are_identical(self):
        dom = SampleDomain(n=3, radius=2.0, seed=7, count=64)
        f = parse("(x1 + x2 + x3)/3")
        assert check_sampled(f, dom).to_json() == check_sampled(f, dom).to_json()

    def test_sampled_route_never_claims_exactness(self):
        dom = SampleDomain(n=2, radius=2.0, seed=0, count=32)
        for text in ["(x1 + x2)/2", "x1", "x1*x2", "3"]:
            verdict = check_sampled(parse(text), dom).verdict
            assert verdict is not Verdict.HOLDS_EXACT

    @given(finite_coeffs, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_unit_sum_linear_forms_hold_on_samples(self, coeffs, seed):
        total = math.fsum(coeffs)
        if abs(total) < 0.3:
            return
        scaled = tuple(c / total for c in coeffs)
        dom = SampleDomain(n=len(scaled), radius=2.0, seed=seed, count=50)
        report = check_sampled(LinearForm(scaled).to_expr(), dom)
        assert report.verdict is Verdict.HOLDS_SAMPLED

    @given(finite_coeffs, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_exact_and_sampled_routes_agree_on_linear_forms(self, coeffs, seed):
        """Two independent checkers, one truth: holds exactly iff holds sampled."""
        form = LinearForm(tuple(coeffs))
        deviation = abs(form.coefficient_sum() - 1.0)
        if deviation < 1e-6 and not check_linear_exact(form).holds:
            return  # borderline sums can legitimately split the routes
        if max(abs(c) for c in coeffs) < 1e-3:
            return  # nearly the zero function: samples cannot tell it from f = 0
        dom = SampleDomain(n=len(coeffs), radius=2.0, seed=seed, count=50)
        sampled = check_sampled(form.to_expr(), dom)
        if sampled.verdict is Verdict.ERROR:
            return
        assert check_linear_exact(form).holds == sampled.holds


class TestDiagonalSelfApply:
    def test_matches_manual_composition(self):
        f = parse("(x1 + 2*x2)/3")
        x = (0.9, -1.4)
        y, yy = diagonal_self_apply(f, x)
        assert y == evaluate(f, x)
        assert yy == evaluate(f, (y, y))

    def test_report_json_is_stable(self):
        report = check_linear_exact(LinearForm((0.25,) * 4))
        parsed = json.loads(report.to_json())
        assert parsed["verdict"] == "holds_exact"
        assert set(parsed) == {
            "verdict", "max_deviation", "witness", "samples_used", "range_contained", "error",
        }
