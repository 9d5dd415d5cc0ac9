"""Expression layer: parsing, printing, evaluation, differentiation."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ouroboros.expr import (
    MAX_DEPTH,
    Add,
    Const,
    EvaluationError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Var,
    add,
    _evaluate_shifts,
    differentiate,
    dimension,
    evaluate,
    evaluate_many,
    mul,
    parse,
    power,
    to_string,
)
from ouroboros.poly import expand


def pair(node, sign):
    """Map (left, right) to the two-entry sum or product left +- right or left */ right."""
    return lambda lr: node(((1, lr[0]), (sign, lr[1])))


def expr_strategy(max_vars: int = 3):
    """Random expression trees over x1..x{max_vars} with small exponents."""
    atoms = st.one_of(
        st.integers(min_value=0, max_value=9).map(lambda v: Const(float(v))),
        st.floats(min_value=-4, max_value=4, allow_nan=False).map(Const),
        st.integers(min_value=1, max_value=max_vars).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(pair(Add, 1)),
            st.tuples(children, children).map(pair(Add, -1)),
            st.tuples(children, children).map(pair(Mul, 1)),
            st.tuples(children, children).map(pair(Mul, -1)),
            children.map(Neg),
            st.tuples(children, st.integers(min_value=0, max_value=3)).map(
                lambda be: Pow(be[0], be[1])
            ),
        )

    return st.recursive(atoms, extend, max_leaves=12)


class TestParsing:
    def test_operator_spelling_round_trip(self):
        """The printed form of a parse is a fixed point of parse-print."""
        text = "x1 + 2*x2 - x3^3/(1 - x1)"
        once = to_string(parse(text))
        assert to_string(parse(once)) == once

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1 + 2*3", 7.0),
            ("(1 + 2)*3", 9.0),
            ("(2^3)^2", 64.0),  # chaining needs parentheses, one exponent per factor
            ("-2^2", -4.0),  # unary minus binds looser than the exponent
            ("2*-3", -6.0),
            ("--4", 4.0),
            ("1e2 + .5", 100.5),
            ("6/3/2", 1.0),  # left-associative
            ("2 - 3 - 4", -5.0),
        ],
    )
    def test_precedence_and_literals(self, text, expected):
        assert evaluate(parse(text), ()) == expected

    def test_variables_are_one_based(self):
        assert parse("x1") == Var(1)
        with pytest.raises(ParseError):
            parse("x0")

    @pytest.mark.parametrize(
        "bad", ["", "x", "1 +", "(1", "1)", "2^x1", "2^-1", "2^3^2", "1..2", "x1 x2", "$"]
    )
    def test_rejects_malformed_input(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + @")
        assert exc.value.position == 4

    def test_exponent_must_be_a_literal_integer(self):
        with pytest.raises(ParseError):
            parse("x1^2.5")

    def test_minus_folds_into_a_bare_literal(self):
        assert parse("-5") == Const(-5.0)
        # but not through an exponent: -5^2 means -(5^2)
        assert parse("-5^2") == Neg(Pow(Const(5.0), 2))

    @pytest.mark.parametrize("opening", ["(", "-"])
    def test_nesting_is_limited(self, opening):
        """MAX_DEPTH levels of parentheses or unary minus parse; one more is refused at its offset."""
        closing = ")" if opening == "(" else ""
        assert dimension(parse(opening * MAX_DEPTH + "x1" + closing * MAX_DEPTH)) == 1
        with pytest.raises(ParseError) as exc:
            parse(opening * (MAX_DEPTH + 1) + "x1" + closing * (MAX_DEPTH + 1))
        assert exc.value.message == "expression nested too deeply"
        assert exc.value.position == MAX_DEPTH

    def test_sums_and_products_parse_flat(self):
        assert parse("x1 - x2 + 3") == Add(((1, Var(1)), (-1, Var(2)), (1, Const(3.0))))
        assert parse("(x1*x2)/x3") == Mul(((1, Var(1)), (1, Var(2)), (-1, Var(3))))
        # a later entry keeps its parentheses: they change the order of evaluation
        assert parse("x1 - (x2 + 3)") == Add(((1, Var(1)), (-1, Add(((1, Var(2)), (1, Const(3.0)))))))


class TestNodes:
    def test_a_leading_entry_of_the_same_kind_is_spliced_in(self):
        inner = Add(((1, Var(1)), (-1, Var(2))))
        assert Add(((1, inner), (1, Var(3)))).terms == ((1, Var(1)), (-1, Var(2)), (1, Var(3)))
        assert Mul(((1, Mul(((1, Var(1)), (-1, Var(2))))), (1, Var(3)))) == parse("x1/x2*x3")

    @pytest.mark.parametrize("entries", [
        ((1, Var(1)),),
        ((-1, Var(1)), (1, Var(2))),
        ((1, Var(1)), (2, Var(2))),
    ])
    def test_malformed_entries_are_rejected(self, entries):
        with pytest.raises(ValueError):
            Add(entries)
        with pytest.raises(ValueError):
            Mul(entries)


class TestLongInputs:
    """Sums and products do not nest, so their length is bounded by memory, not the stack."""

    def test_every_walker_takes_a_long_sum(self):
        count = 5000
        text = " - ".join(f"{k}*x{k % 3 + 1}" for k in range(1, count + 1))
        e = parse(text)
        assert len(e.terms) == count
        assert to_string(e) == text
        assert dimension(e) == 3
        point = (0.5, -1.0, 2.0)
        assert evaluate_many(e, np.array([point])).tolist() == [evaluate(e, point)]
        assert evaluate(differentiate(e, 1), point) == -sum(range(3, count + 1, 3))
        assert expand(e, 3)[(1, 0, 0)] == -sum(range(3, count + 1, 3))

    def test_every_walker_takes_a_long_product(self):
        count = 300
        e = parse("*".join(["x1"] * count))
        assert len(e.factors) == count
        assert to_string(e) == "*".join(["x1"] * count)
        assert evaluate(e, (1.0,)) == 1.0
        assert evaluate_many(e, np.ones((2, 1))).tolist() == [1.0, 1.0]
        # the flat product rule: one summand per factor, none nested deeper than the product
        assert evaluate(differentiate(e, 1), (1.0,)) == count
        assert expand(e, 1) == {(count,): 1.0}


class TestPrinting:
    def test_integral_constants_print_without_decimal_point(self):
        assert to_string(Const(2.0)) == "2"
        assert to_string(Const(2.5)) == "2.5"

    def test_negative_power_base_is_parenthesised(self):
        assert to_string(Pow(Const(-2.0), 3)) == "(-2)^3"

    def test_subtraction_grouping_survives_printing(self):
        e = Add(((1, Const(2.0)), (-1, Add(((1, Const(3.0)), (-1, Const(4.0)))))))
        assert evaluate(parse(to_string(e)), ()) == evaluate(e, ())

    @given(expr_strategy())
    @settings(max_examples=200)
    def test_round_trip_preserves_structure(self, e):
        """print -> parse -> print is the identity on printed forms."""
        text = to_string(e)
        assert to_string(parse(text)) == text

    @given(expr_strategy())
    @settings(max_examples=200)
    def test_round_trip_preserves_value(self, e):
        x = (0.7, -1.3, 2.1)
        try:
            expected = evaluate(e, x)
        except EvaluationError:
            return
        got = evaluate(parse(to_string(e)), x)
        assert got == expected or (math.isnan(got) and math.isnan(expected))


class TestEvaluation:
    def test_too_short_point_is_rejected(self):
        with pytest.raises(ValueError):
            evaluate(Var(3), (1.0, 2.0))

    def test_division_by_zero_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/(x1 - 1)"), (1.0,))

    def test_vectorised_division_by_zero_reports_first_offending_row(self):
        pts = np.array([[2.0], [1.0], [0.0]])
        with pytest.raises(EvaluationError) as exc:
            evaluate_many(parse("1/(x1 - 1)"), pts)
        assert exc.value.sample_index == 1

    @given(expr_strategy(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150)
    def test_vectorised_matches_scalar_bitwise(self, e, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3, 3, size=(5, 3))
        try:
            scalar = [evaluate(e, tuple(p)) for p in pts]
        except EvaluationError:
            return
        if not all(math.isfinite(v) for v in scalar):
            return
        vector = evaluate_many(e, pts)
        assert vector.tolist() == scalar

    def test_zero_to_the_zero_is_one(self):
        assert evaluate(Pow(Const(0.0), 0), ()) == 1.0
        assert evaluate_many(Pow(Var(1), 0), np.zeros((2, 1))).tolist() == [1.0, 1.0]


def stacked_shifts(e, pts, ks, h):
    """evaluate_many on the copies of pts shifted by +h and -h along each x_k, stacked in that order."""
    copies = []
    for k in ks:
        up, down = pts.copy(), pts.copy()
        up[:, k - 1] += h
        down[:, k - 1] -= h
        copies += [up, down]
    return evaluate_many(e, np.concatenate(copies)).reshape(len(copies), len(pts))


class TestShiftedEvaluation:
    """_evaluate_shifts against evaluate_many on the stacked shifted copies, bit for bit."""

    @pytest.mark.parametrize("text", [
        "x1*x1 + x1",  # one variable read twice
        "2*x1*x2 - 3*x3",  # a leading constant factor; x3 is never shifted
        "(x1 + x2)^0 + x2^1*x1^1 + (x1 - x3)^1",
        "-x1*x2 - -(x3 + 1) + -(x1 + x2)^2",
        "x1/(2 + x2)*x3/(x3^2 + 1)",  # divided factors
        "x3^2 + 4 + x1",  # a subtree that reads no shifted variable
        "x3*(x3 + 1)",  # no shifted variable at all
    ])
    @pytest.mark.parametrize("ks", [[1, 2], [1, 2, 3], [2]])
    def test_in_place_steps_overwrite_no_shared_array(self, text, ks):
        pts = np.random.default_rng(3).uniform(-2, 2, size=(50, 3))
        before = pts.copy()
        e = parse(text)
        got = _evaluate_shifts(e, pts, ks, 1e-5)
        assert np.array_equal(pts, before)
        want = stacked_shifts(e, pts, ks, 1e-5)
        assert [row.tobytes() for row in got] == [row.tobytes() for row in want]
        assert [row.tobytes() for row in _evaluate_shifts(e, pts, ks, 1e-5)] == [row.tobytes() for row in got]

    @given(
        expr_strategy(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([[1], [1, 2], [1, 3], [1, 2, 3]]),
    )
    @settings(max_examples=150)
    def test_matches_the_stacked_copies(self, e, seed, ks):
        """Values bit for bit, inf and nan included; a zero divisor at the same shift and row."""
        pts = np.random.default_rng(seed).uniform(-3, 3, size=(6, 3))
        try:
            want = stacked_shifts(e, pts, ks, 0.5)
        except EvaluationError as exc:
            with pytest.raises(EvaluationError) as got:
                _evaluate_shifts(e, pts, ks, 0.5)
            assert got.value.sample_index == exc.sample_index % len(pts)
            return
        got = _evaluate_shifts(e, pts, ks, 0.5)
        assert [row.tobytes() for row in got] == [row.tobytes() for row in want]

    def test_a_zero_divisor_is_named_at_the_first_shift_in_order(self):
        """Zero at x - h*e_1 of row 4 and at x + h*e_2 of row 1: the x1 shifts come first."""
        pts = np.random.default_rng(0).uniform(-2, 2, size=(6, 2))
        h = 0.25
        e = parse(f"1/((x1 - ({float(pts[4, 0] - h)!r}))*(x2 - ({float(pts[1, 1] + h)!r})))")
        with pytest.raises(EvaluationError) as stacked:
            stacked_shifts(e, pts, [1, 2], h)
        with pytest.raises(EvaluationError) as got:
            _evaluate_shifts(e, pts, [1, 2], h)
        assert stacked.value.sample_index == len(pts) + 4
        assert got.value.sample_index == 4


class TestDimension:
    def test_dimension_is_the_largest_index(self):
        assert dimension(parse("x2*x5 + x1")) == 5

    def test_constants_have_dimension_zero(self):
        assert dimension(Const(3.0)) == 0


class TestSimplification:
    def test_smart_constructors_fold_neutral_elements(self):
        x = Var(1)
        assert add(x, Const(0.0)) == x
        assert mul(Const(1.0), x) == x
        assert mul(Const(0.0), x) == Const(0.0)
        assert power(x, 1) == x
        assert power(x, 0) == Const(1.0)


class TestDifferentiation:
    def test_product_rule_prints_cleanly(self):
        assert to_string(differentiate(parse("x1^2*x2"), 1)) == "2*x1*x2"

    def test_derivative_of_absent_variable_is_zero(self):
        assert differentiate(parse("x1 + 7"), 2) == Const(0.0)

    @pytest.mark.parametrize(
        "text, var, point, expected",
        [
            ("x1^3", 1, (2.0,), 12.0),
            ("x1/x2", 2, (1.0, 2.0), -0.25),
            ("(x1 + x2)^2", 1, (1.0, 2.0), 6.0),
            ("-x1*x2", 2, (3.0, 1.0), -3.0),
        ],
    )
    def test_known_derivatives(self, text, var, point, expected):
        got = evaluate(differentiate(parse(text), var), point)
        assert got == pytest.approx(expected, rel=1e-12)

    @given(expr_strategy(max_vars=2), st.integers(min_value=1, max_value=2))
    @example(e=Add(((1, Var(2)), (1, Mul(((1, Const(1.0)), (-1, Const(4.117376076054289e-25))))))), var=2)
    @settings(max_examples=150)
    def test_matches_central_differences(self, e, var):
        x = (0.6, -0.8)
        h = 1e-6
        try:
            d = evaluate(differentiate(e, var), x)
            xp = list(x)
            xm = list(x)
            xp[var - 1] += h
            xm[var - 1] -= h
            up, down = evaluate(e, tuple(xp)), evaluate(e, tuple(xm))
            fd = (up - down) / (2*h)
        except EvaluationError:
            return
        if not (math.isfinite(d) and math.isfinite(fd)):
            return
        if abs(d) > 1e6 or abs(fd) > 1e6:
            return  # near a pole the central difference itself is unreliable
        if sys.float_info.epsilon * max(abs(up), abs(down)) / h > 1e-4:
            return  # rounding f(x +- h) alone can move the central difference past 1e-4
        assert d == pytest.approx(fd, rel=1e-4, abs=1e-4)
