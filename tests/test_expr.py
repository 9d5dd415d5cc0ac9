"""Expression layer: parsing, printing, evaluation, differentiation."""

import copy
import math
import pickle
import sys
import time

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


def shared_parses(trees):
    """Parses of random trees in which subtrees of ``trees`` repeat, so that parse shares them."""
    def repeat(children):
        return st.one_of(
            children.map(lambda c: Add(((1, c), (1, c)))),
            st.tuples(children, children).map(lambda ab: Mul(((1, ab[0]), (1, ab[1]), (1, Neg(ab[0]))))),
            st.tuples(children, children).map(lambda ab: Add(((1, Pow(ab[0], 2)), (-1, Mul(((1, ab[1]), (1, Pow(ab[0], 2)))))))),
        )

    return st.recursive(trees, repeat, max_leaves=3).map(lambda e: parse(to_string(e)))


def unshared(e):
    """``e`` rebuilt with a new object on every path: no node is reached along two, not even a leaf."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Var):
        return Var(e.index)
    if isinstance(e, Add):
        return Add(tuple((sign, unshared(term)) for sign, term in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple((sign, unshared(factor)) for sign, factor in e.factors))
    if isinstance(e, Neg):
        return Neg(unshared(e.operand))
    return Pow(unshared(e.base), e.exponent)


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


def deep_tree(depth: int):
    """x1, then alternately e + x2 and -e, ``depth`` levels: x1 again after every four, read exactly at integers."""
    e = Var(1)
    for level in range(depth):
        e = Neg(e) if level % 2 else Add(((1, e), (1, Var(2))))
    return e


class TestDeepTrees:
    """Every walk but printing, hashing and equality is a loop, so a tree built by hand may be of any depth."""

    def test_every_walk_and_check_takes_a_tree_ten_thousand_deep(self):
        from ouroboros.core import SampleDomain, Verdict, check_sampled
        from ouroboros.pde import PdeKind, PdeSpec, check_residual, check_system, residual_expr

        u = deep_tree(10_000)
        assert sys.getrecursionlimit() < 10_000
        point = (3.0, 5.0)
        assert evaluate(u, point) == 3.0
        assert evaluate_many(u, np.array([point, (-2.0, 7.0)])).tolist() == [3.0, -2.0]
        assert dimension(u) == 2
        assert expand(u, 2) == {(1, 0): 1.0}
        assert [evaluate(differentiate(u, k), point) for k in (1, 2)] == [1.0, 0.0]
        spec = PdeSpec(PdeKind.EQ_II, n=2)
        assert evaluate(residual_expr(u, spec), point) == -1.0
        dom = SampleDomain(n=2, radius=2.0, seed=0, count=50)
        assert check_sampled(u, dom).verdict is Verdict.HOLDS_SAMPLED
        report = check_residual(u, spec, dom)
        assert report.residual_constant == -1.0 and report.max_abs_residual == 1.0
        system = check_system(u, 2, dom)
        assert system.eq2 == report and system.origin_value == 0.0 and system.ouroboros.holds


class TestSharing:
    """parse makes equal subtrees one object; evaluation, expansion, differentiation and dimension read a shared node once."""

    def test_equal_subtrees_are_one_object(self):
        e = parse("(x1+x2)^2*x3 + (x1+x2)^2")
        assert e.terms[0][1].factors[0][1] is e.terms[1][1]
        assert e.terms[1][1] == Pow(Add(((1, Var(1)), (1, Var(2)))), 2)

    def test_zero_and_minus_zero_stay_two_constants(self):
        e = parse("0*x1 + -0*x2")
        zero, minus_zero = e.terms[0][1].factors[0][1], e.terms[1][1].factors[0][1]
        assert zero is not minus_zero
        assert math.copysign(1.0, zero.value) == 1.0 and math.copysign(1.0, minus_zero.value) == -1.0
        assert math.copysign(1.0, evaluate(parse("-0*x1"), [1])) == -1.0

    @given(shared_parses(expr_strategy()))
    @settings(max_examples=150, deadline=None)
    def test_a_shared_parse_reads_as_its_unshared_rebuild(self, e):
        rebuilt = unshared(e)
        assert e == rebuilt and hash(e) == hash(rebuilt)
        assert repr(e) == repr(rebuilt) and to_string(e) == to_string(rebuilt)
        assert pickle.loads(pickle.dumps(e)) == rebuilt
        assert copy.deepcopy(e) == rebuilt
        assert dimension(e) == dimension(rebuilt)
        assert all(differentiate(e, k) == differentiate(rebuilt, k) for k in (1, 2, 3))

    def test_a_doubling_dag_is_walked_in_time_linear_in_its_nodes(self):
        """Level k multiplies level k-1 by itself, so 64 levels hold x1^(2^64) on 2^64 paths.

        The DAG is neither hashed nor printed, not even by a failing assert: those still walk every path.
        """
        e = Var(1)
        for _ in range(64):
            e = Mul(((1, e), (1, e)))
        for walk, want in ((dimension, 1), (lambda e: evaluate(e, [1.0]), 1.0), (lambda e: expand(e, 1), None)):
            start = time.perf_counter()
            got = walk(e)
            seconds = time.perf_counter() - start
            assert got == want and seconds < 1.0


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
        with pytest.raises(ValueError) as exc:
            evaluate(Var(3), (1.0, 2.0))
        assert str(exc.value) == "point of length 2 is too short for x3"

    def test_division_by_zero_raises(self):
        with pytest.raises(EvaluationError) as exc:
            evaluate(parse("1/(x1 - 1)"), (1.0,))
        assert str(exc.value) == "division by zero" and exc.value.sample_index is None

    def test_vectorised_division_by_zero_reports_first_offending_row(self):
        pts = np.array([[2.0], [1.0], [0.0]])
        with pytest.raises(EvaluationError) as exc:
            evaluate_many(parse("1/(x1 - 1)"), pts)
        assert exc.value.sample_index == 1
        assert str(exc.value) == "division by zero (sample 1)"

    @pytest.mark.parametrize("text, width", [("2.5", 0), ("-(3)^2 + 1/4", 2), ("x2", 2), ("x1 - x1", 1)])
    def test_vectorised_values_are_one_array_entry_per_row(self, text, width):
        """Also for a tree that reads no variable, and for points with no coordinates."""
        pts = np.random.default_rng(width).uniform(-1, 1, size=(4, width))
        got = evaluate_many(parse(text), pts)
        assert isinstance(got, np.ndarray) and got.shape == (4,) and got.dtype == float
        assert got.tolist() == [evaluate(parse(text), tuple(p)) for p in pts]

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


def squared_sum_dag(depth: int):
    """e = x1 + x2, then e = Mul(((1, e), (1, e))) ``depth`` times: 2^depth copies of x1 + x2 on distinct paths, one object."""
    e = Add(((1, Var(1)), (1, Var(2))))
    for _ in range(depth):
        e = Mul(((1, e), (1, e)))
    return e


class TestDifferentiation:
    @pytest.mark.parametrize("depth", [1, 2, 5, 8])
    def test_a_shared_dag_differentiates_as_its_unshared_rebuild(self, depth):
        e = squared_sum_dag(depth)
        rebuilt = unshared(e)
        for k in (1, 2, 3):
            assert differentiate(e, k) == differentiate(rebuilt, k)

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
