"""Sparse polynomial normal form: expansion, derivatives, monomial values."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouroboros import poly
from ouroboros.core import SampleDomain
from ouroboros.expr import Add, Const, Mul, Neg, Pow, Var, _shape, differentiate, dimension, evaluate_many, parse
from ouroboros.poly import MAX_PRODUCTS, _degree, combine, derivative, expand, monomial_exponents, monomial_values

from test_expr import shared_parses, unshared

N = 3
POINTS = SampleDomain(n=N, radius=2.0, seed=0, count=20).samples()


def polynomial_trees():
    """Random trees over x1..x3 whose divisors are nonzero constants."""
    atoms = st.one_of(
        st.integers(min_value=-9, max_value=9).map(lambda v: Const(float(v))),
        st.floats(min_value=-4, max_value=4, allow_nan=False).map(Const),
        st.integers(min_value=1, max_value=N).map(Var),
    )
    divisors = st.floats(min_value=0.25, max_value=4).flatmap(
        lambda c: st.sampled_from([Const(c), Const(-c)])
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda lr: Add(((1, lr[0]), (1, lr[1])))),
            st.tuples(children, children).map(lambda lr: Add(((1, lr[0]), (-1, lr[1])))),
            st.tuples(children, children).map(lambda lr: Mul(((1, lr[0]), (1, lr[1])))),
            st.tuples(children, divisors).map(lambda lr: Mul(((1, lr[0]), (-1, lr[1])))),
            children.map(Neg),
            st.tuples(children, st.integers(min_value=0, max_value=3)).map(lambda be: Pow(*be)),
        )

    return st.recursive(atoms, extend, max_leaves=10)


def sign_free(e):
    """The tree with every sign dropped: its values and coefficients bound those of
    every intermediate result, so round-off is measured against it."""
    if isinstance(e, Const):
        return Const(abs(e.value))
    if isinstance(e, Var):
        return e
    if isinstance(e, Add):
        return Add(tuple((1, sign_free(term)) for _, term in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple((sign, sign_free(factor)) for sign, factor in e.factors))
    if isinstance(e, Neg):
        return sign_free(e.operand)
    return Pow(sign_free(e.base), e.exponent)


def reference_times(p, q):
    """p * q on exponent tuples, added entry by entry: the oracle of the packed product."""
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            key = tuple(map(operator.add, a, b))
            out[key] = out.get(key, 0) + c * d
    return {alpha: c for alpha, c in out.items() if c != 0.0}


def reference_expand(e, n):
    """The tuple-keyed expansion, kept as the oracle of ``expand``: the same walk,
    budget and order of like-term collection (``combine`` takes any keys), with no packing."""
    budget = [MAX_PRODUCTS]
    one = {(0,) * n: 1.0}

    class GiveUp(Exception):
        pass

    def product(p, q):
        budget[0] -= len(p) * len(q)
        if budget[0] < 0:
            raise GiveUp
        return reference_times(p, q)

    def walk(e):
        if isinstance(e, Const):
            return combine([(e.value, one)])
        if isinstance(e, Var):
            return {tuple(int(i == e.index - 1) for i in range(n)): 1.0}
        if isinstance(e, Add):
            return combine([(sign, walk(term)) for sign, term in e.terms])
        if isinstance(e, Mul):
            result = walk(e.factors[0][1])
            for sign, factor in e.factors[1:]:
                p = walk(factor)
                if sign > 0:
                    result = product(result, p)
                elif p.keys() != one.keys():
                    raise GiveUp
                else:
                    result = combine([(1, {a: c / p[(0,) * n] for a, c in result.items()})])
            return result
        if isinstance(e, Neg):
            return combine([(-1, walk(e.operand))])
        base, k, result = walk(e.base), e.exponent, one
        while k:
            if k & 1:
                result = product(result, base)
            k >>= 1
            if k:
                base = product(base, base)
        return result

    try:
        return walk(e)
    except GiveUp:
        return None


def assert_identical(p, q):
    """Equal dicts with the same key order and the same bits in every coefficient."""
    assert (p is None) == (q is None)
    if p is not None:
        assert list(p) == list(q)
        assert [c.hex() for c in p.values()] == [c.hex() for c in q.values()]


def values(p, points):
    if not p:
        return np.zeros(len(points))
    return monomial_values(points, list(p)) @ np.array(list(p.values()))


class TestExpand:
    def test_like_terms_cancel(self):
        assert expand(parse("(x1 + x2)^2 - x1^2 - 2*x1*x2 - x2^2"), 2) == {}
        assert expand(parse("(x1 - x2)*(x1 + x2)"), 2) == {(2, 0): 1.0, (0, 2): -1.0}

    def test_constant_divisors_expand(self):
        assert expand(parse("(x1 + x2)/2"), 2) == {(1, 0): 0.5, (0, 1): 0.5}
        assert expand(parse("x1/(1 + 1)"), 2) == {(1, 0): 0.5}

    def test_other_divisors_have_no_normal_form(self):
        assert expand(parse("x1/x2"), 2) is None
        assert expand(parse("1/0"), 1) is None
        assert expand(parse("x1/(x2 - x2)"), 2) is None

    def test_a_non_constant_divisor_gives_up_at_its_own_slot(self, monkeypatch):
        """x2 is refused as soon as it is expanded, before the power beside it costs a product."""
        def fail(p, q):
            raise AssertionError("a product was taken after the divisor x2 was expanded")

        monkeypatch.setattr(poly, "times", fail)
        text = "x1/x2*(" + " + ".join(f"x{k}" for k in range(1, 11)) + ")^8"
        assert expand(parse(text), 10) is None

    def test_variables_beyond_the_dimension_are_rejected(self):
        with pytest.raises(ValueError):
            expand(parse("x3"), 2)

    def test_expansions_beyond_the_budget_give_up(self):
        assert expand(parse("x1^1000000"), 1) == {(1000000,): 1.0}
        assert expand(parse("(x1 + x2 + x3)^200"), 3) is None

    @given(polynomial_trees())
    @settings(max_examples=300, deadline=None)
    def test_packed_keys_give_the_tuple_keyed_expansion(self, e):
        assert_identical(expand(e, N), reference_expand(e, N))

    @given(polynomial_trees().flatmap(lambda e: polynomial_trees().map(lambda d: Mul(((1, e), (-1, d))))))
    @settings(max_examples=150, deadline=None)
    def test_any_divisor_expands_as_the_tuple_keyed_walk_does(self, e):
        """Most divisors here are not constant (no normal form); the rest must still match."""
        assert_identical(expand(e, N), reference_expand(e, N))

    @given(shared_parses(polynomial_trees()))
    @settings(max_examples=150, deadline=None)
    def test_a_shared_parse_expands_as_its_unshared_rebuild(self, e):
        rebuilt = unshared(e)
        assert_identical(expand(e, N), expand(rebuilt, N))
        assert_identical(expand(e, N), reference_expand(e, N))
        assert _degree(_shape(e)) == _degree(_shape(rebuilt))
        assert dimension(e) == dimension(rebuilt)

    def test_each_copy_of_a_shared_subtree_is_charged_to_the_budget(self):
        """(x1 + x2 + x3)^30 takes 22011 products. The parse holds one copy of it,
        expanded once, yet a sum of copies expands only while they fit in MAX_PRODUCTS."""
        copies = MAX_PRODUCTS // 22011
        one = "(x1 + x2 + x3)^30"
        assert expand(parse(" + ".join([one] * copies)), 3) is not None
        assert expand(parse(" + ".join([one] * (copies + 1))), 3) is None

    @pytest.mark.parametrize("text,n,expected", [
        ("x1^99999", 1, {(99999,): 1.0}),
        ("x1^65536*x2", 2, {(65536, 1): 1.0}),
        ("(x1^300)^300*x2", 2, {(90000, 1): 1.0}),
        (f"x1^{2**64}", 1, {(2**64,): 1.0}),
        (f"x2*x1^{2**64}*x3^{2**16 - 1}", 3, {(2**64, 1, 2**16 - 1): 1.0}),
        ("(x1+x2)^3/2 - x3", 3, {(3, 0, 0): 0.5, (2, 1, 0): 1.5, (1, 2, 0): 1.5, (0, 3, 0): 0.5, (0, 0, 1): -1.0}),
    ])
    def test_exponents_past_a_16_bit_field_expand_exactly(self, text, n, expected):
        e = parse(text)
        assert_identical(expand(e, n), expected)
        assert_identical(reference_expand(e, n), expected)

    def test_a_divisor_whose_partial_results_outgrow_the_quotient_is_still_decided(self):
        """The quotient has degree 1, but x1^2 - x2 + 1 must not pack x1^2 onto x2,
        not even under a zero power, which still expands its base."""
        assert expand(parse("x1/(x1^2 - x2 + 1)"), 2) is None
        assert expand(parse("x2*(x1/(x1^2 - x2 + 1))^0"), 2) is None
        assert_identical(expand(parse("x1/((x1 + 1)^2 - x1^2 - 2*x1)"), 2), {(1, 0): 1.0})

    @given(polynomial_trees())
    @settings(max_examples=150, deadline=None)
    def test_values_match_the_tree(self, e):
        p = expand(e, N)
        tree = evaluate_many(e, POINTS)
        scale = evaluate_many(sign_free(e), np.abs(POINTS))
        if not np.all(np.isfinite(scale)):
            return
        assert np.all(np.abs(values(p, POINTS) - tree) <= 1e-12 * (1.0 + scale))

    @given(polynomial_trees(), st.integers(min_value=1, max_value=N))
    @settings(max_examples=150, deadline=None)
    def test_derivative_commutes_with_expansion(self, e, k):
        exact = derivative(expand(e, N), k)
        via_tree = expand(differentiate(e, k), N)
        scale = derivative(expand(sign_free(e), N), k)
        if not all(np.isfinite(c) for c in scale.values()):
            return
        for alpha in set(exact) | set(via_tree):
            gap = abs(exact.get(alpha, 0.0) - via_tree.get(alpha, 0.0))
            assert gap <= 1e-12 * (1.0 + scale[alpha]), (alpha, exact, via_tree)


def monomial_text(alpha):
    return "*".join(f"x{i}^{a}" for i, a in enumerate(alpha, 1) if a) or "1"


class TestMonomialValues:
    def test_matches_per_column_products(self):
        """Each column is, bit for bit, the tree x1^a1*x2^a2*... evaluated."""
        exps = monomial_exponents(3, 6)
        values = monomial_values(POINTS, exps)
        for j, alpha in enumerate(exps):
            assert np.array_equal(values[:, j], evaluate_many(parse(monomial_text(alpha)), POINTS))

    def test_derivative_lowers_one_exponent(self):
        p = expand(parse("3*x1^2*x2 + x2^4"), 2)
        assert derivative(p, 1) == {(1, 1): 6.0}
        assert derivative(p, 2) == {(2, 0): 3.0, (0, 3): 4.0}
