"""Sparse polynomial normal form: expansion, derivatives, monomial values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouroboros.core import SampleDomain
from ouroboros.expr import Add, Const, Mul, Neg, Pow, Var, differentiate, evaluate_many, parse
from ouroboros.poly import derivative, expand, monomial_exponents, monomial_values

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

    def test_variables_beyond_the_dimension_are_rejected(self):
        with pytest.raises(ValueError):
            expand(parse("x3"), 2)

    def test_expansions_beyond_the_budget_give_up(self):
        assert expand(parse("x1^1000000"), 1) == {(1000000,): 1.0}
        assert expand(parse("(x1 + x2 + x3)^200"), 3) is None

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
