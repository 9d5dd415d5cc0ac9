"""Sparse polynomial normal form: a dict from exponent tuple to float coefficient.

Exact zeros are never stored, so like terms cancel; callers decide with a
tolerance whether float round-off is zero. Also the graded monomial basis;
only its values on a point cloud import numpy.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING

from .expr import Add, Const, Expr, Mul, Neg, Pow, Var, _pow_repeated

if TYPE_CHECKING:
    import numpy as np

Poly = dict[tuple[int, ...], float]

# coefficient products one expansion may spend; reaching it takes up to 0.5 s on a 2-CPU VM
MAX_PRODUCTS = 1_000_000


def monomial_exponents(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the graded basis, constant first, degrees ascending."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    out: list[tuple[int, ...]] = []
    for g in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), g):
            alpha = [0] * n
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


def monomial_values(points: np.ndarray, exponents) -> np.ndarray:
    """(N, len(exponents)) matrix of monomial values.

    Each power x_i^p is taken once, by the binary exponentiation that
    :mod:`ouroboros.expr` evaluates ``Pow`` with, and x^0 factors are left
    out, so column j equals, bit for bit, ``evaluate_many`` of the tree
    ``x1^a1*x2^a2*...`` (factors in index order, zero exponents omitted).
    """
    import numpy as np

    points = np.asarray(points, dtype=float)
    exps = np.asarray(exponents, dtype=int).reshape(-1, points.shape[1])
    values = np.ones((exps.shape[0], points.shape[0]))  # one row per monomial
    for column, powers in zip(points.T, exps.T):
        for p in set(powers.tolist()) - {0}:  # np.unique's first call costs 12 ms
            values[powers == p] *= _pow_repeated(column, p)
    return np.ascontiguousarray(values.T)


def combine(pairs) -> Poly:
    """sum(weight * p) over (weight, p) pairs, like terms collected in order; exact on Fractions."""
    out: Poly = {}
    for weight, p in pairs:
        for alpha, c in p.items():
            out[alpha] = out.get(alpha, 0) + weight * c
    return {alpha: c for alpha, c in out.items() if c != 0.0}


def times(p: Poly, q: Poly) -> Poly:
    """p * q, like terms collected in order; exact on ints and Fractions."""
    out: Poly = {}
    for a, c in p.items():
        for b, d in q.items():
            key = tuple(map(operator.add, a, b))
            out[key] = out.get(key, 0) + c * d
    return {alpha: c for alpha, c in out.items() if c != 0.0}


def derivative(p: Poly, k: int) -> Poly:
    """Exact partial derivative with respect to ``xk`` (1-based)."""
    return {
        alpha[: k - 1] + (alpha[k - 1] - 1,) + alpha[k:]: alpha[k - 1] * c
        for alpha, c in p.items()
        if alpha[k - 1]
    }


class _NoNormalForm(Exception):
    pass


def expand(e: Expr, n: int) -> Poly | None:
    """Normal form of ``e`` over x1..xn.

    None when a divisor is not a nonzero constant, or when expanding would
    take more than MAX_PRODUCTS coefficient products.
    """
    budget = [MAX_PRODUCTS]
    one = {(0,) * n: 1.0}
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]

    def product(p: Poly, q: Poly) -> Poly:
        budget[0] -= len(p) * len(q)
        if budget[0] < 0:
            raise _NoNormalForm
        return times(p, q)

    def walk(e: Expr) -> Poly:
        if isinstance(e, Const):
            return combine([(e.value, one)])
        if isinstance(e, Var):
            if e.index > n:
                raise ValueError(f"x{e.index} does not exist in dimension n={n}")
            return {units[e.index - 1]: 1.0}
        if isinstance(e, Add):
            return combine([(sign, walk(term)) for sign, term in e.terms])
        if isinstance(e, Mul):
            result = walk(e.factors[0][1])
            for sign, factor in e.factors[1:]:
                p = walk(factor)
                if sign > 0:
                    result = product(result, p)
                    continue
                if p.keys() != one.keys():
                    raise _NoNormalForm
                result = combine([(1, {a: c / p[(0,) * n] for a, c in result.items()})])
            return result
        if isinstance(e, Neg):
            return combine([(-1, walk(e.operand))])
        if isinstance(e, Pow):
            # binary exponentiation, the order expr evaluates powers in
            base, k, result = walk(e.base), e.exponent, one
            while k:
                if k & 1:
                    result = product(result, base)
                k >>= 1
                if k:
                    base = product(base, base)
            return result
        raise TypeError(f"not an expression node: {e!r}")

    try:
        return walk(e)
    except _NoNormalForm:
        return None
