"""Sparse polynomial normal form: a dict from exponent tuple to float coefficient.

Exact zeros are never stored, so like terms cancel; callers decide with a
tolerance whether float round-off is zero. Inside the product loop the keys
are packed: alpha becomes the one int sum(alpha_j << width*j), so a monomial
product is one int addition (Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007). The width is
chosen per expansion from a degree bound, so no field carries into the next,
and every ``Poly`` that leaves this module is keyed by tuples again. Also the
graded monomial basis; only its values on a point cloud import numpy.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Iterator

from .expr import Add, Const, Expr, Mul, Neg, Pow, Var, _map, _pow_repeated, _shape, _Shape

if TYPE_CHECKING:
    import numpy as np

Poly = dict[tuple[int, ...], float]
# a Poly with packed keys (see packed_keys), as the product loop holds it
Packed = dict[int, float]

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
    """(N, len(exponents)) matrix of the :func:`_monomial_columns`: column j
    equals, bit for bit, ``evaluate_many`` of the tree ``x1^a1*x2^a2*...``
    (factors in index order, zero exponents omitted)."""
    import numpy as np

    points = np.asarray(points, dtype=float)
    exps = np.asarray(exponents, dtype=int).reshape(-1, points.shape[1])
    values = np.empty((exps.shape[0], points.shape[0]))  # one row per monomial
    for row, monomial in zip(values, _monomial_columns(list(points.T.copy()), exps.tolist())):
        row[:] = monomial
    return np.ascontiguousarray(values.T)


def _monomial_columns(columns: list, exponents) -> Iterator:
    """Each monomial x^alpha of ``exponents`` at every sample (``columns[j]`` holds x_{j+1}); 1.0 for x^0.

    Each power x_j^a is taken once, by the binary exponentiation that ``Pow``
    evaluates with, and only read; a monomial multiplies them in index order.
    """
    powers: dict[tuple[int, int], list[float] | np.ndarray] = {}
    for alpha in exponents:
        monomial = None
        for j, a in enumerate(alpha):
            if a:
                if (j, a) not in powers:
                    powers[j, a] = _pow_repeated(columns[j], a)
                monomial = powers[j, a] if monomial is None else _map(operator.mul, monomial, powers[j, a])
        yield 1.0 if monomial is None else monomial


def combine(pairs) -> Poly:
    """sum(weight * p) over (weight, p) pairs, like terms collected in order; exact on Fractions."""
    out: Poly = {}
    for weight, p in pairs:
        for alpha, c in p.items():
            out[alpha] = out.get(alpha, 0) + weight * c
    return {alpha: c for alpha, c in out.items() if c != 0.0}


def packed_keys(exponents, degree: int) -> list[int]:
    """Each exponent tuple alpha as the key sum(alpha_j << width*j), width = degree.bit_length().

    Keys add as their tuples do while no exponent of a sum exceeds ``degree``.
    """
    width = degree.bit_length()
    return [sum(a << width * j for j, a in enumerate(alpha)) for alpha in exponents]


def times(p: Packed, q: Packed) -> Packed:
    """p * q on packed keys (see :func:`packed_keys`), like terms collected in order; exact on ints and Fractions.

    The caller's width must hold every exponent of the product.
    """
    out: Packed = {}
    get = out.get
    for a, c in p.items():
        for b, d in q.items():
            key = a + b
            out[key] = get(key, 0) + c * d
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


def _degree(shape: _Shape) -> int:
    """A bound on the total degree of every polynomial that expanding the tree of ``shape`` builds.

    A divisor counts 0 in its product, since it must expand to a constant,
    but the partial results inside it count toward the bound. Dispatches on
    the exact node type, as the expansion's loop does: isinstance chains
    nearly double the time of this loop.
    """
    bounds: list[int] = []
    for node, slots in shape.order:
        kind = type(node)
        if kind is Mul:
            total = inner = 0
            for (sign, _), slot in zip(node.factors, slots):
                if sign > 0:
                    total += bounds[slot]
                else:
                    inner = max(inner, bounds[slot])
            bound = max(total, inner)
        elif kind is Add:
            bound = max([bounds[slot] for slot in slots])
        elif kind is Pow:
            bound = bounds[slots[0]] * max(node.exponent, 1)  # a zero power still expands its base
        elif kind is Neg:
            bound = bounds[slots[0]]
        else:
            bound = 1 if kind is Var else 0
        bounds.append(bound)
    return bounds[-1]


def expand(e: Expr, n: int) -> Poly | None:
    """Normal form of ``e`` over x1..xn.

    None when a divisor is not a nonzero constant, or when expanding would
    take more than MAX_PRODUCTS coefficient products. Expands on packed keys
    wide enough for :func:`_degree`'s bound, and unpacks the result once.
    A variable past xn is refused before anything is expanded.

    Each distinct node is expanded once. Its products are charged to the
    budget once per path from the root that reaches it, so the budget
    decides as it would on the tree with every path written out.
    """
    return _expand(_shape(e), n)


def _expand(shape: _Shape, n: int) -> Poly | None:
    """:func:`expand` of the tree of ``shape``, one loop over its distinct nodes."""
    if shape.dimension > n:
        raise ValueError(f"x{shape.dimension} does not exist in dimension n={n}")
    width = _degree(shape).bit_length()
    one = {0: 1.0}
    units = [1 << width * j for j in range(n)]
    paths = [0] * (shape.size - 1) + [1]  # the paths from the root that reach each node
    for i in reversed(range(shape.size)):  # each node after every node that names it
        for slot in shape.order[i][1]:
            paths[slot] += paths[i]
    budget = MAX_PRODUCTS

    def product(p: Packed, q: Packed, reach: int) -> Packed:
        nonlocal budget
        budget -= len(p) * len(q) * reach
        if budget < 0:
            raise _NoNormalForm
        return times(p, q)

    forms: list[Packed] = []
    try:
        for (node, slots), reach in zip(shape.order, paths):
            kind = type(node)
            if kind is Const:
                form = combine([(node.value, one)])
            elif kind is Var:
                form = {units[node.index - 1]: 1.0}
            elif kind is Add:
                form = combine([(sign, forms[slot]) for (sign, _), slot in zip(node.terms, slots)])
            elif kind is Mul:
                form = forms[slots[0]]
                for (sign, _), slot in zip(node.factors[1:], slots[1:]):
                    p = forms[slot]
                    if sign > 0:
                        form = product(form, p, reach)
                    elif p.keys() != one.keys():
                        raise _NoNormalForm
                    else:
                        form = combine([(1, {a: c / p[0] for a, c in form.items()})])
            elif kind is Neg:
                form = combine([(-1, forms[slots[0]])])
            else:
                # binary exponentiation, the order expr evaluates powers in
                base, k, form = forms[slots[0]], node.exponent, one
                while k:
                    if k & 1:
                        form = product(form, base, reach)
                    k >>= 1
                    if k:
                        base = product(base, base, reach)
            forms.append(form)
    except _NoNormalForm:
        return None
    mask = (1 << width) - 1
    return {tuple(key >> width * j & mask for j in range(n)): c for key, c in forms[-1].items()}
