"""Constructors for closed-form ouroboros functions and transport solutions.

Everything here validates eagerly and rejects bad input; nothing is silently
normalised. Unit-sum weighted averages are the workhorse family: any
coefficients summing to 1 give a self-replicating linear form, the
arithmetic mean being the special case c_k = 1/n.

The two transport-equation families refer to the equations checked in
:mod:`ouroboros.pde`. Equation I reads sum_{k<=beta} du/dx_k = beta * du/dx_n
for a range parameter 1 <= beta <= n. With beta = n its linear solutions with
unit coefficient sum form :func:`unit_sum_solution_family`; for beta < n,
:func:`head_average_solution` pins the last coefficient to the average of the
first beta coefficients, which makes the residual vanish identically.
"""

from __future__ import annotations

import math

from ._record import Record
from .core import LinearForm
from .expr import Const, Expr

__all__ = [
    "HeadAverageSolution",
    "arithmetic_mean",
    "constant_function",
    "head_average_solution",
    "unit_sum_solution_family",
    "weighted_average",
]

UNIT_SUM_TOL = 1e-12


def weighted_average(coeffs) -> LinearForm:
    """Linear form with coefficients summing to 1 (within 1e-12)."""
    form = LinearForm(tuple(coeffs))
    total = form.coefficient_sum()
    if abs(total - 1.0) > UNIT_SUM_TOL:
        raise ValueError(f"coefficients must sum to 1, got {total!r}")
    return form


def arithmetic_mean(n: int) -> LinearForm:
    """The mean of n arguments: every coefficient is 1/n."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return LinearForm((1.0 / n,) * n)


def constant_function(c: float, n: int) -> Expr:
    """The constant function x -> c on R^n (trivially self-replicating)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not math.isfinite(float(c)):
        raise ValueError("constant must be finite")
    return Const(float(c))


class HeadAverageSolution(Record):
    """u = head_average * x_n + sum_{k<n} c_k * x_k, solving equation I.

    ``coeffs`` holds c_1 .. c_{n-1}; the coefficient of x_n is not stored but
    recomputed on access as the average of the first ``beta`` coefficients.
    """

    __slots__ = ("n", "beta", "coeffs")

    def __init__(self, n: int, beta: int, coeffs: tuple[float, ...]) -> None:
        coeffs = tuple(float(c) for c in coeffs)
        if n < 2:
            raise ValueError("dimension must be at least 2")
        if len(coeffs) != n - 1:
            raise ValueError(f"expected {n - 1} coefficients, got {len(coeffs)}")
        if not 1 <= beta <= n - 1:
            raise ValueError(f"beta must lie in 1..{n - 1}, got {beta}")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        self._set(n, beta, coeffs)

    @property
    def head_average(self) -> float:
        """Average of c_1 .. c_beta; the coefficient carried by x_n."""
        return math.fsum(self.coeffs[: self.beta]) / self.beta

    def to_linear_form(self) -> LinearForm:
        return LinearForm(self.coeffs + (self.head_average,))

    def to_expr(self) -> Expr:
        return self.to_linear_form().to_expr()


def head_average_solution(coeffs, beta: int) -> HeadAverageSolution:
    """Build the equation-I solution for 1 <= beta <= n-1 from c_1 .. c_{n-1}."""
    coeffs = tuple(float(c) for c in coeffs)
    return HeadAverageSolution(n=len(coeffs) + 1, beta=beta, coeffs=coeffs)


def unit_sum_solution_family(coeffs) -> LinearForm:
    """Linear solutions of equation I with beta = n.

    Membership needs c_n = 1/n and sum(c) = 1, both within 1e-12. Such forms
    are also self-replicating, since their coefficients sum to 1.
    """
    form = LinearForm(tuple(coeffs))
    n = form.n
    if abs(form.coeffs[-1] - 1.0 / n) > UNIT_SUM_TOL:
        raise ValueError(
            f"the last coefficient must equal 1/n = {1.0 / n!r}, got {form.coeffs[-1]!r}"
        )
    total = form.coefficient_sum()
    if abs(total - 1.0) > UNIT_SUM_TOL:
        raise ValueError(f"coefficients must sum to 1, got {total!r}")
    return form
