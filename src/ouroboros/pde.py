"""Residual checks for two first-order transport equations.

Equation I (range parameter beta, 1 <= beta <= n):

    du/dx_1 + ... + du/dx_beta = beta * du/dx_n

Equation II (n even in the interesting cases):

    sum_{k=1..n} (-1)^k * du/dx_k = 0

Each equation is written once, as (k, weight) pairs (:meth:`PdeSpec.terms`).
Residuals follow the left-minus-right convention, stated here once and
recorded in every report. One exact round-off rule decides every residual
(:func:`~ouroboros.core._exact_sum`): a residual coefficient R, a sum of
integer weights times float coefficients of u, is zero when
|R| <= 1e-12 * S + the smallest normal float, where S is the same sum
without signs; both are summed exactly, so the slack absorbs round-off at
any scale of u and no partial sum overflows. "Symbolically zero" means every
coefficient of the residual's polynomial normal form (:mod:`ouroboros.poly`)
is zero by this rule. Without a normal form (a non-constant divisor, or too
large to expand) the report says the bound is sampled only. Sampled residual
maxima are computed twice, residual normal form vs finite differences of u's
tree. ``max_abs_residual`` is the decided residual's sampled maximum: the
residual's normal form without the coefficients the rule calls round-off
(the derivative tree for a u without a normal form), evaluated at the
samples, so a symbolically zero expression reads 0. ``max_abs_residual_fd``
is one central difference of u along the equation's direction w
(:meth:`PdeSpec.direction`), since the residual sum(w_k * du/dx_k) is the
derivative of u along w. The step along w is h / max|w_k|, and the shifts of
a block of samples go to one stacked evaluation. The two routes cross-check
each other.

A linear form u = sum(c_k * x_k) (:class:`~ouroboros.core.LinearForm`) is
its own degree-1 normal form {e_k: c_k}, read off the coefficients with no
tree and no expansion. Its residual, the constant sum(w_k * c_k), is decided
by the same rule and reported as the decided value, with no samples and no
finite differences; the alternating-balance criterion is decided by the rule
too. numpy is imported only by the functions that make arrays, so linear
forms are checked without loading it, and so is an expression on a small
cloud (:func:`~ouroboros.core._cloud`): it is drawn as Python float lists,
and one body differences and evaluates either container to the same bits.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from ._record import Record
from .core import BLOCK_CELLS, RESIDUAL_TOL, SYMBOLIC_ZERO_TOL, LinearForm, OuroborosReport, SampleDomain, check_linear_exact
from .core import _check_sampled_at, _cloud, _exact_sum, _integer, _require_tolerance
from .expr import EvaluationError, Expr, evaluate
from .expr import _column, _concat, _derivative, _errstate, _evaluate_columns, _map, _max, _shape, _Shape
from .families import arithmetic_mean
from .poly import Poly, _expand, _monomial_columns

__all__ = [
    "AlternatingBalanceReport",
    "PdeKind",
    "PdeSpec",
    "ResidualReport",
    "SystemReport",
    "check_alternating_balance",
    "check_residual",
    "check_system",
    "finite_difference",
    "residual_expr",
    "system_specs",
    "verify_mean_system",
]

if TYPE_CHECKING:
    import numpy as np

DEFAULT_FD_STEP = 1e-5
# rows per stacked evaluation in _fd_partials; at 1e5 points, 16384 beat
# 1024, 4096 and the whole stacked cloud (2-CPU VM)
BLOCK_ROWS = 16384
# the note of every linear-form residual report
LINEAR_NOTE = "linear form: residual decided exactly on its coefficients; no samples drawn"


class PdeKind(str, Enum):
    EQ_I = "I"
    EQ_II = "II"


class PdeSpec(Record):
    """Which equation to check, in which dimension; beta only applies to I."""

    __slots__ = ("kind", "n", "beta")

    def __init__(self, kind: PdeKind, n: int, beta: int | None = None) -> None:
        n = _integer("dimension", n)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if kind is PdeKind.EQ_I:
            if beta is None:
                raise ValueError("equation I needs a range parameter beta")
            beta = _integer("beta", beta)
            if not 1 <= beta <= n:
                raise ValueError(f"beta must lie in 1..{n}, got {beta}")
        elif beta is not None:
            raise ValueError("beta only applies to equation I")
        self._set(kind, n, beta)

    def terms(self) -> list[tuple[int, int]]:
        """Residual = sum(weight * du/dx_k): I is (1,1)..(beta,1),(n,-beta); II is (k,(-1)^k)."""
        if self.kind is PdeKind.EQ_I:
            return [(k, 1) for k in range(1, self.beta + 1)] + [(self.n, -self.beta)]
        return [(k, (-1) ** k) for k in range(1, self.n + 1)]

    def direction(self) -> list[float]:
        """w with residual = du/dw = sum(w_k * du/dx_k): the weights of :meth:`terms` summed per k."""
        w = [0.0] * self.n
        for k, weight in self.terms():
            w[k - 1] += weight
        return w


def system_specs(n: int) -> tuple[PdeSpec, PdeSpec]:
    """Equation I with beta = n and equation II, the two equations of the system."""
    return PdeSpec(PdeKind.EQ_I, n=n, beta=n), PdeSpec(PdeKind.EQ_II, n=n)


class ResidualReport(Record):
    """Outcome of a residual check; left-minus-right sign convention."""

    __slots__ = (
        "symbolic_zero", "residual_constant", "max_abs_residual", "max_abs_residual_fd", "samples_used", "note",
    )

    def __init__(
        self,
        symbolic_zero: bool,
        residual_constant: float | None,
        max_abs_residual: float,
        max_abs_residual_fd: float,
        samples_used: int,
        note: str | None = None,
    ) -> None:
        self._set(symbolic_zero, residual_constant, max_abs_residual, max_abs_residual_fd, samples_used, note)

    def passes(self, tol: float = RESIDUAL_TOL) -> bool:
        _require_tolerance(tol)
        return self.symbolic_zero or self.max_abs_residual <= tol

    def to_dict(self) -> dict:
        return {
            "convention": "left minus right",
            "symbolic_zero": self.symbolic_zero,
            "residual_constant": self.residual_constant,
            "max_abs_residual": self.max_abs_residual,
            "max_abs_residual_fd": self.max_abs_residual_fd,
            "samples_used": self.samples_used,
            "note": self.note,
        }


def residual_expr(u: Expr, spec: PdeSpec) -> Expr:
    """Residual of u against the chosen equation, as an expression: u's derivative along :meth:`PdeSpec.direction`."""
    shape = _shape(u)
    _require_dimension(shape.dimension, spec.n)
    return _derivative(shape, dict(enumerate(spec.direction(), 1)))


def check_residual(u: Expr | LinearForm, spec: PdeSpec, dom: SampleDomain) -> ResidualReport:
    """Decide the residual on its normal form, then bound it on samples twice.

    The first route evaluates the decided residual, the residual's normal
    form without its round-off coefficients (the exact residual expression
    when u has none); the second is one central difference of
    u's tree along the equation's direction. A linear form is its own
    normal form, and ``dom`` is not sampled.
    Raises EvaluationError when u has no value at a sample.
    """
    (report,), _, _ = _residual_reports(u, [spec], dom)
    return report


def _require_dimension(used: int, n: int) -> None:
    if used > n:
        raise ValueError(f"u uses x{used} but the equation has n={n}")


def _residual_reports(
    u: Expr | LinearForm, specs: Sequence[PdeSpec], dom: SampleDomain
) -> tuple[list[ResidualReport], list | None, _Shape | None]:
    """check_residual of u against each spec, the cloud drawn and ``_shape(u)`` (None and None for a linear form).

    The normal form of u = sum(c_k * x_k) is {e_k: c_k}, whose residual has
    one coefficient, the constant sum(w_k * c_k) at the origin: it is decided
    by :func:`~ouroboros.core._exact_sum` (c_k = 0 past u.n) in time linear in
    n, with no samples, no expansion and no finite differences. An expression
    is walked for its shape, sampled, differenced along every spec's direction
    in one stacked evaluation, and expanded, each once. The cloud
    (:func:`~ouroboros.core._cloud`) is a list of columns of either container.
    """
    if any(spec.n != dom.n for spec in specs):
        raise ValueError("sample domain and equation dimension disagree")
    if isinstance(u, LinearForm):
        _require_dimension(u.n, dom.n)
        decided = (_exact_sum((w, u.coeffs[k - 1]) for k, w in spec.terms() if k <= u.n) for spec in specs)
        reports = [ResidualReport(zero, c, 0.0 if zero else abs(c), math.nan, 0, LINEAR_NOTE) for zero, c in decided]
        return reports, None, None
    shape = _shape(u)
    _require_dimension(shape.dimension, dom.n)
    points = _cloud(shape, dom)
    fds = _fd_partials(shape, points, [spec.direction() for spec in specs], DEFAULT_FD_STEP)
    form = _expand(shape, dom.n)
    return [_residual_report(shape, form, spec, points, fd, dom.count) for spec, fd in zip(specs, fds)], points, shape


def _residual_report(
    shape: _Shape,
    form: Poly | None,
    spec: PdeSpec,
    points: list,
    fd: np.ndarray | list[float],
    count: int,
) -> ResidualReport:
    """check_residual of the u of ``shape`` at ``count`` ``points``, given its normal ``form`` (or None) and ``fd``."""
    symbolic_zero, residual_constant, note, residual = _decide_residual(form, spec)
    if residual is not None:
        values = _poly_values(residual, points)
    else:
        along = _derivative(shape, dict(enumerate(spec.direction(), 1)))  # residual_expr's tree
        values = _evaluate_columns(_shape(along), points)
    return ResidualReport(
        symbolic_zero=symbolic_zero,
        residual_constant=residual_constant,
        max_abs_residual=_max_abs(values),
        max_abs_residual_fd=_max_abs(fd),
        samples_used=count,
        note=note,
    )


def _max_abs(values) -> float:
    """The largest |v|, nan when any v is nan, as numpy's max reads it."""
    return _max(_map(abs, values))


def _poly_values(p: Poly, columns: list):
    """p at every sample: its monomials times their coefficients, summed left to right.

    The monomials are the columns of :func:`~ouroboros.poly._monomial_columns`,
    which :func:`~ouroboros.poly.monomial_values` stacks, so the sum has the
    bits of that table times the coefficients, cumulatively summed.
    """
    total = None
    with _errstate(columns[0]):
        for c, monomial in zip(p.values(), _monomial_columns(columns, p)):
            term = _map(operator.mul, monomial, c)  # 1.0 * c is c
            total = term if total is None else _map(operator.iadd, total, term)  # total is a new column
    return 0.0 if total is None else total


def _fd_partials(shape: _Shape, columns: list, directions: list[list[float]], h: float) -> list:
    """Central differences of the u of ``shape`` along each direction w, one column per w.

    Column i holds (u(x + s*w) - u(x - s*w)) / (2s) at every point x, the
    derivative of u along w = directions[i], with the step s = h / max|w_k|:
    each shift moves no coordinate by more than h, so the truncation error
    does not grow with |w|. Each evaluation takes a block of points at all
    2*len(directions) shifts stacked, about BLOCK_ROWS rows and at most
    BLOCK_CELLS cells, or one sample's shifts where those exceed it. A zero
    divisor met at a shift is reported with the index of the sample that
    was shifted. The columns of the points are never written.
    """
    count, n = len(columns[0]), len(columns)
    steps, offsets = [], []
    for w in directions:
        size = max(map(abs, w))
        steps.append(h / (size if size > 0 else 1.0))  # a zero w differences to 0 at any step
        shift = [steps[-1] * wk for wk in w]
        offsets += [shift, [-x for x in shift]]  # +s*w, then -s*w, for each w
    step = _samples_per_block(len(offsets), n)
    differences: list[list] = [[] for _ in directions]
    with _errstate(columns[0]):
        for start in range(0, count, step):
            block = [column[start:start + step] for column in columns]
            size = len(block[0])
            stacked = [_concat([_map(operator.add, x, shift[j]) for shift in offsets]) for j, x in enumerate(block)]
            try:
                values = _column(_evaluate_columns(shape, stacked), stacked[0])
            except EvaluationError as exc:
                raise EvaluationError(exc.message, start + exc.sample_index % size) from None
            for i, s in enumerate(steps):
                up, down = values[2 * i * size:(2 * i + 1) * size], values[(2 * i + 1) * size:(2 * i + 2) * size]
                two_s = 2.0 * s
                differences[i].append(_map(lambda a, b: (a - b) / two_s, up, down))
    return [_concat(parts) for parts in differences]


def _samples_per_block(shifts: int, n: int) -> int:
    """Samples per stacked evaluation of _fd_partials: about BLOCK_ROWS rows, at most BLOCK_CELLS cells, at least one."""
    return max(1, min(BLOCK_ROWS // shifts, BLOCK_CELLS // (shifts * n)))


def _decide_residual(
    form: Poly | None, spec: PdeSpec
) -> tuple[bool, float | None, str | None, Poly | None]:
    """symbolic_zero, residual_constant, note and the residual's normal form.

    Each residual coefficient is the sum of weight * alpha_k * c_alpha over
    the monomials alpha that d/dx_k lowers onto it; it is decided and rounded
    once by :func:`~ouroboros.core._exact_sum`. The normal form keeps only the
    coefficients the rule does not call round-off: the decided residual.
    """
    if form is None:
        return False, None, "u has no polynomial normal form; sampled bound only", None
    groups: dict[tuple[int, ...], list[tuple[int, float]]] = {}
    for k, weight in spec.terms():
        for alpha, c in form.items():
            power = alpha[k - 1]
            if power:
                groups.setdefault(alpha[: k - 1] + (power - 1,) + alpha[k:], []).append((weight * power, c))
    decided = {a: _exact_sum(pairs) for a, pairs in groups.items()}
    residual = {a: value for a, (zero, value) in decided.items() if not zero}
    origin = (0,) * spec.n
    if not all(zero for a, (zero, _) in decided.items() if a != origin):
        # wording kept verbatim: reports stay byte-identical across versions
        return False, None, "residual did not fold to a constant; sampled bound only", residual
    zero, constant = decided.get(origin, (True, 0.0))
    return zero, constant, None, residual


def finite_difference(u: Expr, k: int, x: Sequence[float], h: float = DEFAULT_FD_STEP) -> float:
    """Central difference estimate of du/dx_k at x."""
    up = [float(v) for v in x]
    down = [float(v) for v in x]
    up[k - 1] += h
    down[k - 1] -= h
    return (evaluate(u, up) - evaluate(u, down)) / (2.0 * h)


class AlternatingBalanceReport(Record):
    """Linear form against equation II: odd and even coefficient sums."""

    __slots__ = ("holds", "odd_sum", "even_sum")

    def __init__(self, holds: bool, odd_sum: float, even_sum: float) -> None:
        self._set(holds, odd_sum, even_sum)

    def to_dict(self) -> dict:
        return {"holds": self.holds, "odd_sum": self.odd_sum, "even_sum": self.even_sum}


def check_alternating_balance(coeffs) -> AlternatingBalanceReport:
    """u = sum(c_k x_k) solves equation II iff odd- and even-indexed sums agree.

    Indices are 1-based: c_1 is odd. Requires an even number of finite
    coefficients. Both sums and their difference are exact; each sum is
    reported rounded once, -inf or inf past the float range.
    """
    coeffs = tuple(float(c) for c in coeffs)
    n = len(coeffs)
    if n < 2 or n % 2 != 0:
        raise ValueError(f"an even dimension of at least 2 is required, got n={n}")
    if not all(map(math.isfinite, coeffs)):
        raise ValueError("coefficients must be finite")
    odd, even = coeffs[0::2], coeffs[1::2]
    return AlternatingBalanceReport(
        holds=_exact_sum([(1, c) for c in odd] + [(-1, c) for c in even])[0],
        odd_sum=_exact_sum((1, c) for c in odd)[1],
        even_sum=_exact_sum((1, c) for c in even)[1],
    )


class SystemReport(Record):
    """Four sub-verdicts for the overdetermined system at even n.

    The system couples equation I with beta = n, equation II, the anchor
    u(0, ..., 0) = 0, and the self-application identity.
    """

    __slots__ = ("eq1", "eq2", "origin_value", "zero_at_origin", "ouroboros")

    def __init__(
        self,
        eq1: ResidualReport,
        eq2: ResidualReport,
        origin_value: float,
        zero_at_origin: bool,
        ouroboros: OuroborosReport,
    ) -> None:
        self._set(eq1, eq2, origin_value, zero_at_origin, ouroboros)

    def passes(self, tol: float = RESIDUAL_TOL) -> bool:
        """Both residuals pass at ``tol``, u(0) = 0, and self-application holds."""
        return self.eq1.passes(tol) and self.eq2.passes(tol) and self.zero_at_origin and self.ouroboros.holds

    @property
    def all_hold(self) -> bool:
        return self.passes()

    def to_dict(self, tol: float = RESIDUAL_TOL) -> dict:
        """The report as JSON-ready data, ``all_hold`` judged at ``tol``."""
        return {
            "eq1": self.eq1.to_dict(),
            "eq2": self.eq2.to_dict(),
            "origin_value": self.origin_value,
            "zero_at_origin": self.zero_at_origin,
            "ouroboros": self.ouroboros.to_dict(),
            "all_hold": self.passes(tol),
        }


def check_system(u: Expr | LinearForm, n: int, dom: SampleDomain) -> SystemReport:
    """Check a candidate against the full system in even dimension n.

    Raises EvaluationError when u has no value at a sample or at the origin.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"the system needs an even dimension of at least 2, got n={n}")
    (eq1, eq2), points, shape = _residual_reports(u, system_specs(n), dom)
    if isinstance(u, LinearForm):
        ouro = check_linear_exact(u)
        # the float u.to_expr() takes at the origin: it keeps the nonzero terms,
        # each c_k * 0.0, so it reads -0.0 when all of them are negative
        origin = -0.0 if any(u.coeffs) and all(c <= 0.0 for c in u.coeffs) else 0.0
    else:
        ouro = _check_sampled_at(shape, dom, points)
        try:
            origin = _evaluate_columns(shape, [0.0] * n)  # one float column per variable: one sample
        except EvaluationError as exc:
            raise EvaluationError(f"{exc.message} at the origin") from None
    return SystemReport(
        eq1=eq1,
        eq2=eq2,
        origin_value=origin,
        zero_at_origin=origin == 0.0,
        ouroboros=ouro,
    )


def verify_mean_system(n: int) -> SystemReport:
    """The arithmetic mean solves the full system in any even dimension."""
    return check_system(arithmetic_mean(n), n, SampleDomain(n=n, radius=2.0, seed=0, count=200))
