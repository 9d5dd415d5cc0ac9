"""Residual checks for two first-order transport equations.

Equation I (range parameter beta, 1 <= beta <= n):

    du/dx_1 + ... + du/dx_beta = beta * du/dx_n

Equation II (n even in the interesting cases):

    sum_{k=1..n} (-1)^k * du/dx_k = 0

Each equation is written once, as (k, weight) pairs (:meth:`PdeSpec.terms`).
Residuals follow the left-minus-right convention, stated here once and
recorded in every report. "Symbolically zero" means every coefficient of the
residual's polynomial normal form (:mod:`ouroboros.poly`, where like terms
cancel) is at most 1e-12 times the same coefficient summed without signs: the
slack absorbs round-off in the cancellation, at any scale of u. Without a
normal form (a non-constant divisor, or too large to expand) the report says
the bound is sampled only. Sampled residual maxima are computed twice,
residual normal form vs finite differences of u's tree: the normal form (the
derivative tree for a u without one) evaluated at the samples, and central
differences of u. A small cloud evaluates all shifts of a block of samples in
one stacked evaluation; a large one with several shifted variables evaluates
each subtree once per shift of a variable it reads and once unshifted for the
shifts it does not read, with the same bits. The two routes cross-check each
other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import RESIDUAL_TOL, LinearForm, OuroborosReport, SampleDomain, _check_sampled_at, check_linear_exact
from .core import _require_tolerance
from .expr import Const, EvaluationError, Expr, differentiate, dimension, evaluate, evaluate_many, mul, sub
from .expr import _evaluate_shifts
from .expr import add as expr_add
from .families import arithmetic_mean
from .poly import Poly, combine, derivative, expand, monomial_values

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

SYMBOLIC_ZERO_TOL = 1e-12
DEFAULT_FD_STEP = 1e-5
# rows per evaluate_many call in _fd_partials and per monomial table in
# _poly_values; at 1e5 points, 16384 beat 1024, 4096 and the whole stacked
# cloud (2-CPU VM). From this many samples and two shifted variables on,
# _fd_partials evaluates shift-aware blocks of BLOCK_ROWS // 4 samples; on
# small clouds per-node dispatch outweighs the subtrees it skips (2.0 to 2.6
# times slower than one stacked block of 200 samples, 2-CPU VM)
BLOCK_ROWS = 16384
# cells (rows times n) per stacked block in _fd_partials: BLOCK_ROWS rows
# up to n = 8, fewer beyond, and always at least one sample's shifts
BLOCK_CELLS = 8 * BLOCK_ROWS


class PdeKind(str, Enum):
    EQ_I = "I"
    EQ_II = "II"


@dataclass(frozen=True)
class PdeSpec:
    """Which equation to check, in which dimension; beta only applies to I."""

    kind: PdeKind
    n: int
    beta: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if self.kind is PdeKind.EQ_I:
            if self.beta is None:
                raise ValueError("equation I needs a range parameter beta")
            if not 1 <= self.beta <= self.n:
                raise ValueError(f"beta must lie in 1..{self.n}, got {self.beta}")
        elif self.beta is not None:
            raise ValueError("beta only applies to equation I")

    def terms(self) -> list[tuple[int, int]]:
        """Residual = sum(weight * du/dx_k): I is (1,1)..(beta,1),(n,-beta); II is (k,(-1)^k)."""
        if self.kind is PdeKind.EQ_I:
            return [(k, 1) for k in range(1, self.beta + 1)] + [(self.n, -self.beta)]
        return [(k, (-1) ** k) for k in range(1, self.n + 1)]


def system_specs(n: int) -> tuple[PdeSpec, PdeSpec]:
    """Equation I with beta = n and equation II, the two equations of the system."""
    return PdeSpec(PdeKind.EQ_I, n=n, beta=n), PdeSpec(PdeKind.EQ_II, n=n)


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of a residual check; left-minus-right sign convention."""

    symbolic_zero: bool
    residual_constant: float | None
    max_abs_residual: float
    max_abs_residual_fd: float
    samples_used: int
    note: str | None = None

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
    """Residual of u against the chosen equation, as an expression."""
    _require_dimension(u, spec.n)
    total: Expr = Const(0.0)
    for k, weight in spec.terms():
        term = mul(Const(float(abs(weight))), differentiate(u, k))
        total = expr_add(total, term) if weight > 0 else sub(total, term)
    return total


def check_residual(u: Expr, spec: PdeSpec, dom: SampleDomain) -> ResidualReport:
    """Decide the residual on its normal form, then bound it on samples twice.

    The first route evaluates the residual's normal form (the exact residual
    expression when u has none); the second rebuilds the residual from
    central finite differences of u's tree alone.
    Raises EvaluationError when u has no value at a sample.
    """
    if dom.n != spec.n:
        raise ValueError("sample domain and equation dimension disagree")
    _require_dimension(u, spec.n)
    points = dom.samples()
    partials = _fd_partials(u, points, sorted({k for k, _ in spec.terms()}), DEFAULT_FD_STEP)
    return _residual_report(u, expand(u, spec.n), spec, points, partials)


def _require_dimension(u: Expr, n: int) -> None:
    if dimension(u) > n:
        raise ValueError(f"u uses x{dimension(u)} but the equation has n={n}")


def _residual_report(
    u: Expr,
    form: Poly | None,
    spec: PdeSpec,
    points: np.ndarray,
    partials: dict[int, np.ndarray],
) -> ResidualReport:
    """check_residual at ``points`` once u is expanded to ``form`` (None: no normal form) and differenced."""
    symbolic_zero, residual_constant, note, residual = _decide_residual(form, spec)
    if residual is None:
        values = evaluate_many(residual_expr(u, spec), points)
    else:
        values = _poly_values(residual, points)
    max_abs = float(np.abs(values).max())
    with np.errstate(over="ignore", invalid="ignore"):
        fd = sum(weight * partials[k] for k, weight in spec.terms())
    max_abs_fd = float(np.abs(fd).max())
    return ResidualReport(
        symbolic_zero=symbolic_zero,
        residual_constant=residual_constant,
        max_abs_residual=max_abs,
        max_abs_residual_fd=max_abs_fd,
        samples_used=len(points),
        note=note,
    )


def _poly_values(p: Poly, points: np.ndarray) -> np.ndarray:
    """p at every point, from monomial tables of at most BLOCK_ROWS rows."""
    exponents, coeffs = list(p), np.array(list(p.values()))
    with np.errstate(over="ignore", invalid="ignore"):  # as evaluate_many: inf and nan, no warning
        return np.concatenate([
            monomial_values(points[start:start + BLOCK_ROWS], exponents) @ coeffs
            for start in range(0, len(points), BLOCK_ROWS)
        ])


def _fd_partials(u: Expr, points: np.ndarray, ks: list[int], h: float) -> dict[int, np.ndarray]:
    """Central differences of u along x_k at every point, for each k in ``ks``.

    With at least BLOCK_ROWS points and two or more ks, blocks of
    BLOCK_ROWS // 4 points go to the shift-aware evaluator, which evaluates
    a subtree that reads no x_k once for both shifts of x_k. Otherwise each
    evaluate_many call takes a block of points at all 2*len(ks) shifts
    stacked, about BLOCK_ROWS rows and at most BLOCK_CELLS cells, or one
    sample's shifts where those exceed it. Both give the same bits. A zero
    divisor met at a shift is reported with the index of the sample that was
    shifted.
    """
    count, n = points.shape
    if count >= BLOCK_ROWS and len(ks) >= 2:
        step = BLOCK_ROWS // 4

        def shifted(block: np.ndarray):
            return _evaluate_shifts(u, block, ks, h)
    else:
        shifts = 2 * len(ks)
        step = max(1, min(BLOCK_ROWS // shifts, BLOCK_CELLS // (shifts * n)))

        def shifted(block: np.ndarray):
            stacked = np.repeat(block[None], shifts, axis=0)
            for i, k in enumerate(ks):
                stacked[2 * i, :, k - 1] += h
                stacked[2 * i + 1, :, k - 1] -= h
            return evaluate_many(u, stacked.reshape(-1, n)).reshape(shifts, len(block))
    partials = np.empty((len(ks), count))
    for start in range(0, count, step):
        block = points[start:start + step]
        try:
            values = shifted(block)
        except EvaluationError as exc:
            raise EvaluationError(exc.message, start + exc.sample_index % len(block)) from None
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(ks)):
                partials[i, start:start + len(block)] = (values[2 * i] - values[2 * i + 1]) / (2.0 * h)
    return dict(zip(ks, partials))


def _decide_residual(
    form: Poly | None, spec: PdeSpec
) -> tuple[bool, float | None, str | None, Poly | None]:
    """symbolic_zero, residual_constant, note and the residual's normal form.

    A residual coefficient counts as zero when it is :func:`_negligible`
    against the same sum taken over |weight * coefficient|.
    """
    if form is None:
        return False, None, "u has no polynomial normal form; sampled bound only", None
    partials = [(weight, derivative(form, k)) for k, weight in spec.terms()]
    residual = combine(partials)
    sign_free = combine((abs(weight), {a: abs(c) for a, c in p.items()}) for weight, p in partials)
    zero = {a: _negligible(c, sign_free[a]) for a, c in residual.items()}
    origin = (0,) * spec.n
    if not all(is_zero for a, is_zero in zero.items() if a != origin):
        # wording kept verbatim: reports stay byte-identical across versions
        return False, None, "residual did not fold to a constant; sampled bound only", residual
    return zero.get(origin, True), residual.get(origin, 0.0), None, residual


def _negligible(value: float, size: float) -> bool:
    """Whether ``value``, a sum whose terms total ``size`` in magnitude, is round-off.

    Only cancellation down to round-off counts, however large or small the
    terms are; below the smallest normal float round-off is absolute.
    """
    return abs(value) <= SYMBOLIC_ZERO_TOL * size + sys.float_info.min


def finite_difference(u: Expr, k: int, x: Sequence[float], h: float = DEFAULT_FD_STEP) -> float:
    """Central difference estimate of du/dx_k at x."""
    up = [float(v) for v in x]
    down = [float(v) for v in x]
    up[k - 1] += h
    down[k - 1] -= h
    return (evaluate(u, up) - evaluate(u, down)) / (2.0 * h)


@dataclass(frozen=True)
class AlternatingBalanceReport:
    """Linear form against equation II: odd and even coefficient sums."""

    holds: bool
    odd_sum: float
    even_sum: float

    def to_dict(self) -> dict:
        return {"holds": self.holds, "odd_sum": self.odd_sum, "even_sum": self.even_sum}


def check_alternating_balance(coeffs) -> AlternatingBalanceReport:
    """u = sum(c_k x_k) solves equation II iff odd- and even-indexed sums agree.

    Indices are 1-based: c_1 is odd. Requires an even number of coefficients.
    """
    coeffs = tuple(float(c) for c in coeffs)
    n = len(coeffs)
    if n < 2 or n % 2 != 0:
        raise ValueError(f"an even dimension of at least 2 is required, got n={n}")
    odd_sum = math.fsum(coeffs[0::2])
    even_sum = math.fsum(coeffs[1::2])
    return AlternatingBalanceReport(
        holds=_negligible(odd_sum - even_sum, math.fsum(map(abs, coeffs))),
        odd_sum=odd_sum,
        even_sum=even_sum,
    )


@dataclass(frozen=True)
class SystemReport:
    """Four sub-verdicts for the overdetermined system at even n.

    The system couples equation I with beta = n, equation II, the anchor
    u(0, ..., 0) = 0, and the self-application identity.
    """

    eq1: ResidualReport
    eq2: ResidualReport
    origin_value: float
    zero_at_origin: bool
    ouroboros: OuroborosReport

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
    if dom.n != n:
        raise ValueError("sample domain and system dimension disagree")
    points = dom.samples()
    if isinstance(u, LinearForm):
        expr = u.to_expr()
        ouro = check_linear_exact(u)
    else:
        expr = u
        ouro = _check_sampled_at(u, dom, points)
    _require_dimension(expr, n)
    # one expansion and one set of differences serve both equations: each uses k = 1..n
    form = expand(expr, n)
    partials = _fd_partials(expr, points, list(range(1, n + 1)), DEFAULT_FD_STEP)
    eq1, eq2 = (_residual_report(expr, form, spec, points, partials) for spec in system_specs(n))
    try:
        origin = evaluate(expr, (0.0,) * n)
    except EvaluationError as exc:
        raise EvaluationError(f"{exc} at the origin") from exc
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
