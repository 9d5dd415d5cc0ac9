"""Candidate functions and checkers for the self-application identity.

A function f: R^n -> R is *ouroboros* when feeding its own output back into
every argument changes nothing: f(f(x), ..., f(x)) = f(x) for all x. For a
linear form f(x) = sum(c_k * x_k) this holds exactly when the coefficients
sum to 1 (or are all zero), which is what :func:`check_linear_exact` tests.
:func:`check_sampled` probes arbitrary expressions numerically on a seeded
sample cloud.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .expr import Const, EvaluationError, Expr, Var, add, dimension, evaluate, evaluate_many, mul

__all__ = [
    "LinearForm",
    "OuroborosReport",
    "SampleDomain",
    "Verdict",
    "check_linear_exact",
    "check_sampled",
    "diagonal_self_apply",
]

EXACT_TOL = 1e-12
SAMPLED_TOL = 1e-9


class Verdict(str, Enum):
    HOLDS_EXACT = "holds_exact"
    HOLDS_SAMPLED = "holds_sampled"
    FAILS = "fails"
    ERROR = "error"


@dataclass(frozen=True)
class LinearForm:
    """f(x) = c_1*x_1 + ... + c_n*x_n with finite coefficients, n >= 1."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) < 1:
            raise ValueError("a linear form needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def coefficient_sum(self) -> float:
        # compensated summation; plain accumulation loses digits for large n
        return math.fsum(self.coeffs)

    def evaluate(self, point: Sequence[float]) -> float:
        if len(point) < self.n:
            raise ValueError(f"point of length {len(point)} is too short for n={self.n}")
        return math.fsum(c * float(x) for c, x in zip(self.coeffs, point))

    def to_expr(self) -> Expr:
        terms: Expr = mul(Const(self.coeffs[0]), Var(1))
        for k in range(1, self.n):
            terms = add(terms, mul(Const(self.coeffs[k]), Var(k + 1)))
        return terms


@dataclass(frozen=True)
class SampleDomain:
    """A seeded cloud of ``count`` uniform points in the box [-radius, radius]^n.

    Sampling goes through a counter-based generator (Philox) keyed only by
    ``seed``, so equal domains reproduce the same points on any platform.
    """

    n: int
    radius: float
    seed: int
    count: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        if self.count < 1:
            raise ValueError("sample count must be at least 1")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")

    def samples(self) -> np.ndarray:
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        return rng.uniform(-self.radius, self.radius, size=(self.count, self.n))


@dataclass(frozen=True)
class OuroborosReport:
    verdict: Verdict
    max_deviation: float
    witness: tuple[float, ...] | None
    samples_used: int
    range_contained: bool | None = None
    error: str | None = None

    @property
    def holds(self) -> bool:
        return self.verdict in (Verdict.HOLDS_EXACT, Verdict.HOLDS_SAMPLED)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "max_deviation": self.max_deviation,
            "witness": list(self.witness) if self.witness is not None else None,
            "samples_used": self.samples_used,
            "range_contained": self.range_contained,
            "error": self.error,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def check_linear_exact(f: LinearForm, tol: float = EXACT_TOL) -> OuroborosReport:
    """Exact coefficient test: holds iff |sum(c) - 1| <= tol or all |c_k| <= tol.

    The all-zero case is the constant zero function, which trivially maps its
    own output to itself; it is accepted even though its coefficient sum is 0.
    """
    deviation = abs(f.coefficient_sum() - 1.0)
    if all(abs(c) <= tol for c in f.coeffs):
        return OuroborosReport(Verdict.HOLDS_EXACT, 0.0, None, 0)
    if deviation <= tol:
        return OuroborosReport(Verdict.HOLDS_EXACT, deviation, None, 0)
    # any x with f(x) != 0 witnesses the failure; a unit vector at the
    # largest coefficient is the simplest deterministic choice
    j = max(range(f.n), key=lambda i: abs(f.coeffs[i]))
    witness = tuple(1.0 if i == j else 0.0 for i in range(f.n))
    return OuroborosReport(Verdict.FAILS, deviation, witness, 0)


def check_sampled(f: Expr, dom: SampleDomain, tol: float = SAMPLED_TOL) -> OuroborosReport:
    """Sampled test of f(f(x), ..., f(x)) = f(x) over ``dom``.

    Each sample x contributes the deviation d = |f(y,...,y) - y| with
    y = f(x); the identity holds when d <= tol*(1 + |y|) everywhere (the
    relative form keeps large radii meaningful). On failure the witness is
    the sample maximising the tolerance-normalised deviation, so it always
    violates the bound. Whether every y lands back inside the sampling box
    is recorded as ``range_contained`` for information only; it does not
    enter the verdict.
    """
    return _check_sampled_at(f, dom, dom.samples(), tol)


def _check_sampled_at(
    f: Expr, dom: SampleDomain, points: np.ndarray, tol: float = SAMPLED_TOL
) -> OuroborosReport:
    """check_sampled on ``points``, the cloud that ``dom`` draws."""
    if dimension(f) > dom.n:
        raise ValueError(f"expression uses x{dimension(f)} but the domain has n={dom.n}")
    try:
        y = evaluate_many(f, points)
        diagonal = np.broadcast_to(y[:, None], (dom.count, dom.n))  # a view, no copy
        fy = evaluate_many(f, diagonal)
    except EvaluationError as exc:
        used = exc.sample_index + 1 if exc.sample_index is not None else 0
        return OuroborosReport(Verdict.ERROR, math.nan, None, used, error=str(exc))

    finite = np.isfinite(y) & np.isfinite(fy)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        return OuroborosReport(
            Verdict.ERROR, math.nan, None, bad + 1,
            error=f"non-finite value (sample {bad})",
        )

    deviations = np.abs(fy - y)
    normalised = deviations / (1.0 + np.abs(y))
    max_deviation = float(deviations.max())
    range_contained = bool((np.abs(y) <= dom.radius).all())
    if (deviations > tol * (1.0 + np.abs(y))).any():
        worst = int(np.argmax(normalised))
        return OuroborosReport(
            Verdict.FAILS, max_deviation, tuple(points[worst]), dom.count,
            range_contained=range_contained,
        )
    return OuroborosReport(
        Verdict.HOLDS_SAMPLED, max_deviation, None, dom.count,
        range_contained=range_contained,
    )


def diagonal_self_apply(f: Expr, x: Sequence[float]) -> tuple[float, float]:
    """Return (y, f(y, ..., y)) for y = f(x)."""
    y = evaluate(f, x)
    fy = evaluate(f, [y] * len(x))
    return y, fy
