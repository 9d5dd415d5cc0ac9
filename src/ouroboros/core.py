"""Candidate functions and checkers for the self-application identity.

A function f: R^n -> R is *ouroboros* when feeding its own output back into
every argument changes nothing: f(f(x), ..., f(x)) = f(x) for all x. For a
linear form f(x) = sum(c_k * x_k) this holds exactly when the coefficients
sum to 1 (or are all zero), which is what :func:`check_linear_exact` tests.
:func:`check_sampled` probes arbitrary expressions numerically on a seeded
sample cloud. Only the sampled route imports numpy, on first use, so the
exact route runs without it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .expr import Add, Const, EvaluationError, Expr, Var, dimension, evaluate, evaluate_many, mul

__all__ = [
    "LinearForm",
    "OuroborosReport",
    "SampleDomain",
    "Verdict",
    "check_linear_exact",
    "check_sampled",
    "diagonal_self_apply",
]

if TYPE_CHECKING:
    import numpy as np

EXACT_TOL = 1e-12
SAMPLED_TOL = 1e-9
# relative round-off bound of every exact residual decision (re-exported by pde)
SYMBOLIC_ZERO_TOL = 1e-12
# residual bound of the transport-equation checks (re-exported by pde)
RESIDUAL_TOL = 1e-9


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
        """The exact sum rounded once to a float; -inf or inf past the float range."""
        return _exact_sum((1, c) for c in self.coeffs)[1]

    def evaluate(self, point: Sequence[float]) -> float:
        if len(point) < self.n:
            raise ValueError(f"point of length {len(point)} is too short for n={self.n}")
        return math.fsum(c * float(x) for c, x in zip(self.coeffs, point))

    def to_expr(self) -> Expr:
        """c_1*x_1 + ... + c_n*x_n as one flat Add of its nonzero terms (1*x_k as x_k); 0 when there are none."""
        terms = [mul(Const(c), Var(k)) for k, c in enumerate(self.coeffs, 1) if c != 0.0]
        if len(terms) < 2:
            return terms[0] if terms else Const(0.0)
        return Add(tuple((1, term) for term in terms))


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
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.count < 1:
            raise ValueError("sample count must be at least 1")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")

    def samples(self) -> np.ndarray:
        import numpy as np

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


def _exact_sum(pairs) -> tuple[bool, float]:
    """Whether R = sum(w * c) over (integer w, float c) pairs is round-off, and R rounded once.

    R is round-off when |R| <= SYMBOLIC_ZERO_TOL * S + the smallest normal
    float, S = sum(|w * c|). Every finite float is an integer over a power of
    two, so R and S are integers over one common denominator, compared with
    no rounding. R past the float range rounds to -inf or inf; a non-finite c
    is never round-off, and R is then the floats' sum.
    """
    pairs = list(pairs)
    try:
        ratios = [(weight * numerator, denominator)
                  for weight, c in pairs for numerator, denominator in (c.as_integer_ratio(),)]
    except (OverflowError, ValueError):  # inf, nan
        return False, sum(weight * c for weight, c in pairs)
    common = max([denominator for _, denominator in ratios], default=1)
    total = size = 0
    for numerator, denominator in ratios:
        numerator *= common // denominator
        total += numerator
        size += abs(numerator)
    # |R| <= tol * S + min, times tol_d * min_d * common (R = total / common, S = size / common)
    tol_n, tol_d = SYMBOLIC_ZERO_TOL.as_integer_ratio()
    min_n, min_d = sys.float_info.min.as_integer_ratio()
    excess = abs(total) * tol_d - tol_n * size
    round_off = excess <= 0 or excess * min_d <= min_n * tol_d * common
    try:
        return round_off, total / common  # int / int rounds once
    except OverflowError:
        return round_off, math.inf if total > 0 else -math.inf


def _require_tolerance(tol: float) -> None:
    """A NaN, infinite or negative tolerance would pass any deviation, or none."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")


def check_linear_exact(f: LinearForm, tol: float = EXACT_TOL) -> OuroborosReport:
    """Exact coefficient test: holds iff |sum(c) - 1| <= tol or all |c_k| <= tol.

    The all-zero case is the constant zero function, which trivially maps its
    own output to itself; it is accepted even though its coefficient sum is 0.
    """
    _require_tolerance(tol)
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
    _require_tolerance(tol)
    if dimension(f) > dom.n:
        raise ValueError(f"expression uses x{dimension(f)} but the domain has n={dom.n}")
    return _check_sampled_at(f, dom, dom.samples(), tol)


def _check_sampled_at(
    f: Expr, dom: SampleDomain, points: np.ndarray, tol: float = SAMPLED_TOL
) -> OuroborosReport:
    """check_sampled on ``points``, the cloud that ``dom`` draws; the caller has checked ``tol`` and f's dimension."""
    import numpy as np

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
