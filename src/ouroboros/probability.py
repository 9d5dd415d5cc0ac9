"""Discrete random variables and the self-replication of expectation.

Taking the expectation of a random variable, then treating that number as a
constant random variable and taking the expectation again, returns the same
number: E[E[X]] = E[X]. The second step is realised literally here via
:func:`as_constant_rv` and a one-piece Lebesgue integral, so the identity can
be checked end to end rather than assumed.
"""

from __future__ import annotations

import math

from ._record import Record

__all__ = [
    "DiscreteRandomVariable",
    "ExpectationReport",
    "SimpleRandomVariable",
    "as_constant_rv",
    "check_expectation_ouroboros",
    "expected_value",
    "lebesgue_integral",
]

MASS_TOL = 1e-12


class DiscreteRandomVariable(Record):
    """Finite support ``values`` with probabilities ``probs``.

    Probabilities must lie in [0, 1] and sum to 1 within 1e-12; anything else
    is rejected, never renormalised. Duplicate support values are allowed.
    """

    __slots__ = ("values", "probs")

    def __init__(self, values: tuple[float, ...], probs: tuple[float, ...]) -> None:
        values = tuple(float(v) for v in values)
        probs = tuple(float(p) for p in probs)
        if len(values) != len(probs):
            raise ValueError("values and probs must have the same length")
        if len(values) < 1:
            raise ValueError("support must be nonempty")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("support values must be finite")
        if not all(0.0 <= p <= 1.0 for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        total = math.fsum(probs)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        self._set(values, probs)


class SimpleRandomVariable(Record):
    """A simple function: constant level a_j on an event of mass m_j."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: tuple[tuple[float, float], ...]) -> None:
        pieces = tuple((float(a), float(m)) for a, m in pieces)
        if len(pieces) < 1:
            raise ValueError("at least one piece is required")
        if not all(math.isfinite(a) for a, _ in pieces):
            raise ValueError("levels must be finite")
        if not all(0.0 <= m <= 1.0 for _, m in pieces):
            raise ValueError("masses must lie in [0, 1]")
        total = math.fsum(m for _, m in pieces)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1")
        self._set(pieces)


def expected_value(x: DiscreteRandomVariable) -> float:
    """Compensated sum of value * probability."""
    return math.fsum(v * p for v, p in zip(x.values, x.probs))


def lebesgue_integral(s: SimpleRandomVariable) -> float:
    """Integral of a simple function: sum of level * mass."""
    return math.fsum(a * m for a, m in s.pieces)


def as_constant_rv(c: float) -> DiscreteRandomVariable:
    """The random variable that takes the value c with probability 1."""
    return DiscreteRandomVariable((float(c),), (1.0,))


class ExpectationReport(Record):
    __slots__ = ("expectation", "recomposed", "deviation", "holds")

    def to_dict(self) -> dict:
        return {
            "expectation": self.expectation,
            "recomposed_expectation": self.recomposed,
            "deviation": self.deviation,
            "holds": self.holds,
        }


def check_expectation_ouroboros(x: DiscreteRandomVariable) -> ExpectationReport:
    """Check E[E[X]] = E[X] by actually recomposing the constant variable."""
    e = expected_value(x)
    recomposed = expected_value(as_constant_rv(e))
    deviation = abs(recomposed - e)
    return ExpectationReport(e, recomposed, deviation, deviation <= MASS_TOL)
