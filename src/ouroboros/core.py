"""Candidate functions and checkers for the self-application identity.

A function f: R^n -> R is *ouroboros* when feeding its own output back into
every argument changes nothing: f(f(x), ..., f(x)) = f(x) for all x. For a
linear form f(x) = sum(c_k * x_k) this holds exactly when the coefficients
sum to 1 (or are all zero), which is what :func:`check_linear_exact` tests.
:func:`check_sampled` probes arbitrary expressions numerically on a seeded
sample cloud. The exact route runs without numpy, and so does a small cloud:
while count * (n + distinct nodes of f) <= SMALL_CLOUD_CELLS the cloud is
drawn by a pure-Python Philox as Python float lists, past it by numpy
straight into one array per coordinate, BLOCK_CELLS cells at a time
(:func:`_cloud`). Both draw the bits of :meth:`SampleDomain.samples`, and
one body checks either container to the same bits. Only a larger cloud
imports numpy, on first use.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from ._record import Record
from .expr import Add, Const, EvaluationError, Expr, Var, evaluate, mul
from .expr import _argmax, _errstate, _evaluate_columns, _first, _map, _max, _shape, _Shape

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
# SYMBOLIC_ZERO_TOL and the smallest normal float as integer ratios, for _exact_sum
_TOL_N, _TOL_D = SYMBOLIC_ZERO_TOL.as_integer_ratio()
_MIN_N, _MIN_D = sys.float_info.min.as_integer_ratio()
# samples times (n + distinct nodes of u) up to which a cloud is drawn as
# Python float lists (see _cloud): at the bound one check_system takes 11-16
# ms on them (0.7-1.1 ms on arrays), less than a fresh process's numpy import,
# 0.10-0.13 s (scripts/time_routes.py, three runs of 9 rounds, 2-CPU VM)
SMALL_CLOUD_CELLS = 20_000
# cells (rows times n) per block: of a large cloud's draw into its columns
# (SampleDomain._arrays, at least one row), and of each stacked evaluation in
# pde._fd_partials (pde.BLOCK_ROWS rows up to n = 8, fewer beyond, at least
# one sample's shifts)
BLOCK_CELLS = 131_072
# Philox4x64-10's multipliers and key increments (Salmon et al., SC 2011)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_MASK64 = (1 << 64) - 1


class Verdict(str, Enum):
    HOLDS_EXACT = "holds_exact"
    HOLDS_SAMPLED = "holds_sampled"
    FAILS = "fails"
    ERROR = "error"


class LinearForm(Record):
    """f(x) = c_1*x_1 + ... + c_n*x_n with finite coefficients, n >= 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[float, ...]) -> None:
        coeffs = tuple(float(c) for c in coeffs)
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


class SampleDomain(Record):
    """A seeded cloud of ``count`` uniform points in the box [-radius, radius]^n.

    Sampling goes through a counter-based generator (Philox) keyed only by
    ``seed``, so equal domains reproduce the same points on any platform.
    :meth:`samples` returns them as a (count, n) numpy array. The private
    ``_columns`` draws the same floats in pure Python, one list per
    coordinate, and ``_arrays`` draws them straight into one numpy array per
    coordinate, a block of rows at a time, with no (count, n) array.
    """

    __slots__ = ("n", "radius", "seed", "count")

    def __init__(self, n: int, radius: float, seed: int, count: int) -> None:
        n, seed, count = _integer("dimension", n), _integer("seed", seed), _integer("sample count", count)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        _require_sampleable(radius, seed)
        if count < 1:
            raise ValueError("sample count must be at least 1")
        self._set(n, radius, seed, count)

    def samples(self) -> np.ndarray:
        import numpy as np

        rng = np.random.Generator(np.random.Philox(key=self.seed))
        return rng.uniform(-self.radius, self.radius, size=(self.count, self.n))

    def _columns(self) -> list[list[float]]:
        """samples() on Python floats, one list per coordinate: ``_columns()[j][i] == samples()[i, j]``."""
        draws = _philox_uniform(self.seed, self.count * self.n, -self.radius, self.radius)
        return [draws[j::self.n] for j in range(self.n)]

    def _arrays(self) -> list[np.ndarray]:
        """samples() drawn straight into one contiguous array per coordinate: ``_arrays()[j][i] == samples()[i, j]``.

        Each block of BLOCK_CELLS // n rows (at least one) draws its doubles
        d in row-major order into one reused buffer, and coordinate j's
        share becomes 2r * d - r: the two roundings of uniform(-r, r)'s
        low + (high - low) * d, so the bits are samples()'s. No (count, n)
        array is made.
        """
        import numpy as np

        n, count, r = self.n, self.count, self.radius
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        columns = np.empty((n, count))
        rows = max(1, BLOCK_CELLS // n)
        buffer = np.empty(min(rows, count) * n)
        for start in range(0, count, rows):
            stop = min(start + rows, count)
            draws = buffer[:(stop - start) * n]
            rng.random(out=draws)
            for j in range(n):
                column = columns[j, start:stop]
                np.multiply(draws[j::n], 2.0 * r, out=column)
                column -= r
        return list(columns)


def _philox_uniform(seed: int, count: int, low: float, high: float) -> list[float]:
    """``Generator(Philox(key=seed)).uniform(low, high, count)``, bit for bit, in pure Python.

    numpy's Philox4x64-10 with key (seed mod 2^64, seed >> 64) increments its
    counter before each block of four words; a word x becomes
    low + (high - low) * ((x >> 11) * 2^-53).
    """
    a, b = seed & _MASK64, seed >> 64
    keys = []
    for _ in range(10):
        keys.append((a, b))
        a, b = (a + _PHILOX_W0) & _MASK64, (b + _PHILOX_W1) & _MASK64
    words: list[int] = []
    for counter in range(1, (count + 3) // 4 + 1):
        x0, x1, x2, x3 = counter, 0, 0, 0
        for a, b in keys:
            p, q = _PHILOX_M0 * x0, _PHILOX_M1 * x2
            x0, x1, x2, x3 = (q >> 64) ^ x1 ^ a, q & _MASK64, (p >> 64) ^ x3 ^ b, p & _MASK64
        words += (x0, x1, x2, x3)
    scale, unit = high - low, 2.0 ** -53
    return [low + scale * ((x >> 11) * unit) for x in words[:count]]


def _cloud(shape: _Shape, dom: SampleDomain) -> list:
    """dom's points for checking a u of this shape, one column per coordinate:
    Python float lists (``dom._columns()``) while count * (n + distinct nodes
    of u) <= SMALL_CLOUD_CELLS, else numpy arrays drawn straight into
    columns a block at a time (``dom._arrays()``), to samples()'s bits.

    The checks walk either container with the same code.
    """
    if dom.count * (dom.n + shape.size) <= SMALL_CLOUD_CELLS:
        return dom._columns()
    return dom._arrays()


class OuroborosReport(Record):
    __slots__ = ("verdict", "max_deviation", "witness", "samples_used", "range_contained", "error")
    _defaults = {"range_contained": None, "error": None}

    @property
    def holds(self) -> bool:
        return self.verdict in (Verdict.HOLDS_EXACT, Verdict.HOLDS_SAMPLED)

    def to_dict(self) -> dict:
        witness = list(self.witness) if self.witness is not None else None
        return {**self._asdict(), "verdict": self.verdict.value, "witness": witness}

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
        if denominator != common:
            numerator *= common // denominator
        total += numerator
        size += abs(numerator)
    # |R| <= tol * S + min, times tol_d * min_d * common (R = total / common, S = size / common)
    excess = abs(total) * _TOL_D - _TOL_N * size
    round_off = excess <= 0 or excess * _MIN_D <= _MIN_N * _TOL_D * common
    try:
        return round_off, total / common  # int / int rounds once
    except OverflowError:
        return round_off, math.inf if total > 0 else -math.inf


def _integer(what: str, value) -> int:
    """``value`` as an int; a float, even a whole one, is refused like any other non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _require_tolerance(tol: float) -> None:
    """A NaN, infinite or negative tolerance would pass any deviation, or none."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")


def _require_even(n: int) -> None:
    """The system of equations I and II pairs the coordinates: n must be even and at least 2."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"an even dimension of at least 2 is required, got n={n}")


def _require_sampleable(radius: float, seed: int) -> None:
    """A box [-radius, radius] whose width 2 * radius is a finite float, and a seed that keys Philox."""
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not math.isfinite(2.0 * radius):
        raise ValueError(f"radius must be at most half the largest float, got {radius}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")


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
    shape = _shape(f)
    if shape.dimension > dom.n:
        raise ValueError(f"expression uses x{shape.dimension} but the domain has n={dom.n}")
    return _check_sampled_at(shape, dom, _cloud(shape, dom), tol)


def _check_sampled_at(shape: _Shape, dom: SampleDomain, columns: list, tol: float = SAMPLED_TOL) -> OuroborosReport:
    """check_sampled of the f of ``shape`` (``_shape(f)``) on ``columns``, the cloud that ``dom`` draws (see _cloud);
    the caller has checked ``tol`` and f's dimension."""
    try:
        y = _evaluate_columns(shape, columns)
        fy = _evaluate_columns(shape, [y] * dom.n)
    except EvaluationError as exc:
        used = exc.sample_index + 1 if exc.sample_index is not None else 0
        return OuroborosReport(Verdict.ERROR, math.nan, None, used, error=str(exc))

    with _errstate(columns[0]):
        # x * 0.0 is a zero for a finite x and nan for inf or nan
        bad = _first(_map(lambda a, b: a * 0.0 + b * 0.0 != 0.0, y, fy))
        deviations = _map(lambda a, b: abs(b - a), y, fy)
        scales = _map(lambda a: 1.0 + abs(a), y)
    if bad is not None:
        return OuroborosReport(
            Verdict.ERROR, math.nan, None, bad + 1,
            error=f"non-finite value (sample {bad})",
        )

    max_deviation = _max(deviations)
    range_contained = _first(_map(lambda a: abs(a) > dom.radius, y)) is None
    if _first(_map(lambda d, s: d > tol * s, deviations, scales)) is not None:
        worst = _argmax(_map(operator.truediv, deviations, scales))
        return OuroborosReport(
            Verdict.FAILS, max_deviation, tuple(float(column[worst]) for column in columns), dom.count,
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
