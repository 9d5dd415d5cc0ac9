"""Polynomial solutions of the overdetermined system at even n: exact, and searched.

The system is equation I (with beta = n), equation II and the
self-application identity. Its solutions are the functions of the linear
forms both equations leave unchanged that reduce to the mean on the
diagonal, so :func:`solution_set` writes all nonconstant polynomial
solutions of degree <= d in closed form, as the arithmetic mean plus the
span of products of those forms. The search
(:func:`explore`) minimises a least-squares objective from many
starts and labels each run by its distance to that set: it is a numerical
cross-check of the exact answer, and every run is reported verbatim.

Candidates are polynomials over the graded monomial basis: the constant
monomial first, then the degree-1 monomials x1 .. xn in index order, then
degree 2, and so on; within one degree, exponent tuples follow the order of
``itertools.combinations_with_replacement``, e.g. for n = 2, degree 2:
x1^2, x1*x2, x2^2. The basis has C(n + d, d) elements.

Constants are excluded by construction, not by inspection: the
normalisation u(0, ..., 0) = 0 and u(1, ..., 1) = 1 is enforced by
eliminating two theta coordinates (the constant slot and the last basis
slot), so no constant function is feasible. "Nontrivial" throughout means
exactly this nonconstant reading, and reports record it.
"""

from __future__ import annotations

import ctypes
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import SampleDomain
from .pde import system_specs
from .poly import derivative, monomial_exponents, monomial_values, packed_keys, times

__all__ = [
    "Classification",
    "ExplorationConfig",
    "ExplorationProblem",
    "ExplorationReport",
    "SolutionSet",
    "StartRecord",
    "basis_size",
    "explore",
    "mean_theta",
    "monomial_exponents",
    "solution_set",
]

OBJECTIVE_ZERO_TOL = 1e-10
SET_DISTANCE_TOL = 1e-9

NONTRIVIALITY_NOTE = (
    "nontrivial means nonconstant: the normalisation u(0,...,0)=0 and "
    "u(1,...,1)=1 is enforced by coordinate elimination, so constant "
    "candidates are infeasible by construction"
)
SCOPE_NOTE = (
    "within polynomials of the stated degree the solutions are exactly "
    "solution_set: the mean alone iff n = 2, otherwise an affine set of the "
    "reported dimension; nothing is said about non-polynomial candidates"
)


def basis_size(n: int, degree: int) -> int:
    return math.comb(n + degree, degree)


def mean_theta(n: int, degree: int) -> np.ndarray:
    """Coefficients of the arithmetic mean: 1/n in each degree-1 slot."""
    theta = np.zeros(basis_size(n, degree))
    theta[1 : n + 1] = 1.0 / n
    return theta


@dataclass(frozen=True)
class ExplorationConfig:
    """Search configuration; n must be even (the system needs it).

    ``samples = None`` resolves to max(200, 10 * basis size), enough points
    to make a spurious sampled zero of the polynomial defect improbable.
    Randomness is fully seeded: the sample cloud draws from the Philox key
    ``seed`` (which is ``[seed, 0]``), the Gaussian start vectors from
    ``[seed, 1]``, so identical configs give bit-identical reports.
    """

    n: int
    degree: int
    samples: int | None = None
    radius: float = 2.0
    seed: int = 0
    starts: int = 20
    max_iterations: int = 100
    tol: float = 1e-15

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"an even dimension of at least 2 is required, got n={self.n}")
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if self.samples is not None and self.samples < 1:
            raise ValueError("sample budget must be positive")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.starts < 1:
            raise ValueError("at least one start is required")
        if self.max_iterations < 1:
            raise ValueError("iteration cap must be positive")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")

    @property
    def resolved_samples(self) -> int:
        if self.samples is not None:
            return self.samples
        return max(200, 10 * basis_size(self.n, self.degree))

    def to_dict(self) -> dict:
        return {**asdict(self), "samples": self.resolved_samples}


class ExplorationProblem:
    """Objective machinery for one sample cloud.

    Residuals r1 (equation I, beta = n) and r2 (equation II) are linear in
    theta and carried by precomputed matrices; the self-application defect
    o(x) = u(u(x) * ones) - u(x) is polynomial in theta. The objective is

        J = mean(r1^2) + mean(r2^2) + mean(o^2)

    and the analytic gradient is exact. The normalisation is handled by
    eliminating theta[0] (= 0) and the last slot (= 1 - sum of the others),
    which at degree 1 is precisely the unit-coefficient-sum parametrisation.
    """

    def __init__(self, config: ExplorationConfig, points: np.ndarray):
        self.config = config
        self.points = np.asarray(points, dtype=float)
        n = config.n
        count = self.points.shape[0]
        self.exponents = monomial_exponents(n, config.degree)
        self.size = len(self.exponents)
        self.phi_matrix = monomial_values(self.points, self.exponents)
        # d/dx_k of a basis monomial is a multiple of another basis monomial
        index = {alpha: j for j, alpha in enumerate(self.exponents)}
        partials = [np.zeros_like(self.phi_matrix) for _ in range(n)]
        for j, alpha in enumerate(self.exponents):
            for k in range(1, n + 1):
                for lowered, c in derivative({alpha: 1.0}, k).items():
                    partials[k - 1][:, j] = c * self.phi_matrix[:, index[lowered]]
        self.a1, self.a2 = (
            sum(weight * partials[k - 1] for k, weight in spec.terms()) for spec in system_specs(n)
        )
        # degree aggregation: row g sums the theta slots of total degree g
        self.grade = np.zeros((config.degree + 1, self.size))
        self.grade[[sum(alpha) for alpha in self.exponents], np.arange(self.size)] = 1.0
        self.free = np.arange(1, self.size - 1)  # eliminated: slot 0 and the last
        # the linear blocks' share of the Gauss-Newton matrix is constant
        linear = self._over_free(np.vstack([self.a1, self.a2]))
        self.linear_gauss_newton = (linear.T @ linear) / count

    # -- constraint handling -------------------------------------------------

    def embed(self, phi: np.ndarray) -> np.ndarray:
        theta = np.zeros(self.size)
        theta[self.free] = phi
        theta[-1] = 1.0 - phi.sum()
        return theta

    def reduce(self, theta: np.ndarray) -> np.ndarray:
        return np.asarray(theta, dtype=float)[self.free]

    def _over_free(self, jac: np.ndarray) -> np.ndarray:
        """A Jacobian over theta (last axis) as one over the free coordinates."""
        return jac[..., self.free] - jac[..., -1:]

    # -- objective -----------------------------------------------------------

    def residual_parts(self, theta: np.ndarray):
        """r1, r2, then y = u(x), the powers of y, s and the defect o = p(y) - y.

        With s_g the sum of u's degree-g coefficients, p(t) = sum_g s_g t^g
        is u on the diagonal, so o = u(u(x), ..., u(x)) - u(x).
        """
        theta = np.asarray(theta, dtype=float)
        y = self.phi_matrix @ theta
        s = self.grade @ theta
        powers = np.vander(y, len(s), increasing=True)
        return self.a1 @ theta, self.a2 @ theta, y, powers, s, powers @ s - y

    def objective(self, theta: np.ndarray) -> float:
        """The objective alone, from the residuals: no Jacobian is formed."""
        r1, r2, *_, o = self.residual_parts(theta)
        return _mean_squares(r1, r2, o)

    def objective_full(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective and exact gradient with respect to the full theta."""
        value, half_gradient, _ = self._gradient_parts(theta)
        return value, 2.0 * half_gradient

    def normal_equations(self, phi: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Objective, J^T r and J^T J over the free coordinates, r = [r1; r2; o] / sqrt(N)."""
        value, half_gradient, jac_o = self._gradient_parts(self.embed(phi))
        jac_o = self._over_free(jac_o)
        return value, self._over_free(half_gradient), self.linear_gauss_newton + (jac_o.T @ jac_o) / len(jac_o)

    def _gradient_parts(self, theta: np.ndarray):
        """Objective, J^T r over the full theta, and the defect's Jacobian."""
        r1, r2, y, powers, s, o = self.residual_parts(theta)
        # d o_i / d theta_j = y_i^deg(j) + (p'(y_i) - 1) * phi_ij
        degree = self.config.degree
        dp = powers[:, : degree] @ (np.arange(1, degree + 1) * s[1:])
        jac_o = powers @ self.grade + ((dp - 1.0)[:, None] * self.phi_matrix)
        half_gradient = (self.a1.T @ r1 + self.a2.T @ r2 + jac_o.T @ o) / len(o)
        return _mean_squares(r1, r2, o), half_gradient, jac_o


def _mean_squares(r1: np.ndarray, r2: np.ndarray, o: np.ndarray) -> float:
    return float(np.mean(r1**2) + np.mean(r2**2) + np.mean(o**2))


class Classification(str, Enum):
    MEAN_LIKE = "mean_like"
    OTHER_CANDIDATE = "other_candidate"
    NON_CONVERGED = "non_converged"


@dataclass(frozen=True)
class StartRecord:
    start: int
    theta: tuple[float, ...]
    objective: float
    residual_eq1: float
    residual_eq2: float
    residual_ouroboros: float
    distance_to_mean: float
    distance_to_solution_set: float
    classification: Classification
    converged: bool
    n_evaluations: int
    n_jacobian_evaluations: int
    solver_status: int  # 0 spent max_iterations; 1, 2, 3 met tol on the gradient, decrease, step

    def to_dict(self) -> dict:
        return {**asdict(self), "theta": list(self.theta), "classification": self.classification.value}


@dataclass(frozen=True)
class ExplorationReport:
    config: ExplorationConfig
    runs: tuple[StartRecord, ...]
    solution_set: SolutionSet
    notes: tuple[str, ...] = (NONTRIVIALITY_NOTE, SCOPE_NOTE)

    @property
    def counts(self) -> dict[str, int]:
        out = {c.value: 0 for c in Classification}
        for run in self.runs:
            out[run.classification.value] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "notes": list(self.notes),
            "config": self.config.to_dict(),
            "basis": {
                "n": self.config.n,
                "degree": self.config.degree,
                "size": basis_size(self.config.n, self.config.degree),
                "exponents": [list(a) for a in monomial_exponents(self.config.n, self.config.degree)],
            },
            "mean_theta": list(mean_theta(self.config.n, self.config.degree)),
            "runs": [run.to_dict() for run in self.runs],
            "counts": self.counts,
            "solution_set": self.solution_set.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS, where found, on one thread (process-wide).

    On matrices of this size a second thread adds CPU, not speed, and stalls
    while the other core is busy. numpy's LAPACK module links its BLAS, so its
    handle resolves OpenBLAS's names in numpy 2's wheels, numpy 1's or plain.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    names = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads")
    name = next((name for name in names if hasattr(lib, name.format("set"))), None)
    set_threads = getattr(lib, name.format("set")) if name else lambda threads: None
    threads = getattr(lib, name.format("get"))() if name else None
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


@_one_blas_thread()
@np.errstate(over="ignore", invalid="ignore")
def explore(config: ExplorationConfig) -> ExplorationReport:
    """Run the multi-start search and label every run against the exact set.

    From each start, a damped Gauss-Newton loop (:func:`_levenberg_marquardt`)
    minimises the objective over the free coordinates. Each run is then
    measured against :func:`solution_set`: it is non_converged when its
    theta lies farther than SET_DISTANCE_TOL from the set, otherwise
    mean_like when it lies that close to the mean's theta, else
    other_candidate. ``converged`` separately records objective <= 1e-10.
    Exhausting the evaluation cap is an outcome, not an error: each run
    records why the loop stopped and how many Jacobians it formed. Meanwhile
    numpy's OpenBLAS runs on one thread, process-wide (:func:`_one_blas_thread`).
    A run whose values overflow keeps its inf and nan silently: its objective
    reads inf (null in JSON) and it is labelled like any other run.
    """
    dom = SampleDomain(
        n=config.n, radius=config.radius, seed=config.seed, count=config.resolved_samples
    )
    problem = ExplorationProblem(config, dom.samples())
    exact = solution_set(config.n, config.degree)
    target = mean_theta(config.n, config.degree)
    init_rng = np.random.Generator(np.random.Philox(key=np.array([config.seed, 1], dtype=np.uint64)))
    init_vectors = init_rng.standard_normal((config.starts, problem.size - 2))

    runs = []
    for s in range(config.starts):
        phi, value, n_evaluations, n_jacobians, status = _levenberg_marquardt(problem, init_vectors[s])
        theta = problem.embed(phi)
        r1, r2, *_, o = problem.residual_parts(theta)
        distance = float(np.linalg.norm(theta - target))
        distance_to_set = exact.distance(theta)
        if distance_to_set > SET_DISTANCE_TOL:
            label = Classification.NON_CONVERGED
        elif distance <= SET_DISTANCE_TOL:
            label = Classification.MEAN_LIKE
        else:
            label = Classification.OTHER_CANDIDATE

        runs.append(StartRecord(
            start=s,
            theta=tuple(float(t) for t in theta),
            objective=value,
            residual_eq1=float(np.mean(r1**2)),
            residual_eq2=float(np.mean(r2**2)),
            residual_ouroboros=float(np.mean(o**2)),
            distance_to_mean=distance,
            distance_to_solution_set=distance_to_set,
            classification=label,
            converged=value <= OBJECTIVE_ZERO_TOL,
            n_evaluations=n_evaluations,
            n_jacobian_evaluations=n_jacobians,
            solver_status=status,
        ))
    return ExplorationReport(config=config, runs=tuple(runs), solution_set=exact)


def _levenberg_marquardt(problem: ExplorationProblem, phi: np.ndarray):
    """Levenberg-Marquardt from ``phi``: (phi, objective, evaluations, Jacobians, status).

    Each step solves (H + lam * diag(H)) step = -g with H and g from
    :meth:`ExplorationProblem.normal_equations` (More 1978). A trial point
    evaluates residuals only; an accepted one forms the Jacobian and divides
    lam, a rejected one multiplies it. Status 1, 2 and 3: ``tol`` bounded
    the gradient, the relative decrease, the step; 0: the evaluations ran out.
    """
    tol = problem.config.tol
    value, gradient, gauss_newton = problem.normal_equations(phi)
    evaluations = jacobians = 1
    damping = 1e-3
    while True:
        if np.abs(gradient).max() <= tol:
            return phi, value, evaluations, jacobians, 1
        if evaluations >= problem.config.max_iterations:
            return phi, value, evaluations, jacobians, 0
        step = np.linalg.solve(gauss_newton + damping * np.diag(np.diag(gauss_newton)), -gradient)
        trial_value = problem.objective(problem.embed(phi + step))
        evaluations += 1
        small_step = np.linalg.norm(step) <= tol * (tol + np.linalg.norm(phi))
        if trial_value < value:
            small_decrease = value - trial_value <= tol * value
            phi = phi + step
            value, gradient, gauss_newton = problem.normal_equations(phi)
            jacobians += 1
            # H is singular along the solution set; the floor keeps lam * diag(H)
            # above its rounding there, so the damped matrix stays invertible
            damping = max(damping / 10.0, 1e-10)
            if small_decrease:
                return phi, value, evaluations, jacobians, 2
        else:
            damping *= 10.0
        if small_step:
            return phi, value, evaluations, jacobians, 3


# ---------------------------------------------------------------------------
# the exact solution set

@dataclass(frozen=True)
class SolutionSet:
    """All nonconstant solutions of degree <= ``degree``: particular + span(basis).

    Vectors are theta over the graded basis, in exact rationals; the
    particular solution is the arithmetic mean, and each basis vector the
    expansion of one product of invariant forms (:func:`solution_set`),
    so its entries are integers.
    """

    n: int
    degree: int
    particular: tuple[Fraction, ...]
    basis: tuple[tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def _orthonormal(self) -> np.ndarray:
        """Columns: an orthonormal float basis of the set's directions."""
        if not self.basis:
            return np.zeros((len(self.particular), 0))
        return np.linalg.qr(np.array(self.basis, dtype=float).T)[0]

    def distance(self, theta) -> float:
        """Euclidean distance from a float theta to the set."""
        r = np.asarray(theta, dtype=float) - np.array(self.particular, dtype=float)
        q = self._orthonormal
        return float(np.linalg.norm(r - q @ (q.T @ r)))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "dimension": self.dimension,
            "particular": [str(c) for c in self.particular],
            "basis": [[str(c) for c in b] for b in self.basis],
        }


def solution_set(n: int, degree: int) -> SolutionSet:
    """Every nonconstant polynomial solution of the system up to ``degree``, exactly.

    By characteristics, equations I (beta = n) and II hold exactly for the
    functions of the linear forms they leave unchanged: s = x1 + ... + xn
    and, for n >= 4, the n - 3 differences x_i - x_j of equal parity that
    leave out xn. On the diagonal the differences vanish and s = n * t, so
    the mean plus h is a solution iff h is a function of these forms that
    vanishes there. Within degree <= d, h is spanned by the expansions of
    s^k * prod(xi_j^a_j) with a != 0 and k + |a| <= d: the basis. The
    dimension is 0 at n = 2 and C(n - 2 + d, d) - (d + 1) for n >= 4.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"an even dimension of at least 2 is required, got n={n}")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    exponents = monomial_exponents(n, degree)
    keys = packed_keys(exponents, degree)  # no product below exceeds the degree
    units = keys[1 : n + 1]
    forms = [dict.fromkeys(units, 1)] + [
        {units[first]: 1, units[j]: -1} for first in (0, 1) for j in range(first + 2, n - 1, 2)
    ]
    # each power's expansion is a lower one times one form, the lowest power first
    expansions = {}
    for power in monomial_exponents(len(forms), degree):
        i = next((i for i, a in enumerate(power) if a), None)
        if i is None:
            expansions[power] = {keys[0]: 1}
        else:
            expansions[power] = times(expansions[power[:i] + (power[i] - 1,) + power[i + 1 :]], forms[i])
    zero = Fraction(0)  # one shared object: most entries are zero
    basis = tuple(
        tuple(Fraction(p[key]) if key in p else zero for key in keys)
        for power, p in expansions.items()
        if any(power[1:])
    )
    particular = tuple(Fraction(int(sum(alpha) == 1), n) for alpha in exponents)
    return SolutionSet(n=n, degree=degree, particular=particular, basis=basis)
