"""Numerical search for solutions of the overdetermined system at even n.

The search asks, empirically, whether anything other than the arithmetic
mean satisfies equation I (with beta = n), equation II, and the
self-application identity at once. It minimises a weighted least-squares
objective over polynomial candidates and classifies what each start
converges to. The outcome is a list of classified runs, never a uniqueness
claim: a clean sweep of mean_like runs is evidence, not proof, and any
other_candidate is preserved verbatim for inspection.

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

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import LinearForm, SampleDomain
from .pde import PdeKind, PdeSpec
from .poly import combine, derivative, monomial_exponents, monomial_values

__all__ = [
    "Classification",
    "ExplorationConfig",
    "ExplorationProblem",
    "ExplorationReport",
    "LinearSolutionSet",
    "StartRecord",
    "basis_size",
    "explore",
    "linear_case_exact",
    "mean_theta",
    "monomial_exponents",
]

OBJECTIVE_ZERO_TOL = 1e-10
MEAN_DISTANCE_TOL = 1e-3
REVERIFY_SAMPLE_FACTOR = 10
REVERIFY_OBJECTIVE_FACTOR = 10.0

NONTRIVIALITY_NOTE = (
    "nontrivial means nonconstant: the normalisation u(0,...,0)=0 and "
    "u(1,...,1)=1 is enforced by coordinate elimination, so constant "
    "candidates are infeasible by construction"
)
SCOPE_NOTE = (
    "search scope is the polynomial ansatz of the stated degree; "
    "results say nothing about non-polynomial candidates"
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
    Randomness is fully seeded: the sample cloud uses ``seed``, the Gaussian
    start vectors use ``seed + 1``, and the re-verification cloud for start s
    uses ``seed + 2 + s``, so identical configs give bit-identical reports.
    """

    n: int
    degree: int
    samples: int | None = None
    radius: float = 2.0
    seed: int = 0
    starts: int = 20
    weight_eq1: float = 1.0
    weight_eq2: float = 1.0
    weight_ouroboros: float = 1.0
    max_iterations: int = 100
    tol: float = 1e-15
    init: str = "random"

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"an even dimension of at least 2 is required, got n={self.n}")
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        if self.samples is not None and self.samples < 1:
            raise ValueError("sample budget must be positive")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        if self.starts < 1:
            raise ValueError("at least one start is required")
        if min(self.weight_eq1, self.weight_eq2, self.weight_ouroboros) <= 0:
            raise ValueError("weights must be positive")
        if self.max_iterations < 1:
            raise ValueError("iteration cap must be positive")
        if self.init not in ("random", "mean"):
            raise ValueError(f"init must be 'random' or 'mean', got {self.init!r}")

    @property
    def resolved_samples(self) -> int:
        if self.samples is not None:
            return self.samples
        return max(200, 10 * basis_size(self.n, self.degree))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "samples": self.resolved_samples,
            "radius": self.radius,
            "seed": self.seed,
            "starts": self.starts,
            "weight_eq1": self.weight_eq1,
            "weight_eq2": self.weight_eq2,
            "weight_ouroboros": self.weight_ouroboros,
            "max_iterations": self.max_iterations,
            "tol": self.tol,
            "init": self.init,
        }


class ExplorationProblem:
    """Objective machinery for one sample cloud.

    Residuals r1 (equation I, beta = n) and r2 (equation II) are linear in
    theta and carried by precomputed matrices; the self-application defect
    o(x) = u(u(x) * ones) - u(x) is polynomial in theta. The objective is

        J = w1 * mean(r1^2) + w2 * mean(r2^2) + wo * mean(o^2)

    and the analytic gradient is exact. The normalisation is handled by
    eliminating theta[0] (= 0) and the last slot (= 1 - sum of the others),
    which at degree 1 is precisely the unit-coefficient-sum parametrisation.

    The stacked form handed to the Gauss-Newton solver carries the two
    linear blocks reduced to their R-factor. The weighted stack
    S = [sqrt(w1/N) * a1; sqrt(w2/N) * a2] is fixed, and with S = QR,
    S^T S = R^T R, so R @ theta (size rows) stands in for S @ theta (2N
    rows): the cost, gradient and Gauss-Newton matrix the solver sees are
    those of the full 3N rows in exact arithmetic, while the Jacobian it
    takes SVDs of has N + size rows. The reduced rows are computed as
    Q^T @ (S @ theta), which equals R @ theta: each entry of R sums over
    all 2N rows, and evaluating R @ theta directly raises the objective's
    round-off floor about a hundredfold, which lengthens the solver's
    tails. ``a1``, ``a2`` and ``objective_full`` keep the unreduced
    definition; reported residuals come from them.
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
            sum(weight * partials[k - 1] for k, weight in spec.terms()) for spec in _system_specs(n)
        )
        self.grade = _grade_matrix(self.exponents)
        self.free = np.arange(1, self.size - 1)  # eliminated: slot 0 and the last
        stacked = np.vstack([
            math.sqrt(config.weight_eq1 / count) * self.a1,
            math.sqrt(config.weight_eq2 / count) * self.a2,
        ])
        q, r = np.linalg.qr(stacked)
        self.linear_stack, self.linear_q = stacked, q
        self.linear_jacobian = r[:, self.free] - r[:, -1:]
        self.defect_scale = math.sqrt(config.weight_ouroboros / count)

    # -- constraint handling -------------------------------------------------

    def embed(self, phi: np.ndarray) -> np.ndarray:
        theta = np.zeros(self.size)
        theta[self.free] = phi
        theta[-1] = 1.0 - phi.sum()
        return theta

    def reduce(self, theta: np.ndarray) -> np.ndarray:
        return np.asarray(theta, dtype=float)[self.free]

    # -- objective -----------------------------------------------------------

    def residual_parts(self, theta: np.ndarray):
        theta = np.asarray(theta, dtype=float)
        return (self.a1 @ theta, self.a2 @ theta, *self._defect_parts(theta))

    def _defect_parts(self, theta: np.ndarray):
        y = self.phi_matrix @ theta
        s = self.grade @ theta
        powers, o = _self_defect(y, s)
        return y, powers, s, o

    def objective_full(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective and exact gradient with respect to the full theta."""
        cfg = self.config
        count = self.points.shape[0]
        r1, r2, y, powers, s, o = self.residual_parts(theta)
        jac_o = self._defect_jacobian(y, powers, s)
        grad = (2.0 / count) * (
            cfg.weight_eq1 * (self.a1.T @ r1)
            + cfg.weight_eq2 * (self.a2.T @ r2)
            + cfg.weight_ouroboros * (jac_o.T @ o)
        )
        return _weighted_objective(cfg, r1, r2, o), grad

    def objective_free(self, phi: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective and gradient over the free coordinates."""
        value, grad = self.objective_full(self.embed(phi))
        return value, grad[self.free] - grad[-1]

    def _defect_jacobian(self, y, powers, s) -> np.ndarray:
        # d o_i / d theta_j = y_i^deg(j) + (p'(y_i) - 1) * phi_ij
        degree = self.config.degree
        dp = powers[:, : degree] @ (np.arange(1, degree + 1) * s[1:])
        return powers @ self.grade + ((dp - 1.0)[:, None] * self.phi_matrix)

    # -- stacked form for the Gauss-Newton solver ----------------------------

    def stacked_residuals(self, phi: np.ndarray) -> np.ndarray:
        """R @ theta, then the weighted defect: min(2N, size) + N entries."""
        theta = self.embed(phi)
        *_, o = self._defect_parts(theta)
        return np.concatenate([self.linear_q.T @ (self.linear_stack @ theta), self.defect_scale * o])

    def stacked_jacobian(self, phi: np.ndarray) -> np.ndarray:
        """Jacobian of :meth:`stacked_residuals` over the free coordinates."""
        y, powers, s, _ = self._defect_parts(self.embed(phi))
        jac_o = self._defect_jacobian(y, powers, s)
        return np.vstack([
            self.linear_jacobian,
            self.defect_scale * (jac_o[:, self.free] - jac_o[:, -1:]),
        ])


def _grade_matrix(exponents) -> np.ndarray:
    """Degree aggregation: row g sums the theta slots of total degree g."""
    degrees = [sum(alpha) for alpha in exponents]
    grade = np.zeros((max(degrees) + 1, len(exponents)))
    grade[degrees, np.arange(len(exponents))] = 1.0
    return grade


def _self_defect(y: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Powers of y and the defect o = p(y) - y, where p(t) = sum_g s_g t^g.

    With s_g the sum of u's degree-g coefficients, p is u on the diagonal,
    so at y = u(x) the defect is u(u(x), ..., u(x)) - u(x).
    """
    powers = np.vander(y, len(s), increasing=True)
    return powers, powers @ s - y


def _weighted_objective(config: ExplorationConfig, r1, r2, o) -> float:
    return float(
        config.weight_eq1 * np.mean(r1**2)
        + config.weight_eq2 * np.mean(r2**2)
        + config.weight_ouroboros * np.mean(o**2)
    )


def _residual_operators(exponents, n: int) -> tuple[np.ndarray, np.ndarray]:
    """size x size matrices taking theta to the coefficients of the residuals.

    Column j holds the normal form of equation I's (then equation II's)
    residual of the j-th basis monomial, so a design matrix times
    ``op @ theta`` gives that residual of u at every point.
    """
    index = {alpha: j for j, alpha in enumerate(exponents)}
    operators = []
    for spec in _system_specs(n):
        op = np.zeros((len(exponents), len(exponents)))
        for j, alpha in enumerate(exponents):
            residual = combine((weight, derivative({alpha: 1.0}, k)) for k, weight in spec.terms())
            for lowered, c in residual.items():
                op[index[lowered], j] = c
        operators.append(op)
    return operators[0], operators[1]


def _system_specs(n: int) -> tuple[PdeSpec, PdeSpec]:
    """Equation I with beta = n and equation II, the two equations of the system."""
    return PdeSpec(PdeKind.EQ_I, n=n, beta=n), PdeSpec(PdeKind.EQ_II, n=n)


class Classification(str, Enum):
    MEAN_LIKE = "mean_like"
    CONSTANT_LIKE = "constant_like"  # unreachable under the normalisation; kept for schema stability
    OTHER_CANDIDATE = "other_candidate"
    NON_CONVERGED = "non_converged"


@dataclass(frozen=True)
class StartRecord:
    start: int
    init: str
    theta: tuple[float, ...]
    objective: float
    residual_eq1: float
    residual_eq2: float
    residual_ouroboros: float
    distance_to_mean: float
    classification: Classification
    converged: bool
    n_evaluations: int
    n_jacobian_evaluations: int
    solver_status: int  # scipy's least_squares status: 0 hit max_nfev, 1-4 met a tolerance
    reverified_objective: float | None = None

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "init": self.init,
            "theta": list(self.theta),
            "objective": self.objective,
            "residual_eq1": self.residual_eq1,
            "residual_eq2": self.residual_eq2,
            "residual_ouroboros": self.residual_ouroboros,
            "distance_to_mean": self.distance_to_mean,
            "classification": self.classification.value,
            "converged": self.converged,
            "n_evaluations": self.n_evaluations,
            "n_jacobian_evaluations": self.n_jacobian_evaluations,
            "solver_status": self.solver_status,
            "reverified_objective": self.reverified_objective,
        }


@dataclass(frozen=True)
class ExplorationReport:
    config: ExplorationConfig
    runs: tuple[StartRecord, ...]
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
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def explore(config: ExplorationConfig) -> ExplorationReport:
    """Run the multi-start search and classify every run.

    Gauss-Newton (scipy's trust-region least squares with the analytic
    Jacobian) minimises the stacked residual vector from each start, in the
    reduced form of :class:`ExplorationProblem`: N + size rows, the two
    linear blocks as their R-factor. A run is mean_like when it reaches
    objective <= 1e-10 within L2 distance 1e-3 of the mean's theta; a
    converged run far from the mean only counts as other_candidate if it
    survives re-verification on a fresh, ten times larger sample cloud with
    objective <= 1e-9, otherwise it is recorded as non_converged.
    Re-verification builds no problem: one design matrix and the residual
    operators on theta give the same objective. Exhausting the iteration
    cap is an outcome, not an error; each run records the solver's status
    and Jacobian count, so a run that hit the cap is told apart from one
    that stopped on a tolerance.
    """
    # imported here, and looked up at each call, so the other commands
    # never load scipy
    from scipy.optimize import least_squares

    dom = SampleDomain(
        n=config.n, radius=config.radius, seed=config.seed, count=config.resolved_samples
    )
    problem = ExplorationProblem(config, dom.samples())
    target = mean_theta(config.n, config.degree)
    init_rng = np.random.Generator(np.random.Philox(key=config.seed + 1))
    free_count = problem.size - 2
    init_vectors = init_rng.standard_normal((config.starts, free_count))

    runs = []
    for s in range(config.starts):
        phi0 = problem.reduce(target) if config.init == "mean" else init_vectors[s]
        result = least_squares(
            problem.stacked_residuals,
            phi0,
            jac=problem.stacked_jacobian,
            method="trf",
            ftol=config.tol,
            xtol=config.tol,
            gtol=config.tol,
            max_nfev=config.max_iterations,
        )
        theta = problem.embed(result.x)
        value, _ = problem.objective_full(theta)
        r1, r2, _, _, _, o = problem.residual_parts(theta)
        distance = float(np.linalg.norm(theta - target))
        converged = value <= OBJECTIVE_ZERO_TOL

        reverified = None
        if not converged:
            label = Classification.NON_CONVERGED
        elif distance <= MEAN_DISTANCE_TOL:
            label = Classification.MEAN_LIKE
        else:
            reverified = _reverify_objective(config, s, theta)
            if reverified <= REVERIFY_OBJECTIVE_FACTOR * OBJECTIVE_ZERO_TOL:
                label = Classification.OTHER_CANDIDATE
            else:
                label = Classification.NON_CONVERGED

        runs.append(StartRecord(
            start=s,
            init=config.init,
            theta=tuple(float(t) for t in theta),
            objective=value,
            residual_eq1=float(np.mean(r1**2)),
            residual_eq2=float(np.mean(r2**2)),
            residual_ouroboros=float(np.mean(o**2)),
            distance_to_mean=distance,
            classification=label,
            converged=converged,
            n_evaluations=int(result.nfev),
            n_jacobian_evaluations=int(result.njev),
            solver_status=int(result.status),
            reverified_objective=reverified,
        ))
    return ExplorationReport(config=config, runs=tuple(runs))


def _reverify_objective(config: ExplorationConfig, start: int, theta: np.ndarray) -> float:
    """The objective of theta on a fresh cloud ten times larger.

    No :class:`ExplorationProblem` is built: the residuals are one design
    matrix times theta and times the residual operators' images of theta,
    so neither derivative matrices nor a QR are computed.
    """
    dom = SampleDomain(
        n=config.n,
        radius=config.radius,
        seed=config.seed + 2 + start,
        count=REVERIFY_SAMPLE_FACTOR * config.resolved_samples,
    )
    exponents = monomial_exponents(config.n, config.degree)
    eq1, eq2 = _residual_operators(exponents, config.n)
    design = monomial_values(dom.samples(), exponents)
    y, r1, r2 = (design @ np.column_stack([theta, eq1 @ theta, eq2 @ theta])).T
    _, o = _self_defect(y, _grade_matrix(exponents) @ theta)
    return _weighted_objective(config, r1, r2, o)


# ---------------------------------------------------------------------------
# exact linear case, the degree-1 oracle

@dataclass(frozen=True)
class LinearSolutionSet:
    """Affine set of linear solutions: particular + span of the basis rows."""

    n: int
    particular: tuple[float, ...]
    basis: tuple[tuple[float, ...], ...]  # orthonormal

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def distance(self, coeffs) -> float:
        r = np.asarray(coeffs, dtype=float) - np.asarray(self.particular)
        for b in self.basis:
            b = np.asarray(b)
            r = r - (r @ b) * b
        return float(np.linalg.norm(r))

    def contains(self, coeffs, tol: float = 1e-9) -> bool:
        return self.distance(coeffs) <= tol

    def member(self, weights=()) -> LinearForm:
        c = np.asarray(self.particular, dtype=float).copy()
        for w, b in zip(weights, self.basis):
            c += w * np.asarray(b)
        return LinearForm(tuple(float(v) for v in c))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dimension": self.dimension,
            "particular": list(self.particular),
            "basis": [list(b) for b in self.basis],
        }


def linear_case_exact(n: int) -> LinearSolutionSet:
    """Closed-form degree-1 solution set of the full system.

    The three linear constraints on the coefficient vector c are
    sum(c) = 1 (self-application), sum(c) = n * c_n (equation I with
    beta = n) and the alternating balance (equation II). The arithmetic
    mean always satisfies them, so it serves as the particular solution;
    the span of the homogeneous solutions comes from an SVD null space.
    For n = 2 the set is the single point (1/2, 1/2); for larger even n it
    gains dimensions, so uniqueness within degree 1 holds only at n = 2.
    """
    from scipy.linalg import null_space

    if n < 2 or n % 2 != 0:
        raise ValueError(f"an even dimension of at least 2 is required, got n={n}")
    rows = [np.ones(n)]
    for spec in _system_specs(n):
        row = np.zeros(n)
        for k, weight in spec.terms():
            row[k - 1] += weight
        rows.append(row)
    constraints = np.vstack(rows)
    particular = np.full(n, 1.0 / n)
    residual = constraints @ particular - np.array([1.0, 0.0, 0.0])
    assert np.abs(residual).max() < 1e-12, "the mean must satisfy all three constraints"
    kernel = null_space(constraints)
    basis = tuple(tuple(float(v) for v in kernel[:, j]) for j in range(kernel.shape[1]))
    return LinearSolutionSet(
        n=n,
        particular=tuple(float(v) for v in particular),
        basis=basis,
    )
