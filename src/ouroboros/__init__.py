"""Self-replicating functions: checkers, solution families, and a search.

A function is ouroboros when feeding its own output back into every
argument reproduces that output, f(f(x), ..., f(x)) = f(x). The package
checks this identity exactly for linear forms and by sampling for general
expressions, carries the closed-form solution families of two first-order
transport equations, verifies the expectation operator's idempotence,
computes the exact polynomial solution set of the combined system, and
searches numerically for its solutions as a cross-check.
"""

from .core import (
    EXACT_TOL,
    SAMPLED_TOL,
    LinearForm,
    OuroborosReport,
    SampleDomain,
    Verdict,
    check_linear_exact,
    check_sampled,
    diagonal_self_apply,
)
from .expr import (
    Add,
    Const,
    Div,
    EvaluationError,
    Expr,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Var,
    differentiate,
    dimension,
    evaluate,
    evaluate_many,
    parse,
    to_string,
)
from .explorer import (
    Classification,
    ExplorationConfig,
    ExplorationReport,
    SolutionSet,
    explore,
    mean_theta,
    monomial_exponents,
    solution_set,
)
from .families import (
    HeadAverageSolution,
    arithmetic_mean,
    constant_function,
    head_average_solution,
    unit_sum_solution_family,
    weighted_average,
)
from .pde import (
    AlternatingBalanceReport,
    PdeKind,
    PdeSpec,
    ResidualReport,
    SystemReport,
    check_alternating_balance,
    check_residual,
    check_system,
    finite_difference,
    residual_expr,
    verify_mean_system,
)
from .probability import (
    DiscreteRandomVariable,
    ExpectationReport,
    SimpleRandomVariable,
    as_constant_rv,
    check_expectation_ouroboros,
    expected_value,
    lebesgue_integral,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expressions
    "Add", "Const", "Div", "EvaluationError", "Expr", "Mul", "Neg",
    "ParseError", "Pow", "Sub", "Var", "differentiate", "dimension",
    "evaluate", "evaluate_many", "parse", "to_string",
    # self-application checks
    "EXACT_TOL", "SAMPLED_TOL", "LinearForm", "OuroborosReport",
    "SampleDomain", "Verdict", "check_linear_exact", "check_sampled",
    "diagonal_self_apply",
    # solution families
    "HeadAverageSolution", "arithmetic_mean", "constant_function",
    "head_average_solution", "unit_sum_solution_family", "weighted_average",
    # expectation
    "DiscreteRandomVariable", "ExpectationReport", "SimpleRandomVariable",
    "as_constant_rv", "check_expectation_ouroboros", "expected_value",
    "lebesgue_integral",
    # transport equations
    "AlternatingBalanceReport", "PdeKind", "PdeSpec", "ResidualReport",
    "SystemReport", "check_alternating_balance", "check_residual",
    "check_system", "finite_difference", "residual_expr",
    "verify_mean_system",
    # numerical search
    "Classification", "ExplorationConfig", "ExplorationReport",
    "SolutionSet", "explore", "mean_theta", "monomial_exponents",
    "solution_set",
]
