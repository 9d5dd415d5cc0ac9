"""Self-replicating functions: checkers, solution families, and a search.

A function is ouroboros when feeding its own output back into every
argument reproduces that output, f(f(x), ..., f(x)) = f(x). The package
checks this identity exactly for linear forms and by sampling for general
expressions, carries the closed-form solution families of two first-order
transport equations, verifies the expectation operator's idempotence,
computes the exact polynomial solution set of the combined system, and
searches numerically for its solutions as a cross-check.

The names from :mod:`ouroboros.pde` and :mod:`ouroboros.explorer` load on
first use (PEP 562), so that a command needing neither skips both imports.
The explorer imports numpy as it loads; the sampled and residual checks
import it only for a cloud past ``core.SMALL_CLOUD_CELLS`` (samples times
n plus the distinct nodes of u), and draw a smaller one as Python float lists,
which the same walk checks to the same bits. The exact checks, the
expectation check, the transport checks of linear forms and the sampled
checks at the command line's defaults run without numpy.
"""

from importlib import import_module

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
    EvaluationError,
    Expr,
    Mul,
    Neg,
    ParseError,
    Pow,
    Var,
    differentiate,
    dimension,
    evaluate,
    evaluate_many,
    parse,
    to_string,
)
from .families import (
    HeadAverageSolution,
    arithmetic_mean,
    constant_function,
    head_average_solution,
    unit_sum_solution_family,
    weighted_average,
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

# name -> the submodule that serves it on first use
_LAZY_HOME = {
    **dict.fromkeys((
        "AlternatingBalanceReport", "PdeKind", "PdeSpec", "ResidualReport",
        "SystemReport", "check_alternating_balance", "check_residual",
        "check_system", "finite_difference", "residual_expr",
        "verify_mean_system",
    ), "pde"),
    **dict.fromkeys((
        "Classification", "ExplorationConfig", "ExplorationReport",
        "SolutionSet", "explore", "mean_theta", "monomial_exponents",
        "solution_set",
    ), "explorer"),
}


def __getattr__(name: str):
    home = _LAZY_HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    # bound here, later lookups bypass this hook, as with an eager import
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_HOME))


__all__ = [
    "__version__",
    # expressions
    "Add", "Const", "EvaluationError", "Expr", "Mul", "Neg",
    "ParseError", "Pow", "Var", "differentiate", "dimension",
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
