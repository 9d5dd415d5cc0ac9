"""Record semantics, once for every record class of the package.

Each case builds a fresh record twice; the pinned reprs are those the
classes printed as frozen data classes, and ``Name(field=value, ...)`` is
what reports and error messages show.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from ouroboros import core, expr, explorer, families, pde, probability
from ouroboros._record import Record
from ouroboros.core import LinearForm, OuroborosReport, SampleDomain, Verdict
from ouroboros.expr import Add, Const, Mul, Neg, Pow, Var
from ouroboros.explorer import Classification, ExplorationConfig, ExplorationReport, SolutionSet, StartRecord
from ouroboros.families import HeadAverageSolution
from ouroboros.pde import AlternatingBalanceReport, PdeKind, PdeSpec, ResidualReport, SystemReport
from ouroboros.probability import DiscreteRandomVariable, ExpectationReport, SimpleRandomVariable

RESIDUAL = (
    "ResidualReport(symbolic_zero=True, residual_constant=0.0, max_abs_residual=0.0, "
    "max_abs_residual_fd=1e-12, samples_used=200, note='linear')"
)
OUROBOROS = (
    "OuroborosReport(verdict=<Verdict.FAILS: 'fails'>, max_deviation=0.25, witness=(1.0, 0.0), "
    "samples_used=0, range_contained=None, error=None)"
)
CONFIG = "ExplorationConfig(n=2, degree=1, samples=None, radius=2.0, seed=0, starts={}, max_iterations=100, tol=1e-15)"
START = (
    "StartRecord(start=0, theta=(0.0, 0.5, 0.5), objective=0.0, residual_eq1=0.0, residual_eq2=0.0, "
    "residual_ouroboros=0.0, distance_to_mean=0.0, distance_to_solution_set=0.0, "
    "classification=<Classification.MEAN_LIKE: 'mean_like'>, converged=True, n_evaluations=3, "
    "n_jacobian_evaluations=3, solver_status=1)"
)
SOLUTION_SET = "SolutionSet(n=2, degree=1, particular=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 2)), basis=())"


def residual():
    return ResidualReport(True, 0.0, 0.0, 1e-12, 200, "linear")


def ouroboros_report():
    return OuroborosReport(Verdict.FAILS, 0.25, (1.0, 0.0), 0)


def start():
    return StartRecord(0, (0.0, 0.5, 0.5), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, Classification.MEAN_LIKE, True, 3, 3, 1)


def mean_set():
    return SolutionSet(n=2, degree=1, particular=(Fraction(0), Fraction(1, 2), Fraction(1, 2)), basis=())


# (a factory of one record, its repr)
CASES = [
    (lambda: Const(1.0), "Const(value=1.0)"),
    (lambda: Var(2), "Var(index=2)"),
    (lambda: Add(((1, Var(1)), (-1, Const(2.0)))), "Add(terms=((1, Var(index=1)), (-1, Const(value=2.0))))"),
    (lambda: Mul(((1, Var(1)), (-1, Var(2)))), "Mul(factors=((1, Var(index=1)), (-1, Var(index=2))))"),
    (lambda: Neg(Var(1)), "Neg(operand=Var(index=1))"),
    (lambda: Pow(Var(1), 3), "Pow(base=Var(index=1), exponent=3)"),
    (lambda: LinearForm((0.5, 0.5)), "LinearForm(coeffs=(0.5, 0.5))"),
    (lambda: SampleDomain(n=2, radius=2.0, seed=3, count=10), "SampleDomain(n=2, radius=2.0, seed=3, count=10)"),
    (ouroboros_report, OUROBOROS),
    (lambda: HeadAverageSolution(n=3, beta=2, coeffs=(0.25, 0.75)),
     "HeadAverageSolution(n=3, beta=2, coeffs=(0.25, 0.75))"),
    (lambda: DiscreteRandomVariable((1.0, 3.0), (0.5, 0.5)),
     "DiscreteRandomVariable(values=(1.0, 3.0), probs=(0.5, 0.5))"),
    (lambda: SimpleRandomVariable(((2.0, 1.0),)), "SimpleRandomVariable(pieces=((2.0, 1.0),))"),
    (lambda: ExpectationReport(2.0, 2.0, 0.0, True),
     "ExpectationReport(expectation=2.0, recomposed=2.0, deviation=0.0, holds=True)"),
    (lambda: PdeSpec(PdeKind.EQ_I, n=3, beta=2), "PdeSpec(kind=<PdeKind.EQ_I: 'I'>, n=3, beta=2)"),
    (residual, RESIDUAL),
    (lambda: AlternatingBalanceReport(True, 0.5, 0.5),
     "AlternatingBalanceReport(holds=True, odd_sum=0.5, even_sum=0.5)"),
    (lambda: SystemReport(residual(), residual(), 0.0, True, ouroboros_report()),
     f"SystemReport(eq1={RESIDUAL}, eq2={RESIDUAL}, origin_value=0.0, zero_at_origin=True, ouroboros={OUROBOROS})"),
    (lambda: ExplorationConfig(n=2, degree=1), CONFIG.format(20)),
    (start, START),
    (mean_set, SOLUTION_SET),
    (lambda: ExplorationReport(ExplorationConfig(n=2, degree=1, starts=1), (start(),), mean_set(), ("a note",)),
     f"ExplorationReport(config={CONFIG.format(1)}, runs=({START},), solution_set={SOLUTION_SET}, notes=('a note',))"),
]
IDS = [factory().__class__.__name__ for factory, _ in CASES]


def test_every_record_class_has_a_case():
    modules = (core, expr, explorer, families, pde, probability)
    records = {cls for m in modules for cls in vars(m).values() if isinstance(cls, type) and issubclass(cls, Record)}
    assert records - {Record} == {type(factory()) for factory, _ in CASES}
    assert len(CASES) == 21


@pytest.mark.parametrize("factory, text", CASES, ids=IDS)
def test_repr_names_each_field(factory, text):
    assert repr(factory()) == text


@pytest.mark.parametrize("factory", [factory for factory, _ in CASES], ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(factory):
    a, b = factory(), factory()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("factory", [factory for factory, _ in CASES], ids=IDS)
def test_records_of_different_classes_differ(factory):
    record = factory()
    for other, _ in CASES:
        if type(other()) is not type(record):
            assert record != other()


def test_the_type_decides_before_the_fields():
    """Field tuples (1.0,) and (1,) compare equal; a Const and a Var never do."""
    assert Const(1.0)._values() == Var(1)._values()
    assert Const(1.0) != Var(1)
    assert not Const(1.0) == Var(1)
    assert Const(1.0) != (1.0,)
    assert Const(1.0) != 1.0


@pytest.mark.parametrize("factory", [factory for factory, _ in CASES], ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(factory):
    record = factory()
    before = repr(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert repr(record) == before


@pytest.mark.parametrize("factory", [factory for factory, _ in CASES], ids=IDS)
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_equal(factory, duplicate):
    record = factory()
    twin = duplicate(record)
    assert type(twin) is type(record)
    assert twin == record
    assert hash(twin) == hash(record)
    assert repr(twin) == repr(record)


def test_constructors_take_fields_by_position_or_keyword_with_the_same_defaults():
    assert OuroborosReport(Verdict.FAILS, 0.25, (1.0, 0.0), 0) == OuroborosReport(
        verdict=Verdict.FAILS, max_deviation=0.25, witness=(1.0, 0.0), samples_used=0, range_contained=None, error=None)
    assert PdeSpec(PdeKind.EQ_II, 4) == PdeSpec(kind=PdeKind.EQ_II, n=4, beta=None)
    assert ResidualReport(True, 0.0, 0.0, 0.0, 0).note is None
    assert ExplorationReport(ExplorationConfig(2, 1), (), mean_set()).notes == (
        explorer.NONTRIVIALITY_NOTE, explorer.SCOPE_NOTE)
    with pytest.raises(TypeError):
        Const()
    with pytest.raises(TypeError):
        Var(1, 2)


def test_checks_run_again_when_a_copy_is_built():
    """A sum spliced into a sum stays flat through copy, and a form's coefficients stay floats."""
    nested = Add(((1, Add(((1, Var(1)), (1, Var(2))))), (-1, Var(3))))
    assert copy.deepcopy(nested).terms == ((1, Var(1)), (1, Var(2)), (-1, Var(3)))
    assert pickle.loads(pickle.dumps(LinearForm((1, 2)))).coeffs == (1.0, 2.0)


def test_a_cached_basis_is_not_a_field():
    """SolutionSet caches its orthonormal basis beside its fields, outside equality, hash and repr."""
    cached, fresh = explorer.solution_set(4, 2), explorer.solution_set(4, 2)
    assert cached.distance(explorer.mean_theta(4, 2)) == 0.0
    assert "_orthonormal" in vars(cached) and "_orthonormal" not in vars(fresh)
    assert cached == fresh and hash(cached) == hash(fresh) and repr(cached) == repr(fresh)
    assert cached._fields == ("n", "degree", "particular", "basis")
    assert copy.deepcopy(cached) == fresh


@pytest.mark.parametrize("call", [
    lambda: AlternatingBalanceReport(True, 0.5, 0.5, 0.5),
    lambda: AlternatingBalanceReport(True, 0.5, 0.5, parity=1),
    lambda: AlternatingBalanceReport(True, 0.5, 0.5, holds=True),
    lambda: AlternatingBalanceReport(True, 0.5),
], ids=["too-many-positional", "unknown-keyword", "field-given-twice", "missing-field"])
def test_the_slot_constructor_refuses_a_bad_call(call):
    """A record with no ``__init__`` of its own binds its slots as a function of them would, or raises."""
    assert "__init__" not in vars(AlternatingBalanceReport)
    with pytest.raises(TypeError):
        call()


def test_defaults_apply_whether_the_other_fields_come_by_position_or_keyword():
    fields = dict(symbolic_zero=True, residual_constant=0.0, max_abs_residual=0.0, max_abs_residual_fd=0.0,
                  samples_used=3)
    by_position, by_keyword = ResidualReport(*fields.values()), ResidualReport(**fields)
    assert by_position == by_keyword and by_keyword.note is None
    assert ResidualReport(True, 0.0, max_abs_residual=0.0, max_abs_residual_fd=0.0, samples_used=3) == by_keyword
    assert ResidualReport(*fields.values(), "a note").note == "a note"
    assert OuroborosReport(Verdict.FAILS, 0.25, None, 0)._values()[-2:] == (None, None)
    assert OuroborosReport(Verdict.FAILS, 0.25, None, 0, error="boom")._values()[-2:] == (None, "boom")
    config, mean = ExplorationConfig(2, 1), mean_set()
    notes = (explorer.NONTRIVIALITY_NOTE, explorer.SCOPE_NOTE)
    assert ExplorationReport(config, (), mean).notes == notes
    assert ExplorationReport(config=config, runs=(), solution_set=mean).notes == notes


def test_reports_built_from_their_fields_give_the_same_json_data():
    """The dicts these reports gave when each ``to_dict`` named every key by hand."""
    assert residual().to_dict() == {
        "convention": "left minus right", "symbolic_zero": True, "residual_constant": 0.0, "max_abs_residual": 0.0,
        "max_abs_residual_fd": 1e-12, "samples_used": 200, "note": "linear",
    }
    data = ouroboros_report().to_dict()
    assert data == {
        "verdict": "fails", "max_deviation": 0.25, "witness": [1.0, 0.0], "samples_used": 0,
        "range_contained": None, "error": None,
    }
    assert type(data["verdict"]) is str and type(data["witness"]) is list
    assert OuroborosReport(Verdict.ERROR, 0.0, None, 5, True, "boom").to_dict() == {
        "verdict": "error", "max_deviation": 0.0, "witness": None, "samples_used": 5,
        "range_contained": True, "error": "boom",
    }
    assert AlternatingBalanceReport(True, 0.5, 0.5).to_dict() == {"holds": True, "odd_sum": 0.5, "even_sum": 0.5}
