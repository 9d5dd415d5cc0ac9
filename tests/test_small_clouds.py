"""Small clouds on Python floats: the pure-Python Philox draw, the work bound
that picks the route, and reports equal to the numpy route's, bit for bit."""

import contextlib
import operator
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouroboros import (
    Add,
    Const,
    EvaluationError,
    Mul,
    Neg,
    PdeKind,
    PdeSpec,
    Pow,
    SampleDomain,
    Var,
    check_residual,
    check_sampled,
    check_system,
    core,
    evaluate_many,
    parse,
    to_string,
)
from ouroboros import expr as expr_module
from ouroboros import pde as pde_module
from ouroboros import poly as poly_module
from ouroboros.core import SMALL_CLOUD_CELLS, _check_sampled_at, _cloud, _philox_uniform
from ouroboros.expr import _column, _evaluate_columns, _shape
from ouroboros.pde import DEFAULT_FD_STEP, _fd_partials, _poly_values
from ouroboros.poly import expand

from test_expr import expr_strategy, shared_parses, unshared


@contextlib.contextmanager
def route(python: bool):
    """Send every cloud to one route, and fail if the other one draws."""
    def refuse(self):
        raise AssertionError("the other route drew the cloud")

    saved = core.SMALL_CLOUD_CELLS, SampleDomain.samples, SampleDomain._columns
    core.SMALL_CLOUD_CELLS = 10**12 if python else 0
    if python:
        SampleDomain.samples = refuse
    else:
        SampleDomain._columns = refuse
    try:
        yield
    finally:
        core.SMALL_CLOUD_CELLS, SampleDomain.samples, SampleDomain._columns = saved


def exact(value):
    """A report's data with every float as its repr: nan equals nan, -0.0 differs from 0.0."""
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    return repr(float(value)) if isinstance(value, float) else value


def outcome(check, *args):
    """The report's data, or the EvaluationError's message and sample index."""
    try:
        return exact(check(*args).to_dict())
    except EvaluationError as exc:
        return "EvaluationError", str(exc), exc.sample_index


def on_both_routes(check, *args):
    with route(python=False):
        by_numpy = outcome(check, *args)
    with route(python=True):
        by_python = outcome(check, *args)
    return by_numpy, by_python


SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
RADII = st.sampled_from([0.5, 2.0, 35.0])
COUNTS = st.integers(min_value=1, max_value=30)


class TestPhiloxDraw:
    @pytest.mark.parametrize("count", [1, 7, 128, 400, 1001])
    def test_matches_numpys_generator_bit_for_bit(self, count):
        rng = random.Random(count)
        seeds = [0, 1, 2**32, 2**63, 2**64 - 1] + [rng.getrandbits(64) for _ in range(20)]
        for seed in seeds:
            radius = rng.choice([1e-300, 0.1, 2.0, 35.0, 8.9e307])
            want = np.random.Generator(np.random.Philox(key=seed)).uniform(-radius, radius, count)
            assert np.array(_philox_uniform(seed, count, -radius, radius)).tobytes() == want.tobytes(), seed

    @pytest.mark.parametrize("n, count", [(1, 5), (2, 64), (3, 200), (5, 33)])
    def test_columns_are_the_samples_by_coordinate(self, n, count):
        dom = SampleDomain(n=n, radius=2.0, seed=n * 1000 + count, count=count)
        columns = dom._columns()
        assert all(type(x) is float for column in columns for x in column)
        assert np.array(columns).T.tobytes() == dom.samples().tobytes()


def children(e) -> list:
    if isinstance(e, (Add, Mul)):
        return [node for _, node in (e.terms if isinstance(e, Add) else e.factors)]
    if isinstance(e, Neg):
        return [e.operand]
    return [e.base] if isinstance(e, Pow) else []


def paths(e):
    """Every node of ``e`` once per path that reaches it."""
    yield e
    for child in children(e):
        yield from paths(child)


def post_order(e, seen: set) -> list:
    """The distinct nodes of ``e`` not in ``seen``, each after its children, left to right, as a recursive walk finishes them."""
    if id(e) in seen:
        return []
    listed = [node for child in children(e) for node in post_order(child, seen)]
    seen.add(id(e))
    return listed + [e]


def reads(e, seen: set) -> list:
    """(id(node), entry) for each entry a recursive walk reads, each after its child's subtree; a node
    in ``seen`` is not walked again, and the walk adds each node it finishes."""
    if id(e) in seen:
        return []
    record = []
    for entry, child in enumerate(children(e)):
        record += reads(child, seen)
        record.append((id(e), entry))
    seen.add(id(e))
    return record


class TestWorkBound:
    def test_counts_every_node(self):
        e = parse("(x1 + x2)/2 - -x3^2")  # Add, Mul, Add, x1, x2, 2, Neg, Pow, x3
        assert _shape(e).size == 9
        assert _shape(Var(1)).size == 1
        square = parse("(x1 + x2)*(x1 + x2)")  # Mul, Add, x1, x2: the Add is one object
        assert _shape(square).size == 4
        total = square.factors[0][1]
        listed = [(id(node), slots) for node, slots in _shape(square).order]
        assert listed == [(id(total.terms[0][1]), ()), (id(total.terms[1][1]), ()), (id(total), (0, 1)), (id(square), (2, 2))]

    @given(st.one_of(expr_strategy(), shared_parses(expr_strategy())))
    @settings(max_examples=200, deadline=None)
    def test_shape_matches_reference_walks(self, e):
        """Dimension as on the unshared rebuild, size the distinct ids, and the order each distinct
        node once, after all of its children, as a recursive walk first finishes them."""
        distinct = {id(node): node for node in paths(e)}
        shape = _shape(e)
        assert shape.dimension == max((node.index for node in paths(unshared(e)) if isinstance(node, Var)), default=0)
        assert shape.size == len(distinct)
        listed = [node for node, _ in shape.order]
        assert [id(node) for node in listed] == [id(node) for node in post_order(e, set())]
        assert sorted(map(id, listed)) == sorted(distinct)
        for position, (node, slots) in enumerate(shape.order):
            assert [id(listed[slot]) for slot in slots] == [id(child) for child in children(node)]
            assert all(slot < position for slot in slots)

    @given(st.one_of(expr_strategy(), shared_parses(expr_strategy())))
    @settings(max_examples=200, deadline=None)
    def test_steps_are_the_reads_of_a_recursive_walk(self, e):
        """The steps read each entry where a recursive walk reads it, which is what lets evaluation raise
        the first zero divisor it meets; each names its node's child, and readers count the steps."""
        shape = _shape(e)
        assert [(id(shape.order[target][0]), entry) for target, entry, _ in shape.steps] == reads(e, set())
        assert all(slot == shape.order[target][1][entry] for target, entry, slot in shape.steps)
        assert shape.readers == [sum(slot == s for *_, slot in shape.steps) for s in range(shape.size)]

    def test_the_steps_read_a_finished_divisor_before_walking_a_new_entry(self):
        """x1 + x2 + x1/x2*(x3/x4), slots x1 x2 x3 x4, x3/x4, the product, the sum: the product
        divides by the finished x2 (step (5, 1, 1)) before it walks x3/x4."""
        steps = _shape(parse("x1 + x2 + x1/x2*(x3/x4)")).steps
        assert steps == [(6, 0, 0), (6, 1, 1), (5, 0, 0), (5, 1, 1), (4, 0, 2), (4, 1, 3), (5, 2, 4), (6, 2, 5)]

    def test_a_tree_past_the_bound_by_paths_but_within_it_by_distinct_nodes_takes_python_floats(self):
        """(x1 + x2)/2 squared by Mul(((1, e), (1, e))) 8 times has 1280 nodes along its paths and 13
        distinct ones: its cloud is Python floats, and its reports equal the numpy route's."""
        e = parse("(x1 + x2)/2")
        for _ in range(8):
            e = Mul(((1, e), (1, e)))
        dom = SampleDomain(n=2, radius=2.0, seed=3, count=200)
        assert _shape(e).size == 13
        assert sum(1 for _ in paths(e)) == 1280
        assert dom.count * (dom.n + 1280) > SMALL_CLOUD_CELLS >= dom.count * (dom.n + 13)
        assert all(isinstance(column, list) for column in _cloud(_shape(e), dom))
        for check, args in ((check_sampled, (e, dom)), (check_system, (e, 2, dom))):
            by_numpy, by_python = on_both_routes(check, *args)
            assert by_numpy == by_python, check.__name__

    @pytest.mark.parametrize("text", ["(x1 + x2)/2 + (x1 - x2)^2*(x1 - x2)", "(x1 + x2)/2 + (x1 - x2)/(3 + (x1 - x2)^2)"])
    def test_each_check_walks_the_shape_of_u_once(self, monkeypatch, text):
        """With or without a normal form, one _shape(u) per check, wherever it is called from."""
        u = parse(text)
        calls = []

        def counted(e, shape=expr_module._shape):
            calls.append(e is u)
            return shape(e)

        for module in (expr_module, core, pde_module, poly_module):
            monkeypatch.setattr(module, "_shape", counted)
        dom = SampleDomain(n=2, radius=2.0, seed=0, count=50)
        for check, args in ((check_sampled, (u, dom)),
                            (check_residual, (u, PdeSpec(PdeKind.EQ_II, n=2), dom)),
                            (check_system, (u, 2, dom))):
            calls.clear()
            check(*args)
            assert calls.count(True) == 1, check.__name__

    @pytest.mark.parametrize("text, n, count", [
        ("(x1 + x2)/2", 2, 64),  # the defaults and sizes of the acceptance commands
        ("x1^2", 2, 200),
        ("x1", 1, SMALL_CLOUD_CELLS // 2),  # on the bound: count * (n + 1 node)
    ])
    def test_small_clouds_take_python_floats(self, text, n, count):
        cloud = _cloud(_shape(parse(text)), SampleDomain(n=n, radius=2.0, seed=0, count=count))
        assert len(cloud) == n and all(isinstance(column, list) for column in cloud)

    @pytest.mark.parametrize("text, n, count", [
        ("x1", 1, SMALL_CLOUD_CELLS // 2 + 1),
        ("x1", 1, 100_000),
        (" + ".join(f"{k}*x{k % 4 + 1}^2" for k in range(1, 301)), 4, 200),  # a symbolic-pde size
    ])
    def test_large_clouds_take_numpy(self, text, n, count):
        dom = SampleDomain(n=n, radius=2.0, seed=0, count=count)
        cloud = _cloud(_shape(parse(text)), dom)
        assert len(cloud) == n and all(isinstance(column, np.ndarray) and column.flags.c_contiguous for column in cloud)
        assert np.array(cloud).T.tobytes() == dom.samples().tobytes()


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestRoutesAgree:
    @given(expr_strategy(), SEEDS, COUNTS, st.sampled_from([[[1.0, 1.0, -2.0]], [[-1.0, 1.0, -1.0], [1.0, 0.0, -1.0]]]))
    @settings(max_examples=150, deadline=None)
    def test_values_match_bit_for_bit(self, e, seed, count, directions):
        """u, its differences along each w (signs included) and its normal form's values,
        or the same EvaluationError, on Python float columns as on the array."""
        dom = SampleDomain(n=3, radius=2.0, seed=seed, count=count)
        points, columns = dom.samples(), dom._columns()
        arrays = list(points.T.copy())
        for by_numpy, by_python in (
            (lambda: evaluate_many(e, points), lambda: _column(_evaluate_columns(_shape(e), columns), columns[0])),
            (lambda: _fd_partials(_shape(e), arrays, directions, DEFAULT_FD_STEP),
             lambda: _fd_partials(_shape(e), columns, directions, DEFAULT_FD_STEP)),
        ):
            try:
                want = bits(by_numpy())
            except EvaluationError as exc:
                with pytest.raises(EvaluationError) as got:
                    by_python()
                assert (got.value.message, got.value.sample_index) == (exc.message, exc.sample_index)
                continue
            assert bits(by_python()) == want
        form = expand(e, 3)
        if form is not None:
            assert bits(_poly_values(form, columns)) == bits(_poly_values(form, arrays))

    @given(expr_strategy(), SEEDS, RADII, COUNTS)
    @settings(max_examples=150, deadline=None)
    def test_check_sampled(self, e, seed, radius, count):
        dom = SampleDomain(n=3, radius=radius, seed=seed, count=count)
        by_numpy, by_python = on_both_routes(check_sampled, e, dom)
        assert by_numpy == by_python

    @given(expr_strategy(), SEEDS, RADII, COUNTS, st.sampled_from([1, 2, 3, None]))
    @settings(max_examples=150, deadline=None)
    def test_check_residual(self, e, seed, radius, count, beta):
        spec = PdeSpec(PdeKind.EQ_II, n=3) if beta is None else PdeSpec(PdeKind.EQ_I, n=3, beta=beta)
        dom = SampleDomain(n=3, radius=radius, seed=seed, count=count)
        by_numpy, by_python = on_both_routes(check_residual, e, spec, dom)
        assert by_numpy == by_python

    @given(expr_strategy(), SEEDS, RADII, COUNTS)
    @settings(max_examples=100, deadline=None)
    def test_check_system(self, e, seed, radius, count):
        dom = SampleDomain(n=4, radius=radius, seed=seed, count=count)
        by_numpy, by_python = on_both_routes(check_system, e, 4, dom)
        assert by_numpy == by_python

    @pytest.mark.parametrize("seed", range(4))
    def test_a_nan_difference_reads_nan_on_both_routes(self, seed):
        """At radius 35, x1^200 overflows, its differences are inf - inf, and the
        maximum is nan, as numpy's max reads it, not the inf of a plain max()."""
        dom = SampleDomain(n=2, radius=35.0, seed=seed, count=200)
        by_numpy, by_python = on_both_routes(check_residual, parse("x1^200"), PdeSpec(PdeKind.EQ_II, n=2), dom)
        assert by_numpy == by_python
        assert by_python["max_abs_residual_fd"] == "nan"

    @pytest.mark.parametrize("k", [7, 150])
    def test_a_zero_divisor_inside_the_cloud_is_named_on_both_routes(self, k):
        """u = 1/(x1 - c) with c the k-th sample's x1: no value at sample k, on either route."""
        dom = SampleDomain(n=2, radius=2.0, seed=11, count=200)
        c = float(dom.samples()[k, 0])
        u = Mul(((1, Const(1.0)), (-1, Add(((1, Var(1)), (-1, Const(c)))))))
        sampled = on_both_routes(check_sampled, u, dom)
        assert sampled[0] == sampled[1]
        assert sampled[1]["error"] == f"division by zero (sample {k})"
        for check, args in ((check_residual, (u, PdeSpec(PdeKind.EQ_II, n=2), dom)), (check_system, (u, 2, dom))):
            by_numpy, by_python = on_both_routes(check, *args)
            assert by_numpy == by_python == ("EvaluationError", f"division by zero (sample {k})", k)

    @pytest.mark.parametrize("text, n", [
        ("1/(x1 - x1)", 2),
        ("x1/(x2 - x2) + 1/(x1 - x1)", 2),
        ("(x1 + x2)/2 + 0.0000000001*x1^2", 2),
        ("x1^400", 2),
        ("x1 + 1e300", 2),  # y is 1e300 at every sample, so every sample ties as the worst: the first is the witness
    ])
    def test_errors_and_overflows_agree(self, text, n):
        dom = SampleDomain(n=n, radius=10.0, seed=7, count=200)
        u = parse(text)
        for check, args in ((check_sampled, (u, dom)),
                            (check_residual, (u, PdeSpec(PdeKind.EQ_II, n=n), dom)),
                            (check_system, (u, n, dom))):
            by_numpy, by_python = on_both_routes(check, *args)
            assert by_numpy == by_python, check.__name__


def bits_or_error(compute):
    """The bits of what ``compute()`` returns, or the EvaluationError's message and sample index."""
    try:
        return bits(compute())
    except EvaluationError as exc:
        return exc.message, exc.sample_index


# small integers as floats, so that divisors meet zero at many samples
GRID_ROWS = st.lists(st.tuples(*[st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0])] * 3), min_size=1, max_size=12)


def reference_evaluate(e, columns: list) -> list:
    """The recursive walk that evaluation was, kept as its oracle: every path read, whole columns of
    Python floats, entries left to right, and the first zero divisor met raising at its first zero."""
    def power(base: float, k: int) -> float:  # binary exponentiation over *
        result = None
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return 1.0 if result is None else result

    def walk(e) -> list:
        if isinstance(e, Const):
            return [e.value] * len(columns[0])
        if isinstance(e, Var):
            return list(columns[e.index - 1])
        if isinstance(e, Neg):
            return [-a for a in walk(e.operand)]
        if isinstance(e, Pow):
            return [power(a, e.exponent) for a in walk(e.base)]
        entries = e.terms if isinstance(e, Add) else e.factors
        ops = (operator.add, operator.sub) if isinstance(e, Add) else (operator.mul, operator.truediv)
        total = walk(entries[0][1])
        for sign, node in entries[1:]:
            value = walk(node)
            if isinstance(e, Mul) and sign < 0 and 0.0 in value:  # -0.0 too
                raise EvaluationError("division by zero", sample_index=value.index(0.0))
            total = list(map(ops[sign < 0], total, value))
        return total

    return walk(e)


def several_divisors(trees):
    """Trees whose products divide by several entries, nested, so that zero divisors compete."""
    def product(children):
        rest = st.lists(st.tuples(st.sampled_from([1, -1, -1]), children), min_size=1, max_size=3)
        return st.tuples(children, rest).map(lambda first_rest: Mul(((1, first_rest[0]), *first_rest[1])))

    return st.recursive(trees, product, max_leaves=8)


VARIABLES = st.integers(min_value=1, max_value=3).map(Var)
ZERO_ROWS = st.lists(st.tuples(*[st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])] * 3), min_size=2, max_size=12)


class TestReferenceEvaluation:
    """The loop over the shape gives the recursive walk's values, bits and error, sample index included."""

    @staticmethod
    def assert_matches(e, rows):
        python = [list(column) for column in zip(*rows)]
        for tree in (e, unshared(e)):
            want = bits_or_error(lambda: reference_evaluate(tree, python))
            for columns in (python, [np.array(column) for column in python]):
                assert bits_or_error(lambda: _column(_evaluate_columns(_shape(tree), columns), columns[0])) == want

    @given(shared_parses(expr_strategy()), GRID_ROWS)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_recursive_walk(self, e, rows):
        self.assert_matches(e, rows)

    @given(several_divisors(VARIABLES).map(lambda e: parse(to_string(e))), ZERO_ROWS)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_recursive_walk_where_zero_divisors_compete(self, e, rows):
        self.assert_matches(e, rows)

    @given(st.lists(VARIABLES, min_size=1, max_size=3), several_divisors(VARIABLES), ZERO_ROWS)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_recursive_walk_where_divisors_are_finished_before_their_product(self, first, e, rows):
        """Leading terms finish some of the product's entries first, so it folds them only later."""
        self.assert_matches(parse(" + ".join(map(to_string, [*first, e]))), rows)

    @staticmethod
    def assert_reports_sample_3(text, columns):
        e = parse(text)
        assert bits_or_error(lambda: reference_evaluate(e, columns)) == ("division by zero", 3)
        for container in (list, np.array):
            with pytest.raises(EvaluationError) as exc:
                _evaluate_columns(_shape(e), [container(column) for column in columns])
            assert (exc.value.message, exc.value.sample_index) == ("division by zero", 3)
        with pytest.raises(EvaluationError) as exc:
            evaluate_many(e, np.array(columns).T)
        assert str(exc.value) == "division by zero (sample 3)"

    def test_the_divisor_met_first_is_reported_not_the_one_finished_first(self):
        """x1/x2/(1/x3): the walk reads x2 before it enters 1/x3, so x2's zero at sample 3 is the
        error, though 1/x3, finished first in the order, has no value at sample 1."""
        columns = [[1.0] * 5, [1.0, 1.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 1.0, 1.0]]
        self.assert_reports_sample_3("x1/x2/(1/x3)", columns)

    def test_a_divisor_finished_elsewhere_is_reported_before_a_later_new_one(self):
        """x1 + x2 + x1/x2*(x3/x4): x1 and x2 are finished before the product, so the product's
        first entries wait for x3/x4, whose x4 has no value at sample 1; the walk divides by x2
        first, so x2's zero at sample 3 is the error."""
        columns = [[1.0] * 5, [1.0, 1.0, 1.0, 0.0, 1.0], [1.0] * 5, [1.0, 0.0, 1.0, 1.0, 1.0]]
        self.assert_reports_sample_3("x1 + x2 + x1/x2*(x3/x4)", columns)


class TestColumnsHeld:
    @pytest.mark.parametrize("factor", ["", "*(x1 - x2)"], ids=["unshared", "shared-difference"])
    def test_a_long_sum_holds_a_few_columns_not_one_per_term(self, factor):
        """Each product is folded into the sum once it is made, as the recursive walk did, so a sum
        of 40 products over 10^4 samples holds a few columns at once, not one per product. A shared
        (x1 - x2) in every product is held from its first reader to its last, one column more."""
        count = 10_000
        e = parse(" + ".join(f"{k}*x{k % 4 + 1}{factor}" for k in range(1, 41)))
        shape, columns = _shape(e), list(SampleDomain(n=4, radius=2.0, seed=0, count=count).samples().T.copy())
        tracemalloc.start()
        _evaluate_columns(shape, columns)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 5 * 8 * count


class TestSharedParsesAgree:
    """A parse that shares equal subtrees reads, bit for bit, as its rebuild with every path written out."""

    @given(shared_parses(expr_strategy()), GRID_ROWS)
    @settings(max_examples=150, deadline=None)
    def test_values_on_both_containers(self, e, rows):
        rebuilt = unshared(e)
        python = [list(column) for column in zip(*rows)]
        for columns in (python, [np.array(column) for column in python]):
            want = bits_or_error(lambda: _column(_evaluate_columns(_shape(rebuilt), columns), columns[0]))
            assert bits_or_error(lambda: _column(_evaluate_columns(_shape(e), columns), columns[0])) == want

    @given(shared_parses(expr_strategy()), SEEDS, COUNTS, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_differences_and_self_application(self, e, seed, count, python):
        rebuilt = unshared(e)
        dom = SampleDomain(n=3, radius=2.0, seed=seed, count=count)
        columns = dom._columns() if python else list(dom.samples().T.copy())
        directions = [[1.0, 1.0, -2.0], [-1.0, 1.0, -1.0]]
        assert bits_or_error(lambda: _fd_partials(_shape(e), columns, directions, DEFAULT_FD_STEP)) == \
            bits_or_error(lambda: _fd_partials(_shape(rebuilt), columns, directions, DEFAULT_FD_STEP))
        assert exact(_check_sampled_at(_shape(e), dom, columns).to_dict()) == \
            exact(_check_sampled_at(_shape(rebuilt), dom, columns).to_dict())


class TestNoColumnIsWritten:
    """The walk accumulates sums and products in place, but only in columns it made."""

    @given(expr_strategy(), SEEDS, COUNTS, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_the_cloud_and_the_diagonal_keep_their_bytes(self, e, seed, count, python):
        dom = SampleDomain(n=3, radius=2.0, seed=seed, count=count)
        columns = dom._columns() if python else list(dom.samples().T.copy())
        before = [bits(column) for column in columns]
        with contextlib.suppress(EvaluationError):
            y = _evaluate_columns(_shape(e), columns)
            y_before = bits(y)
            with contextlib.suppress(EvaluationError):
                _evaluate_columns(_shape(e), [y] * dom.n)
            assert bits(y) == y_before
        with contextlib.suppress(EvaluationError):
            _fd_partials(_shape(e), columns, [[1.0, 1.0, -2.0], [-1.0, 1.0, -1.0]], DEFAULT_FD_STEP)
        form = expand(e, 3)
        if form is not None:
            _poly_values(form, columns)
        assert [bits(column) for column in columns] == before

    @pytest.mark.parametrize("python", [True, False])
    @pytest.mark.parametrize("text, values", [
        ("x1 + x1 + x1", lambda y: 3.0 * y),  # x1 + x1 written into y would read 4y
        ("x1*x1*x1 - x1", lambda y: y * y * y - y),
        ("(x1 + x1)*(x1 + x1) + (x1 + x1)", lambda y: (y + y) * (y + y) + (y + y)),  # one shared x1 + x1
    ])
    def test_a_diagonal_of_one_column_is_read_only(self, text, values, python):
        """The diagonal [y] * n is one column n times, the first operand of every sum and product."""
        y = np.array([0.5, -1.5, 3.0, -0.0])
        column = y.tolist() if python else y.copy()
        e = parse(text)
        got = _evaluate_columns(_shape(e), [column] * 2)
        assert bits(column) == bits(y)
        assert bits(got) == bits(values(y))
