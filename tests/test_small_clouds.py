"""Small clouds on Python floats: the pure-Python Philox draw, the work bound
that picks the route, and reports equal to the numpy route's, bit for bit."""

import contextlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouroboros import (
    Add,
    Const,
    EvaluationError,
    Mul,
    PdeKind,
    PdeSpec,
    SampleDomain,
    Var,
    check_residual,
    check_sampled,
    check_system,
    core,
    evaluate_many,
    parse,
)
from ouroboros.core import SMALL_CLOUD_CELLS, _cloud, _philox_uniform
from ouroboros.expr import _evaluate_columns, _size_at_most
from ouroboros.pde import DEFAULT_FD_STEP, _fd_partials, _poly_values
from ouroboros.poly import expand

from test_expr import expr_strategy


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


class TestWorkBound:
    def test_counts_every_node(self):
        e = parse("(x1 + x2)/2 - -x3^2")  # Add, Mul, Add, x1, x2, 2, Neg, Pow, x3
        assert _size_at_most(e, 9)
        assert not _size_at_most(e, 8)
        assert _size_at_most(Var(1), 1) and not _size_at_most(Var(1), 0)

    def test_a_long_sum_is_refused_without_walking_its_terms(self):
        class Unwalkable(tuple):
            def __iter__(self):
                raise AssertionError("the terms were walked")

        long_sum = Add(((1, Var(1)), (1, Var(2))))
        object.__setattr__(long_sum, "terms", Unwalkable((1, Var(k)) for k in range(1, 301)))
        assert not _size_at_most(long_sum, 100)

    @pytest.mark.parametrize("text, n, count", [
        ("(x1 + x2)/2", 2, 64),  # the defaults and sizes of the acceptance commands
        ("x1^2", 2, 200),
        ("x1", 1, SMALL_CLOUD_CELLS // 2),  # on the bound: count * (n + 1 node)
    ])
    def test_small_clouds_take_python_floats(self, text, n, count):
        assert isinstance(_cloud(parse(text), SampleDomain(n=n, radius=2.0, seed=0, count=count)), list)

    @pytest.mark.parametrize("text, n, count", [
        ("x1", 1, SMALL_CLOUD_CELLS // 2 + 1),
        ("x1", 1, 100_000),
        (" + ".join(f"{k}*x{k % 4 + 1}^2" for k in range(1, 301)), 4, 200),  # a symbolic-pde size
    ])
    def test_large_clouds_take_numpy(self, text, n, count):
        assert isinstance(_cloud(parse(text), SampleDomain(n=n, radius=2.0, seed=0, count=count)), np.ndarray)


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
        for by_numpy, by_python in (
            (lambda: evaluate_many(e, points), lambda: _evaluate_columns(e, columns)),
            (lambda: _fd_partials(e, points, directions, DEFAULT_FD_STEP),
             lambda: _fd_partials(e, columns, directions, DEFAULT_FD_STEP)),
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
            assert bits(_poly_values(form, columns)) == bits(_poly_values(form, points))

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
