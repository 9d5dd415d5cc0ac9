"""Command line behaviour: envelopes, exit codes, config merging, schema."""

import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

from ouroboros import cli
from ouroboros.cli import build_parser, main, parse_fractions
from ouroboros.core import LinearForm, SampleDomain
from ouroboros.explorer import ExplorationConfig
from ouroboros.expr import MAX_DEPTH
from ouroboros.pde import DEFAULT_FD_STEP
from test_acceptance import DETERMINISM_COMMANDS

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def assert_valid(envelope):
    errors = list(VALIDATOR.iter_errors(envelope))
    assert not errors, errors[:2]


class TestFractionParsing:
    def test_fraction_decimal_and_scientific_forms(self):
        from fractions import Fraction
        got = parse_fractions("1/2, 0.25, 2.5e-1", "test")
        assert got == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]

    def test_bad_tokens_are_rejected(self):
        from ouroboros.cli import InputError
        with pytest.raises(InputError):
            parse_fractions("1/2,,3", "test")
        with pytest.raises(InputError):
            parse_fractions("pi", "test")

    @pytest.mark.parametrize("text", ["inf", "Infinity", "-inf", "nan", "1_", "_1", "1__0"])
    def test_what_python_numbers_refuse_is_rejected(self, text):
        """Non-finite words and stray underscores are not numbers."""
        from ouroboros.cli import InputError
        with pytest.raises(InputError, match="cannot read"):
            parse_fractions(text, "test")

    @pytest.mark.parametrize("argv", [
        ["check", "--coeffs", "inf,1"],
        ["check", "--coeffs", "Infinity,1"],
        ["expect", "--values", "inf,1", "--probs", "1/2,1/2"],
    ])
    def test_infinity_is_bad_input(self, capsys, argv):
        assert main(argv) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_exponents_of_four_digits_read_exactly(self):
        from fractions import Fraction
        got = parse_fractions("1e9999, 1e-9999, 1e0000000000000002, 1_0e1_0", "test")
        assert got == [Fraction(10**9999), Fraction(1, 10**9999), Fraction(100), Fraction(10**11)]

    @pytest.mark.parametrize("text", ["1e10000", "1e-10000", "2.5E+123456", "1e1_0000", "1e999999999999"])
    def test_an_exponent_of_five_digits_is_rejected(self, text):
        from ouroboros.cli import InputError
        with pytest.raises(InputError, match="more than four digits"):
            parse_fractions(f"1/2,{text}", "test")

    def test_a_huge_exponent_is_bad_input_without_a_stall(self, tmp_path):
        """Every reader of exact numbers refuses it at once; a stall fails within the timeout."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"values": "1,1e999999999999"}))
        script = (
            "from ouroboros.cli import main\n"
            "for argv in (['check', '--coeffs', '1e999999999999,1'],\n"
            "             ['check', '--coeffs', '1e-999999999999,1'],\n"
            "             ['pde', '--coeffs', '1e999999999999,1', '--equation', 'II'],\n"
            "             ['expect', '--values', '1e-999999999999,1', '--probs', '1/2,1/2'],\n"
            "             ['expect', '--values', '0,1', '--probs', '1e999999999999,1'],\n"
            f"             ['expect', '--probs', '1/2,1/2', '--config', {str(config)!r}]):\n"
            "    assert main(argv) == 2, argv\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.count("more than four digits") == 6

    def test_exact_sums_past_the_integer_printing_limit_are_printed_in_full(self):
        """Past 4300 digits str() of an int raises; the interpreter's limit is left as it was."""
        script = (
            "import json, sys\n"
            "from ouroboros.cli import main\n"
            "limit = sys.get_int_max_str_digits()\n"
            "for argv in (['check', '--coeffs', '1e-5000,1'],\n"
            "             ['expect', '--values', '1e-5000,1', '--probs', '1/2,1/2']):\n"
            "    assert main(argv) == 0, argv\n"
            "    assert sys.get_int_max_str_digits() == limit\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        decoder, text = json.JSONDecoder(), proc.stdout
        check, end = decoder.raw_decode(text)
        expect, _ = decoder.raw_decode(text, end + 1)
        power = "1" + "0" * 5000  # 10^5000
        assert check["result"]["coefficient_sum_exact"] == f"{'1' + '0' * 4999 + '1'}/{power}"
        assert check["manifest"]["config"]["coeffs"] == [f"1/{power}", "1"]
        assert expect["manifest"]["config"]["values"] == [f"1/{power}", "1"]
        assert expect["result"]["probability_sum_exact"] == "1"


class TestCheckCommand:
    def test_exact_fractions_hold_with_exit_zero(self, capsys):
        code, doc = run_main(capsys, ["check", "--coeffs", "1/2,1/3,1/6"])
        assert code == 0
        assert_valid(doc)
        assert doc["result"]["report"]["verdict"] == "holds_exact"
        assert doc["result"]["coefficient_sum_exact"] == "1"

    def test_exact_fraction_sum_survives_float_rounding(self, capsys):
        """These floats sum a hair under 1, yet the fraction route knows better."""
        code, doc = run_main(capsys, ["check", "--coeffs", "17/28,5/56,17/56"])
        assert code == 0
        assert doc["result"]["coefficient_sum_exact"] == "1"
        assert doc["result"]["coefficient_sum"] == 0.9999999999999999

    def test_coefficients_are_checked_without_a_tree(self, capsys, monkeypatch):
        def refuse(form):
            raise AssertionError("check --coeffs built an expression tree")

        monkeypatch.setattr(LinearForm, "to_expr", refuse)
        code, doc = run_main(capsys, ["check", "--coeffs", "1/2,1/3,1/6"])
        assert code == 0
        assert doc["result"]["report"]["verdict"] == "holds_exact"

    def test_failing_coefficients_exit_one(self, capsys):
        code, doc = run_main(capsys, ["check", "--coeffs", "0.6,0.6"])
        assert code == 1
        assert_valid(doc)
        assert doc["result"]["report"]["verdict"] == "fails"

    def test_expression_route(self, capsys):
        code, doc = run_main(capsys, ["check", "--expr", "(x1 + x2)/2", "--samples", "40"])
        assert code == 0
        assert_valid(doc)
        assert doc["result"]["mode"] == "sampled"
        assert doc["result"]["report"]["samples_used"] == 40

    def test_square_fails_on_samples(self, capsys):
        code, doc = run_main(capsys, ["check", "--expr", "x1^2"])
        assert code == 1
        assert doc["result"]["report"]["verdict"] == "fails"

    def test_parse_errors_exit_two(self, capsys):
        code = main(["check", "--expr", "x1 + )"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_needs_exactly_one_input_route(self, capsys):
        assert main(["check"]) == 2
        assert main(["check", "--coeffs", "1", "--expr", "x1"]) == 2

    def test_coefficients_beyond_the_float_range_are_bad_input(self, capsys):
        assert main(["check", "--coeffs", "1e400"]) == 2
        assert "too large for a float" in capsys.readouterr().err

    @pytest.mark.parametrize("coeffs,total", [("1e308,1e308", None), ("1e308,1e308,-1e308", 1e308)])
    def test_a_sum_past_the_float_range_fails(self, capsys, coeffs, total):
        """Finite coefficients get a verdict; only a sum that is itself too large is null."""
        code, doc = run_main(capsys, ["check", "--coeffs", coeffs])
        assert code == 1
        assert_valid(doc)
        assert doc["result"]["coefficient_sum"] == total
        assert doc["result"]["report"]["verdict"] == "fails"
        assert doc["result"]["report"]["max_deviation"] == total
        assert doc["result"]["report"]["witness"][0] == 1.0  # at the largest coefficient

    def test_constant_expression_needs_explicit_dimension(self, capsys):
        assert main(["check", "--expr", "3"]) == 2
        code, doc = run_main(capsys, ["check", "--expr", "3", "--n", "2"][:5])
        assert code == 0

    def test_coefficients_are_checked_in_the_given_dimension(self, capsys):
        code, doc = run_main(capsys, ["check", "--coeffs", "1/2,1/2", "--n", "5"])
        assert code == 0
        assert_valid(doc)
        assert doc["result"]["n"] == 5 and doc["manifest"]["config"]["n"] == 5
        code, doc = run_main(capsys, ["check", "--coeffs", "1/2,1/2"])
        assert doc["result"]["n"] == 2

    @pytest.mark.parametrize("command", [["check"], ["pde", "--equation", "II"]])
    @pytest.mark.parametrize("n,message", [
        ("0", "error: --n must be at least 1, got 0"),
        ("-3", "error: --n must be at least 1, got -3"),
        ("1", "error: --n 1 is below the 2 entries of --coeffs"),
    ])
    def test_a_dimension_the_form_does_not_fit_is_bad_input(self, capsys, command, n, message):
        assert main([*command, "--coeffs", "1/2,1/2", f"--n={n}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == message

    @pytest.mark.parametrize("command", [["check"], ["pde", "--equation", "II"]])
    def test_a_dimension_below_one_is_named_for_an_expression(self, capsys, command):
        assert main([*command, "--expr", "3", "--n", "0"]) == 2
        assert capsys.readouterr().err.strip() == "error: --n must be at least 1, got 0"


class TestPdeCommand:
    def test_equation_one_with_beta(self, capsys):
        code, doc = run_main(
            capsys, ["pde", "--coeffs", "1/4,1/4,1/4,1/4", "--equation", "I", "--beta", "4"]
        )
        assert code == 0
        assert_valid(doc)
        assert doc["result"]["report"]["symbolic_zero"] is True

    def test_equation_one_requires_beta(self, capsys):
        assert main(["pde", "--expr", "x1", "--equation", "I"]) == 2

    def test_equation_two_forbids_beta(self, capsys):
        assert main(["pde", "--expr", "x1", "--equation", "II", "--beta", "1", "--n", "2"]) == 2

    def test_failing_residual_exits_one(self, capsys):
        code, doc = run_main(capsys, ["pde", "--expr", "x1^2", "--equation", "II", "--n", "2"])
        assert code == 1
        assert_valid(doc)
        assert doc["result"]["passes"] is False

    def test_system_check(self, capsys):
        code, doc = run_main(
            capsys, ["pde", "--coeffs", "1/4,1/4,1/4,1/4", "--equation", "system"]
        )
        assert code == 0
        assert_valid(doc)
        assert doc["result"]["report"]["all_hold"] is True
        assert doc["result"]["report"]["ouroboros"]["verdict"] == "holds_exact"

    @pytest.mark.parametrize("difference, code", [("x1-x3", 0), ("x1-x2", 1)])
    def test_a_non_polynomial_solution_passes_the_system(self, capsys, difference, code):
        """mean + xi * H(mean) solves the system for an invariant difference xi, x1 - x3 at n = 4;
        it has no polynomial normal form, so only the sampled bounds decide."""
        expr = f"(x1+x2+x3+x4)/4 + ({difference})/(1+((x1+x2+x3+x4)/4)^2)"
        got, doc = run_main(capsys, ["pde", "--equation", "system", "--n", "4", "--expr", expr])
        assert_valid(doc)
        assert doc["result"]["report"]["eq1"]["symbolic_zero"] is False
        assert doc["result"]["passes"] is (code == 0)
        assert got == code

    @pytest.mark.parametrize("equation", [["I", "--beta", "2"], ["system"]])
    @pytest.mark.parametrize("tol, code", [([], 0), (["--tol", "1e-15"], 1)])
    def test_the_verdict_reads_tol(self, capsys, equation, tol, code):
        """A residual of 2e-10 passes the default 1e-9 and fails 1e-15, in both modes."""
        argv = ["pde", "--expr", "(x1+x2)/2 + 0.0000000001*(x1 - x2)", "--n", "2", "--equation", *equation, *tol]
        got, doc = run_main(capsys, argv)
        assert_valid(doc)
        assert doc["result"]["passes"] is (code == 0)
        if "system" in equation:
            assert doc["result"]["report"]["all_hold"] is (code == 0)
        assert got == code

    def test_cancelling_residual_is_symbolically_zero(self, capsys):
        code, doc = run_main(capsys, ["pde", "--expr", "(x1+x2)^2", "--equation", "II"])
        assert code == 0
        assert_valid(doc)
        assert doc["result"]["report"]["symbolic_zero"] is True

    @pytest.mark.parametrize(
        "expr, radius, code",
        [("1e-14*x1^40", "2", 1), ("1e-13*x1^2", "1e6", 1), ("1e-13*x1^2", "2", 0)],
    )
    def test_tiny_coefficients_are_not_a_symbolic_zero(self, capsys, expr, radius, code):
        """The residual is small in its coefficients, not on the samples; only the
        sampled bound, against --tol, may pass it."""
        argv = ["pde", "--expr", expr, "--equation", "II", "--n", "2", "--radius", radius]
        got, doc = run_main(capsys, argv)
        assert doc["result"]["report"]["symbolic_zero"] is False
        assert doc["result"]["report"]["residual_constant"] is None
        assert got == code

    @pytest.mark.parametrize("expr, n", [
        ("1e308*x1-1e308*x2", "2"),  # residual -2e308, a constant past the float range
        ("1e308*x1^2-1e308*x2^2", "2"),  # residual -2e308*(x1 + x2)
        ("1e308*x1+1e308*x2+1e300*x3", "4"),  # residual -1e300, its sign-free size past the range
    ])
    def test_an_overflowing_residual_is_not_round_off(self, capsys, expr, n):
        code, doc = run_main(capsys, ["pde", "--expr", expr, "--equation", "II", "--n", n])
        assert_valid(doc)
        assert doc["result"]["report"]["symbolic_zero"] is False
        assert code == 1

    @pytest.mark.parametrize("u", [["--expr", "1e308*x1+1e308*x2"], ["--coeffs", "1e308,1e308"]])
    def test_a_residual_whose_float_sums_overflow_is_decided_exactly(self, capsys, u):
        """The residual 1e308 + 1e308 - 2*1e308 is exactly 0, on the normal form as on the coefficients."""
        code, doc = run_main(capsys, ["pde", *u, "--equation", "I", "--beta", "2", "--n", "2"])
        assert_valid(doc)
        report = doc["result"]["report"]
        assert (report["symbolic_zero"], report["residual_constant"]) == (True, 0.0)
        assert code == 0

    @pytest.mark.parametrize("argv, code, constant", [
        (["--coeffs", "1e308,1e308", "--equation", "I", "--beta", "2"], 0, 0.0),  # residual 0
        (["--coeffs", "1e308,-1e308", "--equation", "II"], 1, None),  # residual -2e308, printed as null
    ])
    def test_linear_forms_past_the_float_range_are_decided_exactly(self, capsys, argv, code, constant):
        got, doc = run_main(capsys, ["pde", *argv])
        assert_valid(doc)
        report = doc["result"]["report"]
        assert report["symbolic_zero"] is (code == 0)
        assert report["residual_constant"] == constant
        assert (report["samples_used"], report["max_abs_residual_fd"]) == (0, None)
        assert got == code

    def test_quotient_residual_is_sampled_only(self, capsys):
        code, doc = run_main(capsys, ["pde", "--expr", "x1/x2", "--equation", "II"])
        assert code == 1
        assert_valid(doc)
        assert doc["result"]["report"]["symbolic_zero"] is False
        assert "sampled" in doc["result"]["report"]["note"]

    def test_coefficients_beyond_the_float_range_are_bad_input(self, capsys):
        assert main(["pde", "--coeffs", "1e400,1", "--equation", "II"]) == 2
        assert "too large for a float" in capsys.readouterr().err

    def test_crash_exits_three_with_one_line(self, capsys, monkeypatch):
        """An exception escaping a handler is a crash: exit 3, one line however long the message."""
        def crash(args):
            raise RecursionError("maximum recursion depth exceeded\n  while walking a tree")

        monkeypatch.setattr(cli, "_run_pde", crash)
        code = main(["pde", "--coeffs", "1/2,1/2", "--equation", "II"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal error: RecursionError: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("expr,equation,where", [
        ("1/(x1-x1)", "II", "(sample 0)"),
        ("1/(x1-x1)", "system", "(sample 0)"),
        ("1/x1", "system", "at the origin"),
    ])
    def test_zero_divisor_is_bad_input(self, capsys, expr, equation, where):
        """A u without a value where the check needs one exits 2 with one line, not 3."""
        assert main(["pde", "--expr", expr, "--equation", equation, "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: u cannot be evaluated: division by zero")
        assert captured.err.rstrip("\n").endswith(where)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["check", "--expr", "1/(x1-x1)"],
        ["check", "--expr", "x1^400", "--radius", "10"],
        ["pde", "--expr", "1/(x1-x1)", "--equation", "II", "--n", "2"],
    ])
    def test_an_undefined_candidate_is_unusable_input_for_both_commands(self, capsys, argv):
        """Exit 2 with one diagnostic line; check still prints its envelope, with verdict error."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: u cannot be evaluated: ") and captured.err.count("\n") == 1
        if argv[0] == "check":
            doc = json.loads(captured.out)
            assert_valid(doc)
            assert doc["result"]["report"]["verdict"] == "error"
        else:
            assert captured.out == ""

    def test_zero_divisor_met_only_by_a_finite_difference_names_the_sample(self, capsys):
        """The pole sits at one sample's x1 + h, the finite-difference step; nowhere else."""
        sample = 137
        cloud = SampleDomain(n=2, radius=2.0, seed=0, count=200).samples()  # the pde defaults
        pole = float(cloud[sample, 0] + DEFAULT_FD_STEP)
        assert main(["pde", "--expr", f"1/(x1 - ({pole!r}))", "--equation", "II", "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: u cannot be evaluated: division by zero (sample {sample})\n"

    def test_system_rejects_beta(self, capsys):
        assert main(["pde", "--coeffs", "1/2,1/2", "--equation", "system", "--beta", "2"]) == 2


def nested_to_the_limit() -> str:
    """A non-polynomial u nested exactly MAX_DEPTH levels deep: each level adds a
    parenthesis and a unary minus, and squares the level inside it."""
    text = "x1"
    for _ in range(MAX_DEPTH // 2):
        text = f"(-{text}^2/8 + x2/2)"
    return f"{text}/(1 + x1^2)"


class TestDeepInputs:
    """Long sums and products get an answer; nesting past the limit is bad input."""

    @pytest.mark.parametrize("argv", [
        ["check", "--expr", " + ".join(f"x{k % 2 + 1}/1200" for k in range(1200))],
        ["check", "--expr", "x1" + "*2/2" * 600],
        ["pde", "--expr", " + ".join(f"x{k % 2 + 1}/600" for k in range(600)), "--equation", "II"],
        # decided on the coefficients: no sample cloud, no finite differences, no normal form
        ["pde", "--coeffs", ",".join(["1/1500"] * 1500), "--equation", "II", "--samples", "5"],
    ], ids=["check-1200-term-sum", "check-1201-factor-product", "pde-600-term-sum", "pde-1500-coeffs"])
    def test_long_inputs_get_an_answer(self, capsys, argv):
        code, doc = run_main(capsys, argv)
        assert code == 0
        assert_valid(doc)

    @pytest.mark.parametrize("equation", [None, "II", "system"])
    def test_nesting_at_the_limit_gets_an_answer(self, capsys, equation):
        u = nested_to_the_limit()
        argv = ["check", "--expr", u] if equation is None else ["pde", "--expr", u, "--equation", equation]
        code, doc = run_main(capsys, argv)
        assert code in (0, 1)
        assert_valid(doc)
        assert doc["result"]["expression"] == u

    @pytest.mark.parametrize("text", [
        "(" * 300 + "x1" + ")" * 300,
        "(" + nested_to_the_limit() + ")",
        "-" * (MAX_DEPTH + 1) + "x1",
    ], ids=["300-parentheses", "one-past-the-limit", "minus-run"])
    def test_nesting_past_the_limit_is_bad_input(self, capsys, text):
        assert main(["check", f"--expr={text}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expression nested too deeply" in captured.err
        assert captured.err.count("\n") == 1


class TestNonFiniteResults:
    @pytest.mark.parametrize("argv", [
        ["check", "--expr", "1/(x1-x1)", "--n", "1"],
        ["pde", "--expr", "x1^400", "--equation", "II", "--n", "2", "--radius", "10"],
        ["pde", "--expr", "x1 - x2 + 1e200*1e200", "--equation", "system", "--n", "2"],
    ])
    def test_are_written_as_null(self, argv):
        """Output is JSON under RFC 8259 (no NaN or Infinity), and numpy warns of nothing.

        check's verdict ``error`` is unusable input: exit 2, one diagnostic line."""
        proc = subprocess.run(
            [sys.executable, "-m", "ouroboros", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        if argv[0] == "check":
            assert proc.returncode == 2
            assert proc.stderr == "error: u cannot be evaluated: division by zero (sample 0)\n"
        else:
            assert proc.returncode == 1
            assert proc.stderr == ""
        doc = json.loads(proc.stdout, parse_constant=refuse)
        assert_valid(doc)
        report = doc["result"]["report"]
        if argv[0] == "check":
            assert report["max_deviation"] is None
        elif argv[-3] == "system":
            assert report["origin_value"] is None and report["ouroboros"]["max_deviation"] is None
        else:
            assert report["max_abs_residual"] is None and report["max_abs_residual_fd"] is None


class TestHugeRadius:
    ARGV = (
        ["check", "--expr", "x1"],
        ["pde", "--expr", "x1", "--equation", "II", "--n", "2"],
        ["explore", "--n", "2", "--degree", "1", "--starts", "1"],
    )

    @pytest.mark.parametrize("argv", ARGV)
    def test_a_box_wider_than_the_float_range_is_bad_input(self, capsys, argv):
        """A radius above half the largest float makes 2r overflow: exit 2 and one line, no envelope."""
        assert main([*argv, "--radius", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: radius must be at most half the largest float, got 1e+308\n"

    @pytest.mark.parametrize("argv, code", zip(ARGV, (0, 1, 0)))
    def test_the_widest_box_still_runs(self, capsys, argv, code):
        got, doc = run_main(capsys, [*argv, "--radius", "8.9e307"])
        assert got == code
        assert_valid(doc)


class TestExpectCommand:
    def test_values_beyond_the_float_range_are_bad_input(self, capsys):
        assert main(["expect", "--values", "1e400", "--probs", "1"]) == 2
        assert "too large for a float" in capsys.readouterr().err

    def test_expectation_holds(self, capsys):
        code, doc = run_main(
            capsys, ["expect", "--values", "1,2,3", "--probs", "1/5,3/10,1/2"]
        )
        assert code == 0
        assert_valid(doc)
        assert doc["result"]["report"]["deviation"] == 0.0
        assert doc["result"]["probability_sum_exact"] == "1"

    def test_bad_probabilities_exit_two(self, capsys):
        assert main(["expect", "--values", "1,2", "--probs", "0.5,0.6"]) == 2

    def test_an_expectation_beyond_the_float_range_is_bad_input(self, capsys):
        """Each value and probability is a float, and the probabilities sum to 1 within
        tolerance, but E[X] overflows: bad input (exit 2), not an internal error (exit 3)."""
        largest = "1.7976931348623157e308"
        assert main(["expect", "--values", f"{largest},{largest}", "--probs", "0.5,0.5000000000001"]) == 2
        assert "expectation lies beyond the float range" in capsys.readouterr().err


class TestExploreCommand:
    def test_small_search_with_csv(self, capsys, tmp_path):
        out = tmp_path / "runs.csv"
        code, doc = run_main(
            capsys,
            ["explore", "--n", "2", "--degree", "1", "--starts", "3",
             "--seed", "4", "--samples", "60", "--csv", str(out)],
        )
        assert code == 0
        assert_valid(doc)
        assert doc["result"]["counts"]["mean_like"] == 3
        assert doc["result"]["solution_set"]["dimension"] == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[0]["classification"] == "mean_like"
        assert rows[0]["solver_status"] in {"1", "2", "3"}
        assert "init" not in rows[0]

    @pytest.mark.parametrize("argv, nulls", [
        (["--degree", "30"], {"objective", "residual_ouroboros"}),
        (["--degree", "3", "--radius", "1e120"], {"objective", "residual_eq1", "residual_eq2", "residual_ouroboros"}),
    ])
    def test_an_overflowing_search_reports_without_warnings(self, capsys, argv, nulls):
        """The objective overflows to inf and nan; numpy raises no RuntimeWarning (an error
        under the test settings), the run reads not converged, and the overflowed values
        are null in a report the schema accepts."""
        code, doc = run_main(capsys, ["explore", "--n", "2", "--starts", "1", *argv])
        assert code == 0
        assert_valid(doc)
        (run,) = doc["result"]["runs"]
        assert run["classification"] == "non_converged"
        assert run["solver_status"] == 0
        assert {key for key, value in run.items() if value is None} == nulls

    @pytest.mark.parametrize("where", ["config", "run"])
    def test_the_schema_refuses_a_start_setting(self, capsys, where):
        code, doc = run_main(capsys, ["explore", "--n", "2", "--degree", "1", "--starts", "1"])
        assert code == 0
        assert_valid(doc)
        target = doc["result"]["config"] if where == "config" else doc["result"]["runs"][0]
        target["init"] = "random"
        assert not VALIDATOR.is_valid(doc)

    def test_every_degree_reports_the_exact_solution_set(self, capsys):
        code, doc = run_main(
            capsys, ["explore", "--n", "4", "--degree", "2", "--starts", "2", "--samples", "60"]
        )
        assert code == 0
        assert_valid(doc)
        exact = doc["result"]["solution_set"]
        assert (exact["n"], exact["degree"], exact["dimension"]) == (4, 2, 3)
        assert exact["particular"][:5] == ["0", "1/4", "1/4", "1/4", "1/4"]

    def test_odd_dimension_exits_two(self, capsys):
        assert main(["explore", "--n", "3", "--degree", "1"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tol_is_bad_input(self, capsys, value):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["explore", "--n", "2", "--degree", "1", "--starts", "1", "--tol", value])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1

    def test_requires_dimension_and_degree(self, capsys):
        assert main(["explore", "--degree", "1"]) == 2
        assert main(["explore", "--n", "2"]) == 2

    def test_options_are_the_config_fields_and_carry_no_defaults(self):
        """Each explore setting is declared once: its default lives in ExplorationConfig."""
        names = [opt.name for opt in cli._EXPLORE_OPTIONS if opt.name != "csv"]
        assert names == list(ExplorationConfig._fields)
        assert [opt.default for opt in cli._EXPLORE_OPTIONS] == [None] * len(cli._EXPLORE_OPTIONS)


class TestConfigMerging:
    def test_file_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 33, "seed": 9}))
        code, doc = run_main(
            capsys, ["check", "--expr", "(x1 + x2)/2", "--config", str(cfg)]
        )
        assert code == 0
        assert doc["manifest"]["config"]["samples"] == 33
        assert doc["manifest"]["config"]["seed"] == 9

        code, doc = run_main(
            capsys,
            ["check", "--expr", "(x1 + x2)/2", "--config", str(cfg), "--seed", "4"],
        )
        assert doc["manifest"]["config"]["seed"] == 4
        assert doc["manifest"]["config"]["samples"] == 33

    def test_unknown_keys_are_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["check", "--expr", "x1", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("values", [{"weight_eq1": 2}, {"init": "mean"}, {"init": "sideways"}])
    def test_removed_explore_settings_are_unknown_keys(self, capsys, tmp_path, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main(["explore", "--n", "2", "--degree", "1", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown config keys: {next(iter(values))}\n"

    def test_unreadable_or_malformed_files_exit_two(self, capsys, tmp_path):
        assert main(["check", "--expr", "x1", "--config", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--expr", "x1", "--config", str(bad)]) == 2

    def test_flags_and_config_keys_are_the_same_names(self, capsys, tmp_path):
        """Every flag is a config key and no other key is, for each subcommand."""
        [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {
            command: {a.dest for a in sub._actions} - {"help", "config"}
            for command, sub in subparsers.choices.items()
        }
        assert dests["version"] == set()
        assert "--config" not in subparsers.choices["version"].format_help()
        candidates = set().union(*dests.values()) | {"config", "bogus"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict.fromkeys(candidates)))
        for command in ("check", "pde", "expect", "explore"):
            assert main([command, "--config", str(cfg)]) == 2
            listed = capsys.readouterr().err.split("unknown config keys: ")[1].strip().split(", ")
            assert set(listed) == candidates - dests[command], command

    @pytest.mark.parametrize("argv", [a for a in DETERMINISM_COMMANDS if len(a) > 1], ids=" ".join)
    def test_a_file_with_the_flag_values_gives_the_same_report(self, capsys, tmp_path, argv):
        def as_json(text):
            try:
                return json.loads(text)
            except json.JSONDecodeError:
                return text

        flags = dict(zip(argv[1::2], argv[2::2]))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): as_json(text) for flag, text in flags.items()}))
        results = []
        for command in (argv, [argv[0], "--config", str(cfg)]):
            code = main(command)
            out = capsys.readouterr().out
            results.append((code, [line for line in out.splitlines() if '"timestamp"' not in line]))
        assert results[0] == results[1]

    @pytest.mark.parametrize("argv, values", [
        (["pde", "--expr", "x1"], {"equation": "III"}),
        (["check"], {"coeffs": [0.5, 0.5]}),
        (["check", "--expr", "(x1 + x2)/2"], {"seed": 1.5}),
        (["check", "--expr", "(x1 + x2)/2"], {"seed": True}),
    ])
    def test_a_value_its_flag_would_refuse_is_bad_input(self, capsys, tmp_path, argv, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert main([*argv, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_text_is_read_as_its_flag_reads_it(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "4"}))
        argv = ["check", "--expr", "(x1 + x2)/2"]
        _, by_flag = run_main(capsys, [*argv, "--n", "4"])
        _, by_file = run_main(capsys, [*argv, "--config", str(cfg)])
        by_flag["manifest"].pop("timestamp")
        by_file["manifest"].pop("timestamp")
        assert by_file == by_flag
        assert by_file["manifest"]["config"]["n"] == 4

    def test_null_means_not_given(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": None, "seed": None}))
        code, doc = run_main(capsys, ["check", "--expr", "(x1 + x2)/2", "--config", str(cfg)])
        assert code == 0
        assert doc["manifest"]["config"]["samples"] == 200
        assert doc["manifest"]["seed"] == 0


class TestTolerance:
    @pytest.mark.parametrize("argv", [
        ["check", "--coeffs", "0.6,0.6"],
        ["check", "--expr", "x1^2", "--n", "1"],
        ["pde", "--expr", "x1^2", "--equation", "II", "--n", "2"],
    ])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_a_tolerance_that_is_not_finite_and_non_negative_is_bad_input(
        self, capsys, tmp_path, argv, tol, via
    ):
        """Each of these fails on a sound tolerance; NaN or inf used to change or hide that."""
        if via == "flag":
            argv = [*argv, f"--tol={tol}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"tol": tol}))
            argv = [*argv, "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and non-negative" in captured.err


class TestNegativeNumbers:
    """A value that starts with "-", a number in exponent form included, is a value for its flag, not a flag."""

    @pytest.mark.parametrize("argv, code, field, value", [
        (["check", "--coeffs", "-1/2,3/2"], 0, "coefficients", [-0.5, 1.5]),
        (["pde", "--coeffs", "-1/2,3/2", "--equation", "II"], 1, "expression", "-0.5*x1 + 1.5*x2"),
        (["expect", "--values", "-1,2", "--probs", "1/2,1/2"], 0, "values", [-1.0, 2.0]),
        (["check", "--expr", "-x1+2*x2"], 0, "expression", "-x1 + 2*x2"),
    ])
    def test_a_leading_minus_reaches_the_check(self, capsys, argv, code, field, value):
        """The value is read with its sign; the pde residual is -(-1/2) + 3/2 = 2, so it fails."""
        got, doc = run_main(capsys, argv)
        assert (got, doc["result"][field]) == (code, value)

    def test_help_is_still_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ouroboros check")

    def test_a_flag_without_its_value_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--coeffs"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "--expr", "x1", "--tol", "-1e-3"],
        ["pde", "--expr", "x1", "--equation", "II", "--n", "1", "--radius", "-1e-3"],
    ])
    def test_reaches_the_value_check(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert captured.err.rstrip().endswith("got -0.001")

    @pytest.mark.parametrize("text", ["-1e-3", "-.5e2", "-1E+2", "-2.", "-3", "-inf", "-Infinity"])
    def test_parses_as_the_flag_value(self, text):
        args = build_parser().parse_args(["explore", "--tol", text])
        assert args.tol == float(text)


class TestEnvelope:
    def test_repeat_runs_differ_only_in_the_timestamp(self, capsys):
        _, first = run_main(capsys, ["check", "--coeffs", "1/2,1/2"])
        _, second = run_main(capsys, ["check", "--coeffs", "1/2,1/2"])
        first["manifest"].pop("timestamp")
        second["manifest"].pop("timestamp")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_keys_are_sorted_in_the_raw_output(self, capsys):
        main(["version"])
        raw = capsys.readouterr().out
        assert raw.index('"manifest"') < raw.index('"result"')
        assert raw == json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n"

    def test_version_envelope(self, capsys):
        code, doc = run_main(capsys, ["version"])
        assert code == 0
        assert_valid(doc)
        from ouroboros import __version__
        assert doc["result"]["version"] == __version__

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestInstalledEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ouroboros", "version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert_valid(json.loads(proc.stdout))

    def test_no_command_loads_scipy(self):
        """No subcommand, explore's search included, and not the exact solution set, imports scipy."""
        script = (
            "import sys, ouroboros, ouroboros.cli\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            "assert ouroboros.solution_set(8, 3).dimension == 80\n"
            "assert 'scipy' not in sys.modules, 'solution_set'\n"
            "from ouroboros.cli import main\n"
            "for argv in (['check', '--coeffs', '1/2,1/2'], ['check', '--expr', 'x1'],\n"
            "             ['pde', '--coeffs', '1/2,1/2', '--equation', 'system'],\n"
            "             ['expect', '--values', '1,2', '--probs', '1/2,1/2'], ['version'],\n"
            "             ['explore', '--n', '4', '--degree', '2', '--starts', '2']):\n"
            "    assert main(argv) == 0, argv\n"
            "    assert 'scipy' not in sys.modules, argv\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert proc.returncode == 0, proc.stderr

    def test_console_script_round_trip(self, tmp_path):
        """The declared `ouroboros` console script runs by name and exits with main()'s code.

        The launcher is the one pip writes for a `[project.scripts]` entry, so
        the test needs no install and never picks up some other `ouroboros`
        that happens to be on PATH.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        from importlib.metadata import EntryPoint

        root = Path(__file__).resolve().parent.parent
        with (root / "pyproject.toml").open("rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        entry = EntryPoint(name="ouroboros", value=scripts["ouroboros"], group="console_scripts")

        launcher = tmp_path / entry.name
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({entry.attr}())\n"
        )
        launcher.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

        def run(coeffs):
            return subprocess.run(
                [entry.name, "check", "--coeffs", coeffs],
                capture_output=True,
                text=True,
                env=env,
            )

        proc = run("1/2,1/2")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert_valid(doc)
        assert doc["manifest"]["command"] == "check"
        assert doc["result"]["report"]["verdict"] == "holds_exact"

        proc = run("1/2,1/3")
        assert proc.returncode == 1, proc.stderr
        doc = json.loads(proc.stdout)
        assert_valid(doc)
        assert doc["result"]["report"]["verdict"] == "fails"
