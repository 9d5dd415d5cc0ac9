"""The package's import surface: what loads numpy, and what its public names are.

Each check runs in a fresh interpreter, so that no other test has imported
numpy or resolved a lazily served name first.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (argv, exit code) of the commands that decide exactly
EXACT_COMMANDS = (
    (["check", "--coeffs", "1/2,1/3,1/6"], 0),
    (["check", "--coeffs", "0.6,0.6"], 1),
    (["check", "--coeffs", "1e308,1e308,-1e308"], 1),
    (["pde", "--coeffs", "1/4,1/4,1/4,1/4", "--equation", "I", "--beta", "4"], 0),
    (["pde", "--coeffs", "0.7,0.3,0.1,0.5", "--equation", "II"], 0),
    (["pde", "--coeffs", "1/2,1/2", "--equation", "system"], 0),
    (["pde", "--coeffs", "1/2,1/2", "--equation", "system", "--n", "4"], 1),  # zero-padded: fails I
    (["expect", "--values", "1,2,3", "--probs", "1/5,3/10,1/2"], 0),
    (["version"], 0),
)

# (argv, exit code) of sampled commands whose clouds are small enough for Python floats
SMALL_CLOUD_COMMANDS = (
    (["check", "--expr", "(x1 + x2)/2", "--samples", "64", "--seed", "3"], 0),
    (["pde", "--expr", "x1^2", "--equation", "II", "--n", "2"], 1),
    (["pde", "--expr", "(x1+x2)/2", "--equation", "system", "--n", "2"], 0),
    (["check", "--expr", "1/(x1-x1)"], 2),  # verdict error: u has no value at a sample
)

# the same commands, then the scalar, exact and small-cloud API, each followed by `after()`
EXACT_WORK = f"""
import contextlib, io
import ouroboros
from ouroboros.cli import main
after('import')
for argv, code in {EXACT_COMMANDS + SMALL_CLOUD_COMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code, argv
    after(argv)
from ouroboros import (
    DiscreteRandomVariable, LinearForm, PdeKind, PdeSpec, SampleDomain, check_expectation_ouroboros,
    check_linear_exact, check_residual, check_sampled, check_system, differentiate, evaluate, parse,
    to_string, verify_mean_system,
)
e = parse('x1^0 + 3*x2^2/(x1 - 4) - -x1')
assert to_string(parse(to_string(e))) == to_string(e)
assert evaluate(parse('x1^0'), [0.0]) == 1.0 and evaluate(e, [2.0, 1.0]) == 1.5
assert evaluate(differentiate(e, 2), [2.0, 1.0]) == -3.0
assert check_linear_exact(LinearForm((0.5, 0.25, 0.25))).holds
assert not check_linear_exact(LinearForm((1e308, 1e308))).holds
assert check_expectation_ouroboros(DiscreteRandomVariable((1.0, 3.0), (0.5, 0.5))).holds
assert verify_mean_system(4).all_hold
head = check_residual(
    LinearForm((0.5, 0.25, 0.375)), PdeSpec(PdeKind.EQ_I, n=3, beta=2),
    SampleDomain(n=3, radius=2.0, seed=0, count=200),
)
assert head.symbolic_zero and head.samples_used == 0
cloud = SampleDomain(n=2, radius=2.0, seed=5, count=200)
assert check_sampled(parse('(x1 + x2)/2'), cloud).holds
assert check_system(parse('(x1 + x2)/2'), 2, cloud).all_hold
assert not check_residual(parse('x1^2'), PdeSpec(PdeKind.EQ_II, n=2), cloud).passes()
after('api')
"""


def run_python(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_exact_work_runs_with_numpy_unimportable():
    """With every numpy import failing, the exact and small-cloud commands and the scalar API still answer."""
    script = "import sys\nsys.modules['numpy'] = None\ndef after(step): pass\n" + EXACT_WORK
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_exact_work_never_loads_numpy():
    script = (
        "import sys\n"
        "def after(step):\n"
        "    assert 'numpy' not in sys.modules, step\n" + EXACT_WORK
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_a_large_cloud_still_loads_numpy():
    """Past the work bound the cloud is drawn and checked with numpy."""
    script = (
        "import contextlib, io, sys\n"
        "from ouroboros.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['check', '--expr', 'x1', '--samples', '100000']) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_to_the_submodules_objects():
    """`import *` serves all of __all__, each the object its submodules bind, and dir() lists it."""
    script = (
        "import sys\n"
        "import ouroboros\n"
        "from ouroboros import core, expr, families, probability\n"
        "assert 'numpy' not in sys.modules\n"
        "listed = dir(ouroboros)\n"
        "star = {}\n"
        "exec('from ouroboros import *', star)\n"
        "del star['__builtins__']\n"
        "assert sorted(star) == sorted(ouroboros.__all__)\n"
        "from ouroboros import explorer, pde\n"
        "homes = (core, expr, families, probability, pde, explorer)\n"
        "for name in ouroboros.__all__[1:]:\n"
        "    owners = [m for m in homes if name in vars(m)]\n"
        "    assert owners, name\n"
        "    assert all(vars(m)[name] is star[name] for m in owners), name\n"
        "    assert getattr(ouroboros, name) is star[name], name\n"
        "    assert name in listed, name\n"
        "assert not hasattr(ouroboros, 'no_such_name')\n"
    )
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
