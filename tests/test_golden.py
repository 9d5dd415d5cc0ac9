"""Golden envelopes: fresh runs of fixed commands match the files under tests/golden/.

``python3 scripts/update_golden.py`` rewrites the files; a report that moves
then shows in review as a change to its file.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location("update_golden", ROOT / "scripts" / "update_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name", sorted(golden.COMMANDS))
def test_report_matches_its_golden_file(name):
    assert golden.golden_text(golden.COMMANDS[name]) == (GOLDEN / f"{name}.txt").read_text()


def test_every_golden_file_belongs_to_a_command():
    assert sorted(path.stem for path in GOLDEN.iterdir()) == sorted(golden.COMMANDS)
