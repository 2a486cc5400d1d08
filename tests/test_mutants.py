"""Tests for ``tools/mutants.py`` and the mutants it keeps in ``tools/mutants.json``."""

import importlib.util
import io
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants_tool", _TOOL)
mutants = importlib.util.module_from_spec(_spec)
# Dataclasses look their module up while they are built.
sys.modules[_spec.name] = mutants
_spec.loader.exec_module(mutants)


def test_every_committed_mutant_still_matches_the_tree():
    """A change that rewrites a mutant's target must port the mutant or
    retire it: each snippet occurs exactly once, and each mutant names its
    selection, its contract and, for a survivor, a reason."""
    committed = mutants.load()
    assert len(committed) >= 15
    assert len({mutant.id for mutant in committed}) == len(committed)
    assert mutants.snippet_errors(mutants.ROOT, committed) == []
    for mutant in committed:
        assert mutant.find != mutant.replace, mutant.id
        assert mutant.tests and mutant.contract, mutant.id
        assert all((mutants.ROOT / test.split("::")[0]).exists() for test in mutant.tests)
        assert mutant.survives is None or mutant.survives.strip(), mutant.id


def _toy(root: Path) -> None:
    (root / "src").mkdir()
    (root / "tests").mkdir()
    (root / "src" / "toy.py").write_text(
        "def add(a, b):\n    return a + b\n\n\ndef scale(x):\n    return 2 * x\n"
    )
    (root / "tests" / "test_toy.py").write_text(
        "from toy import add\n\n\ndef test_add():\n    assert add(2, 3) == 5\n"
    )


def _mutant(mutant_id, find, replace, survives=None):
    return mutants.Mutant(
        id=mutant_id, file="src/toy.py", find=find, replace=replace,
        tests=("tests/test_toy.py",), contract="toy", survives=survives,
    )


def _run(root, *toy_mutants):
    out = io.StringIO()
    status = mutants.run(root, toy_mutants, out)
    return status, out.getvalue().splitlines()


def test_killed_mutants_and_expected_survivors_pass(tmp_path):
    _toy(tmp_path)
    status, lines = _run(
        tmp_path,
        _mutant("minus", "a + b", "a - b"),
        _mutant("commuted", "a + b", "b + a", survives="addition commutes"),
    )
    assert status == 0
    assert lines[0].startswith("ok    minus: killed (tests/test_toy.py::test_add")
    assert lines[1].startswith("ok    commuted: survived")
    assert (tmp_path / "src" / "toy.py").read_text().count("a + b") == 1


def test_an_unexpected_survivor_and_a_killed_survivor_fail(tmp_path):
    _toy(tmp_path)
    status, lines = _run(
        tmp_path,
        _mutant("untested", "2 * x", "3 * x"),
        _mutant("stale-reason", "a + b", "a * b", survives="wrongly thought equivalent"),
    )
    assert status == 1
    assert lines[0].startswith("BAD   untested: survived")
    assert lines[1].startswith("BAD   stale-reason: killed")
    assert lines[2].endswith("0 as recorded, 2 not")


def test_a_snippet_that_does_not_match_once_fails_before_any_run(tmp_path):
    _toy(tmp_path)
    status, lines = _run(tmp_path, _mutant("gone", "a / b", "a // b"),
                         _mutant("twice", "return", "yield"))
    assert status == 1
    assert lines == [
        "ERROR gone: the snippet occurs 0 times in src/toy.py",
        "ERROR twice: the snippet occurs 2 times in src/toy.py",
    ]


def test_a_selection_that_cannot_run_is_an_error(tmp_path):
    _toy(tmp_path)
    broken = mutants.Mutant(
        id="no-such-test", file="src/toy.py", find="a + b", replace="a - b",
        tests=("tests/test_missing.py",), contract="toy",
    )
    status, lines = _run(tmp_path, broken)
    assert status == 1
    assert lines[0].startswith("BAD   no-such-test: error (pytest exit 4")
