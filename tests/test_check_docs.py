"""Tests for ``tools/check_docs.py``: a Markdown path may be relative."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

ONE_BLOCK = "# Doc\n\n```python\nprint('ran')\n```\n"


def test_a_relative_path_outside_the_checkout_runs_and_keeps_its_name(
    tmp_path, monkeypatch, capsys
):
    (tmp_path / "one.md").write_text(ONE_BLOCK)
    monkeypatch.chdir(tmp_path)
    assert check_docs.main(["one.md"]) == 0
    assert "ok   one.md:3 [python]" in capsys.readouterr().out


def test_a_relative_path_inside_the_checkout_is_labelled_from_its_root(
    tmp_path, monkeypatch, capsys
):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "one.md").write_text(ONE_BLOCK)
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.chdir(tmp_path / "docs")
    assert check_docs.main(["one.md"]) == 0
    assert f"ok   {Path('docs', 'one.md')}:3 [python]" in capsys.readouterr().out
