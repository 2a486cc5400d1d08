"""Tests for ``tools/check_reachability.py``: every module is on a ``repro`` path."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_reachability.py"
_spec = importlib.util.spec_from_file_location("check_reachability", _TOOL)
check_reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_reachability)


def _tree(root: Path, files: dict) -> Path:
    """Write a synthetic ``src/repro`` tree; returns the ``src`` directory."""
    src = root / "src"
    for name, body in files.items():
        path = src / "repro" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
    return src


@pytest.fixture
def src(tmp_path):
    """``__main__`` imports one name that ``pkg/__init__`` re-exports from ``pkg.used``."""
    return _tree(
        tmp_path,
        {
            "__init__.py": "",
            "__main__.py": "def main():\n    from repro.pkg import helper\n    helper()\n",
            "pkg/__init__.py": (
                "from repro.pkg.used import helper\n"
                "from repro.pkg.unused import spare\n"
                "__all__ = ['helper', 'spare']\n"
            ),
            "pkg/used.py": "def helper():\n    pass\n",
            "pkg/unused.py": "def spare():\n    pass\n",
        },
    )


def test_checkout_passes(capsys):
    assert check_reachability.main() == 0
    assert "OK" in capsys.readouterr().out


def test_allowlist_entries_have_reasons():
    assert set(check_reachability.ALLOWLIST) == {
        "repro.analysis.ablations",
        "repro.analysis.sweeps",
        "repro.core.api",
        "repro.core.cluster",
        "repro.core.mmio",
        "repro.core.synchronizer",
        "repro.memory.interconnect",
    }
    assert all(reason.strip() for reason in check_reachability.ALLOWLIST.values())


def test_reexport_reaches_only_the_defining_submodule(src):
    reached, modules = check_reachability.reachable(src)
    assert "repro.pkg.used" in reached
    assert "repro.pkg.unused" not in reached
    # The package itself counts: importing repro.pkg.used runs its __init__.
    assert "repro.pkg" in reached
    assert set(modules) - reached == {"repro.pkg.unused"}


def test_orphan_module_is_named(src, capsys):
    assert check_reachability.main(src, {}) == 1
    out = capsys.readouterr().out
    assert "repro.pkg.unused is imported on no path" in out
    assert "repro.pkg.used " not in out


def test_added_orphan_fails_until_allowlisted(src, capsys):
    (src / "repro" / "stray.py").write_text("VALUE = 1\n")
    assert check_reachability.main(src, {"repro.pkg.unused": "kept"}) == 1
    assert "repro.stray is imported on no path" in capsys.readouterr().out
    allowlist = {"repro.pkg.unused": "kept", "repro.stray": "kept"}
    assert check_reachability.main(src, allowlist) == 0


def test_name_defined_in_init_follows_its_imports(src):
    """An ``__init__`` with its own code is a module: its imports all run,
    relative ones included."""
    (src / "repro" / "pkg" / "__init__.py").write_text(
        "from .used import helper\n"
        "from .unused import spare\n"
        "def wrapper():\n    return helper()\n"
    )
    (src / "repro" / "__main__.py").write_text("from repro.pkg import wrapper\n")
    reached, modules = check_reachability.reachable(src)
    assert reached == set(modules)


def test_reached_allowlist_entry_is_rejected(src):
    problems = check_reachability.find_problems(
        src, {"repro.pkg.unused": "kept", "repro.pkg.used": "stale"}
    )
    assert problems == [
        "allowlist entry repro.pkg.used is reached from repro.__main__: drop the entry"
    ]


def test_missing_allowlist_entry_is_rejected(src):
    problems = check_reachability.find_problems(
        src, {"repro.pkg.unused": "kept", "repro.pkg.gone": "deleted"}
    )
    assert len(problems) == 1
    assert problems[0].startswith("allowlist entry repro.pkg.gone names no module")
