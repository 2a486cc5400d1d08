"""Tests for ``tools/check_reachability.py``: every module, definition and config
field is on a ``repro`` path."""

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
            "__main__.py": (
                "def main():\n    from repro.pkg import helper\n    helper()\n\n\n"
                "if __name__ == '__main__':\n    main()\n"
            ),
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


def test_checkout_config_module_has_fields():
    """The field rule skips a tree without the config module, so the
    checkout must have it: a rename would switch the rule off."""
    modules = check_reachability.discover(check_reachability.SRC)
    tree = check_reachability._parse(modules[check_reachability.CONFIG_MODULE])
    fields = [name for _, name in check_reachability._config_fields(tree)]
    assert "size_bytes" in fields and "warps" in fields


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
    assert check_reachability.main(src, {}, {}) == 1
    out = capsys.readouterr().out
    assert "repro.pkg.unused is imported on no path" in out
    assert "repro.pkg.used " not in out


def test_added_orphan_fails_until_allowlisted(src, capsys):
    (src / "repro" / "stray.py").write_text("VALUE = 1\n")
    assert check_reachability.main(src, {"repro.pkg.unused": "kept"}, {}) == 1
    assert "repro.stray is imported on no path" in capsys.readouterr().out
    allowlist = {"repro.pkg.unused": "kept", "repro.stray": "kept"}
    assert check_reachability.main(src, allowlist, {}) == 0


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
        src, {"repro.pkg.unused": "kept", "repro.pkg.used": "stale"}, {}
    )
    assert problems == [
        "allowlist entry repro.pkg.used is reached from repro.__main__: drop the entry"
    ]


def test_missing_allowlist_entry_is_rejected(src):
    problems = check_reachability.find_problems(
        src, {"repro.pkg.unused": "kept", "repro.pkg.gone": "deleted"}, {}
    )
    assert len(problems) == 1
    assert problems[0].startswith("allowlist entry repro.pkg.gone names no module")


def _unused(key):
    return (
        f"{key} is named nowhere in src/repro or examples/: give it a caller, "
        f"delete it, or allowlist it with a reason"
    )


def test_definition_allowlist_entries_have_reasons():
    assert set(check_reachability.DEFINITION_ALLOWLIST) == {
        "repro.__main__:_Parser.error",
        "repro.analysis.serving:percentile",
        "repro.core.systolic_array:SystolicArray.ideal_tile_cycles",
        "repro.energy.area:AreaModel.total_um2",
        "repro.energy.breakdown:EnergyBreakdown.total_fj",
        "repro.energy.model:EnergyTable.unknown_counters",
        "repro.isa.program:WarpProgram.count_by_class",
        "repro.kernels.gemm.functional:gemm_functional",
        "repro.kernels.gemm.functional:reference_gemm",
        "repro.kernels.gemm.tiling:ThreadBlockTiling.fits_in_shared_memory",
        "repro.perf.cache:cache_disabled",
        "repro.sim.stats:Counters.as_dict",
        "repro.sim.taskgraph:ScheduleResult.finish_time",
        "repro.simt.core:VortexCore.execution_key",
        "repro.workloads.batch:BatchReport.results",
        "repro.workloads.batch:fleet_sweep_jobs",
        "repro.workloads.batch:serving_sweep_jobs",
        "repro.workloads.lowering:compile_step_program",
        "repro.workloads.models:poisson_stream_trace",
        "repro.workloads.serving:ServingScheduler.isolated_cycles",
        "repro.workloads.serving:ServingScheduler.step_schedule",
    }
    assert all(reason.strip() for reason in check_reachability.DEFINITION_ALLOWLIST.values())


def test_unused_method_in_reached_module_is_named(src, capsys):
    """A planted method nothing calls fails the check until allowlisted; the
    unreached module's ``spare`` and the dunder methods are out of scope."""
    (src / "repro" / "pkg" / "used.py").write_text(
        "def helper():\n    return Widget()\n\n\n"
        "class Widget:\n"
        "    def __repr__(self):\n        return 'Widget()'\n\n"
        "    def spin(self):\n        pass\n"
    )
    allowlist = {"repro.pkg.unused": "kept"}
    assert check_reachability.find_problems(src, allowlist, {}) == [
        _unused("repro.pkg.used:Widget.spin")
    ]
    assert check_reachability.main(src, allowlist, {}) == 1
    assert "repro.pkg.used:Widget.spin is named nowhere" in capsys.readouterr().out
    assert check_reachability.main(src, allowlist, {"repro.pkg.used:Widget.spin": "kept"}) == 0


def test_attribute_string_and_example_uses_count(src):
    (src / "repro" / "pkg" / "used.py").write_text(
        "def helper():\n    return Widget()\n\n\n"
        "class Widget:\n"
        "    def spin(self):\n        pass\n\n"
        "    def tilt(self):\n        pass\n\n"
        "    def wobble(self):\n        pass\n"
    )
    (src / "repro" / "__main__.py").write_text(
        "from repro.pkg import helper\n\n"
        "helper().spin()\n"
        "getattr(helper(), 'wobble')()\n"
    )
    examples = src.parent / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text("from repro.pkg.used import helper\n\nhelper().tilt()\n")
    assert check_reachability.find_problems(src, {"repro.pkg.unused": "kept"}, {}) == []


def test_a_read_or_string_sharing_a_functions_name_is_not_a_use(src):
    """A property read and a dict key spelled like a top-level function do
    not use it: only a load where the function is visible, or ``getattr``,
    does."""
    (src / "repro" / "pkg" / "used.py").write_text(
        "def helper():\n    return Report().energy_uj, {'power_mw': 1}\n\n\n"
        "def energy_uj():\n    return 0\n\n\n"
        "def power_mw():\n    return 0\n\n\n"
        "class Report:\n"
        "    @property\n    def energy_uj(self):\n        return 1\n"
    )
    assert check_reachability.find_problems(src, {"repro.pkg.unused": "kept"}, {}) == [
        _unused("repro.pkg.used:energy_uj"),
        _unused("repro.pkg.used:power_mw"),
    ]


def test_functions_are_used_through_imports_modules_and_getattr(src):
    """A function loaded in its own module, by an alias or through a package
    re-export, as an attribute of its imported module, or named to
    ``getattr``, is used."""
    (src / "repro" / "pkg" / "used.py").write_text(
        "".join(
            f"def {name}():\n    return 0\n\n\n"
            for name in (
                "via_own_module",
                "via_reexport",
                "via_module",
                "via_dotted",
                "via_getattr",
                "via_example",
            )
        )
        + "def helper():\n    return via_own_module()\n"
    )
    (src / "repro" / "pkg" / "__init__.py").write_text(
        "from repro.pkg.used import helper, via_reexport\n"
        "from repro.pkg.unused import spare\n"
    )
    (src / "repro" / "__main__.py").write_text(
        "import repro.pkg.used\n"
        "from repro.pkg import helper, used, via_reexport as again\n\n"
        "helper()\nagain()\nused.via_module()\nrepro.pkg.used.via_dotted()\n"
        "getattr(used, 'via_getattr')()\n"
    )
    examples = src.parent / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(
        "from repro.pkg.used import via_example as run\n\nrun()\n"
    )
    assert check_reachability.find_problems(src, {"repro.pkg.unused": "kept"}, {}) == []


def test_import_and_all_entry_are_not_uses(src):
    (src / "repro" / "pkg" / "used.py").write_text(
        "def helper():\n    pass\n\n\ndef extra():\n    pass\n"
    )
    (src / "repro" / "pkg" / "__init__.py").write_text(
        "from repro.pkg.used import extra, helper\n"
        "from repro.pkg.unused import spare\n"
        "__all__ = ['extra', 'helper', 'spare']\n"
    )
    examples = src.parent / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text("from repro.pkg.used import extra\n")
    assert check_reachability.find_problems(src, {"repro.pkg.unused": "kept"}, {}) == [
        _unused("repro.pkg.used:extra")
    ]


def test_stale_definition_entries_are_rejected(src):
    problems = check_reachability.find_problems(
        src,
        {"repro.pkg.unused": "kept"},
        {
            "repro.pkg.used:helper": "stale",
            "repro.pkg.used:gone": "deleted",
            "repro.pkg.unused:spare": "in an unreached module",
        },
    )
    assert problems == [
        "definition allowlist entry repro.pkg.unused:spare names no definition "
        "in a module reached from repro.__main__",
        "definition allowlist entry repro.pkg.used:gone names no definition "
        "in a module reached from repro.__main__",
        "definition allowlist entry repro.pkg.used:helper is used: drop the entry",
    ]


def test_mentions_inside_a_definitions_own_body_are_not_uses(src):
    """A class named only in its own annotations and a function named only
    in its own recursive call are unused.  A method that calls a namesake
    on another class uses that namesake, not itself."""
    (src / "repro" / "pkg" / "used.py").write_text(
        "def helper():\n    return Program(), Stream([])\n\n\n"
        "class Program:\n"
        "    def count(self):\n        return 1\n\n\n"
        "class Stream:\n"
        "    def __init__(self, programs):\n        self.programs = programs\n\n"
        "    def count(self):\n"
        "        return sum(program.count() for program in self.programs)\n\n\n"
        "class Node:\n"
        "    def clone(self) -> 'Node':\n        return Node()\n\n\n"
        "def countdown(n):\n    return countdown(n - 1) if n else 0\n"
    )
    assert check_reachability.find_problems(src, {"repro.pkg.unused": "kept"}, {}) == [
        _unused("repro.pkg.used:Stream.count"),
        _unused("repro.pkg.used:Node"),
        _unused("repro.pkg.used:Node.clone"),
        _unused("repro.pkg.used:countdown"),
    ]


def test_a_local_named_like_a_method_is_not_a_use(src):
    """Code reaches a method only as ``obj.name`` or through ``getattr``: a
    local or a parameter spelled like a method does not use it, while a
    function stays used by its bare name."""
    (src / "repro" / "pkg" / "used.py").write_text(
        "def helper():\n    summary = Widget()\n    return summary, total(1)\n\n\n"
        "def total(span):\n    return span\n\n\n"
        "class Widget:\n"
        "    def summary(self):\n        return 'w'\n\n"
        "    def span(self):\n        return 0\n"
    )
    assert check_reachability.find_problems(src, {"repro.pkg.unused": "kept"}, {}) == [
        _unused("repro.pkg.used:Widget.summary"),
        _unused("repro.pkg.used:Widget.span"),
    ]


def _unread(field):
    return (
        f"repro.config.soc:{field} is read nowhere in src/repro or examples/: "
        f"give it a reader or delete it"
    )


def test_config_field_read_nowhere_is_named(src):
    """A config dataclass field set only by keyword is not read; one read as
    an attribute or named by a string constant is.  An annotation in a
    class that is not a dataclass is not a field."""
    config = src / "repro" / "config"
    config.mkdir()
    (config / "__init__.py").write_text("")
    (config / "soc.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class CoreConfig:\n"
        "    warps: int = 8\n"
        "    lanes: int = 8\n"
        "    ports: int = 3\n\n\n"
        "@dataclass\n"
        "class CacheConfig:\n"
        "    size_bytes: int\n"
        "    ways: int = 4\n\n\n"
        "class Plain:\n"
        "    label: str = ''\n"
    )
    (src / "repro" / "__main__.py").write_text(
        "from repro.pkg import helper\n"
        "from repro.config.soc import CacheConfig, CoreConfig, Plain\n\n"
        "helper()\n"
        "core = CoreConfig(ports=2)\n"
        "print(core.warps, getattr(core, 'lanes'), CacheConfig(1024, ways=2).size_bytes, Plain())\n"
    )
    assert check_reachability.find_problems(src, {"repro.pkg.unused": "kept"}, {}) == [
        _unread("CoreConfig.ports"),
        _unread("CacheConfig.ways"),
    ]
