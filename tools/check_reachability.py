#!/usr/bin/env python3
"""Reachability: every ``src/repro`` module, definition and config field is on a ``repro`` path.

Modules.  Starts at ``repro.__main__`` and follows every import statement
in the package, function-level imports included.  ``from pkg import name``,
where ``pkg/__init__.py`` only re-exports ``name``, reaches the submodule
that defines ``name``; a name the ``__init__`` defines itself reaches the
``__init__``, whose imports are then followed like any module's.  A package
also counts as reached when a module inside it is, since importing that
module runs the package's ``__init__``; its re-exports are not followed then.

Definitions.  In every reached module, each top-level function and class
and each method of a top-level class must be used somewhere in a module
under ``src/repro`` (allowlisted modules included) or in a script under
``examples/``.  A top-level function or class is used where its name is
loaded in its own module, or in a module that imports it (directly or
through a package re-export) under its name or an alias, or as an
attribute of a module it is defined in that the code imports as a module;
or where its name is the string passed to ``getattr``.  So a property, a
method or a dict key that shares a dead function's name does not hide it.
Code reaches a method or property only as ``obj.name`` or through
``getattr``, so a method is used only where its name appears as an
attribute read or as a string constant; a bare name with its spelling is
a local, a parameter or a function.  Import aliases, ``__all__`` entries,
the definition's own ``def`` or ``class`` line and the mentions of its
name inside its own body (a recursive call, a class's own annotations)
are not uses.  Dunder names are exempt, and so are the modules on the
module allowlist, which are not reached.  The method rule matches on
names, not on what a name refers to, so it can miss a dead method that
shares its name with a live one; neither rule flags live code that is
called by its name, a method's through an attribute.

Config fields.  Each field of a dataclass in :data:`CONFIG_MODULE` must be
read somewhere in ``src/repro`` or ``examples/``: its name appears as an
attribute load or as a string constant.  A keyword argument that sets the
field, or its own declaration, is not a read.  A field that no model reads
has nothing to validate; like the definition check, this one matches on
names, so a field passes when another object's attribute shares its name.

The check fails on a module that is not reached or a definition that is not
used, unless its allowlist below gives a reason; on a config field that is
not read; and on an allowlist entry that is stale: it names no module or
definition, or what it names is reached or used.  So a component model
stays on the timing path or leaves ``src/`` with its tests.

No third-party deps; runs standalone in the docs CI job:

    python tools/check_reachability.py
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = "repro"
ENTRY = "repro.__main__"
#: The module whose dataclass fields are the design tree's leaves.
CONFIG_MODULE = "repro.config.soc"

#: Modules ``python -m repro`` never imports, each with the reason it stays.
ALLOWLIST: Dict[str, str] = {
    "repro.analysis.ablations": (
        "Section 5.2 ablations over run_gemm, run by "
        "benchmarks/test_bench_ablations.py"
    ),
    "repro.analysis.sweeps": (
        "Section 6.1.3 mesh/cluster/DMA sweeps over run_gemm, run by "
        "tests/test_sweeps.py"
    ),
    "repro.core.api": (
        "Listing-1 virgo_* API; tests/test_virgo_core.py pins its GEMM "
        "against VirgoGemmKernel"
    ),
    "repro.core.cluster": "cluster assembly behind the Listing-1 virgo_* API",
    "repro.core.mmio": (
        "MMIO command interface of the Listing-1 stack; the fidelity item "
        "wires its polling into the kernels"
    ),
    "repro.core.synchronizer": "cluster barrier of the Listing-1 virgo_* API",
    "repro.memory.interconnect": (
        "smem arbitration of the Listing-1 cluster; the fidelity item wires "
        "it into the kernels"
    ),
}

#: ``module:Qualname`` of definitions nothing names, each with the reason it stays.
DEFINITION_ALLOWLIST: Dict[str, str] = {
    "repro.__main__:_Parser.error": (
        "argparse calls it on bad input; the override prints the one-line error"
    ),
    "repro.analysis.serving:percentile": (
        "nearest-rank reference that tests/test_serving.py pins and compares "
        "the vectorized latency summary against"
    ),
    "repro.core.systolic_array:SystolicArray.ideal_tile_cycles": (
        "full-throughput lower bound that tests/test_properties.py holds "
        "tile_cycles to"
    ),
    "repro.energy.area:AreaModel.total_um2": (
        "area total tests/test_energy.py checks the per-design breakdowns with"
    ),
    "repro.energy.breakdown:EnergyBreakdown.total_fj": (
        "breakdown total tests/test_runner_analysis.py checks on live runs"
    ),
    "repro.energy.model:EnergyTable.unknown_counters": (
        "tests/test_energy.py and tests/test_flash_attention.py check that "
        "every counter a live run emits is priced"
    ),
    "repro.kernels.gemm.functional:gemm_functional": (
        "functional GEMM that tests/test_gemm_kernels.py checks the tile "
        "blocking of each design with"
    ),
    "repro.kernels.gemm.functional:reference_gemm": (
        "numpy reference tests/test_gemm_kernels.py compares gemm_functional to"
    ),
    "repro.isa.program:WarpProgram.count_by_class": (
        "tests/test_kernel_internals.py reads each stream's instruction mix "
        "through it"
    ),
    "repro.kernels.gemm.tiling:ThreadBlockTiling.fits_in_shared_memory": (
        "tests/test_gemm_kernels.py checks every design's live tiling with it"
    ),
    "repro.perf.cache:cache_disabled": (
        "public API docs/perf-contract.md names; the cold-path tests and "
        "benchmarks run under it"
    ),
    "repro.sim.stats:Counters.as_dict": "perfbench/suite.py reads counters through it",
    "repro.sim.taskgraph:ScheduleResult.finish_time": (
        "query on the full-expansion oracle that tests/test_sim_engine.py reads"
    ),
    "repro.simt.core:VortexCore.execution_key": (
        "test seam: tests/test_simt_memo.py checks the memo key's content on it"
    ),
    "repro.workloads.batch:BatchReport.results": (
        "tests/test_batch_runner.py and tests/test_fleet.py compare sweep "
        "outcomes through it (16 calls)"
    ),
    "repro.workloads.batch:fleet_sweep_jobs": "public API docs/fleet.md runs",
    "repro.workloads.lowering:compile_step_program": (
        "compiles a bare kernel schedule through the design-free half and the "
        "per-design pass every run uses; tests/test_program_compile.py holds it "
        "to the per-instance oracle compiler"
    ),
    "repro.workloads.batch:serving_sweep_jobs": "public API docs/serving.md names",
    "repro.workloads.models:poisson_stream_trace": (
        "public API docs/serving.md runs and perfbench/suite.py calls"
    ),
    "repro.workloads.serving:ServingScheduler.step_schedule": (
        "a step's kernel schedule, which the merged-schedule oracle in "
        "tests/differential.py runs and perfbench wraps as serving.step_schedule"
    ),
    "repro.workloads.serving:ServingScheduler.isolated_cycles": (
        "isolated-latency bound that tests/test_serving.py and "
        "tests/test_serving_properties.py compare served latencies against"
    ),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def discover(src: Path) -> Dict[str, Path]:
    """Map every module name under ``src/repro`` to its file."""
    modules = {}
    for path in sorted((src / PACKAGE).rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_package(path: Path) -> bool:
    return path.name == "__init__.py"


def _absolute(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The absolute module name an ``ImportFrom`` node imports from."""
    if not node.level:
        return node.module or ""
    base = module.split(".")
    base = base[: len(base) - node.level + (1 if is_package else 0)]
    return ".".join(base + ([node.module] if node.module else []))


def _reexports(
    modules: Dict[str, Path], trees: Dict[str, ast.Module]
) -> Dict[str, Dict[str, Tuple[str, str]]]:
    """Per package: bound name -> (source module, source name) of its imports."""
    table: Dict[str, Dict[str, Tuple[str, str]]] = {}
    for name, path in modules.items():
        if not _is_package(path):
            continue
        bindings = table.setdefault(name, {})
        for node in trees[name].body:
            if isinstance(node, ast.ImportFrom):
                source = _absolute(name, True, node)
                for alias in node.names:
                    bindings[alias.asname or alias.name] = (source, alias.name)
    return table


def _resolve(
    modules: Dict[str, Path],
    reexports: Dict[str, Dict[str, Tuple[str, str]]],
    module: str,
    name: str,
) -> Tuple[str, str]:
    """Resolve ``from module import name`` to (the module that defines it,
    its name there); the name is empty when it names a submodule."""
    for _ in range(len(modules)):  # bounded: a re-export cycle cannot hang the check
        if f"{module}.{name}" in modules:
            return f"{module}.{name}", ""
        source = reexports.get(module, {}).get(name)
        if source is None or source[0] not in modules:
            return module, name
        module, name = source
    return module, name


def _edges(
    module: str,
    path: Path,
    tree: ast.Module,
    modules: Dict[str, Path],
    reexports: Dict[str, Dict[str, Tuple[str, str]]],
) -> Iterator[str]:
    """Modules that running ``module`` imports."""
    package = _is_package(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, package, node)
            if source not in modules:
                continue
            for alias in node.names:
                if alias.name == "*":
                    yield source
                else:
                    yield _resolve(modules, reexports, source, alias.name)[0]


def _reached(modules: Dict[str, Path], trees: Dict[str, ast.Module]) -> Set[str]:
    """Modules reached from ``repro.__main__``, given every module's tree."""
    reexports = _reexports(modules, trees)
    reached: Set[str] = set()
    pending = [ENTRY]
    while pending:
        module = pending.pop()
        if module in reached or module not in modules:
            continue
        reached.add(module)
        pending.extend(_edges(module, modules[module], trees[module], modules, reexports))
    for module in list(reached):
        while "." in module:
            module = module.rpartition(".")[0]
            reached.add(module)
    return reached


def reachable(src: Path) -> Tuple[Set[str], Dict[str, Path]]:
    """(modules reached from ``repro.__main__``, every module under ``src``)."""
    modules = discover(src)
    return _reached(modules, {name: _parse(path) for name, path in modules.items()}), modules


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, tree: ast.Module) -> Iterator[Tuple[str, ast.AST, bool]]:
    """(``module:Qualname``, node, is a method) of each definition the check covers."""
    for node in tree.body:
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)) or _is_dunder(node.name):
            continue
        yield f"{module}:{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _FUNCTIONS) and not _is_dunder(member.name):
                    yield f"{module}:{node.name}.{member.name}", member, True


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _config_fields(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """(``Class.field``, field name) of each field of each dataclass in ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    yield f"{node.name}.{member.target.id}", member.target.id


def _binds_all(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _reads(tree: ast.AST) -> Counter:
    """How often each attribute load or string constant occurs in ``tree``,
    ``__all__`` aside."""
    exports = {
        id(node)
        for statement in ast.walk(tree)
        if _binds_all(statement)
        for node in ast.walk(statement)
    }
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads[node.value] += 1
    return reads


def _imports(
    module: str,
    package: bool,
    tree: ast.Module,
    modules: Dict[str, Path],
    reexports: Dict[str, Dict[str, Tuple[str, str]]],
) -> Tuple[Dict[str, Tuple[str, str]], Dict[str, str]]:
    """What ``tree`` imports from ``src/repro``: each local name bound to a
    definition, as (defining module, name), and each local dotted name bound
    to a module."""
    names: Dict[str, Tuple[str, str]] = {}
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, package, node)
            if source not in modules:
                continue
            for alias in node.names:
                target, name = _resolve(modules, reexports, source, alias.name)
                if name:
                    names[alias.asname or alias.name] = (target, name)
                else:
                    aliases[alias.asname or alias.name] = target
    return names, aliases


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a chain of attribute reads on a name, else empty."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def _loads(module: str, tree: ast.AST, imports) -> Counter:
    """(defining module, name) -> loads in ``tree`` of a top-level
    definition; ``getattr``'s string arguments count under module ``""``."""
    names, aliases = imports
    loads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads[names.get(node.id, (module, node.id))] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = aliases.get(_dotted(node.value))
            if owner:
                loads[(owner, node.attr)] += 1
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", "") == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            loads[("", node.args[1].value)] += 1
    return loads


def _all_uses(
    src: Path, modules: Dict[str, Path], trees: Dict[str, ast.Module]
) -> Tuple[Counter, Counter, Dict[str, tuple]]:
    """(reads, loads, imports per module) over ``src/repro`` and ``examples/``."""
    reexports = _reexports(modules, trees)
    scripts = {
        f"examples/{path.name}": _parse(path)
        for path in sorted((src.parent / "examples").rglob("*.py"))
    }
    reads: Counter = Counter()
    loads: Counter = Counter()
    imports = {}
    for name, tree in {**trees, **scripts}.items():
        package = name in modules and _is_package(modules[name])
        imports[name] = _imports(name, package, tree, modules, reexports)
        reads.update(_reads(tree))
        loads.update(_loads(name, tree, imports[name]))
    return reads, loads, imports


def _definition_uses(
    trees: Dict[str, ast.Module],
    reached: Set[str],
    reads: Counter,
    loads: Counter,
    imports: Dict[str, tuple],
) -> Dict[str, bool]:
    """``module:Qualname`` -> used, for each definition in a reached module:
    a top-level one loaded where it is visible or named to ``getattr``, a
    method read as an attribute or named by a string, in either case
    outside its own body."""
    used = {}
    for module in sorted(reached & set(trees)):
        for key, node, is_method in _definitions(module, trees[module]):
            if is_method:
                count = reads[node.name] - _reads(node)[node.name]
            else:
                own = _loads(module, node, imports[module])
                count = sum(
                    loads[target] - own[target] for target in ((module, node.name), ("", node.name))
                )
            used[key] = count > 0
    return used


def find_problems(
    src: Path, allowlist: Dict[str, str], definition_allowlist: Dict[str, str]
) -> List[str]:
    """One message per unreached module, unused definition and stale allowlist entry."""
    modules = discover(src)
    trees = {name: _parse(path) for name, path in modules.items()}
    reached = _reached(modules, trees)
    problems = [
        f"{name} is imported on no path from {ENTRY}: wire it into a timing "
        f"path, delete it, or allowlist it with a reason"
        for name in sorted(set(modules) - reached - set(allowlist))
    ]
    for name in sorted(allowlist):
        if name not in modules:
            problems.append(f"allowlist entry {name} names no module under {src}")
        elif name in reached:
            problems.append(f"allowlist entry {name} is reached from {ENTRY}: drop the entry")
    reads, loads, imports = _all_uses(src, modules, trees)
    used = _definition_uses(trees, reached, reads, loads, imports)
    problems += [
        f"{key} is named nowhere in src/{PACKAGE} or examples/: give it a "
        f"caller, delete it, or allowlist it with a reason"
        for key, is_used in used.items()
        if not is_used and key not in definition_allowlist
    ]
    for key in sorted(definition_allowlist):
        if key not in used:
            problems.append(
                f"definition allowlist entry {key} names no definition in a "
                f"module reached from {ENTRY}"
            )
        elif used[key]:
            problems.append(f"definition allowlist entry {key} is used: drop the entry")
    if CONFIG_MODULE in trees:
        problems += [
            f"{CONFIG_MODULE}:{field} is read nowhere in src/{PACKAGE} or "
            f"examples/: give it a reader or delete it"
            for field, name in _config_fields(trees[CONFIG_MODULE])
            if not reads[name]
        ]
    return problems


def main(
    src: Path = SRC,
    allowlist: Dict[str, str] = ALLOWLIST,
    definition_allowlist: Dict[str, str] = DEFINITION_ALLOWLIST,
) -> int:
    problems = find_problems(src, allowlist, definition_allowlist)
    for problem in problems:
        print(f"check_reachability: {problem}")
    if problems:
        print(f"check_reachability: FAILED ({len(problems)} finding(s))")
        return 1
    print(
        f"check_reachability: OK ({len(discover(src))} modules, {len(allowlist)} "
        f"allowlisted; {len(definition_allowlist)} definitions allowlisted)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
