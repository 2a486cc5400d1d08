#!/usr/bin/env python3
"""Module reachability: every ``src/repro`` module is on a ``python -m repro`` path.

Starts at ``repro.__main__`` and follows every import statement in the
package, function-level imports included.  ``from pkg import name``, where
``pkg/__init__.py`` only re-exports ``name``, reaches the submodule that
defines ``name``; a name the ``__init__`` defines itself reaches the
``__init__``, whose imports are then followed like any module's.  A package
also counts as reached when a module inside it is, since importing that
module runs the package's ``__init__``; its re-exports are not followed then.

The check fails on a module that is not reached and not on the allowlist
below, and on an allowlist entry that is reached or names no module, so a
component model stays on the timing path or leaves ``src/`` with its tests.

No third-party deps; runs standalone in the docs CI job:

    python tools/check_reachability.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = "repro"
ENTRY = "repro.__main__"

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


def discover(src: Path) -> Dict[str, Path]:
    """Map every module name under ``src/repro`` to its file."""
    modules = {}
    for path in sorted((src / PACKAGE).rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


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


def _defining_module(
    modules: Dict[str, Path],
    reexports: Dict[str, Dict[str, Tuple[str, str]]],
    module: str,
    name: str,
) -> str:
    """Resolve ``from module import name`` to the module that defines ``name``."""
    for _ in range(len(modules)):  # bounded: a re-export cycle cannot hang the check
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        source = reexports.get(module, {}).get(name)
        if source is None or source[0] not in modules:
            return module
        module, name = source
    return module


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
                    yield _defining_module(modules, reexports, source, alias.name)


def reachable(src: Path) -> Tuple[Set[str], Dict[str, Path]]:
    """(modules reached from ``repro.__main__``, every module under ``src``)."""
    modules = discover(src)
    trees = {
        name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, path in modules.items()
    }
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
    return reached, modules


def find_problems(src: Path, allowlist: Dict[str, str]) -> List[str]:
    """One message per unreached module and per stale allowlist entry."""
    reached, modules = reachable(src)
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
    return problems


def main(src: Path = SRC, allowlist: Dict[str, str] = ALLOWLIST) -> int:
    problems = find_problems(src, allowlist)
    for problem in problems:
        print(f"check_reachability: {problem}")
    if problems:
        print(f"check_reachability: FAILED ({len(problems)} finding(s))")
        return 1
    print(f"check_reachability: OK ({len(discover(src))} modules, {len(allowlist)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
