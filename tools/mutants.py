#!/usr/bin/env python3
"""Apply each committed mutant in a temporary copy and check a test kills it.

A mutant is a small, deliberate bug: in ``file``, the snippet ``find`` (which
must occur exactly once) becomes ``replace``.  ``tests`` is the pytest
selection that must fail under it, and ``contract`` names the
``docs/perf-contract.md`` contract (or the behaviour) it attacks.  A mutant
that no test can catch, because it does not change behaviour, carries a
``survives`` reason instead: it must survive, or the reason is stale.
The mutants live in ``tools/mutants.json``; ``find`` and ``replace`` are
strings or lists of lines.

Usage::

    python tools/mutants.py

The repository is copied once into a temporary directory; each mutant is
applied there, its selection runs in a fresh process with the copy's
``src`` on ``PYTHONPATH``, ``PYTHONHASHSEED=0`` and no bytecode cache, and
the file is restored.  The tool exits non-zero when a mutant survives unexpectedly, an
expected survivor is killed, a snippet does not occur exactly once, or a
selection cannot run (a collection error or no tests).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, TextIO, Tuple

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).with_name("mutants.json")
#: What the temporary copy leaves out.
IGNORED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "out")
#: A selection that runs this long is reported as killed by the timeout.
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str
    find: str
    replace: str
    tests: Tuple[str, ...]
    contract: str
    survives: Optional[str] = None


def _text(value) -> str:
    return "\n".join(value) if isinstance(value, list) else value


def load() -> List[Mutant]:
    """The committed mutants, in file order."""
    return [
        Mutant(
            id=entry["id"],
            file=entry["file"],
            find=_text(entry["find"]),
            replace=_text(entry["replace"]),
            tests=tuple(entry["tests"]),
            contract=entry["contract"],
            survives=entry.get("survives"),
        )
        for entry in json.loads(DATA.read_text(encoding="utf-8"))
    ]


def snippet_errors(root: Path, mutants: Sequence[Mutant]) -> List[str]:
    """One line per mutant whose snippet does not occur exactly once."""
    errors = []
    for mutant in mutants:
        path = root / mutant.file
        found = path.read_text(encoding="utf-8").count(mutant.find) if path.exists() else 0
        if found != 1:
            errors.append(f"{mutant.id}: the snippet occurs {found} times in {mutant.file}")
    return errors


def _verdict(copy: Path, mutant: Mutant) -> Tuple[str, str]:
    """``(verdict, detail)``: killed, survived, or error when the selection
    could not run."""
    # No bytecode cache: a mutant and its restore can share a size and an
    # mtime second, and a stale .pyc would then run the wrong source.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *mutant.tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed", f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    summary = lines[-1] if lines else done.stderr.strip()[-300:]
    if done.returncode == 0:
        return "survived", summary
    if done.returncode == 1:
        failed = [line for line in lines if line.startswith("FAILED ")]
        return "killed", failed[0][len("FAILED "):] if failed else summary
    return "error", f"pytest exit {done.returncode}: {summary}"


def run(root: Path, mutants: Sequence[Mutant], out: TextIO = sys.stdout) -> int:
    """Apply every mutant in a copy of ``root``; 0 when each behaves as
    recorded."""
    errors = snippet_errors(root, mutants)
    for line in errors:
        print(f"ERROR {line}", file=out)
    if errors:
        return 1
    bad = 0
    began = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(*IGNORED))
        for mutant in mutants:
            path = copy / mutant.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.find, mutant.replace), encoding="utf-8")
            try:
                verdict, detail = _verdict(copy, mutant)
            finally:
                path.write_text(original, encoding="utf-8")
            expected = "survived" if mutant.survives else "killed"
            if verdict == expected:
                label = "ok"
            else:
                label = "BAD"
                bad += 1
            print(f"{label:<5} {mutant.id}: {verdict} ({detail})", file=out)
    print(f"{len(mutants)} mutants in {time.perf_counter() - began:.0f} s: "
          f"{len(mutants) - bad} as recorded, {bad} not", file=out)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run(ROOT, load()))
