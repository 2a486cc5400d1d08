#!/usr/bin/env python3
"""Execute the code blocks in the repo's Markdown docs (docs-smoke for CI).

Walks the given Markdown files (default: README.md and docs/*.md) and runs
every fenced code block whose info string is ``bash`` or ``python``:

* ``bash`` blocks run line by line; lines invoking ``python -m repro`` are
  executed with ``src`` on ``PYTHONPATH`` (a leading ``PYTHONPATH=src`` or
  ``$`` prompt is stripped).  Prose-style lines (``pip install`` hints) and
  self-referential commands -- the pytest suites CI already runs as their
  own jobs, and this checker itself -- are deliberately skipped;
* ``python`` blocks run as a script with ``src`` on ``PYTHONPATH``;
* an info string of ``python no-run`` (or any other tag) marks a block as
  illustrative-only and skips it.

Each Markdown file's blocks share one fresh temporary working directory,
removed afterwards: the files a block writes under relative names (traces,
cache directories) are seen by the file's later blocks and by nothing else,
so no run starts from another run's leftovers.  A script path such as
``tools/check_reachability.py`` resolves against the checkout.

Any non-zero exit status fails the check, so the quickstart commands in the
README can never drift away from the CLI they document.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```(.*)$")

#: bash lines worth executing (everything else in a bash block is context).
RUNNABLE_BASH = re.compile(r"python(3)? (-m (repro|pytest)\b|tools/)")

#: Commands that would re-enter this checker or re-run the full test matrix
#: (both already covered by dedicated CI jobs): skipped, not executed.
SELF_REFERENTIAL = re.compile(r"python(3)? (-m pytest\b|tools/check_docs)")


def code_blocks(path: Path) -> Iterator[Tuple[str, int, str]]:
    """Yield (info_string, line_number, body) per fenced block in ``path``."""
    info = None
    start = 0
    body: List[str] = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if info is not None and line.strip() == "```":
            yield info, start, "\n".join(body)
            info = None
            continue
        match = FENCE.match(line.strip())
        if match and info is None:
            info, start, body = match.group(1).strip(), number, []
        elif info is not None:
            body.append(line)


def run(command: List[str], label: str, cwd: Path, stdin: str = "") -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    try:
        result = subprocess.run(
            command,
            input=stdin or None,
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
    except subprocess.TimeoutExpired:
        print(f"FAIL {label} (timed out after 600s)")
        return False
    if result.returncode != 0:
        print(f"FAIL {label}")
        sys.stdout.write(result.stdout[-4000:])
        sys.stderr.write(result.stderr[-4000:])
        return False
    print(f"ok   {label}")
    return True


def check_file(path: Path, cwd: Path) -> Tuple[int, int]:
    """Run a file's blocks in ``cwd``; returns (executed, failed) counts.

    Blocks are labelled by the file's path relative to the checkout when it
    lies inside it, and by ``path`` as given otherwise.
    """
    source = path.resolve()
    name = source.relative_to(REPO_ROOT) if source.is_relative_to(REPO_ROOT) else path
    executed = failed = 0
    for info, line, body in code_blocks(source):
        label_base = f"{name}:{line}"
        if info == "python":
            executed += 1
            if not run([sys.executable, "-"], f"{label_base} [python]", cwd, stdin=body):
                failed += 1
        elif info == "bash":
            for command_line in body.splitlines():
                command_line = command_line.strip().lstrip("$ ").strip()
                command_line = re.sub(r"^PYTHONPATH=\S+\s+", "", command_line)
                if not RUNNABLE_BASH.search(command_line):
                    continue
                if SELF_REFERENTIAL.search(command_line):
                    continue
                executed += 1
                command = shlex.split(command_line, comments=True)
                if (REPO_ROOT / command[1]).is_file():
                    command[1] = str(REPO_ROOT / command[1])
                if not run(command, f"{label_base} [{command_line}]", cwd):
                    failed += 1
    return executed, failed


def main(argv: List[str]) -> int:
    targets = [Path(arg) for arg in argv] or [
        REPO_ROOT / "README.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
    ]
    executed = failed = 0
    for target in targets:
        with tempfile.TemporaryDirectory(prefix="check_docs-") as cwd:
            ran, bad = check_file(target, Path(cwd))
        executed += ran
        failed += bad
    print(f"\n{executed} doc blocks executed, {failed} failed")
    if executed == 0:
        print("no runnable blocks found -- is the fence tagging broken?")
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
