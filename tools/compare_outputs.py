#!/usr/bin/env python3
"""Compare the outputs of two checkouts, field by field.

Runs the same set of surfaces in both checkouts and reports, per surface,
whether the outputs are byte-identical, differ only in energy or power
values by float rounding, or differ otherwise.  The surfaces are those
either checkout has; one that only HEAD has is reported as added, one that
only BASE has as removed:

* the committed goldens (``tests/goldens/*.json``);
* ``repro compare`` and every script in ``examples/``;
* ``repro model --json`` over the model zoo x the four designs, plus
  heterogeneous Virgo;
* the serve, fleet, gemm, flash and hetero runs the CI workflow makes;
* the paper's tables 1-4 and figures 7-12 (``repro table``, ``repro
  figure``): Table 2 prints the config tree, Figure 7 the area model;
* the CI chaos serve and fleet runs with ``--trace-out``: each trace file
  is compared as JSON after the run's printed output, with the wall-clock
  ``phase`` spans dropped.
* :data:`SCRIPT_RUNS`, ``python -c`` programs that print the canonical
  ``to_dict()`` and report of serve and fleet runs reaching fast paths no
  CLI run does: epochs split by router events under each router policy, an
  epoch bounded by injected faults, and the router parking or shedding
  while every replica is down; and the ``to_dict()`` of runs sharing one
  lowering across designs: the zoo on every design in one process, and a
  mixed-design fleet.

An output that ends in a JSON document (after any prose) is compared as
JSON; the prose before it, line by line.  A JSON object that gained or lost
keys reports each added or removed key and goes on comparing the keys both
sides share; a change in the order of the shared keys is a difference.
Prose is matched line by line with ``difflib`` on the lines' text with
numbers masked: each added or removed line is reported, and the lines that
pair up are still compared.

Usage::

    python tools/compare_outputs.py BASE_CHECKOUT HEAD_CHECKOUT [--allow SURFACE:PATH ...]

Every command runs in a fresh process with ``<checkout>/src`` on
``PYTHONPATH`` and ``PYTHONHASHSEED=0``, in an empty working directory.

A JSON field counts as an energy or power value when its path names
energy or power (``energy``, ``power``, ``_uj``, ``_mj``, ``_mw``,
``per_flop``); a text line, when it mentions energy, power or one of their
units.  Such a value may move by at most :data:`RTOL` relative, float
rounding only; every other value must be byte-identical.  ``--allow``
(repeatable) names a field allowed to move further, be added or be
removed, as ``surface:dotted.path`` (``surface:N`` for prose line ``N``,
numbered in BASE for a removed line and in HEAD otherwise); a ``*`` in the
path stands for any list index (``requests.*.disposition``).  ``--allow
SURFACE`` lets a whole surface be added or removed.  Exits non-zero if any
surface has a difference that is not allowed.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Pattern, Tuple

DESIGNS = ("volta", "ampere", "hopper", "virgo")
#: How far, relative, an energy or power value may move.
RTOL = 1e-9
#: Surfaces compared at once; each runs one process per checkout.
JOBS = 2

#: The CI workflow's serve and fleet runs, with the other CLI smoke runs and
#: every paper table and figure.
CI_RUNS: Tuple[Tuple[str, ...], ...] = (
    ("gemm", "--all-designs", "--size", "256"),
    ("flash",),
    ("hetero",),
    ("serve", "--trace", "uniform-moe", "--latency-report"),
    ("fleet", "--trace", "bursty-gpt", "--fleet", "duo-virgo", "--latency-report"),
    ("model", "--name", "moe-shared-decode", "--design", "volta", "--json"),
    ("serve", "--trace", "bursty-slo", "--json"),
    ("fleet", "--trace", "bursty-slo", "--fleet", "1", "--json"),
    ("serve", "--trace", "bursty-slo", "--policy", "preemptive-slo", "--kv-budget", "300000",
     "--inject", "spike:0.35:3.0,stall:0.25:60000", "--fault-seed", "7", "--json"),
    ("serve", "--trace", "bursty-slo", "--policy", "preemptive-slo", "--kv-budget", "300000",
     "--inject", "spike:0.35:3.0,stall:0.25:60000", "--fault-seed", "7",
     "--no-epoch-compression", "--json"),
    ("fleet", "--trace", "bursty-slo", "--fleet", "trio-virgo", "--inject",
     "crash:0.6:400000,slow:0.5:2.5:300000,partition:0.4:250000", "--fault-seed", "11", "--json"),
    ("fleet", "--trace", "bursty-gpt", "--fleet", "duo-virgo", "--inject", "crash@0:1:5000000",
     "--json"),
    ("fleet", "--trace", "bursty-gpt", "--fleet", "duo-virgo", "--inject", "crash@0:1:5000000",
     "--no-failover", "--json"),
    ("serve", "--trace", "poisson-mixed", "--json"),
    ("model", "--batch", "--names", "gpt-decode,moe-decode", "--designs", "virgo,ampere"),
    *(("table", "--number", str(number)) for number in range(1, 5)),
    *(("figure", "--number", str(number)) for number in range(7, 13)),
)


def _script(run: str, report: str) -> str:
    """A ``python -c`` program printing ``run``'s canonical ``to_dict()`` and
    its ``report``."""
    return (
        "import json\n"
        "from repro.analysis.fleet import fleet_report\n"
        "from repro.analysis.serving import serving_latency_report\n"
        "from repro.workloads.fleet import run_fleet\n"
        "from repro.workloads.models import poisson_stream_trace\n"
        "from repro.workloads.serving import run_serving\n"
        f"result = {run}\n"
        f"print(json.dumps({{'result': result.to_dict(), 'report': {report}(result)}}, indent=2))\n"
    )


def _model_sweep(models_outer: bool) -> str:
    """A ``python -c`` program printing the ``to_dict()`` of every zoo model
    on the four designs and on heterogeneous Virgo, all in one process."""
    loops = (
        "for name in model_names() for design, hetero in CONFIGS"
        if models_outer
        else "for design, hetero in CONFIGS for name in model_names()"
    )
    return (
        "import json\n"
        "from repro.workloads import model_names, run_model\n"
        f"CONFIGS = [(design, False) for design in {DESIGNS!r}] + [('virgo', True)]\n"
        "runs = {\n"
        "    f'{name}/{design}' + ('-hetero' if hetero else ''):\n"
        "        run_model(name, design, heterogeneous=hetero).to_dict()\n"
        f"    {loops}\n"
        "}\n"
        "print(json.dumps(runs, indent=2))\n"
    )


CHAOS = "crash:0.6:400000,slow:0.5:2.5:300000,partition:0.4:250000"
STREAM = "poisson_stream_trace({!r}, requests={}, mean_interarrival=2e6)"

#: Serve and fleet fast paths no CLI run reaches, run through the API: a
#: replica's epoch split by a router event under each router policy, an
#: epoch bounded by injected faults, and the router parking or shedding while
#: every replica is believed down.  Also runs that share a lowering across
#: designs, which no one-run process can: the zoo on every design in one
#: process, designs and then models in the outer loop, and a fleet whose
#: replicas run on designs with different lowering keys.
SCRIPT_RUNS: Tuple[Tuple[str, str], ...] = (
    *(
        (
            f"fleet-chaos/{policy}",
            _script(
                f"run_fleet({STREAM.format('poisson-chaos', 200)}, 'trio-virgo', "
                f"policy={policy!r}, faults={CHAOS!r}, fault_seed=11)",
                "fleet_report",
            ),
        )
        for policy in ("round-robin", "least-outstanding", "least-kv", "power-of-two")
    ),
    (
        "serve-faulted-stream",
        _script(
            f"run_serving({STREAM.format('poisson-faulted', 300)}, "
            "faults='spike:0.02:2.0,stall:0.02:50000', fault_seed=5)",
            "serving_latency_report",
        ),
    ),
    (
        "fleet-all-down",
        _script(
            "run_fleet('bursty-slo', 'duo-virgo', faults='crash@0:1:5000000,crash@1:1:5000000')",
            "fleet_report",
        ),
    ),
    ("zoo-designs-outer", _model_sweep(models_outer=False)),
    ("zoo-models-outer", _model_sweep(models_outer=True)),
    ("fleet-mixed-quad", _script("run_fleet('bursty-slo', 'mixed-quad')", "fleet_report")),
)

#: The CI chaos serve and fleet runs, traced: each writes :data:`TRACE_FILE`.
TRACED_RUNS: Tuple[Tuple[str, ...], ...] = (
    ("serve", "--trace", "bursty-slo", "--policy", "preemptive-slo", "--kv-budget", "300000",
     "--inject", "spike:0.35:3.0,stall:0.25:60000", "--fault-seed", "7"),
    ("fleet", "--trace", "bursty-slo", "--fleet", "trio-virgo", "--inject",
     "crash:0.6:400000,slow:0.5:2.5:300000,partition:0.4:250000", "--fault-seed", "11"),
)
TRACE_FILE = "trace.json"

ENERGY_PATH = re.compile(r"energy|power|_uj\b|_mj\b|_mw\b|per_flop", re.IGNORECASE)
ENERGY_LINE = re.compile(r"energy|power|\b[umpf]J\b|\bmW\b", re.IGNORECASE)
NUMBER = re.compile(r"-?\d[\d,]*(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _run(checkout: Path, argv: List[str]) -> str:
    """The command's output; for a run that writes :data:`TRACE_FILE`, with
    the trace appended as JSON, its wall-clock ``phase`` spans dropped."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as workdir:
        done = subprocess.run(
            [sys.executable, *argv], cwd=workdir, env=env, capture_output=True, text=True
        )
        if done.returncode:
            raise RuntimeError(f"{' '.join(argv)} failed in {checkout}:\n{done.stderr[-2000:]}")
        if TRACE_FILE not in argv:
            return done.stdout
        trace = json.loads((Path(workdir) / TRACE_FILE).read_text())
    trace["traceEvents"] = [
        event for event in trace["traceEvents"] if event.get("cat") != "phase"
    ]
    return done.stdout + json.dumps(trace, indent=1) + "\n"


def _zoo(checkout: Path) -> List[str]:
    listing = _run(checkout, ["-c", "from repro.workloads import model_names; "
                                    "print(' '.join(model_names()))"])
    return listing.split()


Surface = Tuple[str, Optional[List[str]], Optional[str], Tuple[bool, bool]]
BOTH = (True, True)


def _union(in_base: List[str], in_head: List[str]) -> Iterator[Tuple[str, Tuple[bool, bool]]]:
    """Each item either side lists, BASE's order first, with (in BASE, in HEAD)."""
    for item in in_base + [item for item in in_head if item not in in_base]:
        yield item, (item in in_base, item in in_head)


def _names(directory: Path, pattern: str) -> List[str]:
    return sorted(path.name for path in directory.glob(pattern))


def surfaces(base: Path, head: Path) -> Iterator[Surface]:
    """(name, argv or None, golden file name or None, (in BASE, in HEAD)) for
    every surface either checkout has."""
    goldens = [_names(checkout / "tests" / "goldens", "*.json") for checkout in (base, head)]
    for golden, sides in _union(*goldens):
        yield f"golden:{golden}", None, golden, sides
    yield "compare", ["-m", "repro", "compare"], None, BOTH
    examples = [_names(checkout / "examples", "*.py") for checkout in (base, head)]
    for example, sides in _union(*examples):
        yield f"example:{example}", [str(Path("examples") / example)], None, sides
    for name, sides in _union(_zoo(base), _zoo(head)):
        for design in DESIGNS:
            yield (f"model:{name}/{design}",
                   ["-m", "repro", "model", "--name", name, "--design", design, "--json"], None,
                   sides)
        yield (f"model:{name}/virgo-hetero",
               ["-m", "repro", "model", "--name", name, "--design", "virgo", "--hetero",
                "--json"], None, sides)
    for argv in CI_RUNS:
        yield "cli:" + " ".join(argv), ["-m", "repro", *argv], None, BOTH
    for argv in TRACED_RUNS:
        argv = (*argv, "--trace-out", TRACE_FILE)
        yield "cli:" + " ".join(argv), ["-m", "repro", *argv], None, BOTH
    for name, code in SCRIPT_RUNS:
        yield f"script:{name}", ["-c", code], None, BOTH


def _output(checkout: Path, argv: Optional[List[str]], golden: Optional[str]) -> str:
    if golden is not None:
        return (checkout / "tests" / "goldens" / golden).read_text()
    # Example scripts are given relative to the checkout.
    if argv[0].startswith("examples"):
        argv = [str(checkout / argv[0]), *argv[1:]]
    return _run(checkout, argv)


class Tally:
    def __init__(self) -> None:
        self.energy = 0
        self.max_rel = 0.0
        self.allowed: List[str] = []
        self.diffs: List[str] = []


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def allow_patterns(entries: Iterable[str]) -> List[Pattern[str]]:
    """``--allow`` entries as patterns over ``surface:path``; ``*`` matches
    one list index."""
    return [re.compile(re.escape(entry).replace(r"\*", r"\d+")) for entry in entries]


def _allowed(allow: List[Pattern[str]], surface: str, path: str) -> bool:
    return any(pattern.fullmatch(f"{surface}:{path}") for pattern in allow)


def _note(tally: Tally, line: str, allowed: bool) -> None:
    (tally.allowed if allowed else tally.diffs).append(line)


def _leaf(tally: Tally, path: str, a, b, allowed: bool) -> None:
    if json.dumps(a) == json.dumps(b):
        return
    # An int that became a float (or back) is a change of type, not rounding.
    numeric = type(a) is type(b) and isinstance(a, (int, float)) and not isinstance(a, bool)
    if numeric and ENERGY_PATH.search(path):
        rel = _rel(a, b)
        if rel <= RTOL:
            tally.energy += 1
            tally.max_rel = max(tally.max_rel, rel)
            return
    _note(tally, f"{path}: {a!r} -> {b!r}", allowed)


def _brief(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def compare_json(tally: Tally, path: str, a, b, allow: List[Pattern[str]], surface: str) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        shared = [key for key in a if key in b]
        order = [key for key in b if key in a]
        if shared != order:
            tally.diffs.append(f"{path}: shared keys {shared} -> {order}")
        for side, this, other in (("removed", a, b), ("added", b, a)):
            for key in this:
                if key not in other:
                    child = f"{path}.{key}" if path else key
                    _note(tally, f"{child}: {side} {_brief(this[key])}",
                          _allowed(allow, surface, child))
        for key in shared:
            compare_json(tally, f"{path}.{key}" if path else key, a[key], b[key], allow, surface)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            tally.diffs.append(f"{path}: length {len(a)} -> {len(b)}")
            return
        for index, (x, y) in enumerate(zip(a, b)):
            compare_json(tally, f"{path}.{index}", x, y, allow, surface)
        return
    _leaf(tally, path, a, b, _allowed(allow, surface, path))


def _compare_line(tally: Tally, x: str, y: str, number: int, allowed: bool) -> None:
    if x == y:
        return
    if NUMBER.sub("#", x) != NUMBER.sub("#", y) or not ENERGY_LINE.search(x):
        _note(tally, f"line {number}: {x!r} -> {y!r}", allowed)
        return
    for p, q in zip(NUMBER.findall(x), NUMBER.findall(y)):
        if p != q:
            _leaf(tally, f"line {number} energy", float(p.replace(",", "")),
                  float(q.replace(",", "")), allowed)


def compare_text(tally: Tally, a: str, b: str, allow: List[Pattern[str]], surface: str) -> None:
    """Report each removed, added and changed line.  Lines are matched on
    their text with numbers masked, so a line whose numbers moved pairs up
    with its counterpart and is compared value by value."""
    left, right = a.splitlines(), b.splitlines()
    masked = difflib.SequenceMatcher(
        None, [NUMBER.sub("#", x) for x in left], [NUMBER.sub("#", y) for y in right],
        autojunk=False,
    )
    for _, i1, i2, j1, j2 in masked.get_opcodes():
        paired = min(i2 - i1, j2 - j1)
        for i, j in zip(range(i1, i1 + paired), range(j1, j1 + paired)):
            _compare_line(tally, left[i], right[j], j + 1, _allowed(allow, surface, str(j + 1)))
        for i in range(i1 + paired, i2):
            _note(tally, f"line {i + 1}: removed {left[i]!r}",
                  _allowed(allow, surface, str(i + 1)))
        for j in range(j1 + paired, j2):
            _note(tally, f"line {j + 1}: added {right[j]!r}",
                  _allowed(allow, surface, str(j + 1)))


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _split(text: str) -> Tuple[str, object]:
    """``text`` as (leading prose, trailing JSON document or None): examples
    print a table or sentences and then a ``to_dict()`` encoding."""
    lines = text.splitlines(keepends=True)
    for index, line in enumerate(lines):
        if line.rstrip() in ("{", "["):
            document = _parse("".join(lines[index:]))
            if document is not None:
                return "".join(lines[:index]), document
    return text, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--allow", action="append", default=[],
                        help="surface:dotted.path (or surface:line) allowed to move further, "
                             "be added or be removed; * stands for a list index; a bare "
                             "surface may be added or removed")
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    allow = allow_patterns(args.allow)
    todo = list(surfaces(base, head))

    def one(surface):
        name, command, golden, sides = surface
        tally = Tally()
        if sides != BOTH:
            side = "added: only HEAD has it" if sides[1] else "removed: only BASE has it"
            _note(tally, side, any(pattern.fullmatch(name) for pattern in allow))
            return name, tally
        a, b = _output(base, command, golden), _output(head, command, golden)
        (ta, ja), (tb, jb) = _split(a), _split(b)
        compare_text(tally, ta, tb, allow, name)
        if (ja is None) != (jb is None):
            tally.diffs.append("one output ends in a JSON document, the other does not")
        elif ja is not None:
            compare_json(tally, "", ja, jb, allow, name)
        return name, tally

    failed = 0
    totals: Dict[str, int] = {"identical": 0, "energy rounding": 0}
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        for name, tally in pool.map(one, todo):
            if tally.diffs:
                failed += 1
                print(f"DIFF  {name}")
                for line in tally.diffs[:20]:
                    print(f"        {line}")
            elif tally.energy or tally.allowed:
                totals["energy rounding"] += 1
                print(f"ok    {name}: {tally.energy} energy/power values moved, "
                      f"max relative {tally.max_rel:.2e}")
            else:
                totals["identical"] += 1
                print(f"same  {name}")
            for line in tally.allowed:
                print(f"        allowed {line}")
    print(f"{len(todo)} surfaces: {totals['identical']} byte-identical, "
          f"{totals['energy rounding']} differ only in energy/power rounding"
          f"{' or allowed fields' if allow else ''}, {failed} differ otherwise")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
