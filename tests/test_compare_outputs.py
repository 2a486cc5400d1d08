"""Tests for ``tools/compare_outputs.py``'s JSON and line comparisons and ``--allow``."""

import importlib.util
import json
import subprocess
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

SURFACE = "cli:serve"


def compare(a, b, *allow):
    tally = compare_outputs.Tally()
    patterns = compare_outputs.allow_patterns(f"{SURFACE}:{entry}" for entry in allow)
    compare_outputs.compare_json(tally, "", a, b, patterns, SURFACE)
    return tally


def test_identical_documents_have_no_difference():
    document = {"trace": "t", "requests": [{"id": "r0", "finish": 5}]}
    tally = compare(document, dict(document))
    assert (tally.diffs, tally.allowed) == ([], [])


def test_added_and_removed_keys_are_listed_and_shared_keys_still_compared():
    base = {"trace": "t", "cycles": 10, "gone": 1}
    head = {"trace": "t", "cycles": 11, "policy": "fcfs"}
    assert compare(base, head).diffs == [
        "gone: removed 1",
        'policy: added "fcfs"',
        "cycles: 10 -> 11",
    ]


def test_reordered_shared_keys_are_a_difference():
    tally = compare({"report": {"a": 1, "b": 2}}, {"report": {"b": 2, "a": 1, "c": 3}},
                    "report.c")
    assert tally.diffs == ["report: shared keys ['a', 'b'] -> ['b', 'a']"]
    assert tally.allowed == ["report.c: added 3"]


def test_a_star_allows_an_added_key_at_every_list_index():
    base = {"requests": [{"id": "r0"}, {"id": "r1"}]}
    head = {"requests": [{"id": "r0", "disposition": "met"}, {"id": "r1", "disposition": "met"}]}
    tally = compare(base, head, "requests.*.disposition")
    assert tally.diffs == []
    assert tally.allowed == [
        'requests.0.disposition: added "met"',
        'requests.1.disposition: added "met"',
    ]


def test_a_star_stands_for_an_index_only():
    base = {"requests": {"first": {"id": "r0"}}}
    head = {"requests": {"first": {"id": "r0", "disposition": "met"}}}
    tally = compare(base, head, "requests.*.disposition")
    assert tally.diffs == ['requests.first.disposition: added "met"']


def test_an_allowed_path_does_not_cover_its_neighbours():
    base = {"requests": [{"id": "r0", "finish": 5}]}
    head = {"requests": [{"id": "r0", "finish": 6, "disposition": "met"}]}
    tally = compare(base, head, "requests.*.disposition")
    assert tally.diffs == ["requests.0.finish: 5 -> 6"]


def test_long_added_values_are_shortened():
    tally = compare({}, {"faults": {"seed": 7, "spikes": list(range(40))}})
    (line,) = tally.diffs
    assert line.startswith('faults: added {"seed": 7') and line.endswith("...")
    assert len(line) < 80


def compare_lines(a, b, *allow):
    tally = compare_outputs.Tally()
    patterns = compare_outputs.allow_patterns(f"{SURFACE}:{entry}" for entry in allow)
    compare_outputs.compare_text(tally, "\n".join(a), "\n".join(b), patterns, SURFACE)
    return tally


def test_an_inserted_line_does_not_hide_a_changed_line_elsewhere():
    base = ["policy fcfs", "r0  5 cycles", "r1  7 cycles", "done"]
    head = ["policy fcfs", "preemptions 0", "r0  5 cycles", "r1  8 cycles", "done"]
    assert compare_lines(base, head).diffs == [
        "line 2: added 'preemptions 0'",
        "line 4: 'r1  7 cycles' -> 'r1  8 cycles'",
    ]


def test_removed_lines_are_numbered_in_the_base_and_allowed_per_line():
    base = ["a", "b", "c", "d"]
    head = ["a", "c", "D"]
    tally = compare_lines(base, head, "2")
    assert tally.diffs == ["line 3: 'd' -> 'D'"]
    assert tally.allowed == ["line 2: removed 'b'"]


def test_an_energy_line_whose_numbers_round_pairs_up_after_an_insert():
    base = ["energy 1.000000000000 uJ"]
    head = ["new line", "energy 1.000000000001 uJ"]
    tally = compare_lines(base, head)
    assert tally.diffs == ["line 1: added 'new line'"]
    assert tally.energy == 1


def test_a_trace_surface_drops_the_wall_clock_phase_spans(tmp_path, monkeypatch):
    trace = {"traceEvents": [{"cat": "phase", "ts": 7}, {"cat": "iteration", "ts": 0}]}

    def fake_run(argv, cwd, **kwargs):
        (Path(cwd) / compare_outputs.TRACE_FILE).write_text(json.dumps(trace))
        return subprocess.CompletedProcess(argv, 0, stdout="table\n", stderr="")

    monkeypatch.setattr(compare_outputs.subprocess, "run", fake_run)
    output = compare_outputs._run(tmp_path, ["--trace-out", compare_outputs.TRACE_FILE])
    prose, document = compare_outputs._split(output)
    assert prose == "table\n"
    assert document == {"traceEvents": [{"cat": "iteration", "ts": 0}]}


def test_a_surface_only_one_side_has_is_added_or_removed(tmp_path, monkeypatch, capsys):
    """Goldens, examples and zoo models are listed from both checkouts: one
    that only HEAD has is added, one that only BASE has is removed, and each
    is a difference unless ``--allow SURFACE`` names it."""
    for side, goldens, examples, zoo in (
        ("base", ("kept.json", "gone.json"), ("demo.py",), "gpt old-moe"),
        ("head", ("kept.json", "new.json"), ("demo.py", "extra.py"), "gpt"),
    ):
        for name in goldens:
            path = tmp_path / side / "tests" / "goldens" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{}\n")
        for name in examples:
            path = tmp_path / side / "examples" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("")
        (tmp_path / side / "zoo").write_text(zoo)
    monkeypatch.setattr(compare_outputs, "_zoo", lambda root: (root / "zoo").read_text().split())
    monkeypatch.setattr(compare_outputs, "_run", lambda checkout, argv: "same\n")
    base, head = str(tmp_path / "base"), str(tmp_path / "head")
    removed = ["golden:gone.json"] + [
        f"model:old-moe/{design}" for design in (*compare_outputs.DESIGNS, "virgo-hetero")
    ]
    added = ["golden:new.json", "example:extra.py"]

    assert compare_outputs.main([base, head]) == 1
    out = capsys.readouterr().out
    for surface in removed:
        assert f"DIFF  {surface}\n        removed: only BASE has it\n" in out
    for surface in added:
        assert f"DIFF  {surface}\n        added: only HEAD has it\n" in out
    assert "same  golden:kept.json" in out and "same  example:demo.py" in out
    assert f"{len(removed) + len(added)} differ otherwise" in out

    allow = [arg for surface in removed + added for arg in ("--allow", surface)]
    assert compare_outputs.main([base, head, *allow]) == 0
    assert "allowed added: only HEAD has it" in capsys.readouterr().out
