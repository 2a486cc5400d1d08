"""Bad command-line input fails in one line, before any simulation starts.

Every subcommand's numeric and path options, driven in-process through
``main(argv)``: an out-of-range number, a non-number, or an output path
no run could write must exit non-zero with a single line on stderr (or a
single-line ``SystemExit`` message), without a traceback, without a
kernel-cache probe and without creating anything on disk.
"""

import pytest

from repro.__main__ import build_parser, main
from repro.perf import timing_cache


def _bad_inputs(tmp):
    """(argv, expected fragment) per rejected input; ``tmp`` holds a file."""
    blocker = str(tmp / "file")
    below = str(tmp / "file" / "sub")
    missing = str(tmp / "missing" / "trace.json")
    return [
        (["gemm", "--size", "0"], "--size: must be >= 1, got 0"),
        (["gemm", "--size", "-5"], "--size: must be >= 1, got -5"),
        (["gemm", "--size", "big"], "invalid int value: 'big'"),
        (["table", "--number", "9"], "tables 1 through 4"),
        (["table", "--number", "one"], "invalid int value"),
        (["figure", "--number", "3"], "figures are 7 through 12"),
        (["model", "--cache-dir", below], "is not a writable directory"),
        (["model", "--cache-dir", blocker], "is not a directory"),
        (["model", "--batch", "--names", "gpt-decode", "--designs", "virgo",
          "--cache-dir", below], "is not a writable directory"),
        (["model", "--trace-out", below + ".json"], "is not a writable directory"),
        (["model", "--trace-out", str(tmp)], "is a directory"),
        (["model", "--trace-out", missing], "is not a writable directory"),
        (["serve", "--cache-dir", below], "is not a writable directory"),
        (["serve", "--trace-out", below + ".json"], "is not a writable directory"),
        (["serve", "--kv-budget", "0", "--policy", "kv-budget"], "--kv-budget: must be >= 1"),
        (["serve", "--fault-seed", "x"], "invalid int value: 'x'"),
        (["fleet", "--cache-dir", below], "is not a writable directory"),
        (["fleet", "--trace-out", below + ".json"], "is not a writable directory"),
        (["fleet", "--max-retries", "-1"], "--max-retries: must be >= 0, got -1"),
        (["fleet", "--router-seed", "1.5"], "invalid int value: '1.5'"),
        (["fleet", "--fleet", "0"], "at least one replica"),
        (["trace-report", "--input", str(tmp / "none.json")], "cannot load"),
        (["trace-report", "--input", blocker, "--top", "-1"], "--top: must be >= 0"),
    ]


@pytest.fixture
def scratch(tmp_path):
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    return tmp_path


def test_bad_input_fails_in_one_line_before_any_simulation(scratch, capsys):
    cache = timing_cache()
    for argv, fragment in _bad_inputs(scratch):
        before = (cache.hits, cache.misses)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        code = excinfo.value.code
        err = capsys.readouterr().err
        message = err if err else f"{code}\n"
        assert code not in (0, None), argv
        assert message.count("\n") == 1 and "Traceback" not in message, (argv, message)
        assert fragment in message, (argv, message)
        if err:
            assert message.startswith(f"repro {argv[0]}: error: "), (argv, message)
        assert (cache.hits, cache.misses) == before, argv
    assert sorted(path.name for path in scratch.iterdir()) == ["file"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gemm", "--size", "1"],
        ["model", "--cache-dir", "new/nested/dir", "--trace-out", "t.json"],
        ["serve", "--kv-budget", "1", "--fault-seed", "-3"],
        ["fleet", "--max-retries", "0", "--router-seed", "-1"],
        ["trace-report", "--input", "t.json", "--top", "0"],
    ],
)
def test_boundary_values_parse(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    build_parser().parse_args(argv)
    assert list(tmp_path.iterdir()) == []
