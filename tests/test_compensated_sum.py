"""The goldens hold under CPython 3.12's compensated ``sum()``.

CPython 3.12's ``sum()`` adds floats with Neumaier compensation, so a
float energy total built by ``sum()`` could differ in its last bit between
3.11 and 3.12.  Energy is counted in whole femtojoules, so no output may
depend on that.  ``compensated_sum.sum_312`` copies the 3.12 algorithm;
patched over ``builtins.sum``, every golden must still match on any
interpreter.  The known answers below were recorded with CPython 3.12.1,
and on a 3.12 interpreter the copy is also checked against the real
``sum()``.
"""

import builtins
import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_goldens
from compensated_sum import sum_312
from repro.perf import timing_cache

#: (items, start, CPython 3.12.1's ``sum(items, start)``), start None for
#: the default.  CPython 3.11 gives 0.9999999999999999, 0.0 and
#: 0.6000000000000001 for the first three.
KNOWN_ANSWERS = (
    ([0.1] * 10, None, 1.0),
    ([1e16, 1.0, -1e16], None, 1.0),
    ([0.1, 0.2, 0.3], None, 0.6),
    ([1, 0.1, 2, 0.2], None, 3.3000000000000003),
    ([2**63, 0.5, 0.25], None, 9.223372036854776e18),
    ([0.5, 2**64, 0.1], None, 1.8446744073709552e19),
    ([], 0.0, 0.0),
    ([True, 2], None, 3),
)


@pytest.mark.parametrize("items, start, expected", KNOWN_ANSWERS)
def test_copy_gives_the_recorded_answers(items, start, expected):
    got = sum_312(items) if start is None else sum_312(items, start)
    assert (type(got), got) == (type(expected), expected)


def test_copy_rejects_string_starts():
    with pytest.raises(TypeError):
        sum_312(["a"], "")


@pytest.mark.skipif(sys.version_info[:2] != (3, 12), reason="compares against 3.12's sum()")
@settings(deadline=None, max_examples=300)
@given(
    items=st.lists(
        st.one_of(st.floats(allow_nan=False), st.integers(-(2**70), 2**70), st.booleans()),
        max_size=30,
    ),
    start=st.one_of(st.just(0), st.floats(allow_nan=False), st.integers(-10, 10)),
)
def test_copy_equals_the_running_interpreters_sum(items, start):
    expected = sum(items, start)
    got = sum_312(items, start)
    assert (type(got), repr(got)) == (type(expected), repr(expected))


def _golden_cases():
    """Each golden test with each of its parameter sets, as keyword arguments."""
    for name, function in inspect.getmembers(test_goldens, inspect.isfunction):
        if not name.startswith("test_"):
            continue
        marks = [mark for mark in getattr(function, "pytestmark", []) if mark.name == "parametrize"]
        if not marks:
            yield pytest.param(function, {}, id=name)
        for mark in marks:
            argname, values = mark.args
            for value in values:
                label = mark.kwargs["ids"](value)
                yield pytest.param(function, {argname: value}, id=f"{name}[{label}]")


@pytest.mark.parametrize("golden_test, params", _golden_cases())
def test_golden_holds_under_the_compensated_sum(golden_test, params, golden, monkeypatch, request):
    if request.config.getoption("--update-goldens"):
        pytest.skip("goldens are being rewritten")
    timing_cache().clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", sum_312)
            if "golden" in inspect.signature(golden_test).parameters:
                golden_test(golden, **params)
            else:
                golden_test(**params)
    finally:
        timing_cache().clear()
