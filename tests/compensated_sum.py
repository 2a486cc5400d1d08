"""A pure-Python copy of CPython 3.12's built-in ``sum()``.

CPython 3.12 adds floats with Neumaier's compensated summation, so
``sum(values)`` over floats can differ in the last bit from the plain left
fold earlier interpreters compute.  :func:`sum_312` reproduces the 3.12
algorithm (``builtin_sum_impl`` in ``Python/bltinmodule.c``) on any
interpreter, so a test can patch it over ``builtins.sum`` and check that an
output does not depend on which ``sum()`` runs:

* an exact ``int`` running total adds ``int`` and ``bool`` items exactly
  while it fits a C ``long``;
* an exact ``float`` running total adds exact ``float`` items with
  Neumaier compensation and ``int`` items (that fit a C ``long``)
  uncompensated; the compensation is added once, when the float loop ends
  and it is finite and nonzero;
* anything else falls back to plain ``result + item`` for the rest of the
  sequence.
"""

from __future__ import annotations

import math

_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1


def _fits_long(value: int) -> bool:
    return _LONG_MIN <= value <= _LONG_MAX


def sum_312(iterable, /, start=0):
    """``sum(iterable, start)`` as CPython 3.12 computes it."""
    if isinstance(start, str):
        raise TypeError("sum() can't sum strings [use ''.join(seq) instead]")
    if isinstance(start, bytes):
        raise TypeError("sum() can't sum bytes [use b''.join(seq) instead]")
    if isinstance(start, bytearray):
        raise TypeError("sum() can't sum bytearray [use b''.join(seq) instead]")
    items = iter(iterable)
    result = start
    if type(result) is int and _fits_long(result):
        for item in items:
            if type(item) in (int, bool) and _fits_long(item) and _fits_long(result + item):
                result = result + int(item)
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
                continue
            if isinstance(item, int) and _fits_long(item):
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result
