"""The one rule for a value read from outside the program: a JSON value of a
session header, model file, behaviour profile or config file, or the text of
a CSV cell or ``GAZE_SENTINEL_*`` variable. A number is an int or a float,
not a bool, and finite; an integer is an int, not a bool. Text is a number
only in JSON's grammar, which is what ``repr(float)`` and ``str(int)``
write, and an integer only as a JSON integer literal (``1_0``, `` 1``,
``+1`` and ``nan`` are neither). A rule, a key of ``RULES``, names a
field's kind and range in the words of its error."""

from __future__ import annotations

import re
import sys

import numpy as np

from .errors import InvalidParameterError


class FieldError(InvalidParameterError, ValueError):
    """A JSON value outside its field's rule; the message is whole, so a
    reader that names its file adds no type name to it."""


RULES = {
    "an integer": (int, lambda v: True),
    "an integer of at least 0": (int, lambda v: v >= 0),
    "an integer of at least 1": (int, lambda v: v >= 1),
    "in 1..4": (int, lambda v: 1 <= v <= 4),
    "a finite number": (float, lambda v: True),
    "a number > 0": (float, lambda v: v > 0),
    "a number >= 0": (float, lambda v: v >= 0),
    "a number in [0, 1]": (float, lambda v: 0 <= v <= 1),
}
_GRAMMAR = {int: re.compile(r"-?(?:0|[1-9][0-9]*)"),
            float: re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")}


def holds(value, rule: str) -> bool:
    """Whether the JSON value ``value`` is of ``rule``'s kind and in its range."""
    kind, within = RULES[rule]
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        return False
    # A comparison is exact for an int of any size; NaN fails it.
    return (kind is int or abs(value) <= sys.float_info.max) and within(value)


def _error(what: str, value: str, rule: str) -> str:
    """``piece 5 is not in 1..4``, or ``accuracy is 7.5, not a number in [0, 1]``."""
    return f"{what} {value} is not {rule}" if RULES[rule][0] is int \
        else f"{what} is {value}, not {rule}"


def read(value, what: str, rule: str):
    """The JSON value ``value`` as ``rule``'s kind, or FieldError naming ``what``."""
    if not holds(value, rule):
        raise FieldError(_error(what, repr(value), rule))
    return RULES[rule][0](value)


def parse(text: str, what: str, rule: str):
    """The text ``text`` as ``rule``'s kind, or ValueError naming ``what``,
    as ``int`` and ``float`` raise it for text they do not read."""
    kind = RULES[rule][0]
    value = kind(text) if _GRAMMAR[kind].fullmatch(text) else None
    if not holds(value, rule):
        raise ValueError(_error(what, text, rule))
    return value


def column(values, dtype, where: str) -> np.ndarray:
    """``values`` (a JSON list, or an array) as an array of ``dtype``: int64
    of integers or float64 of finite numbers, else FieldError naming
    ``where``. numpy's inferred dtype shows an item of another type, but for
    a bool among numbers, which one scan of the list's item types shows."""
    array = np.asarray(values)
    what = "an integer" if dtype == np.int64 else "a number"
    if array.dtype != dtype:
        converted = np.asarray(values, dtype)  # raises on an item that does not convert
        if array.size and not (dtype == np.float64 and array.dtype == np.int64):
            raise FieldError(f"{where} holds a value that is not {what}")
        array = converted
    if isinstance(values, list) and bool in set(map(type, values)):
        raise FieldError(f"{where} holds a value that is not {what}")
    if dtype == np.float64 and not np.isfinite(array).all():
        raise FieldError(f"{where} holds a number that is not finite")
    return array
