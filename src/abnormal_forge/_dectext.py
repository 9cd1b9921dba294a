"""Decimal text of integers: subquadratic conversion and short renderings.

CPython 3.11's ``str(int)`` and ``int(str)`` take time quadratic in the
number of digits, which turns a tail digit of a million bits into
seconds of file I/O. The two converters here split large values in
half and combine the halves with fast multiplication (Knuth, TAOCP
Vol. 2, section 4.4; the method of CPython 3.12's ``Lib/_pylong.py``):

* :func:`int_to_text` rebuilds an int of more than ``TEXT_FAST_BITS``
  bits as a :class:`decimal.Decimal` from its bit halves,
  ``hi * 2**w + lo``, in an exact context (libmpdec multiplies large
  operands in subquadratic time), then renders it with ``str()``, which
  is linear for a Decimal.
* :func:`text_to_int` parses an ASCII all-digit string of more than
  ``INT_FAST_CHARS`` characters by halves, ``(hi * 5**k << k) + lo``
  with k the length of the low half. Every chunk handed to ``int()`` is
  below the interpreter's default 4300-digit limit.

Both give exactly what ``str()`` and ``int()`` give. Anything else
(signs, underscores, whitespace, non-ASCII digits, short values) goes
through plain ``str()``/``int()``, so the values accepted and the
errors raised stay the same; callers lift the interpreter's digit limit
(:func:`unlimited_int_strings`) around those paths. The recursions are module-level functions taking their
powers cache as an argument: a nested recursive closure would form a
reference cycle that keeps the cache alive until the garbage collector
runs.
"""

from __future__ import annotations

import decimal
import sys
from contextlib import contextmanager

# Above these sizes the split conversions beat str()/int(); below them
# the builtins are fast and the split would only add calls.
TEXT_FAST_BITS = 10_000
TEXT_FAST_LIMIT = 1 << TEXT_FAST_BITS
INT_FAST_CHARS = 3_000

_DECIMAL_LEAF_BITS = 1_024    # leaves of the int -> Decimal split
_TEXT_LEAF_CHARS = 1_024      # leaves of the text -> int split


@contextmanager
def unlimited_int_strings():
    """Temporarily lift the int<->str digit limit for huge values."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def int_to_text(n: int) -> str:
    """``str(n)``, in subquadratic time for large ``n``."""
    if -TEXT_FAST_LIMIT < n < TEXT_FAST_LIMIT:
        return str(n)
    if n < 0:
        return "-" + int_to_text(-n)
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(_to_decimal(n, n.bit_length(), {}))


def _to_decimal(n: int, bits: int, powers: dict) -> decimal.Decimal:
    """Decimal(n) for 0 <= n < 2**bits, splitting on bits."""
    if bits <= _DECIMAL_LEAF_BITS:
        return decimal.Decimal(n)
    low_bits = bits >> 1
    hi = n >> low_bits
    lo = n & ((1 << low_bits) - 1)
    return (_to_decimal(hi, bits - low_bits, powers)
            * _power_of_two(low_bits, powers)
            + _to_decimal(lo, low_bits, powers))


def _power_of_two(w: int, powers: dict) -> decimal.Decimal:
    result = powers.get(w)
    if result is None:
        if w <= _DECIMAL_LEAF_BITS:
            result = decimal.Decimal(1 << w)
        elif w - 1 in powers:
            result = powers[w - 1] * 2
        else:
            half = w >> 1
            result = (_power_of_two(half, powers)
                      * _power_of_two(w - half, powers))
        powers[w] = result
    return result


def text_to_int(text) -> int:
    """``int(text)``, in subquadratic time for long ASCII digit strings."""
    if (type(text) is str and len(text) > INT_FAST_CHARS
            and text.isascii() and text.isdigit()):
        return _digits_to_int(text, 0, len(text), {})
    return int(text)


def _digits_to_int(text: str, start: int, stop: int, powers: dict) -> int:
    """int(text[start:stop]) for an all-digit slice."""
    if stop - start <= _TEXT_LEAF_CHARS:
        return int(text[start:stop])
    mid = (start + stop + 1) >> 1
    k = stop - mid
    hi = _digits_to_int(text, start, mid, powers)
    return ((hi * _power_of_five(k, powers)) << k) + _digits_to_int(
        text, mid, stop, powers)


def _power_of_five(k: int, powers: dict) -> int:
    result = powers.get(k)
    if result is None:
        if k <= _TEXT_LEAF_CHARS:
            result = 5**k
        elif k - 1 in powers:
            result = powers[k - 1] * 5
        else:
            half = k >> 1
            result = (_power_of_five(half, powers)
                      * _power_of_five(k - half, powers))
        powers[k] = result
    return result


def brief(value) -> str:
    """A short rendering of a value for messages: long ints by bit size."""
    if isinstance(value, tuple):
        return "(" + ", ".join(brief(v) for v in value) + ")"
    if isinstance(value, int) and value.bit_length() > 128:
        return f"<{value.bit_length()}-bit integer>"
    text = str(value)
    if len(text) > 40:
        return f"{text[:12]}...{text[-12:]}"
    return text
