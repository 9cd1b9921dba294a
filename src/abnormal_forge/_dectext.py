"""Decimal text of integers: subquadratic conversion and short renderings.

CPython 3.11's ``str(int)`` and ``int(str)`` take time quadratic in the
number of digits, and refuse values past the interpreter's int<->str
digit limit (4300 by default, at least 640; the guard against
CVE-2020-10735). The two converters here are exact for integers of any
size under any such limit, and never change it. They split large values
in half and combine the halves with fast multiplication (Knuth, TAOCP
Vol. 2, section 4.4; the method of CPython 3.12's ``Lib/_pylong.py``):

* :func:`int_to_text` rebuilds an int of ``TEXT_FAST_BITS`` bits or more
  as a :class:`decimal.Decimal` from its bit halves, ``hi * 2**w + lo``,
  in an exact context (libmpdec multiplies large operands in
  subquadratic time), then renders it with ``str()``, which is linear
  for a Decimal. ``Decimal(int)`` and ``str(Decimal)`` have no digit
  limit.
* :func:`text_to_int` parses a string of more than ``INT_FAST_CHARS``
  characters by halves, ``(hi * 5**k << k) + lo`` with k the length of
  the low half, after taking off what ``int()`` allows around the
  digits: surrounding whitespace, a sign and single underscores between
  digits. Any Unicode decimal digits are accepted, as ``int()`` does.

Every builtin ``str()``/``int()`` call made here sees fewer than 640
digits, so no limit the interpreter allows can refuse one, and both
converters give exactly what ``str()`` and ``int()`` give with the limit
lifted, errors included. The recursions are module-level functions
taking their powers cache as an argument: a nested recursive closure
would form a reference cycle that keeps the cache alive until the
garbage collector runs.

Each split conversion keeps its latest results in a
:func:`functools.lru_cache` of ``SPLIT_CACHE_SIZE`` entries, so a CLI
process that writes (or reads) a tail digit in both the digit file and
the certificate renders (or parses) it once. The keys are the full int
for rendering and the full ``str`` for parsing, so a hit is exact;
values below the split thresholds never enter the caches. Each entry
keeps its int and its text alive until it is evicted or the process
ends: at most ``SPLIT_CACHE_SIZE`` pairs per direction, which in the
CLI are the large fields of the certificates it handles (the tail
digit, and past 2**2000 bits the inserted digits and denominators too).
"""

from __future__ import annotations

import decimal
import functools

# Below these sizes the builtins are fast and within any digit limit
# (2**2000 has 603 decimal digits); above them the split conversions
# take over.
TEXT_FAST_BITS = 2_000
TEXT_FAST_LIMIT = 1 << TEXT_FAST_BITS
INT_FAST_CHARS = 600          # also the leaves of the text -> int split

_DECIMAL_LEAF_BITS = 1_024    # leaves of the int -> Decimal split
# Entries per split cache: the thirteen decimal fields of a certificate
# fit with room to spare, so its own fields cannot evict its tail before
# the digit file asks for it.
SPLIT_CACHE_SIZE = 16
# int() strips the whitespace str.strip() does, except these four.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def int_to_text(n: int) -> str:
    """``str(n)``, in subquadratic time for large ``n``."""
    if -TEXT_FAST_LIMIT < n < TEXT_FAST_LIMIT:
        return str(n)
    if n < 0:
        return "-" + int_to_text(-n)
    return _split_text(n)


@functools.lru_cache(maxsize=SPLIT_CACHE_SIZE)
def _split_text(n: int) -> str:
    """str(n) for n >= TEXT_FAST_LIMIT, through an exact Decimal."""
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
            * _power(decimal.Decimal(2), low_bits, powers)
            + _to_decimal(lo, low_bits, powers))


def text_to_int(text) -> int:
    """``int(text)``, exact past the digit limit and subquadratic in length.

    Strings of more than ``INT_FAST_CHARS`` characters are parsed here;
    anything else (short strings, and the ints of JSON) goes to ``int()``
    as it is.
    """
    if type(text) is not str or len(text) <= INT_FAST_CHARS:
        return int(text)
    return _split_int(text)


@functools.lru_cache(maxsize=SPLIT_CACHE_SIZE)
def _split_int(text: str) -> int:
    """int(text) for a str of more than INT_FAST_CHARS characters."""
    body = text.strip()
    sign = body[:1]
    if sign in ("+", "-"):
        body = body[1:]
    if "_" in body and not (body.startswith("_") or body.endswith("_")
                            or "__" in body):
        body = body.replace("_", "")
    if not body.isdecimal() or any(c in text for c in _SEPARATORS):
        raise ValueError(
            f"invalid literal for int() with base 10: {text!r:.200}")
    value = _digits_to_int(body, 0, len(body), {})
    return -value if sign == "-" else value


def _digits_to_int(text: str, start: int, stop: int, powers: dict) -> int:
    """int(text[start:stop]) for an all-digit slice."""
    if stop - start <= INT_FAST_CHARS:
        return int(text[start:stop])
    mid = (start + stop + 1) >> 1
    k = stop - mid
    hi = _digits_to_int(text, start, mid, powers)
    return ((hi * _power(5, k, powers)) << k) + _digits_to_int(
        text, mid, stop, powers)


def _power(radix, k: int, powers: dict):
    """radix**k for k >= 1, by halves, memoized in ``powers``.

    The split recursions ask for the powers of one level, k and often
    k + 1, then those of the level below, about k / 2, so each new
    power costs one multiplication of known ones.
    """
    result = powers.get(k)
    if result is None:
        if k == 1:
            result = radix
        elif k - 1 in powers:
            result = powers[k - 1] * radix
        else:
            half = k >> 1
            result = _power(radix, half, powers) * _power(radix, k - half,
                                                          powers)
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
