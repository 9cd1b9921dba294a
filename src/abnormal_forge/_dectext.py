"""Decimal text of integers: subquadratic conversion and short renderings.

CPython 3.11's ``str(int)`` and ``int(str)`` take time quadratic in the
number of digits, and refuse values past the interpreter's int<->str
digit limit (4300 by default, at least 640; the guard against
CVE-2020-10735). The two converters here are exact for integers of any
size under any such limit, and never change it. They split large values
in half and combine the halves with fast multiplication (Knuth, TAOCP
Vol. 2, section 4.4; the method of CPython 3.12's ``Lib/_pylong.py``):

* :func:`int_to_text` renders an int of ``TEXT_FAST_BITS`` bits or more
  as an exact :class:`decimal.Decimal`, with ``str()``, which is linear
  for a Decimal. A value 2**e + r with r < 2**TEXT_FAST_BITS, the shape
  of every base-2 paper tail and power-hit denominator, is formed as
  ``Decimal(2) ** e + r``, one libmpdec squaring chain; any other value
  is rebuilt from its bit halves, ``hi * 2**w + lo``. Both run in an
  exact context (libmpdec multiplies large operands in subquadratic
  time). ``Decimal(int)`` and ``str(Decimal)`` have no digit limit.
* :func:`text_to_int` reads back exactly the texts ``str()`` writes:
  an optional ``-``, then ASCII digits with no leading zero (``0``
  alone for zero), the grammar :func:`is_canonical` holds; any other
  text raises ``ValueError``. It is the program's one reader of
  integer text: digit-file lines, certificate strings, the CLI's
  integer flags and its two environment variables. A text of at most
  ``INT_FAST_CHARS`` characters, which the memo never holds, goes to
  ``int()`` after the grammar check; a longer one is parsed by halves,
  ``(hi * 5**k << k) + lo`` with k the length of the low half.
* Recognition: before that parse, :func:`text_to_int` guesses a long
  text as 2**e with its last ``INT_FAST_CHARS`` digits replaced by the
  text's (e from its length and leading digits), and keeps the guess,
  memoized as a parse would be, if its render by :func:`int_to_text`'s
  own split is the text: a match is ``str()`` output and needs no
  grammar scan. A base-2 paper tail, 2**(k*k) + 1, thus reads through
  one libmpdec power, at a fraction of the cost of parsing it, and a
  text far from every power of two costs no render. Base-3 tails, first
  scheduled at block 3, a block no run reaches, are parsed.

Every builtin ``str()``/``int()`` call made here sees fewer than 640
digits, so no limit the interpreter allows can refuse one, and the two
converters are inverses: ``int_to_text(text_to_int(t)) == t`` for every
text ``t`` accepted. The recursions are module-level functions
taking their powers cache as an argument: a nested recursive closure
would form a reference cycle that keeps the cache alive until the
garbage collector runs.

Both converters share one two-way memo of their split conversions: each
stores its result under the int and under the text, so a value rendered
once reads back as a lookup, with no grammar scan, and a value parsed
once renders as one, and a CLI process that meets a large value in both
of its files converts it once. The keys are the full int and the full
``str``, so a hit is exact; values below the split thresholds never
enter the memo. It holds at most ``2 * SPLIT_CACHE_SIZE`` keys, so at
least the latest ``SPLIT_CACHE_SIZE`` pairs, which in the CLI are the
large fields of the certificates it handles (the tail digit, and past
2**2000 bits the inserted digits and denominators too); each keeps its
int and its text alive until it is evicted or the process ends. It is
safe across threads: each lookup, key store and eviction is one call on
an ``OrderedDict``, and a race between them can only tear a pair or drop
a key early, which costs a recomputation, never a wrong result.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict

# Below these sizes the builtins are fast and within any digit limit
# (2**2000 has 603 decimal digits); above them the split conversions
# take over.
TEXT_FAST_BITS = 2_000
TEXT_FAST_LIMIT = 1 << TEXT_FAST_BITS
INT_FAST_CHARS = 600          # also the leaves of the text -> int split

_DECIMAL_LEAF_BITS = 1_024    # leaves of the int -> Decimal split
_LOW_MODULUS = 10 ** INT_FAST_CHARS  # the digits _near_power reads exactly
_LOG2_10 = math.log2(10)
# Pairs in the memo: the thirteen decimal fields of a certificate fit
# with room to spare, so its own fields cannot evict its tail before the
# digit file asks for it.
SPLIT_CACHE_SIZE = 16

# A negative canonical text; matched in place, so a refused text is not copied.
_NEGATIVE = re.compile("-[1-9][0-9]*")

# The two-way memo: int -> str and str -> int, oldest key first.
_memo: OrderedDict = OrderedDict()


def int_to_text(n: int) -> str:
    """``str(n)``, in subquadratic time for large ``n``."""
    if -TEXT_FAST_LIMIT < n < TEXT_FAST_LIMIT:
        return str(n)
    if n < 0:
        return "-" + int_to_text(-n)
    text = _memo.get(n)
    if text is None:
        text = _split_text(n)
        _remember(n, text)
    return text


def _remember(n: int, text: str) -> None:
    """Store a split conversion under its int and under its text; then
    evict the oldest keys."""
    _memo[n] = text
    _memo[text] = n
    while len(_memo) > 2 * SPLIT_CACHE_SIZE:
        try:
            _memo.popitem(last=False)
        except KeyError:  # another thread emptied it first
            break


def _split_text(n: int) -> str:
    """str(n) for n >= TEXT_FAST_LIMIT, through an exact Decimal."""
    import decimal
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        if (n >> TEXT_FAST_BITS).bit_count() == 1:  # n = 2**e + r, small r
            value = (decimal.Decimal(2) ** (n.bit_length() - 1)
                     + decimal.Decimal(n & (TEXT_FAST_LIMIT - 1)))
        else:
            value = _to_decimal(n, n.bit_length(), {}, decimal.Decimal)
        return str(value)


def _to_decimal(n: int, bits: int, powers: dict, Decimal: type):
    """Decimal(n) for 0 <= n < 2**bits, splitting on bits."""
    if bits <= _DECIMAL_LEAF_BITS:
        return Decimal(n)
    low_bits = bits >> 1
    hi = n >> low_bits
    lo = n & ((1 << low_bits) - 1)
    return (_to_decimal(hi, bits - low_bits, powers, Decimal)
            * _power(Decimal(2), low_bits, powers)
            + _to_decimal(lo, low_bits, powers, Decimal))


def is_canonical(text: str) -> bool:
    """Whether ``text`` is what ``str()`` writes for some int: an optional
    ``-``, then ASCII digits with no leading zero (``0`` alone for zero)."""
    if text.isdigit():
        return text.isascii() and (text[0] != "0" or text == "0")
    return _NEGATIVE.fullmatch(text) is not None


def text_to_int(text: str) -> int:
    """The int whose ``str()`` is ``text``, exact past the digit limit and
    subquadratic in length; a text :func:`is_canonical` refuses raises
    ``ValueError``."""
    if len(text) > INT_FAST_CHARS:  # the memo holds no shorter text
        value = _memo.get(text)
        if value is None:
            value = _near_power(text)
            if value is not None:
                _remember(value, text)
        if value is not None:  # a memo or render text is str() output
            return value
    if not is_canonical(text):  # show repr(text)[:200] without forming it
        shown = text if len(text) <= 200 else text[:200] + "".join(
            q for q in "'\"" if q in text)  # so repr picks text's quote
        raise ValueError(f"not a canonical decimal integer: {shown!r:.200}")
    if len(text) <= INT_FAST_CHARS:
        return int(text)
    if text[0] == "-":
        return -text_to_int(text[1:])
    value = _digits_to_int(text, 0, len(text), {})
    _remember(value, text)
    return value


def _near_power(text: str) -> int | None:
    """The int whose ``str()`` is ``text``, guessed as 2**e with its last
    ``INT_FAST_CHARS`` digits replaced by the text's, or None.

    e >= TEXT_FAST_BITS is guessed from the text's length and first 17
    digits, which must put its log2 within 2**-20 of e, so a text far
    from every power of two costs no render. The guess is kept only if
    its render is ``text``, so a match is ``str()`` output.
    """
    head = text[:17]
    if not (text.isascii() and head.isdigit() and head[0] != "0"
            and text[-INT_FAST_CHARS:].isdigit()):
        return None
    log = math.log2(int(head)) + (len(text) - len(head)) * _LOG2_10
    e = round(log)
    if e < TEXT_FAST_BITS or abs(log - e) > 2 ** -20:
        return None
    value = ((1 << e) - pow(2, e, _LOW_MODULUS)
             + int(text[-INT_FAST_CHARS:]))
    return value if _split_text(value) == text else None


def _digits_to_int(text: str, start: int, stop: int, powers: dict) -> int:
    """int(text[start:stop]) for a slice of ASCII digits."""
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
        return brief_bits(value.bit_length())
    text = str(value)
    if len(text) > 40:
        return f"{text[:12]}...{text[-12:]}"
    return text


def brief_bits(bits: int) -> str:
    """brief() of any integer of ``bits`` > 128 bits, without forming one."""
    return f"<{bits}-bit integer>"
