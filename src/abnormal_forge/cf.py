"""Continued-fraction mechanics.

Convergents via the standard recurrence, cylinder intervals and the
Gauss measure. The value of a finite digit sequence and the classical
approximation bound and sign are references the tests check the
convergents against; the pipeline does not run them, so they live with
the tests. All arithmetic is exact: integers and ``fractions.Fraction``
throughout, with the Gauss measure delivered as a fixed-point binary
value with :data:`LOG2_BITS` (64) fractional bits, the one precision
every caller uses. :func:`gauss_measure_fixed`
is its one formula: the sampler's thresholds and ``gauss_measure``'s
references both call it. ``fractions`` is
imported by the helpers that build a Fraction, so the convergent walk,
``log2_fixed`` and ``digits_of_int`` load no more than they use.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


class Convergent(namedtuple("Convergent", "index p q")):
    """Lowest-terms truncation p/q of a continued fraction after ``index`` digits."""

    __slots__ = ()


def convergent_stream(digits: Iterable[int]) -> Iterator[Convergent]:
    """Yield the convergents of a digit sequence, one per digit.

    Uses q_{n+1} = a_{n+1} q_n + q_{n-1} (and the mirror recurrence for
    numerators), which produces lowest-terms pairs automatically:
    consecutive denominators are always coprime.
    """
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    index = 0
    for a in digits:
        if a < 1:
            raise ValueError(f"partial quotient must be >= 1, got {a}")
        index += 1
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield Convergent(index, p_cur, q_cur)


class CylinderInterval(namedtuple("CylinderInterval", "lo hi")):
    """Interval of numbers whose expansion starts with a given digit string,
    from Fraction ``lo`` to Fraction ``hi``."""

    __slots__ = ()


def cylinder_interval(digits: Sequence[int]) -> CylinderInterval:
    """Interval spanned by all continuations of a finite digit string.

    The endpoints are the value of the string itself, p_n/q_n, and the
    value with the last digit increased by one,
    (p_n + p_{n-1})/(q_n + q_{n-1}). Raising a digit at an odd depth
    lowers the value, so the bumped endpoint is the lower one exactly
    when n is odd. By p_n q_{n-1} - p_{n-1} q_n = (-1)**(n-1), the width
    is 1/(q_n (q_n + q_{n-1})).
    """
    from fractions import Fraction
    if not digits:
        raise ValueError("cylinder of the empty string is the whole space")
    p_prev, q_prev, p, q = 1, 0, 0, 1
    for conv in convergent_stream(digits):
        p_prev, q_prev, p, q = p, q, conv.p, conv.q
    own = Fraction(p, q)
    bumped = Fraction(p + p_prev, q + q_prev)
    lo, hi = (bumped, own) if len(digits) % 2 else (own, bumped)
    return CylinderInterval(lo=lo, hi=hi)


def digits_of_int(value: int, base: int, places: int) -> tuple[int, ...]:
    """``places`` base-``base`` digits of value, most significant first."""
    if base == 2:
        bits = bin(value)[2:] if value else ""
        padded = bits.rjust(places, "0")
        return tuple(1 if c == "1" else 0 for c in padded)
    out = []
    for _ in range(places):
        value, d = divmod(value, base)
        out.append(d)
    return tuple(reversed(out))


LOG2_BITS = 64  # fractional bits of every log2_fixed result
_LOG2_GUARD_BITS = 48  # headroom of log2_fixed's working values


def log2_fixed(num: int, den: int) -> int:
    """Fixed-point log2(num/den) for num >= den >= 1: ~floor(2**64 * log2).

    Classic digit extraction: normalize the mantissa into [1, 2), then
    repeatedly square, pulling one output bit per squaring. Working
    values are truncated integers with 48 guard bits of headroom, so
    the result is deterministic and within 2 ulp of the true value
    (exact for exact powers of two). No floating point anywhere.
    """
    if den < 1 or num < den:
        raise ValueError("log2_fixed requires num >= den >= 1")
    shift = num.bit_length() - den.bit_length()
    if num < (den << shift):
        shift -= 1
    if num == den << shift:
        return shift << LOG2_BITS
    work = LOG2_BITS + _LOG2_GUARD_BITS
    x = (num << work) // (den << shift)
    frac = 0
    top = 1 << (work + 1)
    for _ in range(LOG2_BITS):
        x = (x * x) >> work
        frac <<= 1
        if x >= top:
            frac |= 1
            x >>= 1
    return (shift << LOG2_BITS) | frac


def gauss_measure_fixed(lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> int:
    """2**64-scaled Gauss measure of (lo_num/lo_den, hi_num/hi_den); log2_fixed
    reads num/den alone, so the ratio goes to it unreduced."""
    return log2_fixed((hi_den + hi_num) * lo_den, hi_den * (lo_den + lo_num))


def gauss_measure(lo: Fraction, hi: Fraction) -> Fraction:
    """Gauss measure of an interval in [0, 1]: log2((1 + hi)/(1 + lo)).

    The result is a dyadic rational with denominator 2**64, within 2
    ulp of the exact measure.
    """
    from fractions import Fraction
    lo, hi = Fraction(lo), Fraction(hi)
    if not (0 <= lo < hi <= 1):
        raise ValueError(f"need 0 <= lo < hi <= 1, got ({lo}, {hi})")
    value = gauss_measure_fixed(*lo.as_integer_ratio(), *hi.as_integer_ratio())
    return Fraction(value, 1 << LOG2_BITS)
