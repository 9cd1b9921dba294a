"""Continued-fraction mechanics.

Convergents via the standard recurrence, conversion between rationals
and digit sequences, cylinder intervals, the Gauss measure, and the
classical approximation facts. All arithmetic is exact: integers and
``fractions.Fraction`` throughout, with the Gauss measure delivered as
a fixed-point binary value of configurable precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Convergent:
    """Lowest-terms truncation p/q of a continued fraction after ``index`` digits."""

    index: int
    p: int
    q: int

    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


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


def cf_to_rational(digits: Sequence[int]) -> Fraction:
    """Exact value of a finite continued fraction (digits all >= 1)."""
    if not digits:
        raise ValueError("empty digit sequence has no value")
    last = None
    for last in convergent_stream(digits):
        pass
    return Fraction(last.p, last.q)


def rational_to_cf(x: Fraction) -> list[int]:
    """Digit expansion of a rational in (0, 1) by the Euclidean algorithm.

    Returns the canonical (shorter) of the two finite representations:
    the last digit is >= 2 whenever the expansion has more than one
    digit, so the round trip through :func:`cf_to_rational` is exact.
    """
    if not 0 < x < 1:
        raise ValueError(f"x must lie strictly between 0 and 1, got {x}")
    digits = []
    num, den = x.numerator, x.denominator
    while num:
        a, rem = divmod(den, num)
        digits.append(a)
        num, den = rem, num
    return digits


@dataclass(frozen=True)
class CylinderInterval:
    """Interval of numbers whose expansion starts with a given digit string."""

    lo: Fraction
    hi: Fraction
    depth: int

    def width(self) -> Fraction:
        return self.hi - self.lo


def cylinder_interval(digits: Sequence[int]) -> CylinderInterval:
    """Interval spanned by all continuations of a finite digit string.

    The endpoints are the value of the string itself, p_n/q_n, and the
    value with the last digit increased by one,
    (p_n + p_{n-1})/(q_n + q_{n-1}). Raising a digit at an odd depth
    lowers the value, so the bumped endpoint is the lower one exactly
    when n is odd. By p_n q_{n-1} - p_{n-1} q_n = (-1)**(n-1), the width
    is 1/(q_n (q_n + q_{n-1})).
    """
    if not digits:
        raise ValueError("cylinder of the empty string is the whole space")
    p_prev, q_prev, p, q = 1, 0, 0, 1
    for conv in convergent_stream(digits):
        p_prev, q_prev, p, q = p, q, conv.p, conv.q
    own = Fraction(p, q)
    bumped = Fraction(p + p_prev, q + q_prev)
    lo, hi = (bumped, own) if len(digits) % 2 else (own, bumped)
    return CylinderInterval(lo=lo, hi=hi, depth=len(digits))


_LOG2_GUARD_BITS = 48  # headroom of log2_fixed's working values


def log2_fixed(num: int, den: int, precision_bits: int) -> int:
    """Fixed-point log2(num/den) for num >= den >= 1: ~floor(2**prec * log2).

    Classic digit extraction: normalize the mantissa into [1, 2), then
    repeatedly square, pulling one output bit per squaring. Working
    values are truncated integers with 48 guard bits of headroom, so
    the result is deterministic and within 2 ulp of the true value
    (exact for exact powers of two). No floating point anywhere.
    """
    if den < 1 or num < den:
        raise ValueError("log2_fixed requires num >= den >= 1")
    if precision_bits < 1:
        raise ValueError("precision must be at least one bit")
    shift = num.bit_length() - den.bit_length()
    if num < (den << shift):
        shift -= 1
    if num == den << shift:
        return shift << precision_bits
    work = precision_bits + _LOG2_GUARD_BITS
    x = (num << work) // (den << shift)
    frac = 0
    top = 1 << (work + 1)
    for _ in range(precision_bits):
        x = (x * x) >> work
        frac <<= 1
        if x >= top:
            frac |= 1
            x >>= 1
    return (shift << precision_bits) | frac


def gauss_measure(lo, hi=None, precision_bits: int = 64) -> Fraction:
    """Gauss measure of an interval in [0, 1]: log2((1 + hi)/(1 + lo)).

    Accepts a :class:`CylinderInterval` or an explicit (lo, hi) pair of
    rationals. The result is a dyadic rational with denominator
    2**precision_bits, within 2 ulp of the exact measure.
    """
    if isinstance(lo, CylinderInterval):
        lo, hi = lo.lo, lo.hi
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not (0 <= lo < hi <= 1):
        raise ValueError(f"need 0 <= lo < hi <= 1, got ({lo}, {hi})")
    ratio = (1 + hi) / (1 + lo)
    value = log2_fixed(ratio.numerator, ratio.denominator, precision_bits)
    return Fraction(value, 1 << precision_bits)


def approx_bound(q_n: int, a_next: int) -> Fraction:
    """Bound 1/(a_{n+1} q_n**2) on the gap between a number and its n-th convergent."""
    if q_n < 1 or a_next < 1:
        raise ValueError("q_n and a_next must be positive")
    return Fraction(1, a_next * q_n * q_n)


def convergent_sign(n: int) -> int:
    """Sign of (x - p_n/q_n): +1 for even n, -1 for odd n."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return 1 if n % 2 == 0 else -1
