"""Base-b expansions of rationals and digit-occurrence statistics.

Digit extraction is exact big-integer arithmetic: the first N places of
p/q in base b come from a single scaled division, never from floating
point. Occurrence counting is overlapping (every start position), the
convention under which frequency limits define normality.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .cf import cylinder_interval, digits_of_int, gauss_measure

TERMINATING = "terminating"
NON_TERMINATING = "non-terminating"


def base_expansion(x: Fraction, base: int, places: int,
                   convention: str = TERMINATING) -> tuple[int, ...]:
    """First ``places`` digits of x in [0, 1) after the radix point.

    ``terminating`` gives the standard expansion (trailing zeros for
    rationals whose denominator divides a power of the base);
    ``non-terminating`` gives the form approached from below, ending in
    the digit base-1 repeating. Zero has no non-terminating form.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if places < 1:
        raise ValueError(f"places must be >= 1, got {places}")
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError(f"x must lie in [0, 1), got {x}")
    scaled = x.numerator * base**places
    if convention == TERMINATING:
        prefix = scaled // x.denominator
    elif convention == NON_TERMINATING:
        if x == 0:
            raise ValueError("0 has no non-terminating expansion")
        prefix = -(-scaled // x.denominator) - 1  # ceil(x * b**places) - 1
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return digits_of_int(prefix, base, places)


class DigitStats(namedtuple("DigitStats", "pattern count prefix_len ratio "
                                          "reference discrepancy")):
    """Occurrence ``count`` of a digit tuple ``pattern`` in a digit prefix.

    ``ratio`` is count/``prefix_len`` exactly, a Fraction; ``reference`` is
    the Gauss measure of the pattern's cylinder, the limiting frequency in
    a typical partial-quotient stream, with ``discrepancy`` their absolute
    difference.
    """

    __slots__ = ()


def count_occurrences(digits: Sequence[int], pattern: Sequence[int],
                      prefix_len: int) -> int:
    """Overlapping occurrences of ``pattern`` in the first ``prefix_len`` digits."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    if prefix_len > len(digits):
        raise ValueError(
            f"prefix {prefix_len} exceeds the {len(digits)} available digits")
    if prefix_len < 1:
        raise ValueError("prefix length must be positive")
    k = len(pattern)
    if k == 1:
        symbol = pattern[0]
        segment = digits if prefix_len == len(digits) else digits[:prefix_len]
        return segment.count(symbol)
    target = tuple(pattern)
    count = 0
    for i in range(prefix_len - k + 1):
        if tuple(digits[i:i + k]) == target:
            count += 1
    return count


def cf_normality_report(digits: Sequence[int], patterns: Sequence[Sequence[int]],
                        prefix_len: int) -> list[DigitStats]:
    """Occurrence statistics of partial-quotient strings against Gauss-measure targets."""
    if not patterns:
        raise ValueError("at least one pattern is required")
    report = []
    for pattern in patterns:
        cylinder = cylinder_interval(list(pattern))
        reference = gauss_measure(cylinder.lo, cylinder.hi)
        count = count_occurrences(digits, pattern, prefix_len)
        ratio = Fraction(count, prefix_len)
        report.append(DigitStats(pattern=tuple(pattern), count=count,
                                 prefix_len=prefix_len, ratio=ratio,
                                 reference=reference,
                                 discrepancy=abs(ratio - reference)))
    return report
