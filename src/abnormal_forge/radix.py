"""Base-b expansions of rationals and digit-occurrence statistics.

Digit extraction is exact big-integer arithmetic: the first N places of
p/q in base b come from a single scaled division, never from floating
point. Occurrence counting is overlapping (every start position), the
convention under which frequency limits define normality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cf import cylinder_interval, gauss_measure

TERMINATING = "terminating"
NON_TERMINATING = "non-terminating"


@dataclass(frozen=True)
class BaseDigits:
    """The first ``len(digits)`` base-``base`` places of a number in [0, 1)."""

    base: int
    digits: tuple[int, ...]
    convention: str


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


def base_expansion(x: Fraction, base: int, places: int,
                   convention: str = TERMINATING) -> BaseDigits:
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
    return BaseDigits(base=base, digits=digits_of_int(prefix, base, places),
                      convention=convention)


@dataclass(frozen=True)
class DigitStats:
    """Occurrence count of one pattern within a digit prefix.

    ``ratio`` is count/prefix_len exactly; ``reference`` is the expected
    limiting frequency supplied by the caller (1/base**k for base
    digits, the Gauss measure of the matching cylinder for partial
    quotients), with ``discrepancy`` their absolute difference.
    """

    pattern: tuple[int, ...]
    count: int
    prefix_len: int
    ratio: Fraction
    reference: Fraction | None = None
    discrepancy: Fraction | None = None


def count_occurrences(digits: Sequence[int], pattern: Sequence[int],
                      prefix_len: int,
                      reference: Fraction | None = None) -> DigitStats:
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
        try:
            count = segment.count(symbol)
        except AttributeError:
            count = sum(1 for d in segment if d == symbol)
    else:
        target = tuple(pattern)
        count = 0
        for i in range(prefix_len - k + 1):
            if tuple(digits[i:i + k]) == target:
                count += 1
    ratio = Fraction(count, prefix_len)
    discrepancy = abs(ratio - reference) if reference is not None else None
    return DigitStats(pattern=tuple(pattern), count=count,
                      prefix_len=prefix_len, ratio=ratio,
                      reference=reference, discrepancy=discrepancy)


@dataclass(frozen=True)
class RunStats:
    """Longest run of a symbol in a prefix, plus how many positions differ from it."""

    symbol: int
    prefix_len: int
    longest_run: int
    differing: int


def max_run(digits: Sequence[int], symbol: int, prefix_len: int) -> RunStats:
    if prefix_len > len(digits):
        raise ValueError(
            f"prefix {prefix_len} exceeds the {len(digits)} available digits")
    longest = current = differing = 0
    for i in range(prefix_len):
        if digits[i] == symbol:
            current += 1
            if current > longest:
                longest = current
        else:
            current = 0
            differing += 1
    return RunStats(symbol=symbol, prefix_len=prefix_len,
                    longest_run=longest, differing=differing)


def cf_normality_report(digits: Sequence[int], patterns: Sequence[Sequence[int]],
                        prefix_len: int) -> list[DigitStats]:
    """Occurrence statistics of partial-quotient strings against Gauss-measure targets."""
    if not patterns:
        raise ValueError("at least one pattern is required")
    report = []
    for pattern in patterns:
        reference = gauss_measure(cylinder_interval(list(pattern)))
        report.append(count_occurrences(digits, pattern, prefix_len, reference))
    return report
