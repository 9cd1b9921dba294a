import random
from fractions import Fraction

import pytest

from abnormal_forge.cf import gauss_measure
from abnormal_forge.radix import (NON_TERMINATING, base_expansion,
                                  cf_normality_report, count_occurrences)


def test_base_expansion_examples():
    assert base_expansion(Fraction(7, 10), 10, 3) == (7, 0, 0)
    assert base_expansion(Fraction(7, 10), 10, 3,
                          NON_TERMINATING) == (6, 9, 9)
    assert base_expansion(Fraction(1, 2), 2, 4,
                          NON_TERMINATING) == (0, 1, 1, 1)


def test_base_expansion_validates():
    with pytest.raises(ValueError):
        base_expansion(Fraction(0), 2, 4, NON_TERMINATING)
    with pytest.raises(ValueError):
        base_expansion(Fraction(3, 2), 2, 4)
    with pytest.raises(ValueError):
        base_expansion(Fraction(1, 2), 1, 4)
    with pytest.raises(ValueError):
        base_expansion(Fraction(1, 2), 2, 0)
    with pytest.raises(ValueError):
        base_expansion(Fraction(1, 2), 2, 4, "mixed")


def test_base_expansion_reconstruction():
    rng = random.Random(12)
    for _ in range(300):
        den = rng.randint(2, 10**6)
        num = rng.randrange(den)
        x = Fraction(num, den)
        base = rng.choice([2, 3, 10, 16])
        places = rng.randint(1, 40)
        term = base_expansion(x, base, places)
        value = sum(d * Fraction(1, base) ** (i + 1)
                    for i, d in enumerate(term))
        assert 0 <= x - value < Fraction(1, base) ** places
        if x != 0:
            nonterm = base_expansion(x, base, places, NON_TERMINATING)
            value = sum(d * Fraction(1, base) ** (i + 1)
                        for i, d in enumerate(nonterm))
            assert 0 < x - value <= Fraction(1, base) ** places


def test_base_expansion_power_denominator_structure():
    # For x = a / base**m in lowest terms the terminating expansion stops
    # after m digits (last digit nonzero) and the non-terminating one is
    # all (base-1) from position m+1 onward.
    rng = random.Random(13)
    for _ in range(200):
        base = rng.choice([2, 3, 5, 10])
        m = rng.randint(1, 12)
        num = rng.randint(1, base**m - 1)
        while num % base == 0:
            num //= base
        x = Fraction(num, base**m)
        places = m + rng.randint(1, 10)
        term = base_expansion(x, base, places)
        assert all(d == 0 for d in term[m:])
        assert term[m - 1] != 0
        nonterm = base_expansion(x, base, places, NON_TERMINATING)
        assert all(d == base - 1 for d in nonterm[m:])


def test_count_occurrences_examples():
    assert count_occurrences([1, 1, 1, 2], [1, 1], 4) == 2
    # overlapping occurrences both counted
    assert count_occurrences([0, 1, 0, 1, 0], [0, 1, 0], 5) == 2
    assert count_occurrences([3, 3, 3], [7], 3) == 0


def test_count_occurrences_validates():
    with pytest.raises(ValueError):
        count_occurrences([1, 2], [1], 3)
    with pytest.raises(ValueError):
        count_occurrences([1, 2], [], 2)


def test_single_symbol_counts_partition_prefix():
    rng = random.Random(5)
    digits = [rng.randrange(5) for _ in range(500)]
    n = 321
    total = sum(count_occurrences(digits, [s], n) for s in range(5))
    assert total == n


def test_concatenation_boundary_loss():
    rng = random.Random(6)
    for _ in range(200):
        a = [rng.randrange(2) for _ in range(rng.randint(5, 30))]
        b = [rng.randrange(2) for _ in range(rng.randint(5, 30))]
        pattern = [rng.randrange(2) for _ in range(rng.randint(1, 4))]
        whole = count_occurrences(a + b, pattern, len(a) + len(b))
        parts = (count_occurrences(a, pattern, len(a))
                 + count_occurrences(b, pattern, len(b)))
        assert parts <= whole <= parts + len(pattern) - 1


def test_cf_normality_report_examples():
    report = cf_normality_report([1] * 100, [[2]], 100)
    stats = report[0]
    assert stats.ratio == 0
    assert abs(float(stats.reference) - 0.16993) < 1e-4
    assert abs(float(stats.discrepancy) - 0.16993) < 1e-4

    report = cf_normality_report([1], [[1]], 1)
    assert report[0].ratio == 1

    with pytest.raises(ValueError):
        cf_normality_report([1, 2], [], 2)


def test_cf_normality_report_pair_reference():
    report = cf_normality_report([1, 1, 2, 1], [[1, 1]], 4)
    stats = report[0]
    assert stats.count == 1
    expected = gauss_measure(Fraction(1, 2), Fraction(2, 3))
    assert stats.reference == expected
