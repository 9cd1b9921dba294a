import random
from fractions import Fraction

import mpmath
import pytest

from abnormal_forge.cf import (LOG2_BITS, convergent_stream,
                               cylinder_interval, gauss_measure, log2_fixed)
from paper_reference import approx_bound, cf_to_rational, convergent_sign


def test_convergent_stream_examples():
    convs = [(c.p, c.q) for c in convergent_stream([1, 2, 3])]
    assert convs == [(1, 1), (2, 3), (7, 10)]
    convs = list(convergent_stream([1, 2, 3, 1]))
    assert (convs[-1].p, convs[-1].q, convs[-1].index) == (9, 13, 4)
    convs = [(c.p, c.q) for c in convergent_stream([2, 2])]
    assert convs == [(1, 2), (2, 5)]


def test_convergent_stream_rejects_bad_digit():
    with pytest.raises(ValueError):
        list(convergent_stream([1, 0, 2]))


def test_convergents_match_fraction_fold():
    rng = random.Random(424242)
    for _ in range(10_000):
        n = rng.randint(1, 30)
        digits = [rng.randint(1, 10**6) for _ in range(n)]
        acc = Fraction(0)
        for d in reversed(digits):
            acc = Fraction(1, d + acc)
        last = None
        for last in convergent_stream(digits):
            pass
        assert Fraction(last.p, last.q) == acc
        assert cf_to_rational(digits) == acc


def test_consecutive_denominators_coprime():
    import math
    rng = random.Random(8)
    for _ in range(200):
        digits = [rng.randint(1, 50) for _ in range(rng.randint(2, 40))]
        prev_q = 1
        for conv in convergent_stream(digits):
            assert math.gcd(prev_q, conv.q) == 1
            prev_q = conv.q


def test_cf_to_rational_examples():
    assert cf_to_rational([2, 2]) == Fraction(2, 5)
    assert cf_to_rational([5]) == Fraction(1, 5)
    assert cf_to_rational([1, 1, 1]) == Fraction(2, 3)
    with pytest.raises(ValueError):
        cf_to_rational([])


def test_cylinder_examples():
    iv = cylinder_interval([1])
    assert (iv.lo, iv.hi) == (Fraction(1, 2), Fraction(1))
    iv = cylinder_interval([2])
    assert (iv.lo, iv.hi) == (Fraction(1, 3), Fraction(1, 2))
    iv = cylinder_interval([1, 2])
    assert (iv.lo, iv.hi) == (Fraction(2, 3), Fraction(3, 4))


def test_cylinder_nesting_and_width_decay():
    rng = random.Random(4)
    for _ in range(200):
        digits = [rng.randint(1, 8) for _ in range(rng.randint(1, 8))]
        outer = cylinder_interval(digits)
        inner = cylinder_interval(digits + [rng.randint(1, 8)])
        assert outer.lo <= inner.lo and inner.hi <= outer.hi
        assert inner.hi - inner.lo < outer.hi - outer.lo
        # Reference: the endpoints are the string's value and the value
        # with its last digit raised, and the width is 1/(q_n (q_n + q_{n-1})).
        a = cf_to_rational(digits)
        b = cf_to_rational(digits[:-1] + [digits[-1] + 1])
        assert (outer.lo, outer.hi) == (min(a, b), max(a, b))
        q_prev, q = 0, 1
        for conv in convergent_stream(digits):
            q_prev, q = q, conv.q
        assert outer.hi - outer.lo == Fraction(1, q * (q + q_prev))


def test_gauss_measure_examples():
    assert gauss_measure(Fraction(0), Fraction(1)) == 1
    one = gauss_measure(Fraction(1, 2), Fraction(1))
    assert abs(one - Fraction(4150375, 10**7)) < Fraction(1, 10**6)
    two = gauss_measure(Fraction(1, 3), Fraction(1, 2))
    assert abs(two - Fraction(1699250, 10**7)) < Fraction(1, 10**6)


def test_gauss_measure_validates():
    with pytest.raises(ValueError):
        gauss_measure(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        gauss_measure(Fraction(-1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        gauss_measure(Fraction(1, 2), Fraction(3, 2))


def test_log2_fixed_exact_powers():
    assert log2_fixed(4, 1) == 2 << LOG2_BITS
    assert log2_fixed(1, 1) == 0
    assert log2_fixed(1024, 1) == 10 << LOG2_BITS


def test_log2_fixed_vs_mpmath():
    mpmath.mp.prec = 160
    rng = random.Random(2718)
    for _ in range(250):
        den = rng.randint(1, 10**9)
        num = den + rng.randint(0, 10**12)
        got = log2_fixed(num, den)
        true = mpmath.log(mpmath.mpf(num) / den, 2) * (1 << LOG2_BITS)
        assert abs(got - true) <= 2, (num, den)


def test_gauss_measure_vs_mpmath():
    mpmath.mp.prec = 200
    intervals = [(Fraction(1, 2), Fraction(1)), (Fraction(1, 3), Fraction(1, 2)),
                 (Fraction(8, 21), Fraction(5, 13)),
                 (Fraction(0), Fraction(1, 10**6 + 1))]
    for lo, hi in intervals:
        scaled = gauss_measure(lo, hi) * (1 << LOG2_BITS)
        assert scaled.denominator == 1
        ratio = (1 + hi) / (1 + lo)
        true = mpmath.log(mpmath.mpf(ratio.numerator) / ratio.denominator, 2)
        assert abs(scaled.numerator - true * (1 << LOG2_BITS)) <= 2, (lo, hi)


def test_measure_partition_additivity():
    # One-digit cylinders partition the interval; the fixed-point floors
    # may each lose a couple of ulps, nothing more.
    cylinders = [cylinder_interval([k]) for k in range(1, 10**4 + 1)]
    total = sum(gauss_measure(c.lo, c.hi) for c in cylinders)
    expected = 1 - gauss_measure(Fraction(0), Fraction(1, 10**4 + 1))
    assert abs(total - expected) < Fraction(4 * 10**4, 1 << 64)


def test_measure_tail_at_million():
    tail = gauss_measure(Fraction(0), Fraction(1, 10**6 + 1))
    covered = gauss_measure(Fraction(1, 10**6 + 1), Fraction(1))
    assert abs(covered + tail - 1) < Fraction(1, 10**9)
    assert float(tail) < 1.5e-6


def test_approx_bound_examples():
    assert approx_bound(10, 3) == Fraction(1, 300)
    assert approx_bound(1, 1) == 1
    assert approx_bound(13, 1) == Fraction(1, 169)
    with pytest.raises(ValueError):
        approx_bound(0, 1)


def test_convergent_sign_examples():
    assert convergent_sign(0) == 1
    assert convergent_sign(7) == -1
    assert convergent_sign(12) == 1
    with pytest.raises(ValueError):
        convergent_sign(-1)


def test_approximation_inequality_and_sign():
    rng = random.Random(31337)
    for _ in range(500):
        n = rng.randint(2, 30)
        digits = [rng.randint(1, 1000) for _ in range(n)]
        x = cf_to_rational(digits)
        for conv in convergent_stream(digits):
            if conv.index == n:
                break
            gap = x - Fraction(conv.p, conv.q)
            assert gap != 0
            assert (1 if gap > 0 else -1) == convergent_sign(conv.index)
            assert abs(gap) <= approx_bound(conv.q, digits[conv.index])
