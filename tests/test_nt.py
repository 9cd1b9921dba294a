import math
import random

import pytest
import sympy

from abnormal_forge import nt
from abnormal_forge._dectext import brief
from abnormal_forge.errors import ResourceBudgetExceeded, SearchExhausted
from abnormal_forge.nt import (SMALL_PRIMES, ArtinPrime, baby_step_entries,
                               coprimizing_multiplier, corollary_hypotheses,
                               discrete_log, factorize, find_artin_prime,
                               is_perfect_square, is_prime, is_primitive_root,
                               lift_exponent, pow_exceeds)
from paper_reference import (field_discriminant, kronecker_symbol,
                             lenstra_finiteness, squarefree_kernel)


def test_is_prime_examples():
    assert is_prime(59)
    assert not is_prime(1)
    assert not is_prime(36)


def test_is_prime_small_exhaustive():
    def trial(n):
        if n < 2:
            return False
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                return False
        return True

    for n in range(0, 20_000):
        assert is_prime(n) == trial(n), n


def test_is_prime_matches_sympy_across_the_trial_division_bound():
    # Both sides of 2**16 and of 311**2, where trial division by the 64
    # primes below 312 stops being complete and Miller-Rabin takes over.
    assert SMALL_PRIMES == tuple(sympy.primerange(312))
    assert len(SMALL_PRIMES) == 64
    limit = 2 * 311**2
    primes = set(sympy.primerange(limit))
    for n in range(limit):
        assert is_prime(n) == (n in primes), n


def test_is_prime_known_large():
    # Past psi_13 only trial division answers; anything else is refused.
    assert is_prime(2**61 - 1)          # Mersenne prime
    assert not is_prime(2**67 - 1)      # classic Mersenne composite
    assert not is_prime(3 * (2**107 - 1))
    for n in (2**89 - 1, 2**107 - 1, (2**89 - 1) * (2**107 - 1),
              nt._MR_DETERMINISTIC_BOUND):
        with pytest.raises(ResourceBudgetExceeded) as info:
            is_prime(n)
        assert str(info.value) == (
            f"{brief(n)} is past the deterministic Miller-Rabin bound "
            "3317044064679887385961981; its primality is not proven")


def test_is_prime_random_vs_sympy():
    # Up to 81 bits, all below psi_13 (about 2**81.45).
    rng = random.Random(1234)
    for _ in range(150):
        n = rng.getrandbits(rng.randint(60, 81)) | 1
        assert is_prime(n) == sympy.isprime(n), n


# OEIS A014233: psi_n is the least odd composite that is a strong
# pseudoprime to each of the first n prime bases.
_PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751,
        5: 2152302898747, 6: 3474749660383, 7: 341550071728321,
        8: 341550071728321, 9: 3825123056546413051,
        10: 3825123056546413051, 11: 3825123056546413051,
        12: 318665857834031151167461, 13: 3317044064679887385961981}


def test_mr_bound_matches_its_bases():
    # The bases are the first primes, and the bound is psi for that count,
    # so neither can drift from the other.
    bases = nt._MR_BASES
    assert bases == SMALL_PRIMES[:len(bases)]
    assert nt._MR_DETERMINISTIC_BOUND == _PSI[len(bases)]
    # Each psi_n is a strong pseudoprime to the first n bases.
    for n, psi in _PSI.items():
        assert not sympy.isprime(psi), n
        d, s = psi - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        assert not any(nt._mr_witness(psi, a, d, s)
                       for a in SMALL_PRIMES[:n]), n


def test_is_prime_refutes_psi_12():
    # psi_12 passes the first twelve bases; base 41 refutes it.
    psi_12 = _PSI[12]
    assert not is_prime(psi_12)
    assert factorize(psi_12) == ((399165290221, 1), (798330580441, 1))


def test_factorize_examples():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(58) == ((2, 1), (29, 1))
    assert factorize(1) == ()


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_random_vs_sympy():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 10**12)
        assert factorize(n) == tuple(sorted(sympy.factorint(n).items()))


def test_factorize_handles_perfect_powers():
    # Squares and cubes of primes past the 64 trial primes, just past 311
    # and just past 2**16 among them, have no factor trial division
    # finds; rho splits them.
    for p in (313, 317, 331, 65537, 65539, sympy.nextprime(10**7)):
        for k in (2, 3):
            assert factorize(p**k) == ((p, k),), (p, k)
    for n in (313 * 317, 313**2 * 317, 2**5 * 313**3, 65537**2 * 3**4):
        assert factorize(n) == tuple(sorted(sympy.factorint(n).items())), n


def test_factorize_budget_error(monkeypatch):
    p = sympy.nextprime(1 << 39)  # p * q stays below psi_13
    q = sympy.nextprime(p + 10**6)
    monkeypatch.setattr(nt, "FACTOR_EFFORT", 500)
    with pytest.raises(ResourceBudgetExceeded) as info:
        factorize(p * q)
    # The message names the cofactor as brief() does: below psi_13 every
    # operand has under 128 bits, so it is written out.
    assert str(info.value) == ("factorization effort budget exhausted on "
                               f"{p * q}")


def test_not_prime_messages_render_large_moduli_by_size(no_kept_table):
    composite = 10**450 + 1  # divisible by 101
    for call in (lambda: is_primitive_root(2, composite),
                 lambda: discrete_log(2, 3, composite,
                                      max_table_entries=1 << 24)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "<1495-bit integer> is not prime"


def test_is_perfect_square():
    assert is_perfect_square(49) and not is_perfect_square(48)
    assert is_perfect_square(0) and not is_perfect_square(-1)
    rng = random.Random(5)
    for _ in range(200):
        r = rng.randint(2, 10**18)
        assert is_perfect_square(r * r)
        assert not is_perfect_square(r * r - 1)
        assert not is_perfect_square(r * r + 1)


def test_is_primitive_root_examples():
    assert is_primitive_root(2, 11)
    assert not is_primitive_root(2, 7)
    assert not is_primitive_root(2, 23)


def test_is_primitive_root_rejects_bad_input():
    with pytest.raises(ValueError):
        is_primitive_root(2, 15)   # composite modulus
    with pytest.raises(ValueError):
        is_primitive_root(11, 11)  # not a unit
    # Composites that pass the Fermat part of Lucas's test: 2047 is a
    # strong pseudoprime to base 2, and 561 a Carmichael number.
    for g, p in ((2, 2047), (2, 561), (5, 561), (2, 1), (2, 0)):
        with pytest.raises(ValueError, match="is not prime"):
            is_primitive_root(g, p)


def test_a_primitive_root_hit_is_tested_for_primality_once(
        is_prime_operands):
    operands = is_prime_operands
    # A pass proves p prime, so only a failing p is tested (factorize
    # tests the cofactors of p - 1 either way).
    assert is_primitive_root(2, 59) and 59 not in operands
    assert not is_primitive_root(2, 23) and operands.count(23) == 1
    operands.clear()
    for g, f, a in ((2, 23, 13), (2, 13, 10), (3, 2, 1), (2, 1019, 5)):
        hit = find_artin_prime(g, f, a)
        assert operands.count(hit.prime) == 1, (g, f, a)
        operands.clear()


def test_is_primitive_root_matches_order_computation():
    for p in sympy.primerange(100):
        for g in range(1, p):
            order = 1
            e = g % p
            while e != 1:
                e = e * g % p
                order += 1
            assert is_primitive_root(g, p) == (order == p - 1), (g, p)


def test_coprimizing_examples():
    assert coprimizing_multiplier(13, 10, 24) == 1
    assert coprimizing_multiplier(2, 1, 1) == 1
    assert coprimizing_multiplier(10, 3, 18) == 1


def test_coprimizing_returns_least_valid():
    rng = random.Random(11)
    for _ in range(300):
        q = rng.randint(2, 10**6)
        q_prev = rng.randint(1, q)
        while math.gcd(q, q_prev) != 1:
            q_prev = rng.randint(1, q)
        avoid = rng.randint(1, 10**9)
        ell = coprimizing_multiplier(q, q_prev, avoid)
        assert math.gcd(ell * q + q_prev, avoid) == 1
        for smaller in range(1, ell):
            assert math.gcd(smaller * q + q_prev, avoid) != 1


def test_coprimizing_requires_coprime_pair():
    with pytest.raises(ValueError):
        coprimizing_multiplier(6, 9, 5)


def test_find_artin_prime_examples():
    assert find_artin_prime(2, 23, 13) == ArtinPrime(2, 59, 2)
    hit = find_artin_prime(2, 13, 10)
    assert (hit.ell, hit.prime) == (7, 101)
    hit = find_artin_prime(3, 2, 1)
    assert (hit.ell, hit.prime) == (2, 5)


def test_find_artin_prime_invariants():
    rng = random.Random(21)
    found = 0
    while found < 25:
        g = rng.randint(2, 12)
        f = rng.randint(3, 60)
        a = rng.randint(1, f - 1)
        if math.gcd(a, f) != 1 or is_perfect_square(g):
            continue
        try:
            hit = find_artin_prime(g, f, a, search_limit=5_000)
        except (ValueError, SearchExhausted):
            continue
        assert hit.prime % f == a
        assert is_prime(hit.prime)
        assert is_primitive_root(g, hit.prime)
        # minimality of ell
        for ell in range(1, hit.ell):
            p = ell * f + a
            assert (g % p == 0 or not is_prime(p)
                    or not is_primitive_root(g, p))
        found += 1


def test_find_artin_prime_rejects_finite_class():
    # No class screen: a class the finiteness criterion proves finite is
    # scanned like any other, and the search limit ends the scan.
    assert lenstra_finiteness(8, 3, 1).finite  # 8 is a cube, 1 = 1 mod 3
    with pytest.raises(SearchExhausted) as info:
        find_artin_prime(8, 3, 1, search_limit=1_000)
    assert info.value.candidates_tested == 1_000


def test_find_artin_prime_search_exhausted():
    with pytest.raises(SearchExhausted) as info:
        find_artin_prime(2, 23, 13, search_limit=1)
    assert info.value.candidates_tested == 1


def test_find_artin_prime_validates_range():
    with pytest.raises(ValueError):
        find_artin_prime(2, 5, 7)
    # A limit that allows no candidate is a bad argument, not an exhausted
    # search.
    for limit in (0, -1):
        with pytest.raises(ValueError, match=f"search limit must be >= 1, "
                                             f"got {limit}$"):
            find_artin_prime(2, 23, 13, search_limit=limit)


def test_discrete_log_examples():
    assert discrete_log(2, 3, 11, max_table_entries=1 << 24) == 8
    assert discrete_log(2, 23, 59, max_table_entries=1 << 24) == 15
    assert discrete_log(2, 1, 11, max_table_entries=1 << 24) == 0
    for g in (1, 3, 5):  # mod 2, the general path's one-entry table
        assert discrete_log(g, 1, 2, max_table_entries=1 << 24) == 0


def test_discrete_log_errors():
    with pytest.raises(ValueError):
        discrete_log(2, 0, 11, max_table_entries=1 << 24)
    with pytest.raises(ValueError):
        discrete_log(2, 3, 12, max_table_entries=1 << 24)  # composite modulus
    with pytest.raises(ValueError, match="g must be a unit modulo p"):
        discrete_log(2, 1, 2, max_table_entries=1 << 24)
    big = sympy.nextprime(10**12)
    with pytest.raises(ResourceBudgetExceeded):
        discrete_log(3, 7, big, max_table_entries=100)


def test_discrete_log_random_roundtrip():
    rng = random.Random(3)
    primes = list(sympy.primerange(101, 3000))
    for _ in range(200):
        p = rng.choice(primes)
        g = rng.randint(2, p - 1)
        if not is_primitive_root(g, p):
            continue
        k = rng.randrange(p - 1)
        assert discrete_log(g, pow(g, k, p), p, max_table_entries=1 << 24) == k


@pytest.fixture
def no_kept_table():
    """Start with no baby-step table kept from an earlier query."""
    nt._baby_steps.cache_clear()


def kept_size(g, p):
    """Size of the table kept for (g, p), which must be the kept pair."""
    misses = nt._baby_steps.cache_info().misses
    size = nt._baby_steps(g, p)[0][1]
    assert nt._baby_steps.cache_info().misses == misses  # a hit, no new pair
    return size


def test_discrete_log_repeat_queries_match_first_query(no_kept_table):
    # Interleaved pairs evict each other; repeats grow the kept table.
    assert discrete_log(2, 3, 11, max_table_entries=1 << 24) == 8
    assert discrete_log(6, 3, 11, max_table_entries=1 << 24) == 2
    assert discrete_log(2, 23, 59, max_table_entries=1 << 24) == 15
    assert discrete_log(2, 3, 11, max_table_entries=1 << 24) == 8
    for _ in range(3):
        for g, p in [(2, 11), (6, 11), (2, 59), (2, 11)]:
            for k in range(p - 1):
                assert discrete_log(g, pow(g, k, p), p,
                                    max_table_entries=1 << 24) == k, (g, k, p)
                assert discrete_log(g, pow(g, k, p) + 3 * p, p,
                                    max_table_entries=1 << 24) == k
    assert kept_size(2, 11) == 10  # grown to p - 1 for (2, 11)
    assert discrete_log(2, 23, 59, max_table_entries=1 << 24) == 15
    assert kept_size(2, 59) == 8   # a new pair starts afresh
    assert nt._baby_steps.cache_info().currsize == 1  # (2, 11) is gone


def test_discrete_log_errors_after_a_kept_table(no_kept_table):
    assert discrete_log(2, 3, 11, max_table_entries=1 << 24) == 8
    with pytest.raises(ValueError, match="not prime"):
        discrete_log(2, 3, 12, max_table_entries=1 << 24)  # composite modulus
    assert discrete_log(2, 3, 11, max_table_entries=1 << 24) == 8
    with pytest.raises(ValueError, match="not prime"):
        # composite modulus sharing the factor 11
        discrete_log(2, 3, 121, max_table_entries=1 << 24)
    assert discrete_log(2, 3, 11, max_table_entries=1 << 24) == 8
    with pytest.raises(ValueError):
        discrete_log(2, 0, 11, max_table_entries=1 << 24)
    with pytest.raises(ValueError):
        discrete_log(2, 22, 11, max_table_entries=1 << 24)
    with pytest.raises(ValueError):
        discrete_log(13, 3, 13, max_table_entries=1 << 24)  # g = 0 mod p
    assert discrete_log(2, 3, 11, max_table_entries=1 << 24) == 8


def test_discrete_log_budget_on_first_and_repeat_queries(no_kept_table):
    assert discrete_log(2, 3, 11, max_table_entries=1 << 24) == 8
    big = sympy.nextprime(10**12)
    with pytest.raises(ResourceBudgetExceeded):
        discrete_log(3, 7, big, max_table_entries=100)
    # A kept pair is held to the same first-query bound: 1019 needs 32.
    for _ in range(4):
        assert pow(2, discrete_log(2, 3, 1019, max_table_entries=1 << 24),
                   1019) == 3
    with pytest.raises(ResourceBudgetExceeded):
        discrete_log(2, 3, 1019, max_table_entries=31)


def test_baby_step_entries_is_the_first_table_size(no_kept_table):
    # Each first query builds exactly the table the one rule sizes.
    for p in (3, 11, 59, 1019, 65537):
        nt._baby_steps.cache_clear()
        assert pow(2, discrete_log(2, 2, p, max_table_entries=1 << 24), p) == 2
        assert kept_size(2, p) == baby_step_entries(p, 1 << 24)
        assert baby_step_entries(p, 1 << 24) == math.ceil(math.sqrt(p - 1))


def test_baby_step_entries_refuses_past_the_cap():
    assert baby_step_entries(1019, 32) == 32
    with pytest.raises(ResourceBudgetExceeded) as excinfo:
        baby_step_entries(1019, 31)
    assert str(excinfo.value) == ("baby-step table would need 32 entries "
                                  "(limit 31); modulus too large")
    # A size past 128 bits is shown by its bit count, also past the
    # interpreter's 4300-digit int -> str limit: 2**9000 needs 2**4500.
    with pytest.raises(ResourceBudgetExceeded) as excinfo:
        baby_step_entries(1 << 9000, 1 << 24)
    assert str(excinfo.value) == (
        "baby-step table would need <4501-bit integer> entries "
        "(limit 16777216); modulus too large")
    # The refused size comes from bit lengths; at the operands where its
    # bit count steps, the message is the one isqrt's root would give.
    for m in (2, 3, 63, 64, 127, 128, 129, 300):
        for n in ((2**m - 1)**2 - 1, (2**m - 1)**2, (2**m - 1)**2 + 1,
                  4**m - 1, 4**m, 4**m + 1):
            with pytest.raises(ResourceBudgetExceeded) as excinfo:
                baby_step_entries(n + 2, 1)
            assert str(excinfo.value) == (
                f"baby-step table would need {brief(math.isqrt(n) + 1)} "
                "entries (limit 1); modulus too large")


def test_discrete_log_repeats_under_small_table_cap(no_kept_table):
    p = 1019
    for _ in range(2):
        for k in range(p - 1):
            assert discrete_log(2, pow(2, k, p), p,
                                max_table_entries=40) == k
            assert kept_size(2, p) <= 40
    assert kept_size(2, p) == 40
    for k in range(p - 1):
        assert discrete_log(2, pow(2, k, p), p, max_table_entries=32) == k
        assert kept_size(2, p) == 32


def test_discrete_log_non_generator_answers_hold(no_kept_table):
    # 4 has order 5 mod 11 and order 29 mod 59; 2 lies outside both subgroups.
    for g, p in [(4, 11), (4, 59)]:
        subgroup = {pow(g, k, p) for k in range(p - 1)}

        def check(h):
            if h % p in subgroup:
                k = discrete_log(g, h, p, max_table_entries=1 << 24)
                assert 0 <= k <= p - 2 and pow(g, k, p) == h % p, (g, h, p)
            else:
                with pytest.raises(ValueError, match="outside the subgroup"):
                    discrete_log(g, h, p, max_table_entries=1 << 24)

        residues = [h for h in range(1, 2 * p) if h % p]
        for h in residues:
            nt._baby_steps.cache_clear()  # first query
            check(h)
        for _ in range(3):  # kept and grown tables
            for h in residues:
                check(h)
        assert kept_size(g, p) == p - 1


def test_lift_exponent_examples():
    assert lift_exponent(2, 59, 15, 118) == 15
    assert lift_exponent(2, 11, 8, 1000) == 18
    assert lift_exponent(2, 11, 0, 1) == 10


def test_lift_exponent_validates():
    with pytest.raises(ValueError):
        lift_exponent(1, 11, 3, 5)
    with pytest.raises(ValueError):
        lift_exponent(2, 11, 25, 5)


def test_pow_exceeds_boundaries():
    assert not pow_exceeds(2, 10, 1024)
    assert pow_exceeds(2, 10, 1023)
    assert pow_exceeds(3, 5, 242)
    assert not pow_exceeds(3, 5, 243)
    assert pow_exceeds(2, 10**7, 10)        # settled by bit lengths alone
    assert not pow_exceeds(2, 3, 1 << 40)
    # Powers of two are decided from bit lengths alone; check them at
    # the exact power and one either side.
    for g in (2, 4, 8, 1024):
        for e in (0, 1, 2, 3, 7, 64, 1000, 10**4, 10**5):
            power = g**e
            assert pow_exceeds(g, e, power - 1), (g, e)
            assert not pow_exceeds(g, e, power), (g, e)
            assert not pow_exceeds(g, e, power + 1), (g, e)


def test_pow_exceeds_or_equal_at_and_around_powers():
    # The inclusive test at g**e and one either side, for powers of two
    # (decided by bit counts) and for other bases (exact band).
    for g in (2, 3, 8, 10):
        for e in (0, 1, 2, 3, 7, 64, 1000, 10**4):
            power = g**e
            assert pow_exceeds(g, e, power - 1, or_equal=True), (g, e)
            assert pow_exceeds(g, e, power, or_equal=True), (g, e)
            assert not pow_exceeds(g, e, power + 1, or_equal=True), (g, e)
            assert pow_exceeds(g, e, power - 1), (g, e)
            assert not pow_exceeds(g, e, power), (g, e)
            assert not pow_exceeds(g, e, power + 1), (g, e)
    # Bounds below 1 lie under every power; far bounds go by bit lengths.
    for bound in (0, -1, -(1 << 100)):
        assert pow_exceeds(3, 0, bound, or_equal=True)
    assert not pow_exceeds(10, 5, 1 << 10**6, or_equal=True)
    assert pow_exceeds(8, 10**6, 1 << 100, or_equal=True)


def test_kronecker_examples():
    assert kronecker_symbol(5, 11) == 1
    assert kronecker_symbol(8, 3) == -1
    assert kronecker_symbol(12, 6) == 0


def test_kronecker_conventions():
    assert kronecker_symbol(1, 0) == 1
    assert kronecker_symbol(-1, 0) == 1
    assert kronecker_symbol(5, 0) == 0
    assert kronecker_symbol(7, 1) == 1
    assert kronecker_symbol(3, 2) == -1   # 3 = 3 mod 8
    assert kronecker_symbol(7, 2) == 1    # 7 = -1 mod 8
    assert kronecker_symbol(4, 2) == 0
    with pytest.raises(ValueError):
        kronecker_symbol(3, -5)


def test_kronecker_euler_criterion():
    for p in sympy.primerange(3, 200):
        for d in range(-50, 51):
            euler = pow(d % p, (p - 1) // 2, p)
            expected = 0 if d % p == 0 else (1 if euler == 1 else -1)
            assert kronecker_symbol(d, p) == expected, (d, p)


def test_kronecker_multiplicative_in_n():
    rng = random.Random(17)
    for _ in range(300):
        d = rng.randint(-60, 60)
        m = rng.randint(1, 80)
        n = rng.randint(1, 80)
        assert (kronecker_symbol(d, m * n)
                == kronecker_symbol(d, m) * kronecker_symbol(d, n))


def test_squarefree_kernel_examples():
    assert squarefree_kernel(12) == 6
    assert squarefree_kernel(5) == 5
    assert squarefree_kernel(8) == 2


def test_field_discriminant_examples():
    assert field_discriminant(5) == 5
    assert field_discriminant(2) == 8
    assert field_discriminant(12) == 24
    with pytest.raises(ValueError):
        field_discriminant(16)


def test_lenstra_examples():
    verdict = lenstra_finiteness(8, 3, 1)
    assert verdict.finite and verdict.condition == 1 and verdict.prime_witness == 3
    verdict = lenstra_finiteness(5, 5, 4)
    assert verdict.finite and verdict.condition == 2
    verdict = lenstra_finiteness(2, 23, 13)
    assert not verdict.finite and verdict.condition is None
    assert verdict.discriminant == 8


def test_lenstra_cube_condition():
    # g = 27: kernel 3, discriminant 12; class 11 mod 4 has (-4/11) = -1.
    verdict = lenstra_finiteness(27, 4, 11 % 4)
    assert verdict.finite and verdict.condition == 3


def test_lenstra_domain_errors():
    with pytest.raises(ValueError):
        lenstra_finiteness(4, 3, 1)     # perfect square g
    with pytest.raises(ValueError):
        lenstra_finiteness(2, 9, 3)     # residue class with gcd(a, f) = 3
    with pytest.raises(ValueError):
        lenstra_finiteness(2, 0, 1)


def test_corollary_examples():
    assert corollary_hypotheses(2, 23, 13)
    assert not corollary_hypotheses(4, 3, 2)
    assert not corollary_hypotheses(2, 6, 3)


def test_corollary_consistency_with_finiteness():
    # Wherever the sufficient conditions hold (and the class is viable at
    # all), the finiteness test must not fire.
    for g in range(2, 31):
        if is_perfect_square(g):
            continue
        for f in range(1, 51):
            for a in range(1, f):
                if math.gcd(a, f) != 1:
                    continue
                if corollary_hypotheses(g, f, a):
                    assert not lenstra_finiteness(g, f, a).finite, (g, f, a)
