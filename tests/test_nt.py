import math
import random

import pytest
import sympy

from abnormal_forge import nt
from abnormal_forge import (ArtinPrime, InfeasibleError,
                            ResourceBudgetExceeded, SearchExhausted,
                            coprimizing_multiplier, corollary_hypotheses,
                            crt_min_solution, discrete_log, factorize,
                            field_discriminant, find_artin_prime, is_prime,
                            is_primitive_root, kronecker_symbol,
                            lift_exponent, squarefree_kernel)
from abnormal_forge.nt import (SMALL_PRIMES, iroot, is_perfect_square,
                               lenstra_finiteness, pow_exceeds)


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


def test_is_prime_known_large():
    assert is_prime(2**89 - 1)          # Mersenne prime
    assert is_prime(2**107 - 1)         # Mersenne prime
    assert not is_prime((2**89 - 1) * (2**107 - 1))
    assert not is_prime(2**67 - 1)      # classic Mersenne composite


def test_is_prime_random_vs_sympy():
    rng = random.Random(1234)
    for _ in range(150):
        n = rng.getrandbits(rng.randint(60, 130)) | 1
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_policy_is_reproducible():
    # Above the deterministic bound the seeded rounds give one answer.
    n = sympy.nextprime(1 << 100)
    assert n > nt._MR_DETERMINISTIC_BOUND
    assert is_prime(n) and is_prime(n)


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(58).factors == ((2, 1), (29, 1))
    assert factorize(1).factors == ()


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_random_vs_sympy():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 10**12)
        result = factorize(n)
        assert result.value == n
        assert result.check()
        assert dict(result.factors) == sympy.factorint(n)


def test_factorize_handles_perfect_powers():
    p = sympy.nextprime(10**7)
    assert factorize(p**3).factors == ((p, 3),)


def test_factorize_budget_error():
    p = sympy.nextprime(1 << 70)
    q = sympy.nextprime(p + 10**6)
    with pytest.raises(ResourceBudgetExceeded):
        factorize(p * q, effort=500)


def test_iroot_and_squares():
    assert iroot(0, 3) == 0
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    assert iroot(2**90 - 1, 2) == 2**45 - 1
    assert is_perfect_square(49) and not is_perfect_square(48)
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10**18)
        k = rng.randint(1, 12)
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k


def test_is_primitive_root_examples():
    assert is_primitive_root(2, 11)
    assert not is_primitive_root(2, 7)
    assert not is_primitive_root(2, 23)


def test_is_primitive_root_rejects_bad_input():
    with pytest.raises(ValueError):
        is_primitive_root(2, 15)   # composite modulus
    with pytest.raises(ValueError):
        is_primitive_root(11, 11)  # not a unit


def test_is_primitive_root_matches_order_computation():
    for p in [q for q in SMALL_PRIMES if q < 100]:
        for g in range(1, p):
            order = 1
            e = g % p
            while e != 1:
                e = e * g % p
                order += 1
            assert is_primitive_root(g, p) == (order == p - 1), (g, p)


def test_crt_examples():
    assert crt_min_solution([(2, {1}), (3, {1})]) == 1
    assert crt_min_solution([(2, {1}), (3, {2})]) == 5
    assert crt_min_solution([(5, {3}), (7, {2})]) == 23


def test_crt_global_minimum_not_per_modulus_combine():
    # The least admitted residue per modulus would CRT-combine to 3 mod 6;
    # the true global minimum uses residue 1 at both moduli.
    assert crt_min_solution([(2, {1}), (3, {0, 1})]) == 1


def test_crt_accepts_predicates():
    assert crt_min_solution([(4, lambda r: r % 2 == 1), (9, {5})]) == 5


def test_crt_all_zero_residues():
    assert crt_min_solution([(2, {0}), (3, {0})]) == 6


def test_crt_vs_linear_scan():
    rng = random.Random(7)
    for _ in range(150):
        while True:
            moduli = [rng.randint(2, 30) for _ in range(rng.randint(1, 4))]
            if all(math.gcd(a, b) == 1
                   for i, a in enumerate(moduli) for b in moduli[i + 1:]):
                break
        constraints = [(m, {rng.randrange(m)
                            for _ in range(rng.randint(1, m))})
                       for m in moduli]
        got = crt_min_solution(constraints)
        limit = math.prod(moduli)
        expected = next(x for x in range(1, limit + 1)
                        if all(x % m in rs for m, rs in constraints))
        assert got == expected, constraints


def test_crt_errors():
    with pytest.raises(InfeasibleError):
        crt_min_solution([(3, set())])
    with pytest.raises(ValueError):
        crt_min_solution([(4, {1}), (6, {1})])  # moduli share a factor
    with pytest.raises(ValueError):
        crt_min_solution([])


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
    with pytest.raises(ValueError):
        find_artin_prime(8, 3, 1)  # 8 is a cube and 1 = 1 mod 3


def test_find_artin_prime_search_exhausted():
    with pytest.raises(SearchExhausted) as info:
        find_artin_prime(2, 23, 13, search_limit=1)
    assert info.value.candidates_tested == 1


def test_find_artin_prime_validates_range():
    with pytest.raises(ValueError):
        find_artin_prime(2, 5, 7)


def test_discrete_log_examples():
    assert discrete_log(2, 3, 11) == 8
    assert discrete_log(2, 23, 59) == 15
    assert discrete_log(2, 1, 11) == 0


def test_discrete_log_errors():
    with pytest.raises(ValueError):
        discrete_log(2, 0, 11)
    with pytest.raises(ValueError):
        discrete_log(2, 3, 12)  # composite modulus
    big = sympy.nextprime(10**12)
    with pytest.raises(ResourceBudgetExceeded):
        discrete_log(3, 7, big, max_table_entries=100)


def test_discrete_log_random_roundtrip():
    rng = random.Random(3)
    primes = [p for p in SMALL_PRIMES if 100 < p < 3000]
    for _ in range(200):
        p = rng.choice(primes)
        g = rng.randint(2, p - 1)
        if not is_primitive_root(g, p):
            continue
        k = rng.randrange(p - 1)
        assert discrete_log(g, pow(g, k, p), p) == k


@pytest.fixture
def no_kept_table(monkeypatch):
    """Start with no baby-step table kept from an earlier query."""
    monkeypatch.setattr(nt, "_last_baby_steps", None)


def test_discrete_log_repeat_queries_match_first_query(no_kept_table):
    # Interleaved pairs evict each other; repeats grow the kept table.
    assert discrete_log(2, 3, 11) == 8
    assert discrete_log(6, 3, 11) == 2
    assert discrete_log(2, 23, 59) == 15
    assert discrete_log(2, 3, 11) == 8
    for _ in range(3):
        for g, p in [(2, 11), (6, 11), (2, 59), (2, 11)]:
            for k in range(p - 1):
                assert discrete_log(g, pow(g, k, p), p) == k, (g, k, p)
                assert discrete_log(g, pow(g, k, p) + 3 * p, p) == k
    assert nt._last_baby_steps.size == 10  # grown to p - 1 for (2, 11)
    assert discrete_log(2, 23, 59) == 15
    assert nt._last_baby_steps.size == 8   # a new pair starts afresh


def test_discrete_log_errors_after_a_kept_table(no_kept_table):
    assert discrete_log(2, 3, 11) == 8
    with pytest.raises(ValueError, match="not prime"):
        discrete_log(2, 3, 12)  # composite modulus
    assert discrete_log(2, 3, 11) == 8
    with pytest.raises(ValueError, match="not prime"):
        discrete_log(2, 3, 121)  # composite modulus sharing the factor 11
    assert discrete_log(2, 3, 11) == 8
    with pytest.raises(ValueError):
        discrete_log(2, 0, 11)
    with pytest.raises(ValueError):
        discrete_log(2, 22, 11)
    with pytest.raises(ValueError):
        discrete_log(13, 3, 13)  # g = 0 mod p
    assert discrete_log(2, 3, 11) == 8


def test_discrete_log_budget_on_first_and_repeat_queries(no_kept_table):
    assert discrete_log(2, 3, 11) == 8
    big = sympy.nextprime(10**12)
    with pytest.raises(ResourceBudgetExceeded):
        discrete_log(3, 7, big, max_table_entries=100)
    # A kept pair is held to the same first-query bound: 1019 needs 32.
    for _ in range(4):
        assert pow(2, discrete_log(2, 3, 1019), 1019) == 3
    with pytest.raises(ResourceBudgetExceeded):
        discrete_log(2, 3, 1019, max_table_entries=31)


def test_discrete_log_repeats_under_small_table_cap(no_kept_table):
    p = 1019
    for _ in range(2):
        for k in range(p - 1):
            assert discrete_log(2, pow(2, k, p), p,
                                max_table_entries=40) == k
            assert nt._last_baby_steps.size <= 40
    assert nt._last_baby_steps.size == 40
    for k in range(p - 1):
        assert discrete_log(2, pow(2, k, p), p, max_table_entries=32) == k
        assert nt._last_baby_steps.size == 32


def test_discrete_log_non_generator_answers_hold(no_kept_table):
    # 4 has order 5 mod 11 and order 29 mod 59; 2 lies outside both subgroups.
    for g, p in [(4, 11), (4, 59)]:
        subgroup = {pow(g, k, p) for k in range(p - 1)}

        def check(h):
            if h % p in subgroup:
                k = discrete_log(g, h, p)
                assert 0 <= k <= p - 2 and pow(g, k, p) == h % p, (g, h, p)
            else:
                with pytest.raises(ValueError, match="outside the subgroup"):
                    discrete_log(g, h, p)

        residues = [h for h in range(1, 2 * p) if h % p]
        for h in residues:
            nt._last_baby_steps = None  # first query
            check(h)
        for _ in range(3):  # kept and grown tables
            for h in residues:
                check(h)
        assert nt._last_baby_steps.size == p - 1


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
    for p in [q for q in SMALL_PRIMES if q % 2 and q < 200]:
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
