"""Arbitrary-precision number theory kernel.

Primality testing, integer factorization, primitive-root and
discrete-log computations, and the coprimality hypotheses under which a
residue class keeps supplying primes with a prescribed primitive root
(assuming GRH). Lenstra's full finiteness criterion, which those
hypotheses imply, is a reference the tests check them against; the
pipeline does not run it.

Small primes follow one rule: trial division by :data:`SMALL_PRIMES`,
the 64 primes below 312, which is complete below 311**2. Primality is
that, then Miller-Rabin with the first thirteen prime bases, a proof
below psi_13 ~ 3.3e24; a number past that which trial division does not
settle is refused. Size comes before search: the constructor and the
verifier apply the discrete-log table cap to every prime they test,
which bounds each operand by bsgs_entries**2 + 1, and ``SearchBudget``
refuses a cap that would reach psi_13. Factoring is the same trial
division, then Brent rho for every composite cofactor, prime powers
included, which gives up after :data:`FACTOR_EFFORT` iterations per
number.

Everything here is a pure function of its arguments; values are plain
Python ints and immutable named tuples. The one piece of state,
:func:`discrete_log`'s table for its latest (g, p), is a one-entry
:func:`functools.lru_cache` and changes only what a repeat query costs;
every answer is still confirmed before it is returned. A first table's
size, and its refusal past a cap, is one rule, :func:`baby_step_entries`,
which the constructor applies before its prime scan (whose end it also
sets) and the verifier before it tests the block prime at all.
"""

from __future__ import annotations

import functools
import math
import random
from collections import namedtuple

from ._dectext import brief, brief_bits
from .errors import ResourceBudgetExceeded, SearchExhausted

# The 64 primes below 312: trial division by them is complete below
# 311**2 = 96721.
SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311)

# Miller-Rabin with the first thirteen prime bases is deterministic below
# psi_13, the least strong pseudoprime to all of them (Sorenson & Webster,
# Math. Comp. 86, 2017; OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
# Cap on the coprimizing-multiplier scan.
_COPRIMIZER_SCAN_LIMIT = 1 << 20
# Rho iterations one factorization may spend before it gives up.
FACTOR_EFFORT = 1 << 22
# Cap on find_artin_prime's candidates in plan_block, which reads it at
# each call; the run header echoes it as artin_limit.
ARTIN_LIMIT = 100_000


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if base a certifies n composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
        if x == 1:
            return True
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test, refused at or past psi_13 ~ 3.3e24.

    Trial division by :data:`SMALL_PRIMES`, the 64 primes below 312,
    settles every n one of them divides, of any size, and every n below
    311**2, where it is complete. Otherwise Miller-Rabin with the first
    thirteen prime bases proves the answer below
    :data:`_MR_DETERMINISTIC_BOUND` (psi_13, the least composite passing
    them all); past it nothing is proven, so n is refused with
    :class:`ResourceBudgetExceeded`. The pipeline never asks past
    bsgs_entries**2 + 1 (2**48 + 1 by default), which ``SearchBudget``
    keeps below the bound.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 96_721:  # 311**2: no factor below 312 means none at all
        return True
    if n >= _MR_DETERMINISTIC_BOUND:
        raise ResourceBudgetExceeded(
            f"{brief(n)} is past the deterministic Miller-Rabin bound "
            f"{_MR_DETERMINISTIC_BOUND}; its primality is not proven")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2**s exactly divides n - 1
    d = (n - 1) >> s
    return not any(_mr_witness(n, a, d, s) for a in _MR_BASES)


def _brent_rho(n: int, budget: list[int]) -> int:
    """One proper factor of composite odd n, or raise on blown budget."""
    rng = random.Random(n ^ 0xC0FFEE)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
            budget[0] -= r
            if budget[0] < 0:
                raise ResourceBudgetExceeded(
                    f"factorization effort budget exhausted on {brief(n)}"
                )
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # unlucky cycle; retry with new parameters


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Complete factorization as (prime, exponent) pairs sorted by prime.

    Trial division by :data:`SMALL_PRIMES`, the 64 primes below 312;
    :func:`is_prime` then settles each cofactor, and Brent-cycle rho
    splits every composite one, prime powers included.

    :data:`FACTOR_EFFORT` bounds the total number of rho iterations; a
    hard composite raises :class:`ResourceBudgetExceeded` rather than
    spinning forever.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    counts: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    budget = [FACTOR_EFFORT]
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        f = _brent_rho(m, budget)
        stack.append(f)
        stack.append(m // f)
    return tuple(sorted(counts.items()))


def is_primitive_root(g: int, p: int) -> bool:
    """True iff g generates the full multiplicative group mod prime p.

    Lucas's test: g**(p-1) = 1 and g**((p-1)/r) != 1 for every prime r
    dividing p - 1, which requires factoring p - 1; oversized p - 1
    raises a resource error. A pass proves p prime too, so p is tested
    for primality only when the test fails: a composite p raises.
    """
    if p < 2:
        raise ValueError(f"{brief(p)} is not prime")
    g %= p
    if g == 0:
        raise ValueError("g must be a unit modulo p")
    order = p - 1
    if pow(g, order, p) == 1:  # else Fermat: p is composite
        if all(pow(g, order // r, p) != 1 for r, _ in factorize(order)):
            return True
        if is_prime(p):
            return False
    raise ValueError(f"{brief(p)} is not prime")


def coprimizing_multiplier(q: int, q_prev: int, avoid: int) -> int:
    """Least ell >= 1 making ell*q + q_prev coprime to ``avoid``.

    Requires gcd(q, q_prev) = 1, which guarantees that for each prime r
    dividing ``avoid`` at most one residue of ell mod r is forbidden, so
    a valid ell always exists. The result is confirmed with a direct gcd
    before returning.
    """
    if avoid < 1:
        raise ValueError(f"avoid must be >= 1, got {avoid}")
    if math.gcd(q, q_prev) != 1:
        raise ValueError("q and q_prev must be coprime")
    for ell in range(1, _COPRIMIZER_SCAN_LIMIT + 1):
        if math.gcd(ell * q + q_prev, avoid) == 1:
            return ell
    # Unreachable for honest inputs: valid multipliers have positive
    # density under the coprimality precondition.
    raise ValueError(
        f"no coprimizing multiplier below {_COPRIMIZER_SCAN_LIMIT}; "
        "preconditions violated?")


def corollary_hypotheses(g: int, f: int, a: int) -> bool:
    """Sufficient conditions for the residue class to stay prime-rich.

    True iff f is coprime to both g and a - 1, and g >= 2 is not a
    perfect square. Whenever this holds, none of the conditions of
    Lenstra's finiteness criterion can fire (the tests sweep this).
    """
    if g < 1 or f < 1 or a < 1:
        raise ValueError("g, f, a must be positive")
    return (g >= 2 and not is_perfect_square(g)
            and math.gcd(f, g) == 1 and math.gcd(f, a - 1) == 1)


class ArtinPrime(namedtuple("ArtinPrime", "ell prime candidates_tested")):
    """A prime p = ell*f + a for which g is a primitive root, found after
    ``candidates_tested`` candidates."""

    __slots__ = ()


def find_artin_prime(g: int, f: int, a: int,
                     search_limit: int = ARTIN_LIMIT) -> ArtinPrime:
    """Least ell >= 1 with ell*f + a prime and g a primitive root mod it.

    The class is not screened here: ``plan_block`` asks only for classes
    that meet :func:`corollary_hypotheses`, which are prime-rich on GRH,
    and any other class, finite ones included, is scanned like it.
    ``search_limit`` bounds every scan; one that finds no prime raises
    :class:`SearchExhausted`. A limit below 1 allows no candidate and is
    refused, and a candidate past :func:`is_prime`'s bound raises
    :class:`ResourceBudgetExceeded`.
    """
    if search_limit < 1:
        raise ValueError(f"search limit must be >= 1, got {search_limit}")
    if not 1 <= a < f:
        raise ValueError(f"need 1 <= a < f, got a={a}, f={f}")
    for ell in range(1, search_limit + 1):
        candidate = ell * f + a
        if g % candidate == 0:
            continue  # g = 0 mod p can never generate the group

        if is_prime(candidate) and is_primitive_root(g, candidate):
            return ArtinPrime(ell=ell, prime=candidate, candidates_tested=ell)
    raise SearchExhausted(
        f"no prime with primitive root {g} in {a} mod {f} within "
        f"{search_limit} candidates", candidates_tested=search_limit)


def baby_step_entries(p: int, max_entries: int) -> int:
    """ceil(sqrt(p - 1)) entries for a first table mod p; refused past the cap,
    so the largest p a cap admits is max_entries**2 + 1. A refused p forms no
    root: isqrt(n) + 1 has the least b bits with (2**b - 1)**2 > n, and that
    b is (n.bit_length() + 1) // 2 or one more."""
    n = p - 2
    if n < max_entries**2:
        return math.isqrt(n) + 1
    bits = (n.bit_length() + 1) // 2
    if (1 << 2 * bits) - (1 << bits + 1) + 1 <= n:  # (2**bits - 1)**2
        bits += 1
    size = brief_bits(bits) if bits > 128 else brief(math.isqrt(n) + 1)
    raise ResourceBudgetExceeded(
        f"baby-step table would need {size} entries "
        f"(limit {max_entries}); modulus too large")


@functools.lru_cache(maxsize=1)
def _baby_steps(g: int, p: int) -> list:
    """One slot holding (table, size, giant) for (g, p): g**j mod p -> j for
    j < size, and g**(-size) mod p. Made only for prime p and unit g; with
    one entry, the cache lets the old table go before a new pair's is built."""
    if not is_prime(p):
        raise ValueError(f"{brief(p)} is not prime")
    if g % p == 0:
        raise ValueError("g must be a unit modulo p")
    return [({}, 0, 1)]


def discrete_log(g: int, h: int, p: int, *, max_table_entries: int) -> int:
    """Baby-step giant-step discrete log: the k in [0, p-2] with g**k = h (mod p).

    Expects prime p and a generator g (unique answer). A first query for
    (g, p) builds the table :func:`baby_step_entries` sizes, refused past
    ``max_table_entries``. The latest (g, p) keeps its table, and p is
    tested once per kept pair. A repeat query doubles the table, up to
    p - 1 entries but never past its own cap (a larger kept table is
    rebuilt), so a sweep over every h ends in single lookups. Every
    result is confirmed by modular exponentiation before returning.
    """
    kept = _baby_steps(g, p)
    g %= p
    h %= p
    if h == 0:
        raise ValueError("h = 0 mod p has no discrete logarithm")
    table, m, giant = kept[0]
    if 0 < m <= max_table_entries:
        size = min(2 * m, p - 1, max_table_entries)
    else:
        size = baby_step_entries(p, max_table_entries)
        table, m, giant = kept[0] = {}, 0, 1  # free the old table first
    if size > m:
        e = pow(g, m, p)  # a non-generator repeats keys; results are verified
        for j in range(m, size):
            table[e] = j
            e = e * g % p
        m, giant = size, pow(g, p - 1 - size, p)
        kept[0] = table, m, giant  # one store, so the slot is never torn
    get = table.get
    y = h
    for i in range((p - 2) // m + 1):
        j = get(y)
        if j is not None:
            k = (i * m + j) % (p - 1)
            if pow(g, k, p) == h:
                return k
        y = y * giant % p
    raise ValueError(f"{brief(h)} is outside the subgroup generated by "
                     f"{brief(g)} mod {brief(p)}")


def pow_exceeds(g: int, exponent: int, bound: int, *,
                or_equal: bool = False) -> bool:
    """Exact test g**exponent > bound (>= with ``or_equal``), no huge powers.

    With gl the bit length of g, 2**((gl-1)*e) <= g**e <= 2**(gl*e), so
    bit lengths settle every bound outside that range. Inside it a power
    of two g is decided by the low bit or the bit count of bound, which
    form no new integer, and any other g by exact arithmetic on integers
    of comparable size.
    """
    if g < 2:
        raise ValueError("g must be >= 2")
    if bound < 1:
        return True
    low = (g.bit_length() - 1) * exponent  # 2**low <= g**exponent
    bl = bound.bit_length()                # 2**(bl-1) <= bound < 2**bl
    if g & (g - 1) == 0:  # g**exponent == 2**low
        if low != bl - 1:
            return low >= bl
        # 2**low <= bound, equal iff no lower bit is set. An odd bound
        # above 1, such as a tail with an even offset, needs no count.
        if bound & 1:
            return or_equal and bound == 1
        return or_equal and bound.bit_count() == 1
    if low >= bl:
        return True
    if low + exponent < bl - 1:  # g**exponent <= 2**(gl*exponent)
        return False
    power = g**exponent
    return power >= bound if or_equal else power > bound


def lift_exponent(g: int, p: int, k: int, bound: int) -> int:
    """Smallest k' = k (mod p-1), k' >= 1, with g**k' > bound."""
    if g < 2:
        raise ValueError("g must be >= 2")
    if not 0 <= k <= p - 2:
        raise ValueError(f"need 0 <= k <= p-2, got k={k}, p={p}")
    step = p - 1
    lifted = k if k >= 1 else step
    while not pow_exceeds(g, lifted, bound):
        lifted += step
    return lifted
