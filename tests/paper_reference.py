"""Reference oracles the tests check the library against.

Two kinds live here. The first is the number theory and
continued-fraction facts the paper cites but the pipeline never runs:
Lenstra's finiteness criterion for primes with a prescribed primitive
root in a residue class (Lenstra, Invent. Math. 42, 1977) with its
Kronecker symbols and quadratic-field discriminants, the exact value of
a finite continued fraction, the classical approximation bound and sign,
and the insertion-density bound. The second is a literal reading of
``plan_block``'s docstring steps and ``tail_digit``'s rule, built on
sympy rather than on ``abnormal_forge.nt``, so a test that compares the
two checks the library's least choices against an independent
derivation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from sympy import factorint, integer_nthroot, isprime, primerange
from sympy.ntheory import discrete_log, is_primitive_root

from abnormal_forge.cf import convergent_stream


def is_perfect_power(n: int, k: int) -> bool:
    """True iff n = m**k for some integer m."""
    return integer_nthroot(n, k)[1]


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def squarefree_kernel(g: int) -> int:
    """Product of the distinct primes dividing g (its largest squarefree divisor)."""
    if g < 2:
        raise ValueError(f"squarefree_kernel requires g >= 2, got {g}")
    return math.prod(factorint(g))


def field_discriminant(g: int) -> int:
    """Discriminant of the quadratic field generated by a square root of g.

    With g' the squarefree kernel of g: g' when g' = 1 mod 4, else 4g'.
    Perfect squares are rejected (the field would be trivial).
    """
    if g < 2:
        raise ValueError(f"field_discriminant requires g >= 2, got {g}")
    if is_perfect_power(g, 2):
        raise ValueError(f"{g} is a perfect square; its square root generates no quadratic field")
    kernel = squarefree_kernel(g)
    return kernel if kernel % 4 == 1 else 4 * kernel


def kronecker_symbol(d: int, n: int) -> int:
    """Standard Kronecker symbol (d/n) for n >= 0.

    Completely multiplicative in n, equal to the Legendre symbol for odd
    prime n, with the usual conventions at n = 0, 1 and 2.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if d % 2 == 0:
            return 0
        if twos % 2 == 1 and d % 8 in (3, 5):
            result = -result
    # For odd n the symbol is periodic in d mod n, which absorbs signs.
    return result * _jacobi(d % n, n)


class LenstraVerdict(NamedTuple):
    """Outcome of the finiteness test for primes p = a mod f with g a primitive root.

    ``condition`` is the structural condition that fired, 1, 2 or 3
    (None when infinite under GRH), and ``prime_witness`` carries the
    prime q for condition 1.
    """

    condition: int | None
    prime_witness: int | None
    discriminant: int

    @property
    def finite(self) -> bool:
        return self.condition is not None


def lenstra_finiteness(g: int, f: int, a: int) -> LenstraVerdict:
    """Decide whether only finitely many primes p = a (mod f) have g as a primitive root.

    Evaluates, in order:
      1. some prime q divides f with a = 1 (mod q) and g a perfect q-th power;
      2. d divides f and (d/a) = 1, d the quadratic field discriminant of g;
      3. d divides 3f, 3 divides d, (-d/3 over a) = -1, and g is a perfect cube.

    Requires gcd(a, f) = 1 (otherwise the class holds at most one prime)
    and non-square g >= 2 (a square is never a primitive root mod p > 2,
    and its quadratic field degenerates).
    """
    if g < 1 or f < 1 or a < 1:
        raise ValueError("g, f, a must be positive")
    if math.gcd(a, f) != 1:
        raise ValueError(f"gcd(a, f) = {math.gcd(a, f)} != 1: "
                         "the residue class contains at most one prime")
    if g < 2 or is_perfect_power(g, 2):
        raise ValueError(f"g = {g} must be >= 2 and not a perfect square")
    d = field_discriminant(g)
    # Condition 1: q-th powers need q <= log2(g), so only small primes matter.
    for q in primerange(2, g.bit_length() + 1):
        if f % q == 0 and a % q == 1 and is_perfect_power(g, q):
            return LenstraVerdict(1, q, d)
    if f % d == 0 and kronecker_symbol(d, a) == 1:
        return LenstraVerdict(2, None, d)
    if (3 * f) % d == 0 and d % 3 == 0 \
            and kronecker_symbol(-(d // 3), a) == -1 and is_perfect_power(g, 3):
        return LenstraVerdict(3, None, d)
    return LenstraVerdict(None, None, d)


def cf_to_rational(digits: Sequence[int]) -> Fraction:
    """Exact value of a finite continued fraction (digits all >= 1)."""
    if not digits:
        raise ValueError("empty digit sequence has no value")
    last = None
    for last in convergent_stream(digits):
        pass
    return Fraction(last.p, last.q)


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


class InsertionDensity(NamedTuple):
    inserted: int
    bound: int

    @property
    def within_bound(self) -> bool:
        return self.inserted <= self.bound


def insertion_density(positions: Sequence[int], prefix_len: int,
                      block_size: int) -> InsertionDensity:
    """Count insertions within a prefix and check the logarithmic bound.

    Blocks double in length, so a prefix of n digits spans at most
    log2(n/N) + 2 blocks of four insertions each; the explicit bound is
    4 * (floor(log2(max(n, N)/N)) + 2).
    """
    if prefix_len < 1:
        raise ValueError("prefix length must be positive")
    inserted = sum(1 for p in positions if p <= prefix_len)
    ratio = max(prefix_len, block_size) // block_size
    bound = 4 * ((ratio.bit_length() - 1) + 2)
    return InsertionDensity(inserted=inserted, bound=bound)


def plan_block(q_prev: int, q_cur: int, b: int) -> tuple[int, ...]:
    """(ell1, ell2, ell3, k, q1, q2, q3), read from plan_block's docstring."""
    ell1 = 1  # Step 1: the least ell1 with q1 coprime to b and q_cur - 1.
    while math.gcd(ell1 * q_cur + q_prev, b * (q_cur - 1)) != 1:
        ell1 += 1
    q1 = ell1 * q_cur + q_prev
    ell2 = 1  # Step 2: the least prime q2 = q_cur mod q1 with b primitive.
    while True:
        q2 = ell2 * q1 + q_cur % q1
        if isprime(q2) and b % q2 and is_primitive_root(b, q2):
            break
        ell2 += 1
    # Step 3: b**k = q1 mod q2, lifted by q2 - 1 until b**k > 2*q2.
    k = discrete_log(q2, q1 % q2, b) or q2 - 1
    while b**k <= 2 * q2:
        k += q2 - 1
    q3 = b**k
    return ell1, ell2, (q3 - q1) // q2, k, q1, q2, q3


def tail_digit(k: int, b: int, mode: str) -> int:
    """The fourth inserted digit: b**(k**2) + 1 in paper mode, 2 in toy mode."""
    return b ** (k * k) + 1 if mode == "paper" else 2
