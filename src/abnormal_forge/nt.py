"""Arbitrary-precision number theory kernel.

Primality testing, integer factorization, CRT solving, primitive-root
and discrete-log computations, Kronecker symbols, and the finiteness
tests that decide whether a residue class can keep supplying primes
with a prescribed primitive root (Lenstra's criterion, assuming GRH).

Primality follows one fixed rule: deterministic Miller-Rabin below
~3.3e24; above it, Baillie-PSW, then 32 Miller-Rabin rounds whose bases
come from a PRNG seeded by the number under test.

Everything here is a pure function of its arguments; values are plain
Python ints and frozen dataclasses. The one piece of state,
:func:`discrete_log`'s kept baby-step table, changes only what a repeat
query costs; every answer is still confirmed before it is returned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InfeasibleError, ResourceBudgetExceeded, SearchExhausted

_SMALL_PRIME_LIMIT = 1 << 16


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


SMALL_PRIMES: tuple[int, ...] = tuple(_sieve(_SMALL_PRIME_LIMIT))
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)

# Miller-Rabin with these bases is deterministic for n < 3.3 * 10**24,
# comfortably past 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
# Seeded Miller-Rabin rounds after Baillie-PSW above that bound.
_EXTRA_MR_ROUNDS = 32
# Caps on the coprimizing-multiplier scan and on CRT residue combinations.
_COPRIMIZER_SCAN_LIMIT = 1 << 20
_CRT_COMBINATION_LIMIT = 1 << 20


def iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n (integer k-th root), for n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("iroot requires n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    r = 1 << -(-n.bit_length() // k)  # upper bound: 2**ceil(bits/k)
    while True:
        candidate = ((k - 1) * r + n // r ** (k - 1)) // k
        if candidate >= r:
            break
        r = candidate
    while r**k > n:
        r -= 1
    return r


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def is_perfect_power(n: int, k: int) -> bool:
    """True iff n = m**k for some integer m."""
    return iroot(n, k) ** k == n


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


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge parameters.

    Assumes n odd, n > 2, n not a perfect square.
    """
    D = 5
    while True:
        j = _jacobi(D % n, n)
        if j == 0:
            return abs(D) == n  # shares a factor with D otherwise
        if j == -1:
            break
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Lucas ladder for U_d, V_d with P = 1.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            if U & 1:
                U += n
            if V & 1:
                V += n
            U = (U >> 1) % n
            V = (V >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    """Primality test; deterministic below ~3.3e24, strong-PRP above.

    Below ~3.3e24, Miller-Rabin with the first twelve prime bases gives
    an unconditionally correct answer. Above, a Baillie-PSW combination
    (base-2 Miller-Rabin plus a strong Lucas test) runs first, then 32
    Miller-Rabin rounds whose bases come from a PRNG seeded by n, so
    results are reproducible run to run. A ``False`` answer is always
    correct; the failure probability of a ``True`` answer is far below
    2**-64.
    """
    if n < 2:
        return False
    if n < _SMALL_PRIME_LIMIT:
        return n in _SMALL_PRIME_SET
    for p in SMALL_PRIMES[:64]:
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BOUND:
        return not any(_mr_witness(n, a, d, s) for a in _MR_BASES)
    if _mr_witness(n, 2, d, s):
        return False
    if is_perfect_square(n):
        return False
    if not _strong_lucas_prp(n):
        return False
    rng = random.Random(n)
    for _ in range(_EXTRA_MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _mr_witness(n, a, d, s):
            return False
    return True


@dataclass(frozen=True)
class FactoredInteger:
    """An integer together with its complete prime factorization.

    ``factors`` is sorted by prime; the product of prime**exponent
    equals ``value``.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def check(self) -> bool:
        prod = 1
        last = 0
        for p, e in self.factors:
            if p <= last or e < 1 or not is_prime(p):
                return False
            last = p
            prod *= p**e
        return prod == self.value


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
                    f"factorization effort budget exhausted on {n}"
                )
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # unlucky cycle; retry with new parameters


def factorize(n: int, *, effort: int = 1 << 22) -> FactoredInteger:
    """Complete factorization: trial division, then Brent-cycle rho.

    ``effort`` bounds the total number of rho iterations; a hard
    composite raises :class:`ResourceBudgetExceeded` rather than
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
    budget = [effort]
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        # Perfect powers first: rho behaves poorly on them.
        reduced = False
        for k in range(2, m.bit_length()):
            root = iroot(m, k)
            if root > 1 and root**k == m:
                stack.extend([root] * k)
                reduced = True
                break
        if reduced:
            continue
        f = _brent_rho(m, budget)
        stack.append(f)
        stack.append(m // f)
    value = 1
    for p, e in counts.items():
        value *= p**e
    result = FactoredInteger(value=value, factors=tuple(sorted(counts.items())))
    return result


def squarefree_kernel(g: int) -> int:
    """Product of the distinct primes dividing g (its largest squarefree divisor)."""
    if g < 2:
        raise ValueError(f"squarefree_kernel requires g >= 2, got {g}")
    return math.prod(factorize(g).primes())


def field_discriminant(g: int) -> int:
    """Discriminant of the quadratic field generated by a square root of g.

    With g' the squarefree kernel of g: g' when g' = 1 mod 4, else 4g'.
    Perfect squares are rejected (the field would be trivial).
    """
    if g < 2:
        raise ValueError(f"field_discriminant requires g >= 2, got {g}")
    if is_perfect_square(g):
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


def is_primitive_root(g: int, p: int, *, effort: int = 1 << 22) -> bool:
    """True iff g generates the full multiplicative group mod prime p.

    Checks g**((p-1)/r) != 1 for every prime r dividing p - 1, which
    requires factoring p - 1; oversized p - 1 raises a resource error.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    g %= p
    if g == 0:
        raise ValueError("g must be a unit modulo p")
    if p == 2:
        return True
    order = p - 1
    return all(pow(g, order // r, p) != 1
               for r in factorize(order, effort=effort).primes())


ResidueSpec = Iterable[int] | Callable[[int], bool]


def _admitted_residues(modulus: int, spec: ResidueSpec) -> list[int]:
    if callable(spec):
        admitted = [r for r in range(modulus) if spec(r)]
    else:
        admitted = sorted({r % modulus for r in spec})
    if not admitted:
        raise InfeasibleError(f"no admitted residue modulo {modulus}")
    return admitted


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    m = m1 * m2
    x = (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % m
    return x, m


def crt_min_solution(constraints: Sequence[tuple[int, ResidueSpec]]) -> int:
    """Smallest positive integer meeting one admitted residue per modulus.

    Moduli must be pairwise coprime. The minimum is global: every
    combination of admitted residues is CRT-combined and the best
    positive representative kept. Residue specs may be collections or
    predicates on [0, modulus).
    """
    if not constraints:
        raise ValueError("at least one constraint is required")
    moduli = [m for m, _ in constraints]
    for m in moduli:
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if math.gcd(moduli[i], moduli[j]) != 1:
                raise ValueError(
                    f"moduli {moduli[i]} and {moduli[j]} are not coprime")
    admitted = [_admitted_residues(m, spec) for m, spec in constraints]
    combos = math.prod(len(a) for a in admitted)
    if combos > _CRT_COMBINATION_LIMIT:
        raise ResourceBudgetExceeded(
            f"{combos} residue combinations exceed the enumeration limit")
    total = math.prod(moduli)

    def solutions(idx: int, x: int, m: int) -> Iterator[int]:
        if idx == len(constraints):
            yield x if x > 0 else total
            return
        for r in admitted[idx]:
            yield from solutions(idx + 1, *_crt_pair(x, m, r, moduli[idx]))

    return min(solutions(0, 0, 1))


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
    raise InfeasibleError(
        f"no coprimizing multiplier below {_COPRIMIZER_SCAN_LIMIT}; "
        "preconditions violated?")


@dataclass(frozen=True)
class LenstraVerdict:
    """Outcome of the finiteness test for primes p = a mod f with g a primitive root.

    ``finite`` is True iff one of the three structural conditions fired;
    ``condition`` is 1, 2 or 3 (None when infinite under GRH), and
    ``prime_witness`` carries the prime q for condition 1.
    """

    finite: bool
    condition: int | None
    prime_witness: int | None
    discriminant: int

    def __post_init__(self):
        if self.finite != (self.condition is not None):
            raise ValueError("a finite verdict needs a condition and an "
                             "infinite one none")


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
    if g < 2 or is_perfect_square(g):
        raise ValueError(f"g = {g} must be >= 2 and not a perfect square")
    d = field_discriminant(g)
    # Condition 1: q-th powers need q <= log2(g), so only small primes matter.
    for q in SMALL_PRIMES:
        if q > g.bit_length():
            break
        if f % q == 0 and a % q == 1 and is_perfect_power(g, q):
            return LenstraVerdict(True, 1, q, d)
    if f % d == 0 and kronecker_symbol(d, a) == 1:
        return LenstraVerdict(True, 2, None, d)
    if (3 * f) % d == 0 and d % 3 == 0 \
            and kronecker_symbol(-(d // 3), a) == -1 and is_perfect_power(g, 3):
        return LenstraVerdict(True, 3, None, d)
    return LenstraVerdict(False, None, None, d)


def corollary_hypotheses(g: int, f: int, a: int) -> bool:
    """Sufficient conditions for the residue class to stay prime-rich.

    True iff f is coprime to both g and a - 1, and g >= 2 is not a
    perfect square. Whenever this holds, none of the finiteness
    conditions can fire.
    """
    if g < 1 or f < 1 or a < 1:
        raise ValueError("g, f, a must be positive")
    return (g >= 2 and not is_perfect_square(g)
            and math.gcd(f, g) == 1 and math.gcd(f, a - 1) == 1)


@dataclass(frozen=True)
class ArtinPrime:
    """A prime p = ell*f + a for which g is a primitive root."""

    ell: int
    prime: int
    candidates_tested: int


def find_artin_prime(g: int, f: int, a: int, search_limit: int = 100_000, *,
                     effort: int = 1 << 22) -> ArtinPrime:
    """Least ell >= 1 with ell*f + a prime and g a primitive root mod it.

    The class is first screened with :func:`lenstra_finiteness`; a
    provably finite class is rejected since the scan could never be
    trusted to terminate. (On GRH an unscreened class yields infinitely
    many hits; ``search_limit`` protects desk-scale runs regardless.)
    """
    if not 1 <= a < f:
        raise ValueError(f"need 1 <= a < f, got a={a}, f={f}")
    verdict = lenstra_finiteness(g, f, a)
    if verdict.finite:
        raise ValueError(
            f"residue class {a} mod {f} admits only finitely many primes with "
            f"{g} as a primitive root (condition {verdict.condition})")
    tested = 0
    for ell in range(1, search_limit + 1):
        candidate = ell * f + a
        tested += 1
        if g % candidate == 0:
            continue  # g = 0 mod p can never generate the group

        if is_prime(candidate) and is_primitive_root(
                g, candidate, effort=effort):
            return ArtinPrime(ell=ell, prime=candidate, candidates_tested=tested)
    raise SearchExhausted(
        f"no prime with primitive root {g} in {a} mod {f} within "
        f"{search_limit} candidates", candidates_tested=tested)


@dataclass(frozen=True, slots=True)
class _BabySteps:
    """Baby-step table ``g**j mod p -> j`` for ``0 <= j < size``, with the
    giant step ``g**(-size) mod p``. ``p`` passed :func:`is_prime`."""

    g: int
    p: int
    table: dict[int, int]
    size: int
    giant: int

    def grow(self, size: int) -> _BabySteps:
        """Extend the table in place to ``size`` entries; return the new record.

        A caller still holding this record may meet entries past its
        ``size``; each is a true ``g**j -> j``, so its answers stay right.
        """
        g, p, table = self.g, self.p, self.table
        e = pow(g, self.size, p)
        # Distinct keys are automatic for a generator; for smaller orders the
        # overwrite is harmless because every result is verified before return.
        for j in range(self.size, size):
            table[e] = j
            e = e * g % p
        return _BabySteps(g, p, table, size, pow(g, p - 1 - size, p))


# The table of the latest discrete_log query: one slot, so memory stays
# within a single query's max_table_entries.
_last_baby_steps: _BabySteps | None = None


def discrete_log(g: int, h: int, p: int, *,
                 max_table_entries: int = 1 << 24) -> int:
    """Baby-step giant-step discrete log: the k in [0, p-2] with g**k = h (mod p).

    Expects prime p and a generator g (unique answer). A first query for
    (g, p) builds a table of ceil(sqrt(p-1)) entries; instances needing
    more than ``max_table_entries`` raise a resource error instead of
    thrashing. The table of the latest (g, p) is kept: a repeat query
    reuses it and doubles it, up to p - 1 entries, so a sweep over every
    h ends in single lookups. The retained table never exceeds the
    calling query's ``max_table_entries`` (the cap that
    ``ABNORMAL_FORGE_MEM_BUDGET`` sets through ``SearchBudget.bsgs_entries``).
    The primality of p is re-tested unless the kept table is for the same
    p. Every result is confirmed by modular exponentiation before
    returning.
    """
    global _last_baby_steps
    last = _last_baby_steps
    same_modulus = last is not None and last.p == p
    if not same_modulus and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    g %= p
    h %= p
    if g == 0:
        raise ValueError("g must be a unit modulo p")
    if h == 0:
        raise ValueError("h = 0 mod p has no discrete logarithm")
    if p == 2:
        return 0
    if same_modulus and last.g == g and last.size <= max_table_entries:
        steps = last
        size = min(2 * last.size, p - 1, max_table_entries)
        if size > last.size:
            steps = _last_baby_steps = last.grow(size)
    else:
        size = math.isqrt(p - 2) + 1  # ceil(sqrt(p - 1))
        if size > max_table_entries:
            raise ResourceBudgetExceeded(
                f"baby-step table would need {size} entries "
                f"(limit {max_table_entries}); modulus too large")
        last = _last_baby_steps = None  # free the old table before building
        steps = _BabySteps(g, p, {}, 0, 1).grow(size)
        _last_baby_steps = steps
    m = steps.size
    giant = steps.giant
    get = steps.table.get
    y = h
    for i in range((p - 2) // m + 1):
        j = get(y)
        if j is not None:
            k = (i * m + j) % (p - 1)
            if pow(g, k, p) == h:
                return k
        y = y * giant % p
    raise ValueError(f"{h} is outside the subgroup generated by {g} mod {p}")


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
