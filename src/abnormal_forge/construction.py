"""Digit-interleaving construction with machine-checkable certificates.

The pipeline copies blocks of seed partial quotients and, after each
block, inserts four chosen digits. The first three force the convergent
denominator three steps later to be an exact power of the scheduled
base (coprimization, a prime-with-primitive-root search in a residue
class, then a discrete logarithm); the fourth is a tail digit so large
that the number's base-b digits are pinned to b-1 over a long window.
Every block emits a :class:`BlockCertificate` that an independent
verifier can check against nothing but the digit stream itself.

Scale warning, recorded here because it shapes the API: the power-hit
exponent k is a discrete logarithm, distributed essentially uniformly
below the prime modulus. The denominator after block i therefore has
about as many BITS as the VALUE of block i's modulus, so block i+1
works modulo numbers whose size is exponential in block i's. Block 1
is cheap for any desk-scale seed; blocks beyond the first exceed any
conceivable budget (the searches and tables are exponential in the
accumulated size) and fail with explicit resource errors rather than
hanging. The budgets below make those failures fast and diagnosable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import nt
from ._dectext import brief
from .cf import convergent_stream, log2_fixed
from .errors import InputFormatError, ResourceBudgetExceeded, SearchExhausted
from .radix import digits_of_int

MODE_PAPER = "paper"
MODE_RELAXED = "relaxed"
MODE_TOY = "toy"


@dataclass(frozen=True)
class Mode:
    """Tail-digit policy.

    ``paper``   - full bound: the tail exceeds base**(k**2), pinning the
                  number's first k**2 base digits to the convergent's
                  repeating tail.
    ``relaxed`` - tail is base**ceil(scale*k) + 1; exploration only, the
                  verifier reports whether the full bound happened to be
                  met.
    ``toy``     - tail is 2; structural checks only.
    """

    kind: str
    scale: Fraction | None = None

    def __post_init__(self):
        if self.kind not in (MODE_PAPER, MODE_RELAXED, MODE_TOY):
            raise ValueError(f"unknown mode {self.kind!r}")
        if self.kind == MODE_RELAXED:
            if self.scale is None or self.scale <= 0:
                raise ValueError("relaxed mode needs a positive scale")
        elif self.scale is not None:
            raise ValueError(f"mode {self.kind!r} takes no scale")

    @staticmethod
    def parse(text: str) -> "Mode":
        if text == MODE_PAPER:
            return Mode(MODE_PAPER)
        if text == MODE_TOY:
            return Mode(MODE_TOY)
        if text.startswith(MODE_RELAXED + ":"):
            scale = text.split(":", 1)[1]
            if "e" in scale.lower():  # Fraction would form 10**exponent
                raise ValueError(
                    f"relaxed scale {brief(scale)!r} has an exponent")
            try:
                return Mode(MODE_RELAXED, Fraction(scale))
            except ZeroDivisionError:
                raise ValueError(
                    f"relaxed scale {brief(scale)!r} divides by zero") from None
        raise ValueError(
            f"mode must be 'paper', 'relaxed:<scale>' or 'toy', got {text!r}")

    def label(self) -> str:
        if self.kind == MODE_RELAXED:
            return f"relaxed:{self.scale}"
        return self.kind


@dataclass(frozen=True)
class SearchBudget:
    """Effort and memory caps for the per-block searches.

    ``tail_bits`` caps every materialized power of the base (the
    power-hit denominator and the tail digit), checked from an estimate
    of its bit length before the power is formed; ``bsgs_entries`` caps
    the discrete-log table; ``factor_effort`` bounds rho iterations when
    factoring group orders.
    """

    artin_limit: int = 100_000
    bsgs_entries: int = 1 << 24
    factor_effort: int = 1 << 22
    tail_bits: int = 1 << 31

    @staticmethod
    def from_mem_bytes(mem: int) -> "SearchBudget":
        """Derive caps from a single memory budget in bytes."""
        if mem < 1024:
            raise ValueError("memory budget below 1 KiB is unusable")
        return SearchBudget(bsgs_entries=max(1024, mem // 96),
                            tail_bits=mem * 8)


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class ConstructionConfig:
    block_size: int
    blocks: int
    mode: Mode
    tail_offset: int = 0
    budget: SearchBudget = field(default_factory=SearchBudget)

    def __post_init__(self):
        if self.block_size < 2 or self.block_size % 2:
            raise ValueError(
                f"block size must be an even integer >= 2, got {self.block_size}")
        if self.blocks < 0:
            raise ValueError(f"block count must be >= 0, got {self.blocks}")
        if self.tail_offset < 0:
            raise ValueError(f"tail offset must be >= 0, got {self.tail_offset}")

    def echo(self) -> dict:
        return {"block_size": self.block_size, "blocks": self.blocks,
                "mode": self.mode.label(), "tail_offset": self.tail_offset,
                "artin_limit": self.budget.artin_limit,
                "bsgs_entries": self.budget.bsgs_entries,
                "factor_effort": self.budget.factor_effort,
                "tail_bits": self.budget.tail_bits}


def _nth_nonsquare(n: int) -> int:
    r = math.isqrt(n)
    return n + (r if n <= r * r + r else r + 1)


def base_schedule(i: int) -> int:
    """i-th scheduled base: block j of the schedule lists the first j non-squares.

    The sequence starts 2, 2, 3, 2, 3, 5, 2, 3, 5, 6, ... so every
    non-square base recurs infinitely often. Square bases are never
    scheduled; digit statistics in a square base are tied to those in
    its non-square root base, so nothing is lost.
    """
    if i < 1:
        raise ValueError(f"schedule index must be >= 1, got {i}")
    j = 1
    total = 0
    while total + j < i:
        total += j
        j += 1
    return _nth_nonsquare(i - total)


def block_boundary(block_size: int, i: int) -> int:
    """Stream index of the last seed digit of block i: 2**(i-1) * N + 4(i-1)."""
    if block_size < 2 or block_size % 2:
        raise ValueError("block size must be even and >= 2")
    if i < 1:
        raise ValueError(f"block index must be >= 1, got {i}")
    return (1 << (i - 1)) * block_size + 4 * (i - 1)


def seed_block(source, i: int, block_size: int) -> list[int]:
    """Seed digits forming block i: N digits for i = 1, then doubling lengths."""
    if i < 1:
        raise ValueError(f"block index must be >= 1, got {i}")
    length = block_size if i == 1 else (1 << (i - 2)) * block_size
    return source.next_digits(length)


def pure_power_exponent(n: int, base: int) -> int | None:
    """The e with base**e = n, or None if n is not a pure power of base."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 1:
        return None
    e = ilog_floor(n, base)  # base**e <= n < base**(e + 1)
    return e if nt.pow_exceeds(base, e, n, or_equal=True) else None


def ilog_floor(x: int, base: int) -> int:
    """Largest t >= 0 with base**t <= x, for x >= 1."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    scaled_log_base = log2_fixed(base, 1, 64)
    t = ((x.bit_length() - 1) << 64) // scaled_log_base
    while nt.pow_exceeds(base, t, x):  # base**t > x: too far
        t -= 1
    while not nt.pow_exceeds(base, t + 1, x):  # base**(t+1) <= x: can grow
        t += 1
    return t


def _bounded_power(base: int, exponent: int, max_bits: int, what: str,
                   advice: str = "") -> int:
    """base**exponent, refused before it is formed if it passes ``max_bits``.

    The size estimate is exponent * log2(base) in 32-bit fixed point.
    """
    approx_bits = (exponent * log2_fixed(base, 1, 32)) >> 32
    if approx_bits > max_bits:
        raise ResourceBudgetExceeded(
            f"{what} needs ~{approx_bits} bits which exceeds the "
            f"{max_bits}-bit budget{advice}")
    return 1 << exponent if base == 2 else base**exponent


def tail_digit(bound_exponent: int, base: int, mode: Mode, *,
               offset: int = 0, max_bits: int = DEFAULT_BUDGET.tail_bits) -> int:
    """Fourth inserted digit for a block whose power has ``bound_exponent`` digits.

    Paper mode returns base**(bound_exponent**2) + 1 + offset, the least
    tail clearing the abnormality bound (offset picks later members of
    the countable family of valid tails). Relaxed mode shrinks the
    exponent to ceil(scale * bound_exponent); toy mode returns 2 +
    offset regardless.
    """
    if bound_exponent < 1:
        raise ValueError("bound exponent must be >= 1")
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if mode.kind == MODE_TOY:
        return 2 + offset
    if mode.kind == MODE_PAPER:
        exponent = bound_exponent * bound_exponent
    else:
        scaled = mode.scale * bound_exponent
        exponent = -(-scaled.numerator // scaled.denominator)
    power = _bounded_power(base, exponent, max_bits, "tail digit",
                           "; rerun in relaxed:<scale> or toy mode")
    return power + (1 + offset)


@dataclass(frozen=True)
class BlockPlan:
    """The three computed insertions for one block, with their denominators."""

    ell1: int
    ell2: int
    ell3: int
    exponent: int
    q1: int
    q2: int
    q3: int
    candidates_tested: int


def plan_block(q_prev: int, q_cur: int, base: int,
               budget: SearchBudget = DEFAULT_BUDGET) -> BlockPlan:
    """Choose insertions making the third denominator an exact base power.

    Step 1: the least multiplier making q1 = ell1*q_cur + q_prev coprime
    to both the base and q_cur - 1. Step 2: the least prime q2 in the
    class q_cur mod q1 with the base as a primitive root (the class is
    prime-rich: q1's coprimality is exactly what the finiteness
    screening needs). Step 3: the discrete log of q1 mod q2, lifted
    until the power clears 2*q2; the recurrence then forces
    ell3 = (base**k - q1)/q2 exactly. The power is refused with
    :class:`ResourceBudgetExceeded` before it is formed when its size
    estimate passes ``budget.tail_bits``.
    """
    if math.gcd(q_prev, q_cur) != 1:
        raise ValueError("consecutive denominators must be coprime")
    if q_cur < 2:
        raise ValueError(f"q_cur must be >= 2, got {q_cur}")
    if base < 2 or nt.is_perfect_square(base):
        raise ValueError(f"base must be >= 2 and non-square, got {base}")

    ell1 = nt.coprimizing_multiplier(q_cur, q_prev, base * (q_cur - 1))
    q1 = ell1 * q_cur + q_prev
    if not nt.corollary_hypotheses(base, q1, q_cur):
        raise RuntimeError(f"q1 = {brief(q1)} is not coprime to the base "
                           "and to q_cur - 1")
    hit = nt.find_artin_prime(base, q1, q_cur % q1, budget.artin_limit,
                              effort=budget.factor_effort)
    ell2, q2 = hit.ell, hit.prime

    k0 = nt.discrete_log(base, q1 % q2, q2,
                         max_table_entries=budget.bsgs_entries)
    k = nt.lift_exponent(base, q2, k0, 2 * q2)
    q3 = _bounded_power(base, k, budget.tail_bits, f"power {base}**{k}")
    ell3, remainder = divmod(q3 - q1, q2)
    if remainder or ell3 < 1:
        raise RuntimeError(f"{base}**{k} - q1 is not a positive multiple of "
                           f"the prime {q2}; the discrete log is broken")
    return BlockPlan(ell1=ell1, ell2=ell2, ell3=ell3, exponent=k,
                     q1=q1, q2=q2, q3=q3,
                     candidates_tested=hit.candidates_tested)


@dataclass(frozen=True)
class BlockCertificate:
    """Everything chosen for one block, checkable from the digit stream alone."""

    index: int
    base: int
    block_end: int            # stream index of the block's last seed digit
    inserted: tuple[int, int, int, int]
    denoms_before: tuple[int, int]   # q at block_end - 1 and block_end
    denoms_after: tuple[int, int, int]
    prime: int                # = denoms_after[1], the residue-class prime
    exponent: int             # denoms_after[2] = base ** exponent
    digit_bound: int          # = exponent: p3 / base**k has k base digits
    mode: str


class ConstructionAborted(RuntimeError):
    """A block could not be completed; partial results are attached."""

    def __init__(self, cause: Exception, failed_block: int,
                 digits: list[int], certificates: list[BlockCertificate],
                 insertion_positions: list[int]):
        super().__init__(
            f"block {failed_block} failed: {cause}")
        self.cause = cause
        self.failed_block = failed_block
        self.digits = digits
        self.certificates = certificates
        self.insertion_positions = insertion_positions


class ConstructedNumber:
    """A digit stream with insertions applied, plus its block certificates.

    Digits beyond the final planned block continue the raw seed stream;
    ``prefix`` extends the cached digits on demand. Removing the
    insertion positions from any prefix recovers the seed's own digits
    in order.
    """

    def __init__(self, config: ConstructionConfig, source,
                 digits: list[int], certificates: Sequence[BlockCertificate],
                 insertion_positions: Sequence[int]):
        self.config = config
        self.certificates = tuple(certificates)
        self.insertion_positions = tuple(insertion_positions)
        self._source = source
        self._digits = list(digits)

    @property
    def digits_through_blocks(self) -> list[int]:
        end = (block_boundary(self.config.block_size, self.config.blocks) + 4
               if self.config.blocks else 0)
        return self._digits[:end] if end else list(self._digits)

    def prefix(self, n: int) -> list[int]:
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        while len(self._digits) < n:
            chunk = min(4096, n - len(self._digits))
            self._digits.extend(self._source.next_digits(chunk))
        return self._digits[:n]


def construct(config: ConstructionConfig, source) -> ConstructedNumber:
    """Run the full pipeline: B blocks of seed digits, four insertions each.

    Deterministic for a given config and seed source. On a failed block
    the work completed so far is preserved inside
    :class:`ConstructionAborted`.
    """
    digits: list[int] = []
    certificates: list[BlockCertificate] = []
    insertion_positions: list[int] = []
    q_prev, q_cur = 0, 1

    def emit(d: int) -> None:
        nonlocal q_prev, q_cur
        digits.append(d)
        q_prev, q_cur = q_cur, d * q_cur + q_prev

    for i in range(1, config.blocks + 1):
        base = base_schedule(i)
        try:
            block = seed_block(source, i, config.block_size)
            if certificates:
                # The previous tail enters the recurrence only now.
                q_prev, q_cur = q_cur, digits[-1] * q_cur + q_prev
            for d in block:
                emit(d)
            boundary = block_boundary(config.block_size, i)
            if len(digits) != boundary:
                raise InputFormatError(
                    f"seed source gave {len(digits)} digits where block {i} "
                    f"ends at {boundary}")
            plan = plan_block(q_prev, q_cur, base, config.budget)
            tail = tail_digit(plan.exponent, base, config.mode,
                              offset=config.tail_offset,
                              max_bits=config.budget.tail_bits)
        except (SearchExhausted, ResourceBudgetExceeded, InputFormatError) as exc:
            raise ConstructionAborted(exc, i, digits, certificates,
                                      insertion_positions) from exc
        before = (q_prev, q_cur)
        for d in (plan.ell1, plan.ell2, plan.ell3):
            insertion_positions.append(len(digits) + 1)
            emit(d)
        if (q_prev, q_cur) != (plan.q2, plan.q3):
            raise RuntimeError(f"block {i}: the emitted digits do not "
                               "reproduce the planned denominators")
        insertion_positions.append(len(digits) + 1)
        digits.append(tail)
        certificates.append(BlockCertificate(
            index=i, base=base, block_end=boundary,
            inserted=(plan.ell1, plan.ell2, plan.ell3, tail),
            denoms_before=before,
            denoms_after=(plan.q1, plan.q2, plan.q3),
            prime=plan.q2, exponent=plan.exponent,
            digit_bound=plan.exponent,
            mode=config.mode.label()))
    return ConstructedNumber(config, source, digits, certificates,
                             insertion_positions)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool | None       # None = not applicable at this scale/mode
    required: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    index: int
    checks: tuple[CheckResult, ...]
    tail_bound_met: bool

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks if c.required)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.required and c.passed is False)


def _convergent_digits(p: int, q: int, base: int,
                       places: int) -> tuple[int, ...]:
    """First ``places`` base digits of p/q in (0, 1), non-terminating form."""
    if places < 1:
        raise ValueError(f"places must be >= 1, got {places}")
    return digits_of_int(-(-p * base**places // q) - 1, base, places)


def verify_certificate(cert: BlockCertificate, digits: Sequence[int],
                       sample_window: int = 10_000) -> VerificationReport:
    """Recheck every certificate claim from the digit stream alone.

    Recomputes the convergents around the block, re-runs the
    number-theoretic conditions, and gathers the abnormality evidence:
    the parity of the convergent index, the exact gap bound from the
    tail digit, and agreement of the stream's base digits (pinched
    between cylinder endpoints) with the convergent's repeating-tail
    expansion. ``sample_window`` caps the digit comparison length.

    The evidence uses small integers only: no product with the tail
    digit is formed unless the tail misses the bound it claims. With
    p2/q2 and p3/q3 the convergents after the second and third
    insertions, let det = p3*q2 - p2*q3 (+-1 by p_n q_{n-1} - p_{n-1} q_n
    = (-1)**(n-1)). For a stream tail T_s, the convergent after it is
    p4/q4 with q4 = T_s*q3 + q2, and p3*q4 - p4*q3 = det for every T_s.
    Every continuation lies between the cylinder endpoints p/q with
    q in {q4, q4 + q3}, and each satisfies p*q3 - p3*q = -det, so
    p3/q3 - p/q = det/(q3*q). Hence both endpoints sit below the
    convergent iff det > 0. Both gaps are at most 1/(T*q3**2) for the
    claimed tail T iff det*T*q3 <= q4 and <= q4 + q3; as 0 < q2 < q3,
    that is det*T <= T_s. The claimed gap resolution T*q3**2 >
    base**(k*k) follows from the tail bound T > base**(k*k) with no
    product. The first s base digits of an endpoint are floor(B*p/q)
    = c + (e*q - det*B) // (q3*q) with B = base**s and c, e =
    divmod(p3*B, q3), exact for any det and q3. The convergent's own
    digits need no ``power_hit``: the first s non-terminating base digits
    of p3/q3 are ceil(p3*base**s/q3) - 1, written with s digits.

    Both tails enter the pinched digits clamped to 2**cap_bits, with
    cap_bits = window * base.bit_length(), so 2**cap_bits > base**window
    >= B; a clamped tail is never larger than the tail itself. Past the
    clamp nothing changes: s = min(window, floor(log_base(T*q3**2))) is
    the window once T >= base**window, and once q > B the quotient
    (e*q - det*B) // (q3*q) is 0, or -1 when det = 1 and e = 0, whatever
    q is. A claimed tail below 1 pins no place, so the report ends
    before the pinched-digit checks; an unscheduled base ends it after
    ``scheduled_base``, so every power formed here is of a scheduled base.
    An index past the stream or a block end below 1 ends it after a
    failed ``block_layout``.
    """
    checks: list[CheckResult] = []

    def add(name: str, passed: bool | None, detail: str = "",
            required: bool = True) -> None:
        checks.append(CheckResult(name, passed, required, detail))

    def report(tail_bound_met: bool = False) -> VerificationReport:
        return VerificationReport(index=i, checks=tuple(checks),
                                  tail_bound_met=tail_bound_met)

    n_i = cert.block_end
    i = cert.index
    base = cert.base
    mode = Mode.parse(cert.mode)

    # block_boundary(N, i) >= 2**i, so a larger index cannot fit the
    # stream; stop before 1 << (i - 1) allocates a number that large.
    if i < 1 or i - 1 >= len(digits).bit_length():
        add("block_layout", False,
            f"block {brief(i)} cannot end inside a {len(digits)}-digit stream")
        return report()
    size_num = n_i - 4 * (i - 1)
    size_den = 1 << (i - 1)
    block_size = size_num // size_den if size_num % size_den == 0 else 0
    add("block_layout",
        block_size >= 2 and block_size % 2 == 0
        and block_boundary(block_size, i) == n_i,
        f"boundary {brief(n_i)} implies block size "
        f"{brief(block_size or '?')}")
    if n_i < 1:
        # No convergent precedes the first digit.
        return report()
    scheduled = base_schedule(i)
    add("scheduled_base", base == scheduled,
        f"block {i} is scheduled for base {scheduled}")
    if base != scheduled:
        # Every later power of the base would be sized by the claim alone.
        return report()

    if len(digits) < n_i + 4:
        add("stream_length", False,
            f"need {brief(n_i + 4)} digits, stream has {len(digits)}")
        return report()
    add("stream_length", True, f"{len(digits)} digits available")

    inserted = tuple(digits[n_i:n_i + 4])
    add("inserted_digits", inserted == cert.inserted,
        f"stream carries {brief(inserted)}")

    p_at, q_at = {}, {0: 1}
    for conv in convergent_stream(digits[:n_i + 3]):
        if conv.index >= n_i - 1:
            p_at[conv.index], q_at[conv.index] = conv.p, conv.q
    qn_prev, qn = q_at[n_i - 1], q_at[n_i]
    q1, q2, q3 = q_at[n_i + 1], q_at[n_i + 2], q_at[n_i + 3]
    stream_tail = digits[n_i + 3]
    if stream_tail < 1:
        raise ValueError(f"partial quotient must be >= 1, got {stream_tail}")
    ell1, ell2, ell3, tail = cert.inserted

    add("denominators_before", (qn_prev, qn) == cert.denoms_before,
        f"stream gives ({brief(qn_prev)}, {brief(qn)})")
    add("denominators_after", (q1, q2, q3) == cert.denoms_after,
        "recomputed from the recurrence")
    add("recurrence",
        q1 == ell1 * qn + qn_prev and q2 == ell2 * q1 + qn
        and q3 == ell3 * q2 + q1,
        "q_{n+j} = insert_j * q_{n+j-1} + q_{n+j-2}")

    add("coprime_to_base", math.gcd(q1, base) == 1,
        f"gcd(q_next, {base})")
    add("coprime_to_predecessor", math.gcd(q1, qn - 1) == 1,
        "gcd(q_next, q_n - 1)")

    add("residue_class", q2 % q1 == qn % q1,
        "prime sits in the class q_n mod q_next")
    try:
        add("prime", nt.is_prime(q2) and q2 == cert.prime, brief(q2))
        add("primitive_root", nt.is_primitive_root(base, q2),
            f"{base} generates mod {brief(q2)}")
    except (ResourceBudgetExceeded, ValueError) as exc:
        add("primitive_root", False, f"could not certify: {exc}")

    k = cert.exponent
    add("power_hit", pure_power_exponent(q3, base) == k,
        f"third denominator is {base}**{brief(k)}")
    add("power_clears_modulus", nt.pow_exceeds(base, k, 2 * q2),
        f"{base}**{brief(k)} > 2 * prime")
    add("digit_bound", cert.digit_bound == k,
        "digit bound equals the power exponent")

    tail_met = not nt.pow_exceeds(base, k * k, tail, or_equal=True)
    add("tail_bound", tail_met,
        f"tail {'exceeds' if tail_met else 'does not exceed'} "
        f"{base}**{brief(k * k)}",
        required=(mode.kind == MODE_PAPER))

    # Abnormality evidence: the convergent p3/q3 after the third
    # insertion and the cylinder the tail pins around it.
    p2, p3 = p_at[n_i + 2], p_at[n_i + 3]
    det = p3 * q2 - p2 * q3
    add("sign_parity", (n_i + 3) % 2 == 1 and det > 0,
        "odd index, so the stream sits below its convergent")

    add("gap_bound",
        tail <= stream_tail if det > 0 else -stream_tail <= tail,
        "cylinder lies within 1/(tail * q**2) of the convergent")

    resolution_ok = tail_met or not nt.pow_exceeds(
        base, k * k, tail * q3 * q3, or_equal=True)
    add("gap_resolution", resolution_ok,
        f"gap bound {'is' if resolution_ok else 'is not'} below "
        f"{base}**-{brief(k * k)}",
        required=(mode.kind == MODE_PAPER))

    window = sample_window
    tail_span = min(k * k, window)
    if tail_span > k:
        r_digits = _convergent_digits(p3, q3, base, tail_span)
        structure_ok = all(d == base - 1 for d in r_digits[k:])
        add("radix_tail_structure", structure_ok,
            f"digits {k + 1}..{tail_span} of the convergent all equal "
            f"{base - 1}")
    else:
        add("radix_tail_structure", None,
            "window too small to sample past the terminating digits",
            required=False)

    if tail < 1:
        # A claimed gap bound of 1/(tail * q**2) <= 0 pins no place.
        return report(tail_met)

    # Past 2**cap_bits > base**window no tail changes a verdict or a
    # detail; a window below 1 raises below, max() only keeps 1 << valid.
    cap_bits = max(window, 1) * base.bit_length()

    def clamp(t: int) -> int:
        return t if t.bit_length() <= cap_bits else 1 << cap_bits

    span = min(window, ilog_floor(clamp(tail) * q3 * q3, base))
    if span < 1:
        raise ValueError(f"no base-{base} place is pinned: window {window}, "
                         f"tail * q**2 = {brief(tail * q3 * q3)}")
    power = base**span
    c, e = divmod(p3 * power, q3)
    q4 = clamp(stream_tail) * q3 + q2
    end_a, end_b = (digits_of_int(c + (e * q - det * power) // (q3 * q),
                                  base, span)
                    for q in (q4, q4 + q3))
    agreed = span if end_a == end_b else next(
        j for j, (a, b) in enumerate(zip(end_a, end_b)) if a != b)
    y_digits = end_a[:agreed]
    add("radix_window_match",
        y_digits == _convergent_digits(p3, q3, base, span)[:agreed],
        f"stream digits match the convergent's repeating-tail expansion "
        f"through all {agreed} pinched places (window {span})")

    probe = min(k * k, window)
    if agreed >= probe:
        differing = sum(1 for d in y_digits[:probe] if d != base - 1)
        add("window_differing_bound", differing <= cert.digit_bound,
            f"{differing} of the first {probe} digits differ from "
            f"{base - 1} (bound {brief(cert.digit_bound)})")
    else:
        add("window_differing_bound", None,
            f"only {agreed} digits pinned; the {probe}-digit window "
            "needs a larger tail", required=False)

    return report(tail_met)


@dataclass(frozen=True)
class InsertionDensity:
    inserted: int
    prefix_len: int
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
    return InsertionDensity(inserted=inserted, prefix_len=prefix_len,
                            bound=bound)
