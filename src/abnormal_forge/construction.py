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
from collections import namedtuple
from typing import Sequence

from . import nt
from ._dectext import brief
from .cf import LOG2_BITS, convergent_stream, digits_of_int, log2_fixed
from .errors import InputFormatError, ResourceBudgetExceeded, SearchExhausted

MODE_PAPER = "paper"
MODE_TOY = "toy"


class Mode(namedtuple("Mode", "kind")):
    """Tail-digit policy, named by ``kind``.

    ``paper`` - full bound: the tail is base**(k**2) + 1, the least tail
                exceeding base**(k**2), pinning the number's first k**2
                base digits to the convergent's repeating tail.
    ``toy``   - tail is 2; structural checks only.

    Mode, SearchBudget and ConstructionConfig check their values in
    ``__new__``, and route ``_make`` (so ``_replace`` and ``copy.replace``)
    and ``__reduce__`` (so copies and unpickling at any protocol) through it.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))
    __reduce__ = lambda self: (type(self), tuple(self))

    def __new__(cls, *args, **kwargs) -> Mode:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (MODE_PAPER, MODE_TOY):
            raise ValueError(
                f"mode must be 'paper' or 'toy', got {brief(self.kind)!r}")
        return self

    @staticmethod
    def parse(text: str) -> "Mode":
        """The mode a command line or a certificate names."""
        return Mode(text)


# The default memory budget in bytes. Every default cap below derives from
# it, at unit prices at or above tracemalloc peaks (Python 3.11):
# - a discrete-log table entry: 98-109 B, and up to 156 B just past a dict
#   resize (2/3 * 2**j entries);
# - eight bits of tail digit, formed and rendered to decimal as construct
#   writes it: 6.9-7.0 B for base-2 tails of 85k to 5.8M bits (rendering
#   by bit halves, the path of other values, peaked at 9.6 B at 205k).
#   Base 2 is the only base a reachable block has: a base-3 tail (block 3
#   on) peaks at 9.5-9.8 B, above this price;
# - a digit the rng sampler yields and construct writes: about 18 B.
DEFAULT_MEM_BYTES = 256 << 20
TABLE_ENTRY_BYTES = 160
TAIL_BYTE_BYTES = 9
SAMPLED_DIGIT_BYTES = 18


def _mem_caps(mem: int) -> tuple[int, int]:
    """(bsgs_entries, tail_bits) that ``mem`` bytes pay for."""
    if mem < 1024:
        raise ValueError("memory budget below 1 KiB is unusable")
    return max(1024, mem // TABLE_ENTRY_BYTES), mem * 8 // TAIL_BYTE_BYTES


class SearchBudget(namedtuple("SearchBudget", "bsgs_entries tail_bits",
                              defaults=_mem_caps(DEFAULT_MEM_BYTES))):
    """Memory caps for the per-block searches.

    ``tail_bits`` caps every materialized power of the base (the
    power-hit denominator and the tail digit), checked from an estimate
    of its bit length before the power is formed; ``bsgs_entries`` caps
    the discrete-log table, which admits primes up to bsgs_entries**2 + 1.
    The memory caps default to what ``DEFAULT_MEM_BYTES`` pays for, as
    :meth:`from_mem_bytes` prices them. The table cap also bounds every
    prime the constructor and the verifier test, so a cap whose bound
    reaches ``nt.is_prime``'s proof bound psi_13 (a memory budget above
    ~265 TiB) is refused. The effort caps are fixed: ``nt.ARTIN_LIMIT``
    caps the prime search's candidates and ``nt.FACTOR_EFFORT`` the
    factoring of group orders, and the run header echoes both.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))
    __reduce__ = lambda self: (type(self), tuple(self))

    def __new__(cls, *args, **kwargs) -> SearchBudget:
        self = super().__new__(cls, *args, **kwargs)
        if self.bsgs_entries ** 2 + 1 >= nt._MR_DETERMINISTIC_BOUND:
            raise ValueError(
                f"a {brief(self.bsgs_entries)}-entry table cap admits primes "
                "past the deterministic Miller-Rabin bound "
                f"{nt._MR_DETERMINISTIC_BOUND}")
        return self

    @staticmethod
    def from_mem_bytes(mem: int) -> "SearchBudget":
        """Caps a memory budget of ``mem`` bytes pays for at the unit prices:
        ``TABLE_ENTRY_BYTES`` a table entry (never below 1,024 entries) and
        ``TAIL_BYTE_BYTES`` eight bits of a power of the base."""
        bsgs_entries, tail_bits = _mem_caps(mem)
        return SearchBudget(bsgs_entries=bsgs_entries, tail_bits=tail_bits)


DEFAULT_BUDGET = SearchBudget()


class ConstructionConfig(namedtuple(
        "ConstructionConfig", "block_size blocks mode budget",
        defaults=(DEFAULT_BUDGET,))):
    """``blocks`` blocks of ``block_size`` seed digits, built in ``mode``
    under ``budget`` (by default the one immutable ``DEFAULT_BUDGET``)."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))
    __reduce__ = lambda self: (type(self), tuple(self))

    def __new__(cls, *args, **kwargs) -> ConstructionConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.block_size < 2 or self.block_size % 2:
            raise ValueError(
                f"block size must be an even integer >= 2, got {self.block_size}")
        if self.blocks < 0:
            raise ValueError(f"block count must be >= 0, got {self.blocks}")
        return self

    def echo(self) -> dict:
        return {"block_size": self.block_size, "blocks": self.blocks,
                "mode": self.mode.kind,
                # v1 headers are pinned; keys change only in format v2.
                "tail_offset": 0,
                "artin_limit": nt.ARTIN_LIMIT,
                "bsgs_entries": self.budget.bsgs_entries,
                "factor_effort": nt.FACTOR_EFFORT,
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
    """Stream index of the last seed digit of block i: 2**(i-1) * N + 4(i-1).

    So blocks 1 and 2 hold N seed digits each and every later block twice
    as many as the one before; ``construct`` reads each block's length here.
    """
    if block_size < 2 or block_size % 2:
        raise ValueError("block size must be even and >= 2")
    if i < 1:
        raise ValueError(f"block index must be >= 1, got {i}")
    return (1 << (i - 1)) * block_size + 4 * (i - 1)


def ilog_floor(x: int, base: int) -> int:
    """Largest t >= 0 with base**t <= x, for x >= 1."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    t = ((x.bit_length() - 1) << LOG2_BITS) // log2_fixed(base, 1)
    while nt.pow_exceeds(base, t, x):  # base**t > x: too far
        t -= 1
    while not nt.pow_exceeds(base, t + 1, x):  # base**(t+1) <= x: can grow
        t += 1
    return t


def _bounded_power(base: int, exponent: int, max_bits: int, what: str,
                   advice: str = "") -> int:
    """base**exponent, refused before it is formed if it passes ``max_bits``.

    The size estimate is exponent * log2(base) in 64-bit fixed point,
    exact for base 2. The refusal keeps the estimate rather than an exact
    ``nt.pow_exceeds(base, exponent, 1 << max_bits)``: ``1 << max_bits``
    is itself as large as the biggest power the budget allows (at the
    default, a 238,609,294-bit integer of ~28 MiB), and for a base that
    is not a power of two ``pow_exceeds`` forms ``base**exponent``
    whenever bit lengths leave the comparison open, so the check would
    allocate what it guards.
    """
    approx_bits = (exponent * log2_fixed(base, 1)) >> LOG2_BITS
    if approx_bits > max_bits:
        raise ResourceBudgetExceeded(
            f"{what} needs ~{approx_bits} bits which exceeds the "
            f"{max_bits}-bit budget{advice}")
    return 1 << exponent if base == 2 else base**exponent


def tail_digit(bound_exponent: int, base: int, mode: Mode, *,
               max_bits: int = DEFAULT_BUDGET.tail_bits) -> int:
    """Fourth inserted digit for a block whose power has ``bound_exponent`` digits.

    Paper mode returns base**(bound_exponent**2) + 1, the least tail
    clearing the abnormality bound; toy mode returns 2.
    """
    if bound_exponent < 1:
        raise ValueError("bound exponent must be >= 1")
    if mode.kind == MODE_TOY:
        return 2
    power = _bounded_power(base, bound_exponent * bound_exponent, max_bits,
                           "tail digit", "; rerun in toy mode")
    return power + 1


class BlockPlan(namedtuple("BlockPlan", "ell1 ell2 ell3 exponent q1 q2 q3")):
    """The three computed insertions for one block, with their denominators:
    ``ell1``..``ell3`` give ``q1``..``q3``, and q3 = base**``exponent``."""

    __slots__ = ()


def plan_block(q_prev: int, q_cur: int, base: int,
               budget: SearchBudget = DEFAULT_BUDGET) -> BlockPlan:
    """Choose insertions making the third denominator an exact base power.

    Step 1: the least multiplier making q1 = ell1*q_cur + q_prev coprime
    to both the base and q_cur - 1. Step 2: the least prime q2 in the
    class q_cur mod q1 with the base as a primitive root (the class is
    prime-rich on GRH: q1's coprimality is exactly what
    ``nt.corollary_hypotheses`` needs, the pipeline's one class screen).
    Step 3: the discrete log of q1 mod q2, lifted until the power clears
    2*q2; the recurrence then forces ell3 = (base**k - q1)/q2 exactly.
    The power is refused with :class:`ResourceBudgetExceeded` before it
    is formed when its size estimate passes ``budget.tail_bits``. Step 2 is refused the same way
    before it scans when the discrete-log table of its least candidate,
    q1 + 1, would pass ``budget.bsgs_entries``; otherwise it scans no
    candidate past bsgs_entries**2 + 1, the largest prime that table
    admits, and a scan cut short there is refused on the next candidate.
    It scans at most ``nt.ARTIN_LIMIT`` candidates, read at each call.
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
    # Every candidate prime is at least q1 + 1, so discrete_log would refuse
    # the table of any prime the scan finds; refuse before scanning. Else
    # the scan ends at the last candidate ell*q1 + a that discrete_log
    # accepts, and a scan cut there is refused as the next candidate is.
    nt.baby_step_entries(q1 + 1, budget.bsgs_entries)
    a = q_cur % q1
    reach = (budget.bsgs_entries ** 2 + 1 - a) // q1
    if reach < 1:  # the least candidate, q1 + a, is past the cap
        nt.baby_step_entries(q1 + a, budget.bsgs_entries)
    try:
        hit = nt.find_artin_prime(base, q1, a, min(nt.ARTIN_LIMIT, reach))
    except SearchExhausted:
        if reach < nt.ARTIN_LIMIT:
            nt.baby_step_entries((reach + 1) * q1 + a, budget.bsgs_entries)
        raise
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
                     q1=q1, q2=q2, q3=q3)


class BlockCertificate(namedtuple(
        "BlockCertificate", "index base block_end inserted denoms_before "
        "denoms_after prime exponent digit_bound mode")):
    """Everything chosen for one block, checkable from the digit stream alone.

    ``block_end`` is the stream index of the block's last seed digit and
    ``denoms_before`` the q at block_end - 1 and block_end. ``prime`` is
    denoms_after[1], the residue-class prime, denoms_after[2] is
    base**exponent, and ``digit_bound`` = exponent: p3 / base**k has k
    base digits. ``mode`` is a :class:`Mode`'s kind.
    """

    __slots__ = ()


class ConstructionAborted(RuntimeError):
    """A block could not be completed; partial results are attached."""

    def __init__(self, cause: Exception, failed_block: int,
                 digits: list[int], certificates: list[BlockCertificate]):
        super().__init__(
            f"block {failed_block} failed: {cause}")
        self.cause = cause
        self.failed_block = failed_block
        self.digits = digits
        self.certificates = certificates


class ConstructedNumber:
    """A digit stream with insertions applied, plus its block certificates.

    Digits beyond the final planned block continue the raw seed stream;
    ``prefix`` extends the cached digits on demand. Removing the
    insertion positions from any prefix recovers the seed's own digits
    in order.
    """

    def __init__(self, config: ConstructionConfig, source,
                 digits: list[int], certificates: Sequence[BlockCertificate]):
        self.config = config
        self.certificates = tuple(certificates)
        self._source = source
        self._digits = list(digits)
        self._built = len(self._digits)

    @property
    def insertion_positions(self) -> tuple[int, ...]:
        """Stream indices of the inserted digits: four after each block end."""
        return tuple(position for cert in self.certificates
                     for position in range(cert.block_end + 1,
                                           cert.block_end + 5))

    @property
    def digits_through_blocks(self) -> list[int]:
        return self._digits[:self._built]

    def prefix(self, n: int) -> list[int]:
        if n < 0:
            raise ValueError(f"prefix length must be >= 0, got {n}")
        if len(self._digits) < n:
            self._digits.extend(self._source.next_digits(n - len(self._digits)))
        return self._digits[:n]


def construct(config: ConstructionConfig, source) -> ConstructedNumber:
    """Run the full pipeline: B blocks of seed digits, four insertions each.

    Deterministic for a given config and seed source. On a failed block
    the work completed so far is preserved inside
    :class:`ConstructionAborted`.
    """
    digits: list[int] = []
    certificates: list[BlockCertificate] = []
    q_prev, q_cur = 0, 1

    def emit(d: int) -> None:
        nonlocal q_prev, q_cur
        digits.append(d)
        q_prev, q_cur = q_cur, d * q_cur + q_prev

    for i in range(1, config.blocks + 1):
        base = base_schedule(i)
        try:
            boundary = block_boundary(config.block_size, i)
            block = source.next_digits(boundary - len(digits))
            if certificates:
                # The previous tail enters the recurrence only now.
                q_prev, q_cur = q_cur, digits[-1] * q_cur + q_prev
            for d in block:
                emit(d)
            if len(digits) != boundary:
                raise InputFormatError(
                    f"seed source gave {len(digits)} digits where block {i} "
                    f"ends at {boundary}")
            plan = plan_block(q_prev, q_cur, base, config.budget)
            tail = tail_digit(plan.exponent, base, config.mode,
                              max_bits=config.budget.tail_bits)
        except (SearchExhausted, ResourceBudgetExceeded, InputFormatError) as exc:
            raise ConstructionAborted(exc, i, digits, certificates) from exc
        before = (q_prev, q_cur)
        for d in (plan.ell1, plan.ell2, plan.ell3):
            emit(d)
        if (q_prev, q_cur) != (plan.q2, plan.q3):
            raise RuntimeError(f"block {i}: the emitted digits do not "
                               "reproduce the planned denominators")
        digits.append(tail)
        certificates.append(BlockCertificate(
            index=i, base=base, block_end=boundary,
            inserted=(plan.ell1, plan.ell2, plan.ell3, tail),
            denoms_before=before,
            denoms_after=(plan.q1, plan.q2, plan.q3),
            prime=plan.q2, exponent=plan.exponent,
            digit_bound=plan.exponent,
            mode=config.mode.kind))
    return ConstructedNumber(config, source, digits, certificates)


class CheckResult(namedtuple("CheckResult", "name passed required detail",
                             defaults=("",))):
    """One named check; ``passed`` is None where it does not apply at this
    scale or mode."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "index checks")):
    """The :class:`CheckResult` ``checks`` of block ``index``."""

    __slots__ = ()

    @property
    def tail_bound_met(self) -> bool:
        return any(c.name == "tail_bound" and c.passed for c in self.checks)

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
                       sample_window: int = 10_000,
                       budget: SearchBudget = DEFAULT_BUDGET
                       ) -> VerificationReport:
    """Recheck every certificate claim from the digit stream alone.

    Recomputes the convergents around the block, re-runs the
    number-theoretic conditions, and gathers the abnormality evidence:
    the parity of the convergent index, the exact gap bound from the
    tail digit, and agreement of the stream's base digits (pinched
    between cylinder endpoints) with the convergent's repeating-tail
    expansion. ``sample_window`` caps the digit comparison length. A
    prime whose discrete-log table ``plan_block`` would refuse under
    ``budget`` fails ``primitive_root`` before q2 - 1 is factored.

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
    of p3/q3 are ceil(p3*B/q3) - 1 = c - (e == 0), written with s digits.

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

    def report() -> VerificationReport:
        return VerificationReport(index=i, checks=tuple(checks))

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
    add("block_layout", block_size >= 2 and block_size % 2 == 0,
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
    try:  # plan_block's table rule sizes q2 before any test of it
        nt.baby_step_entries(q2, budget.bsgs_entries)
        q2_prime = nt.is_prime(q2)
        add("prime", q2_prime and q2 == cert.prime, brief(q2))
        if not q2_prime:  # is_primitive_root tests p again when it fails
            raise ValueError(f"{brief(q2)} is not prime")
        add("primitive_root", nt.is_primitive_root(base, q2),
            f"{base} generates mod {brief(q2)}")
    except (ResourceBudgetExceeded, ValueError) as exc:
        if checks[-1].name != "prime":  # q2 was refused before its test
            add("prime", False, f"could not certify: {exc}")
        add("primitive_root", False, f"could not certify: {exc}")

    k = cert.exponent
    # q3 == base**k, for any claimed k, with no power formed.
    add("power_hit", nt.pow_exceeds(base, k, q3, or_equal=True)
        and not nt.pow_exceeds(base, k, q3),
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
        return report()

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
    r_digits = digits_of_int(c - (e == 0), base, span)  # ceil(p3*B/q3) - 1
    add("radix_window_match", y_digits == r_digits[:agreed],
        f"stream digits match the convergent's repeating-tail expansion "
        f"through all {agreed} pinched places (window {span})")

    if agreed >= tail_span:
        differing = sum(1 for d in y_digits[:tail_span] if d != base - 1)
        add("window_differing_bound", differing <= cert.digit_bound,
            f"{differing} of the first {tail_span} digits differ from "
            f"{base - 1} (bound {brief(cert.digit_bound)})")
    else:
        add("window_differing_bound", None,
            f"only {agreed} digits pinned; the {tail_span}-digit window "
            "needs a larger tail", required=False)

    return report()
