"""Seed digit sources: a Gauss-measure sampler, a digit list and a digit file.

The sampler stands in for a statistically typical partial-quotient
stream. Independent draws from the single-digit law would get pair
frequencies wrong (consecutive partial quotients are dependent), so the
stream is the stationary Markov chain matching the Gauss measure on
digit pairs: the invariance of the measure under the shift makes every
single-digit AND two-digit window frequency exact in expectation.

The stream is specified exactly so any implementation reproduces the
same digits from the same seed ("splitmix64-gauss-markov-v1"):

* PRNG: splitmix64 (Steele-Lea-Vigier), 64-bit state, golden-gamma
  increment; zero outputs are rejected, so each draw U lies in
  [1, 2**64 - 1] and encodes the uniform u = U / 2**64 in (0, 1).
* Each Gauss measure is ``cf.gauss_measure_fixed``: log2((1 + hi)/(1 + lo))
  by ``log2_fixed``, the deterministic truncating square-and-extract loop
  with 64 fractional bits (48 guard bits).
* First digit: the largest k >= 1 with U <= T(k), where T(m) is the
  measure of (0, 1/m). This inverts u = log2(1 + x) and applies
  floor(1/x), entirely in integers.
* Later digits, given the previous digit j: the largest k >= 1 with
  U * M(j) <= W(j, k) << 64, where M(j) is the fixed-point measure of
  the one-digit cylinder of j and W(j, m) the measure of its
  sub-interval on which the next digit is >= m, i.e. the interval from
  m/(j*m + 1) to 1/j. (W(j, 1) = M(j), so k >= 1 always.)
* Digits are clamped to ``DIGIT_CAP`` (10**6) so that astronomically
  rare huge digits cannot bloat downstream convergents; the Markov state
  is the clamped digit.

Floating point appears only as a starting guess for the threshold walk;
the exact integer comparisons decide every digit.
"""

from __future__ import annotations

import functools
import io
import math

from .cf import gauss_measure_fixed
from .errors import InputFormatError
from .formats import parse_digit_file

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

SAMPLER_VERSION = "splitmix64-gauss-markov-v1"
DIGIT_CAP = 10**6


class SplitMix64:
    """The splitmix64 generator; 64-bit outputs."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> int:
        """Non-zero 64-bit draw: u = value / 2**64 lies in (0, 1)."""
        u = self.next_u64()
        while u == 0:
            u = self.next_u64()
        return u


@functools.lru_cache(maxsize=1 << 20)
def _threshold(m: int) -> int:
    """Marginal CDF boundary T(m): the measure of (0, 1/m), log2(1 + 1/m)."""
    return gauss_measure_fixed(0, 1, 1, m)


@functools.lru_cache(maxsize=1 << 20)
def _tail_weight(j: int, m: int) -> int:
    """Fixed-point measure of the part of j's cylinder with next digit >= m."""
    return gauss_measure_fixed(m, j * m + 1, 1, j)


def digit_from_unit(u_fixed: int) -> int:
    """Map a fixed-point uniform draw (u = u_fixed / 2**64, 0 < u < 1) to a digit.

    Implements k = floor(1/(2**u - 1)) clamped to [1, DIGIT_CAP]: the
    inverse Gauss-measure CDF followed by the first-digit map.
    """
    if not 0 < u_fixed < 1 << 64:
        raise ValueError("u_fixed must lie strictly between 0 and 2**64")
    u = u_fixed / 2.0**64
    x = 2.0**u - 1.0
    guess = int(1.0 / x) if x > 0 else DIGIT_CAP
    k = max(1, min(guess, DIGIT_CAP))
    while k < DIGIT_CAP and u_fixed <= _threshold(k + 1):
        k += 1
    while k > 1 and u_fixed > _threshold(k):
        k -= 1
    return k


def conditional_digit(u_fixed: int, prev: int) -> int:
    """Next digit given the previous one, under the exact Gauss pair law."""
    if not 0 < u_fixed < 1 << 64:
        raise ValueError("u_fixed must lie strictly between 0 and 2**64")
    if prev < 1:
        raise ValueError("previous digit must be >= 1")
    measure = _tail_weight(prev, 1)  # W(j, 1) = M(j)
    scaled = u_fixed * measure
    # Float starting guess: invert the conditional CDF in the tail variable.
    q = u_fixed / 2.0**64
    lo = math.log2((prev + 2.0) / (prev + 1.0))
    hi = math.log2((prev + 1.0) / prev)
    target = hi - q * (hi - lo)  # log2(1 + x) at the conditional quantile
    ratio = 2.0**target
    tail = 1.0 / (ratio - 1.0) - prev if ratio > 1.0 else 0.0
    guess = int(1.0 / tail) if tail > 0 else DIGIT_CAP
    k = max(1, min(guess, DIGIT_CAP))
    while k < DIGIT_CAP and scaled <= _tail_weight(prev, k + 1) << 64:
        k += 1
    while k > 1 and scaled > _tail_weight(prev, k) << 64:
        k -= 1
    return k


class RngDigitSource:
    """Reproducible stationary stream of partial quotients.

    The first digit follows the single-digit marginal; every later digit
    follows the exact conditional law given its predecessor.
    """

    def __init__(self, seed: int):
        # SplitMix64 keeps 64 bits, so any other seed would alias one in range.
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        self.seed = seed
        self._rng = SplitMix64(seed)
        self._state: int | None = None

    def next_digits(self, count: int) -> list[int]:
        out = []
        state = self._state
        rng = self._rng
        for _ in range(count):
            if state is None:
                state = digit_from_unit(rng.next_unit())
            else:
                state = conditional_digit(rng.next_unit(), state)
            out.append(state)
        self._state = state
        return out

    def descriptor(self) -> dict:
        return {"kind": "rng", "algorithm": SAMPLER_VERSION,
                "seed": str(self.seed), "digit_cap": DIGIT_CAP}


class ListDigitSource:
    """In-memory digit source, mainly for tests and library use."""

    _name = "digit list"

    def __init__(self, digits):
        self._digits = list(digits)
        if any(d < 1 for d in self._digits):
            raise ValueError("partial quotients must be >= 1")
        self.position = 0

    def __len__(self) -> int:
        return len(self._digits)

    def next_digits(self, count: int) -> list[int]:
        if self.position + count > len(self._digits):
            raise InputFormatError(
                f"{self._name} exhausted: needed {count} more digits at "
                f"position {self.position}, only "
                f"{len(self._digits) - self.position} remain")
        out = self._digits[self.position:self.position + count]
        self.position += count
        return out


class FileDigitSource(ListDigitSource):
    """Seed digits from a digit file, read once and parsed as read_digit_file
    parses it (universal newlines); ``sha256`` hashes the bytes read."""

    def __init__(self, path):
        import hashlib
        self.path = str(path)
        self._name = f"digit file {self.path}"
        with open(path, "rb") as fh:
            data = fh.read()
        self._sha256 = hashlib.sha256(data).hexdigest()
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        # parse_digit_file checks every digit and builds a fresh list, so it
        # is kept as is: ListDigitSource.__init__ would copy it.
        self._digits = parse_digit_file(text)[0]
        self.position = 0

    def descriptor(self) -> dict:
        return {"kind": "file", "path": self.path, "sha256": self._sha256}
