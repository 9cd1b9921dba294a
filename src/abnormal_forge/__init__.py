"""abnormal-forge: continued fractions with base-power convergent denominators.

Given a stream of seed partial quotients, the construction inserts four
chosen digits after each scheduled block so that the convergent
denominator three steps past the block is an exact power of a scheduled
base, then pads with a tail digit large enough to pin a long window of
the number's base-b digits at b-1. Partial-quotient statistics survive
(the insertions are logarithmically sparse); base-digit statistics are
provably skewed. Every block ships a certificate checkable from the
digit stream alone.
"""

__version__ = "0.1.0"
