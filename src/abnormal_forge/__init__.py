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

from .cf import (Convergent, CylinderInterval, approx_bound, cf_to_rational,
                 convergent_sign, convergent_stream, cylinder_interval,
                 gauss_measure, log2_fixed, rational_to_cf)
from .construction import (BlockCertificate, BlockPlan, CheckResult,
                           ConstructedNumber, ConstructionAborted,
                           ConstructionConfig, InsertionDensity, Mode,
                           SearchBudget, VerificationReport, base_schedule,
                           block_boundary, construct, insertion_density,
                           plan_block, pure_power_exponent, seed_block,
                           tail_digit, verify_certificate)
from .errors import (InfeasibleError, InputFormatError,
                     ResourceBudgetExceeded, SearchExhausted)
from .nt import (ArtinPrime, FactoredInteger, LenstraVerdict,
                 coprimizing_multiplier, corollary_hypotheses, discrete_log,
                 factorize, field_discriminant, find_artin_prime, is_prime,
                 is_primitive_root, kronecker_symbol, lift_exponent,
                 squarefree_kernel)
from .radix import (BaseDigits, DigitStats, RunStats, base_expansion,
                    cf_normality_report, count_occurrences, max_run)
from .seed import (FileDigitSource, ListDigitSource, RngDigitSource,
                   SplitMix64, conditional_digit, digit_from_unit)
