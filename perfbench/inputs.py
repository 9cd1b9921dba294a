"""Workload inputs chosen by rule from the workload seed.

Every workload seed ``n`` maps to a seed offset ``1 + 1000 * (n - 1)``;
the default seed 1 starts at sampler seed 1. Paper-mode workloads pick,
for each size band, the first sampler seed at or after the offset whose
paper tail (``k**2`` bits for base 2, where ``k`` is ``plan_block``'s
power exponent) lies in the band. Bands are narrow (+-3% around a
centre) so that every workload seed gives about the same amount of work.

The exponent is predicted with ``plan_block``'s own steps (coprimizing
multiplier, Artin prime, discrete log, lift) but without materializing
``base**k`` and without constructing, so a seed with an astronomically
large exponent costs nothing here.

The functions run in a helper child (``child.py reference``); run.py
imports this module only for its constants, so abnormal_forge is
imported lazily and the parent process stays small.
"""

from __future__ import annotations

import math

BAND_WIDTH = 0.03
SCAN_LIMIT = 50_000
# Baby-step table cap for the prediction. A prime above 2**32 gives an
# exponent far above every band except with probability below 1e-5.
PREDICT_TABLE = 1 << 16

# Paper-tail band centres in bits: the tails of sampler seeds 1, 11, 15,
# 9 and 36, so that workload seed 1 selects exactly those seeds.
CLI_PAPER_BANDS = (18_225, 85_264, 205_209, 597_529, 1_452_025)
# Tails of sampler seeds 2, 13, 5, 12 and 7 (verified with a 2000-place
# window under a 2**25-bit budget), then seed 19 at the default budget.
LIB_PAPER_POOL_BANDS = (1_849, 57_121, 2_085_136, 4_418_404, 15_429_184)
LIB_PAPER_HEAVY_BAND = 51_696_100

WORKED_SEED = (1, 2, 3, 1)
CF_STREAM_DIGITS = 1_000_000
CF_STREAM_PATTERNS = "1;2;1,1;1,2,1"
SCREEN_SEEDS = 1000
SCREEN_TAIL_BITS = 1 << 25


def seed_offset(workload_seed: int) -> int:
    return 1 + 1000 * (workload_seed - 1)


def stream_seed(workload_seed: int) -> int:
    """cf-stream's sampler seed: 42 for the default workload seed."""
    return 41 + workload_seed


def block_size(sampler_seed: int) -> int:
    """Criterion-2 block sizes: 4 for odd sampler seeds, 6 for even."""
    return 4 if sampler_seed % 2 else 6


def predict_power(sampler_seed: int) -> tuple[int, int] | None:
    """(prime, exponent) that block 1 of a base-2 paper run would use.

    None when the prediction hits the search or table caps.
    """
    from abnormal_forge import nt
    from abnormal_forge.errors import ResourceBudgetExceeded, SearchExhausted
    from abnormal_forge.seed import RngDigitSource
    digits = RngDigitSource(sampler_seed).next_digits(block_size(sampler_seed))
    q_prev, q_cur = 0, 1
    for d in digits:
        q_prev, q_cur = q_cur, d * q_cur + q_prev
    try:
        ell1 = nt.coprimizing_multiplier(q_cur, q_prev, 2 * (q_cur - 1))
        q1 = ell1 * q_cur + q_prev
        prime = nt.find_artin_prime(2, q1, q_cur % q1).prime
        k0 = nt.discrete_log(2, q1 % prime, prime,
                             max_table_entries=PREDICT_TABLE)
    except (SearchExhausted, ResourceBudgetExceeded, ValueError):
        return None
    return prime, nt.lift_exponent(2, prime, k0, 2 * prime)


def band_seeds(offset: int, centres) -> list[dict]:
    """First sampler seed >= offset whose paper tail lies in each band."""
    chosen: list[dict | None] = [None] * len(centres)
    seed = offset
    while None in chosen:
        if seed >= offset + SCAN_LIMIT:
            raise RuntimeError(f"no seed in {SCAN_LIMIT} fills every band")
        predicted = predict_power(seed)
        if predicted is not None:
            prime, k = predicted
            for i, centre in enumerate(centres):
                if chosen[i] is None and abs(k * k - centre) <= BAND_WIDTH * centre:
                    chosen[i] = {"seed": seed, "block_size": block_size(seed),
                                 "prime": prime, "exponent": k}
        seed += 1
    return chosen


def cli_paper(workload_seed: int) -> dict:
    """Band seeds plus the library's own certificate values for each."""
    from abnormal_forge import construction
    from abnormal_forge.seed import RngDigitSource
    picks = band_seeds(seed_offset(workload_seed), CLI_PAPER_BANDS)
    paper = construction.Mode.parse("paper")
    for pick in picks:
        config = construction.ConstructionConfig(
            block_size=pick["block_size"], blocks=1, mode=paper)
        cert = construction.construct(
            config, RngDigitSource(pick["seed"])).certificates[0]
        pick["library"] = {"prime": cert.prime, "exponent": cert.exponent,
                           "tail_hex": hex(cert.inserted[3])}
    return {"picks": picks}


def lib_paper(workload_seed: int) -> dict:
    picks = band_seeds(seed_offset(workload_seed),
                       LIB_PAPER_POOL_BANDS + (LIB_PAPER_HEAVY_BAND,))
    return {"worked": list(WORKED_SEED), "pool": picks[:-1],
            "heavy": picks[-1], "pool_tail_bits": SCREEN_TAIL_BITS,
            "pool_window": 2000, "heavy_window": 10_000}


def seed_screen(workload_seed: int) -> dict:
    """The seed range, minus seeds whose exponent alone exceeds the budget.

    For those, plan_block would materialize base**k (k > the tail budget
    in bits) before any budget check; that defect is probed by cli-paper,
    not timed here.
    """
    offset = seed_offset(workload_seed)
    seeds, excluded = [], []
    for s in range(offset, offset + SCREEN_SEEDS):
        predicted = predict_power(s)
        if predicted is None or predicted[1] > SCREEN_TAIL_BITS:
            excluded.append(s)
        else:
            seeds.append(s)
    return {"first_seed": offset, "seeds": seeds, "excluded": excluded,
            "tail_bits": SCREEN_TAIL_BITS}


def cf_stream(workload_seed: int, digits_path: str | None = None) -> dict:
    """Reference pattern counts, and whether the digit file holds the stream.

    The expected stream is the sampler's digits with block 1's four
    insertions after the first four.
    """
    from abnormal_forge import construction
    from abnormal_forge.seed import RngDigitSource
    sampler_seed = stream_seed(workload_seed)
    total = CF_STREAM_DIGITS
    sampled = RngDigitSource(sampler_seed).next_digits(total)
    config = construction.ConstructionConfig(
        block_size=4, blocks=1, mode=construction.Mode.parse("toy"))
    inserted = construction.construct(
        config, RngDigitSource(sampler_seed)).certificates[0].inserted
    stream = sampled[:4] + list(inserted) + sampled[4:total - 4]
    del sampled
    on_file = None
    if digits_path is not None:
        with open(digits_path, encoding="utf-8") as fh:
            on_file = [int(line) for line in fh
                       if line.strip() and not line.startswith("#")]
    counts = [
        [[1], stream.count(1)],
        [[2], stream.count(2)],
        [[1, 1], sum(1 for a, b in zip(stream, stream[1:])
                     if a == 1 and b == 1)],
        [[1, 2, 1], sum(1 for a, b, c in zip(stream, stream[1:], stream[2:])
                        if a == 1 and b == 2 and c == 1)],
    ]
    return {"inserted": list(inserted), "counts": counts,
            "references": [[pattern, gauss_measure(pattern)]
                           for pattern, _count in counts],
            "file_matches": on_file == stream}


def gauss_measure(pattern) -> float:
    """Gauss measure of the cylinder of numbers whose expansion starts with pattern.

    In floating point, independently of the library's fixed-point code:
    the cylinder's endpoints are p_k/q_k and (p_k + p_{k-1})/(q_k + q_{k-1}).
    """
    p_prev, p, q_prev, q = 1, 0, 0, 1
    for a in pattern:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    x, y = p / q, (p + p_prev) / (q + q_prev)
    return abs(math.log2((1 + x) / (1 + y)))


REFERENCES = {"cli-paper": cli_paper, "lib-paper": lib_paper,
              "seed-screen": seed_screen, "cf-stream": cf_stream}
