"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Criterion 3 is marked xfail: multi-block runs are impossible at
any scale because each block's power-hit exponent is a discrete
logarithm, making the next block's numbers exponentially larger. The
test attempts the run faithfully and records the failure instead of
weakening the check.
"""

import json
import math
import time
from fractions import Fraction

import pytest
import sympy

from abnormal_forge.cf import convergent_stream
from abnormal_forge.cli import main
from abnormal_forge.construction import (ConstructionAborted,
                                         ConstructionConfig, Mode,
                                         SearchBudget, construct,
                                         verify_certificate)
from abnormal_forge.nt import (corollary_hypotheses, discrete_log,
                               is_perfect_square, is_primitive_root)
from abnormal_forge.radix import (NON_TERMINATING, base_expansion,
                                  cf_normality_report)
from abnormal_forge.seed import RngDigitSource
from paper_reference import (approx_bound, cf_to_rational, convergent_sign,
                             insertion_density, kronecker_symbol,
                             lenstra_finiteness)


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nCRITERION {number}: {status} ({detail})")


def test_criterion_1_worked_block_reproduction(tmp_path, capsys):
    """Seed [1,2,3,1], one block, base 2: exact numbers, verify exit 0, < 1 s."""
    started = time.time()
    seed = tmp_path / "demo.cf"
    seed.write_text("1\n2\n3\n1\n", encoding="utf-8")
    digits = tmp_path / "y.cf"
    cert_path = tmp_path / "y.json"
    assert main(["construct", "--seed-file", str(seed), "--block-size", "4",
                 "--blocks", "1", "--mode", "paper",
                 "--out-digits", str(digits), "--out-cert", str(cert_path)]) == 0
    verify_code = main(["verify", "--cert", str(cert_path),
                        "--digits", str(digits)])
    capsys.readouterr()
    assert verify_code == 0

    payload = json.loads(cert_path.read_text())
    block = payload["blocks"][0]
    assert [int(v) for v in block["inserted"][:3]] == [1, 2, 555]
    assert int(block["inserted"][3]) == 2**225 + 1
    assert [int(v) for v in block["denoms_after"]] == [23, 59, 32768]
    assert int(block["exponent"]) == 15
    assert 32768 == 2**15
    elapsed = time.time() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        _report(1, True, f"{elapsed:.2f}s, inserts 1/2/555/2^225+1")


# Deterministic pool: seeds 1, 2, 3, ... with block sizes alternating
# between 4 and 6. Runs whose paper-mode tail digit would exceed the
# stated bit budget are skipped through the construction's own resource
# mechanism; the first twenty that fit are the sample under test.
TAIL_BUDGET_BITS = 1 << 25


def test_criterion_2_power_property_across_seeds(capsys):
    """20 paper-mode runs from a fixed seed pool: exact power + all invariants."""
    started = time.time()
    budget = SearchBudget(tail_bits=TAIL_BUDGET_BITS)
    completed = 0
    skipped = 0
    seed = 0
    while completed < 20:
        seed += 1
        assert seed <= 60, "seed pool exhausted unexpectedly"
        block_size = 4 if seed % 2 else 6
        config = ConstructionConfig(block_size=block_size, blocks=1,
                                    mode=Mode.parse("paper"), budget=budget)
        try:
            number = construct(config, RngDigitSource(seed))
        except ConstructionAborted as aborted:
            assert aborted.failed_block == 1
            skipped += 1
            continue
        cert = number.certificates[0]
        q1, q2, q3 = cert.denoms_after
        # Exact pure-power check plus every certificate invariant.
        assert cert.base == 2 and q3 == 1 << cert.exponent
        assert cert.digit_bound == cert.exponent
        report = verify_certificate(cert, number.digits_through_blocks,
                                    sample_window=2_000)
        assert report.passed, (seed, [c.name for c in report.failures])
        assert report.tail_bound_met
        completed += 1
    elapsed = time.time() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        _report(2, True,
                f"{elapsed:.1f}s, 20 runs verified, {skipped} skipped by "
                f"tail budget of {TAIL_BUDGET_BITS} bits")


@pytest.mark.xfail(
    strict=True, raises=pytest.fail.Exception,
    reason="Multi-block runs are unattainable at any scale: the power-hit "
           "exponent is a discrete log (essentially uniform below the "
           "block's prime), so block 2 works modulo numbers with as many "
           "bits as block 1's prime has as a value. Its discrete-log table "
           "and group-order factorization are astronomically out of reach, "
           "and the next block's exponent could not even be represented.")
def test_criterion_3_multi_block_structural_run(capsys):
    """Seed rng 42, three toy blocks: schedule 2,2,3, structural certificates."""
    started = time.time()
    config = ConstructionConfig(
        block_size=4, blocks=3, mode=Mode.parse("toy"),
        budget=SearchBudget(bsgs_entries=1 << 22, tail_bits=1 << 25))
    try:
        number = construct(config, RngDigitSource(42))
    except ConstructionAborted as aborted:
        with capsys.disabled():
            _report(3, False,
                    f"block {aborted.failed_block} aborted after "
                    f"{time.time() - started:.1f}s: {aborted.cause}")
        pytest.fail(f"criterion unattainable: {aborted}")
    assert [c.base for c in number.certificates] == [2, 2, 3]
    for cert in number.certificates:
        report = verify_certificate(cert, number.digits_through_blocks)
        assert report.passed
    with capsys.disabled():
        _report(3, True, f"{time.time() - started:.1f}s")


def test_criterion_4_abnormality_evidence(worked_number, capsys):
    """Worked block: parity, exact gap inequality, repeating tail, digit window."""
    started = time.time()
    cert = worked_number.certificates[0]
    digits = worked_number.digits_through_blocks
    tail = cert.inserted[3]

    # (a) parity: the index after the third insertion is odd, so every
    # continuation sits below that convergent.
    n3 = cert.block_end + 3
    assert n3 == 7 and n3 % 2 == 1
    assert convergent_sign(n3) == -1
    convs = {c.index: c for c in convergent_stream(digits)}
    r = Fraction(convs[7].p, convs[7].q)
    e1 = Fraction(convs[8].p, convs[8].q)
    e2 = Fraction(convs[8].p + convs[7].p, convs[8].q + convs[7].q)
    assert max(e1, e2) < r

    # (b) exact rational gap bound: |y - r| <= 1/(tail * q7^2) < 2^-225.
    bound = approx_bound(convs[7].q, tail)
    assert r - e1 <= bound and r - e2 <= bound
    assert bound < Fraction(1, 2**225)

    # (c) the non-terminating expansion of 23/32768 (and of the actual
    # convergent 22771/32768) has digits 16..225 all equal to 1.
    assert (convs[7].p, convs[7].q) == (22771, 32768)
    for numerator in (23, convs[7].p):
        expansion = base_expansion(Fraction(numerator, 32768), 2, 225,
                                   NON_TERMINATING)
        assert set(expansion[15:]) == {1}

    # (d) stream digits pinched between cylinder endpoints: at least 225
    # places are determined within the first 10^4, and at most 15 of the
    # first 225 differ from digit 1.
    window = 10_000
    lo, hi = min(e1, e2), max(e1, e2)
    lo_digits = base_expansion(lo, 2, window)
    hi_digits = base_expansion(hi, 2, window)
    agreed = 0
    for a, b in zip(lo_digits, hi_digits):
        if a != b:
            break
        agreed += 1
    assert agreed >= 225
    differing = sum(1 for d in lo_digits[:225] if d != 1)
    assert differing <= 15
    elapsed = time.time() - started
    assert elapsed < 60.0
    with capsys.disabled():
        _report(4, True,
                f"{elapsed:.2f}s, {agreed} digits pinned, {differing} of "
                f"first 225 differ from 1")


def test_criterion_5_cf_statistics_preserved(capsys):
    """10^6 sampled seed digits through the toy pipeline keep Gauss statistics."""
    started = time.time()
    n = 10**6
    config = ConstructionConfig(block_size=4, blocks=1, mode=Mode.parse("toy"))
    number = construct(config, RngDigitSource(42))
    digits = number.prefix(n)

    targets = {
        (1,): math.log2(4 / 3),
        (2,): math.log2(9 / 8),
        (1, 1): math.log2(10 / 9),
    }
    report = cf_normality_report(digits, [list(p) for p in targets], n)
    worst = 0.0
    for stats in report:
        expected = targets[stats.pattern]
        assert abs(float(stats.reference) - expected) < 1e-9
        discrepancy = float(stats.discrepancy)
        worst = max(worst, discrepancy)
        assert discrepancy < 0.01, (stats.pattern, discrepancy)

    density = insertion_density(number.insertion_positions, n, 4)
    assert density.within_bound
    assert density.inserted == 4
    elapsed = time.time() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        _report(5, True,
                f"{elapsed:.1f}s, worst discrepancy {worst:.5f}, "
                f"{density.inserted} insertions <= bound {density.bound}")


def test_criterion_6_number_theory_oracles(capsys):
    """Discrete log vs exhaustive powers, Kronecker vs Euler, primitive roots
    vs brute-force orders, finiteness-vs-hypotheses sweep: zero mismatches."""
    started = time.perf_counter()

    # Discrete log against exhaustive enumeration: every generator pair
    # with p < 1000 and every exponent.
    dlog_calls = 0
    for p in sympy.primerange(3, 1000):
        for g in range(2, p):
            if not is_primitive_root(g, p):
                continue
            h = 1
            for k in range(p - 1):
                assert discrete_log(g, h, p,
                                    max_table_entries=1 << 24) == k, (g, h, p)
                h = h * g % p
                dlog_calls += 1

    # Kronecker symbol against the Euler criterion for odd primes < 500.
    for p in sympy.primerange(3, 500):
        for d in range(-50, 51):
            euler = pow(d % p, (p - 1) // 2, p)
            expected = 0 if d % p == 0 else (1 if euler == 1 else -1)
            assert kronecker_symbol(d, p) == expected, (d, p)

    # Primitive-root test against brute-force order computation, p < 500.
    for p in sympy.primerange(500):
        for g in range(1, p):
            order, e = 1, g % p
            while e != 1:
                e = e * g % p
                order += 1
            assert is_primitive_root(g, p) == (order == p - 1), (g, p)

    # Finiteness test never fires where the sufficient hypotheses hold.
    sweep = 0
    for g in range(2, 31):
        if is_perfect_square(g):
            continue
        for f in range(1, 51):
            for a in range(1, f):
                if math.gcd(a, f) != 1:
                    continue
                if corollary_hypotheses(g, f, a):
                    assert not lenstra_finiteness(g, f, a).finite, (g, f, a)
                    sweep += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        _report(6, True,
                f"{elapsed:.1f}s, {dlog_calls} dlog checks, {sweep} "
                f"finiteness sweeps, zero mismatches")


def test_criterion_7_approximation_inequality(capsys):
    """10^4 random finite expansions: gap bound and parity sign at every index."""
    started = time.time()
    import random
    rng = random.Random(20260810)
    checked = 0
    for _ in range(10**4):
        n = rng.randint(2, 30)
        digits = [rng.randint(1, 1000) for _ in range(n)]
        x = cf_to_rational(digits)
        for conv in convergent_stream(digits):
            if conv.index == n:
                break
            gap = x - Fraction(conv.p, conv.q)
            assert gap != 0
            assert (1 if gap > 0 else -1) == convergent_sign(conv.index)
            assert abs(gap) <= approx_bound(conv.q, digits[conv.index])
            checked += 1
    elapsed = time.time() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    with capsys.disabled():
        _report(7, True, f"{elapsed:.1f}s, {checked} index checks")
